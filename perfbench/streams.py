"""The serve workloads' request stream: a pure function of the seed.

Every tenant gets its own generator, seeded by ``(seed, tenant index)``,
so a tenant's requests do not depend on how the two clients interleave.
The stream names VMs by slot (0 = the tenant's oldest live VM), never by
the server-assigned VM id: the client maps slots to ids as responses
arrive, exactly like a host that owns its VM list.

The tenant shape is the load generator's default
(:class:`repro.server.LoadgenConfig`): 2 VMs of 2 MiB, Zipf 1.2 over the
VM's segments, 30 % stores.  Batches are 128 accesses, the size the
server's own batch path is built around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: Accesses per ``access_batch`` request.
BATCH = 128
#: Access batches per tenant per pass; the churn period on serve-chaos.
STEPS_PER_PASS = 16
#: Tenants, split evenly over the clients.
TENANTS = 8
#: Client connections (the host core count the workloads are sized for).
CLIENTS = 2


@dataclass(frozen=True)
class TenantShape:
    """What one tenant allocates and how it touches it."""

    vms: int = 2
    vm_bytes: int = 2 * 1024 * 1024
    zipf_s: float = 1.2
    write_fraction: float = 0.3


@dataclass(frozen=True)
class Access:
    """One ``access_batch`` request against the VM in ``slot``."""

    slot: int
    segments: tuple[int, ...]
    writes: tuple[bool, ...]


@dataclass(frozen=True)
class Churn:
    """Free the tenant's oldest VM, then allocate a replacement."""


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalised Zipf(s) weights over ``n`` ranks."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -s
    return weights / weights.sum()


def tenant_stream(seed: int, tenant: int, segments_per_vm: int,
                  shape: TenantShape = TenantShape(), churn: bool = True,
                  ) -> Iterator[Access | Churn]:
    """The endless op sequence of tenant ``tenant`` under ``seed``.

    Access ``k`` targets slot ``k % shape.vms``.  With ``churn`` a
    :class:`Churn` follows every :data:`STEPS_PER_PASS`-th access.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng([seed, tenant])
    weights = zipf_weights(segments_per_vm, shape.zipf_s)
    step = 0
    while True:
        segments = rng.choice(segments_per_vm, size=BATCH, p=weights)
        writes = rng.random(BATCH) < shape.write_fraction
        yield Access(slot=step % shape.vms,
                     segments=tuple(int(value) for value in segments),
                     writes=tuple(bool(value) for value in writes))
        step += 1
        if churn and step % STEPS_PER_PASS == 0:
            yield Churn()


def client_tenants(client: int) -> range:
    """The tenant indices client ``client`` round-robins over."""
    per_client = TENANTS // CLIENTS
    return range(client * per_client, (client + 1) * per_client)
