"""The serve workloads: closed-loop clients against a live ``DtlServer``.

Both workloads run 8 tenants on 2 clients; each client round-robins over
its 4 tenants and waits for every reply before sending the next request
(a host stalls on its memory batch).  The server keeps its production
``ServerConfig``; only ``serve-tcp-calm`` disarms chaos, as its name
says.

* ``serve-chaos``: in-process ``DtlServer.handle_request``, chaos armed,
  every tenant frees and reallocates one VM every 16 requests.  The
  loop is single-threaded asyncio with no timers, so the interleaving,
  and with it every response and shard fingerprint, is a pure function
  of the seed; the run checks that by replaying its first
  :data:`PREFIX_PASSES` passes.
* ``serve-tcp-calm``: the server listens on loopback inside this process
  and the two clients are two real TCP connections.  No churn: VMs are
  freed only at ``close``.

A run measures a fixed number of passes, each bracketed by host-speed
kernel samples (``calibrate.py``) taken outside its timing.  Set-up
(outside the timed window) builds and starts the server, connects the
clients and sends every tenant's ``open_tenant`` and ``allocate``.
Tear-down (also outside) sends every tenant's ``close`` after the leak
scan.  Every response of all three phases is classified.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterator

from perfbench import calibrate
from perfbench.layers import REQUEST_ROOT
from perfbench.spans import SpanRecorder
from perfbench.stats import classify_response
from perfbench.streams import (CLIENTS, STEPS_PER_PASS, TENANTS, Access,
                               Churn, TenantShape, client_tenants,
                               tenant_stream)

#: Passes replayed for the serve-chaos determinism check.  The known
#: MPSM defect fires in passes 2 and 3, so its failures fall inside.
PREFIX_PASSES = 4

#: Logical seconds each request advances its tenant's clock (drives the
#: admission token buckets deterministically, as the load generator does).
TICK_S = 0.01


@dataclass
class Tally:
    """What the clients saw."""

    attempted: int = 0
    failed: int = 0
    malformed: int = 0
    errors: Counter = field(default_factory=Counter)
    latencies_s: list[float] = field(default_factory=list)
    accesses: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {"attempted": self.attempted, "failed": self.failed,
                "malformed": self.malformed,
                "errors": {f"{op}:{code}": count for (op, code), count
                           in sorted(self.errors.items())}}


class _TcpConnection:
    """One NDJSON client connection (the client side of the protocol)."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    async def request(self, message: dict[str, Any]) -> Any:
        self.writer.write((json.dumps(message, separators=(",", ":"))
                           + "\n").encode())
        await self.writer.drain()
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


class Session:
    """One server, its clients and its tenants' live VM lists."""

    def __init__(self, seed: int, chaos: bool, tcp: bool,
                 recorder: SpanRecorder | None = None):
        self.seed = seed
        self.chaos = chaos
        self.tcp = tcp
        self.recorder = recorder
        self.tally = Tally()
        self.shape = TenantShape()
        self.timed = False
        self.server: Any = None
        self._connections: list[_TcpConnection] = []
        self._ids = itertools.count(1)
        self._names = [f"tenant-{index}" for index in range(TENANTS)]
        self._clocks = [float(index) for index in range(TENANTS)]
        self._vms: list[list[int]] = [[] for _ in range(TENANTS)]
        self._streams: list[Iterator[Access | Churn]] = []

    # -- requests ----------------------------------------------------------

    async def _send(self, client: int, tenant: int,
                    message: dict[str, Any]) -> dict[str, Any]:
        self._clocks[tenant] += TICK_S
        message["tenant"] = self._names[tenant]
        message["t"] = round(self._clocks[tenant], 9)
        message["id"] = request_id = next(self._ids)
        tracing = self.recorder is not None and self.recorder.enabled
        started = time.perf_counter()
        if tracing:
            with self.recorder.root(REQUEST_ROOT, request_id):
                response = await self._deliver(client, message)
        else:
            response = await self._deliver(client, message)
        elapsed = time.perf_counter() - started
        tally = self.tally
        tally.attempted += 1
        verdict = classify_response(response, self._error_codes)
        if verdict != "ok":
            tally.failed += 1
            tally.errors[(message["op"], response.get("error")
                          if isinstance(response, dict) else None)] += 1
            tally.malformed += verdict == "malformed"
        if self.timed:
            tally.latencies_s.append(elapsed)
            if verdict == "ok" and message["op"] == "access_batch":
                tally.accesses += len(message["segments"])
        return response if isinstance(response, dict) else {}

    async def _deliver(self, client: int, message: dict[str, Any]) -> Any:
        if self.tcp:
            return await self._connections[client].request(message)
        return await self.server.handle_request(message)

    async def _allocate(self, client: int, tenant: int) -> None:
        response = await self._send(client, tenant, {
            "op": "allocate", "bytes": self.shape.vm_bytes})
        if response.get("ok"):
            if response["segments"] != self.segments_per_vm:
                raise RuntimeError(
                    f"allocate returned {response['segments']} segments, "
                    f"expected {self.segments_per_vm}")
            self._vms[tenant].append(response["vm"])

    # -- phases ------------------------------------------------------------

    async def setup(self) -> None:
        """Build and start the server, connect, open and allocate."""
        from repro.server import DtlServer, ServerConfig
        from repro.server.protocol import MAX_LINE_BYTES, ErrorCode
        self._error_codes = frozenset(code.value for code in ErrorCode)
        config = ServerConfig() if self.chaos else ServerConfig(chaos=False)
        self.server = DtlServer(config)
        self.segments_per_vm = (self.shape.vm_bytes
                                // config.dtl.geometry.segment_bytes)
        await self.server.start(serve_tcp=self.tcp)
        if self.tcp:
            for _ in range(CLIENTS):
                reader, writer = await asyncio.open_connection(
                    config.host, self.server.port, limit=MAX_LINE_BYTES)
                self._connections.append(_TcpConnection(reader, writer))
        self._streams = [tenant_stream(self.seed, tenant,
                                       self.segments_per_vm, self.shape,
                                       churn=self.chaos)
                         for tenant in range(TENANTS)]
        await asyncio.gather(*(self._open_client(client)
                               for client in range(CLIENTS)))

    async def _open_client(self, client: int) -> None:
        for tenant in client_tenants(client):
            await self._send(client, tenant, {"op": "open_tenant"})
            for _ in range(self.shape.vms):
                await self._allocate(client, tenant)

    async def run_pass(self) -> float:
        """Every tenant's next 16 access batches (plus churn); returns the
        pass wall time.  The two clients run concurrently and meet at the
        end of the pass."""
        started = time.perf_counter()
        await asyncio.gather(*(self._client_pass(client)
                               for client in range(CLIENTS)))
        return time.perf_counter() - started

    async def _client_pass(self, client: int) -> None:
        tenants = client_tenants(client)
        for step in range(STEPS_PER_PASS):
            for tenant in tenants:
                op = next(self._streams[tenant])
                await self._access(client, tenant, op)
                if self.chaos and step == STEPS_PER_PASS - 1:
                    churn = next(self._streams[tenant])
                    if not isinstance(churn, Churn):
                        raise RuntimeError("request stream out of step")
                    await self._churn(client, tenant)

    async def _access(self, client: int, tenant: int, op: Access) -> None:
        vms = self._vms[tenant]
        if not vms:
            return
        await self._send(client, tenant, {
            "op": "access_batch", "vm": vms[op.slot % len(vms)],
            "segments": list(op.segments), "writes": list(op.writes)})

    async def _churn(self, client: int, tenant: int) -> None:
        vms = self._vms[tenant]
        if vms:
            victim = vms.pop(0)
            await self._send(client, tenant, {"op": "free", "vm": victim})
        await self._allocate(client, tenant)

    async def teardown(self) -> None:
        """Close every tenant, disconnect, drain the server."""
        async def close_client(client: int) -> None:
            for tenant in client_tenants(client):
                await self._send(client, tenant, {"op": "close"})
        await asyncio.gather(*(close_client(client)
                               for client in range(CLIENTS)))
        for connection in self._connections:
            await connection.close()
        self._connections.clear()
        await self.server.drain()
        # The server's connection handlers end once they read EOF; wait
        # for them so no task is left for the loop to cancel.
        handlers = asyncio.all_tasks() - {asyncio.current_task()}
        if handlers:
            await asyncio.wait(handlers, timeout=10)

    # -- observations ------------------------------------------------------

    def fingerprints(self) -> list[str]:
        return [shard.fingerprint() for shard in self.server.shards]

    def program_counts(self) -> dict[str, float]:
        """Program-counted totals from the server's own telemetry."""
        counts: Counter = Counter()
        for shard in self.server.shards:
            values = shard.controller.metrics.counter_values()
            for name in ("smc.l1.hits", "smc.l1.misses", "smc.l2.hits",
                         "smc.l2.misses"):
                counts[name] += values.get(name, 0)
            counts["trace_events"] += sum(
                shard.controller.trace.counts_by_kind().values())
            if shard.injector is not None:
                for hook, fired in shard.injector.report().injected.items():
                    counts[f"faults.{hook}"] += fired
        server_counts = self.server.metrics.counter_values()
        counts["accesses"] = server_counts.get("server.accesses", 0)
        counts["admission_rejected"] = sum(
            server_counts.get(f"server.rejected.{code}", 0)
            for code in ("tenant_limit", "rate_limited", "quota_exceeded"))
        return dict(counts)


def counts_delta(after: dict[str, float],
                 before: dict[str, float]) -> dict[str, float]:
    return {name: value - before.get(name, 0)
            for name, value in after.items()}


async def _drive(seed: int, passes: int, chaos: bool, tcp: bool,
                 trace: bool) -> dict[str, Any]:
    from perfbench.layers import install, layer_metrics, overhead_ratio
    recorder = SpanRecorder() if trace else None
    session = Session(seed, chaos, tcp, recorder)
    await session.setup()
    setup_done = time.monotonic()
    checks: dict[str, Any] = {}
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    pass_walls: list[float] = []
    pass_accesses: list[int] = []
    calibration: list[tuple[float, float]] = []
    latency_starts: list[int] = []
    prefix: dict[str, Any] = {}
    missing: list[str] = []
    counts_before: dict[str, float] = {}
    passes = max(passes, PREFIX_PASSES if chaos else 1, 3 if trace else 1)
    # A traced run measures its first third untraced (at least two
    # passes, so the overhead ratio can leave out the first), then wraps
    # the layers.
    traced_from = max(2, passes // 3) if trace else passes
    session.timed = True
    for index in range(passes):
        if recorder is not None and index == traced_from:
            missing = install(recorder)
            counts_before = session.program_counts()
            recorder.enabled = True
        accesses_before = session.tally.accesses
        latency_starts.append(len(session.tally.latencies_s))
        before = calibrate.sample()
        wall = await session.run_pass()
        calibration.append((before, calibrate.sample()))
        pass_walls.append(wall)
        pass_accesses.append(session.tally.accesses - accesses_before)
        (traced_walls if recorder is not None and recorder.enabled
         else untraced_walls).append(wall)
        if chaos and len(pass_walls) == PREFIX_PASSES:
            prefix = {"fingerprints": session.fingerprints(),
                      **session.tally.to_dict()}
    session.timed = False
    layer_values: dict[str, float] = {}
    layer_detail: dict[str, Any] = {}
    if recorder is not None:
        recorder.enabled = False
        recorder.uninstall()
        layer_values, layer_detail = layer_metrics(
            recorder, len(traced_walls),
            counts_delta(session.program_counts(), counts_before),
            overhead_ratio(untraced_walls, traced_walls))
        layer_detail["unwrapped"] = missing
    checks["leaks"] = session.server.leak_report()
    await session.teardown()
    violations = session.server.audit_violations()
    checks["audit_violations"] = len(violations)
    checks["audit_violation_samples"] = violations[:5]
    if chaos:
        checks["replay"] = await _replay_prefix(seed, prefix)
    return {
        "setup_done": setup_done,
        "tally": session.tally,
        "pass_walls": pass_walls,
        "pass_accesses": pass_accesses,
        "latencies_s": session.tally.latencies_s,
        "untraced_walls": untraced_walls,
        "traced_walls": traced_walls,
        "prefix": prefix,
        "checks": checks,
        "layer_values": layer_values,
        "layer_detail": layer_detail,
        "recorder": recorder,
        "unit_walls": pass_walls,
        "unit_accesses": pass_accesses,
        "unit_calibration": calibration,
        "unit_latency_starts": latency_starts,
    }


async def _replay_prefix(seed: int,
                         prefix: dict[str, Any]) -> dict[str, Any]:
    """Re-run set-up and the first :data:`PREFIX_PASSES` passes on a
    fresh server; the shard fingerprints, failure counts and error
    breakdown must match the measured run's."""
    session = Session(seed, chaos=True, tcp=False)
    await session.setup()
    for _ in range(PREFIX_PASSES):
        await session.run_pass()
    replay = {"fingerprints": session.fingerprints(),
              **session.tally.to_dict()}
    await session.teardown()
    mismatched = sorted(key for key in prefix
                        if prefix[key] != replay.get(key))
    return {"identical": not mismatched, "mismatched": mismatched}


def run(seed: int, passes: int, chaos: bool, tcp: bool,
        trace: bool) -> dict[str, Any]:
    """One measured serve run of ``passes`` passes (see the module
    docstring)."""
    return asyncio.run(_drive(seed, passes, chaos, tcp, trace))


def setup_only(seed: int, chaos: bool, tcp: bool) -> float:
    """Set up, stamp, tear down; returns the ``time.monotonic`` stamp at
    which the first timed request could have been sent."""
    async def probe() -> float:
        session = Session(seed, chaos, tcp)
        await session.setup()
        stamp = time.monotonic()
        await session.teardown()
        return stamp
    return asyncio.run(probe())


__all__ = ["Session", "Tally", "run", "setup_only"]
