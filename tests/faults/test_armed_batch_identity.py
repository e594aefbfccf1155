"""Batch ≡ scalar identity for ``access_batch`` under an armed fault plan.

``DtlController.access_batch`` stays vectorised while a plan is armed:
only the SMC lookup of an access where a corruption fires runs scalar,
and CXL and ECC fires come from the plan's counter arithmetic.  These tests drive a
scalar controller and a batch controller, each armed with its own
injector for the same random plan, through the same traffic and assert
that per-access results, injector counters and reports, controller
state and trace counts all match.  The traffic writes into in-flight
migrations and walks channels through self-refresh entry and wake.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import DtlController
from repro.dram.power import PowerState
from repro.errors import PowerStateError
from repro.faults import (CxlLinkFault, EccFault, FaultInjector, FaultPlan,
                          PowerExitFault, SmcCorruptionFault)
from repro.faults.hooks import HookPoint

from tests.core.test_batch_identity import (assert_results_match,
                                            assert_state_match, build_pair,
                                            random_trace, run_scalar,
                                            small_config)
from tests.core.test_fallback_seams import submit_migrations

#: Short windows and profiling threshold, so a few rounds of traffic
#: enter self-refresh and wake victim ranks again.
CONFIG = small_config(window_ns=1000.0, profiling_threshold_ns=5000.0)
#: Wide enough to leave cold segments on every rank: the victim ranks
#: keep data, and stray accesses to it wake them.
NUM_AUS = 20
ROUND_ACCESSES = 128
ROUND_NS = 10_000.0


@st.composite
def schedules(draw) -> dict:
    start = draw(st.integers(0, 40))
    return dict(
        start=start,
        period=draw(st.sampled_from([1, 2, 3, 7, 29, 97])),
        stop=draw(st.one_of(st.just(0), st.integers(start + 1, start + 600))),
        max_fires=draw(st.sampled_from([0, 0, 1, 4, 25])))


@st.composite
def access_path_spec(draw):
    kind = draw(st.sampled_from(["cxl", "ecc", "smc", "exit"]))
    schedule = draw(schedules())
    if kind == "cxl":
        return CxlLinkFault(kind=draw(st.sampled_from(["error", "stall"])),
                            retries=draw(st.integers(1, 3)),
                            stall_ns=draw(st.sampled_from([0.5, 400.0])),
                            **schedule)
    if kind == "ecc":
        return EccFault(channel=draw(st.integers(-1, 1)),
                        rank=draw(st.integers(-1, 3)),
                        bits=draw(st.integers(1, 2)), **schedule)
    if kind == "smc":
        return SmcCorruptionFault(**schedule)
    return PowerExitFault(target=draw(st.sampled_from(["sr", "mpsm"])),
                          kind=draw(st.sampled_from(["delay", "fail"])),
                          delay_ns=draw(st.sampled_from([0.1, 1200.0])),
                          failures=draw(st.integers(1, 3)), **schedule)


plans = st.lists(access_path_spec(), min_size=1, max_size=5).map(
    lambda specs: FaultPlan(name="armed", specs=tuple(specs)))


def armed_pair(plan: FaultPlan, migrations: bool,
               ) -> tuple[DtlController, DtlController]:
    scalar, batch = build_pair(CONFIG, num_aus=NUM_AUS)
    for controller in (scalar, batch):
        controller.arm_faults(FaultInjector(
            plan, registry=controller.metrics, trace=controller.trace))
        if migrations:
            submit_migrations(controller)
    return scalar, batch


def drive(scalar: DtlController, batch: DtlController, seed: int,
          batch_size: int, rounds: int) -> None:
    """Rounds of traffic, then the timers; results compared per round."""
    for round_index in range(rounds):
        hpas, writes = random_trace(CONFIG, ROUND_ACCESSES,
                                    seed * 1000 + round_index, NUM_AUS)
        now_ns = round_index * ROUND_NS
        scalar_results = run_scalar(scalar, hpas, writes, now_ns=now_ns)
        for i in range(0, ROUND_ACCESSES, batch_size):
            batch_result = batch.access_batch(
                0, hpas[i:i + batch_size], writes[i:i + batch_size],
                now_ns=now_ns)
            assert_results_match(scalar_results[i:i + batch_size],
                                 batch_result)
        for controller in (scalar, batch):
            controller.tick(now_ns + ROUND_NS)
            controller.end_window()


def assert_fault_state_match(scalar: DtlController,
                             batch: DtlController) -> None:
    assert_state_match(scalar, batch)
    assert scalar._faults.state_dict() == batch._faults.state_dict()
    assert (scalar._faults.report().to_dict()
            == batch._faults.report().to_dict())
    s_counters = scalar.metrics.counter_values()
    b_counters = batch.metrics.counter_values()
    assert s_counters.keys() == b_counters.keys()
    for name, value in s_counters.items():
        if isinstance(value, int):
            assert value == b_counters[name], name
        else:
            assert np.isclose(value, b_counters[name], rtol=1e-9), name
    s_hists = scalar.metrics.histogram_values()
    b_hists = batch.metrics.histogram_values()
    assert s_hists.keys() == b_hists.keys()
    for name, hist in s_hists.items():
        assert hist["count"] == b_hists[name]["count"], name
        assert hist["buckets"] == b_hists[name]["buckets"], name


@settings(max_examples=25, deadline=None)
@given(plan=plans, seed=st.integers(0, 2**16),
       batch_size=st.sampled_from([5, 32, 128]), migrations=st.booleans())
def test_armed_batch_matches_scalar(plan, seed, batch_size, migrations):
    scalar, batch = armed_pair(plan, migrations)
    drive(scalar, batch, seed, batch_size, rounds=12)
    assert_fault_state_match(scalar, batch)


def test_dense_plan_exercises_every_access_hook():
    """A dense fixed plan over the same traffic: every access-path hook
    fires, SR exits happen, and identity holds."""
    plan = FaultPlan(name="dense", specs=(
        CxlLinkFault(start=3, period=17, retries=2, backoff_ns=40.0),
        CxlLinkFault(start=5, period=17, kind="stall", stall_ns=400.0),
        EccFault(start=1, period=13, bits=1),
        EccFault(period=5, channel=1, rank=0, bits=2, max_fires=40),
        SmcCorruptionFault(start=7, period=41),
        PowerExitFault(target="sr", period=2, kind="fail", delay_ns=1200.0,
                       failures=2),
    ))
    scalar, batch = armed_pair(plan, migrations=True)
    drive(scalar, batch, seed=3, batch_size=128, rounds=24)
    assert_fault_state_match(scalar, batch)
    injector = batch._faults
    for point in (HookPoint.CXL_ACCESS, HookPoint.DRAM_ACCESS,
                  HookPoint.SMC_LOOKUP, HookPoint.SR_EXIT):
        assert injector.injected(point) > 0, point


def test_smc_corruption_every_access_cuts_every_access():
    """Period 1: every access is a cut, so every lookup runs scalar."""
    plan = FaultPlan(name="every", specs=(SmcCorruptionFault(),
                                          CxlLinkFault(period=3)))
    scalar, batch = armed_pair(plan, migrations=False)
    drive(scalar, batch, seed=1, batch_size=128, rounds=3)
    assert_fault_state_match(scalar, batch)
    assert batch._faults.injected(HookPoint.SMC_LOOKUP) == 3 * ROUND_ACCESSES


def test_raising_batch_keeps_error_and_rank_counts():
    """A batch touching an MPSM rank under an armed plan.

    The contract for a raising batch is unchanged by the fault plan: the
    batch raises the same ``PowerStateError`` as the scalar loop and the
    per-rank access counts agree.  Injector counters are *not* part of
    that contract, just as translation state is not: the batch accounts
    the cxl.access and dram.access hooks only after its accesses apply.
    """
    plan = FaultPlan(name="raise", specs=(CxlLinkFault(period=3),
                                          EccFault(period=2),
                                          SmcCorruptionFault(start=4,
                                                             period=9)))
    scalar, batch = armed_pair(plan, migrations=False)
    live = scalar.tables.live_dsns()
    target = live[0]
    channel = scalar.device_layout.channel_of_dsn(target)
    rank = scalar.device_layout.rank_of_dsn(target)
    safe = [scalar.tables.hsn_of_dsn(dsn) for dsn in live
            if scalar.device_layout.channel_of_dsn(dsn) == channel
            and scalar.device_layout.rank_of_dsn(dsn) != rank][:6]
    for controller in (scalar, batch):
        controller.device.set_rank_state((channel, rank), PowerState.MPSM,
                                         0.0)
    seg = CONFIG.geometry.segment_bytes
    hsns = safe + [scalar.tables.hsn_of_dsn(target)] + safe
    hpas = np.array([hsn * seg for hsn in hsns], dtype=np.int64)
    writes = np.zeros(len(hpas), dtype=bool)
    with pytest.raises(PowerStateError):
        run_scalar(scalar, hpas, writes)
    with pytest.raises(PowerStateError):
        batch.access_batch(0, hpas, writes)
    assert ({rank_id: r.access_count
             for rank_id, r in scalar.device.ranks.items()}
            == {rank_id: r.access_count
                for rank_id, r in batch.device.ranks.items()})
