"""Fault-plan schedule arithmetic and validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.faults.hooks import HookPoint
from repro.faults.plan import (CxlLinkFault, EccFault, FaultPlan, FaultSpec,
                               MigrationAbortFault, PowerExitFault,
                               SmcCorruptionFault, hook_point_of)


class TestFaultSpecSchedule:
    def test_default_fires_every_visit(self):
        spec = FaultSpec()
        assert all(spec.matches(v) for v in range(10))

    def test_start_and_period(self):
        spec = FaultSpec(start=3, period=4)
        fires = [v for v in range(20) if spec.matches(v)]
        assert fires == [3, 7, 11, 15, 19]

    def test_stop_is_exclusive(self):
        spec = FaultSpec(start=0, period=2, stop=6)
        fires = [v for v in range(12) if spec.matches(v)]
        assert fires == [0, 2, 4]

    def test_max_fires_caps(self):
        spec = FaultSpec(period=1, max_fires=3)
        assert spec.matches(5, fired=2)
        assert not spec.matches(5, fired=3)

    @pytest.mark.parametrize("kwargs", [
        {"start": -1}, {"period": 0}, {"stop": 2, "start": 5},
        {"max_fires": -1},
    ])
    def test_invalid_schedule_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultSpec(**kwargs)


def fire_offsets_by_loop(spec: FaultSpec, visit: int, count: int,
                         fired: int) -> list[int]:
    """The definition: ``matches`` on each eligible event in order."""
    offsets = []
    for offset in range(count):
        if spec.matches(visit + offset, fired):
            offsets.append(offset)
            fired += 1
    return offsets


@st.composite
def spec_schedules(draw) -> FaultSpec:
    start = draw(st.integers(0, 50))
    stop = draw(st.one_of(st.just(0), st.integers(start + 1, start + 120)))
    return FaultSpec(start=start, period=draw(st.integers(1, 20)), stop=stop,
                     max_fires=draw(st.integers(0, 8)))


class TestFireOffsets:
    @settings(max_examples=300, deadline=None)
    @given(spec=spec_schedules(), visit=st.integers(0, 200),
           count=st.integers(0, 200), fired=st.integers(0, 10))
    def test_matches_definition(self, spec, visit, count, fired):
        assert (list(spec.fire_offsets(visit, count, fired))
                == fire_offsets_by_loop(spec, visit, count, fired))

    @pytest.mark.parametrize("spec,visit,count,fired,expected", [
        # Straddles start: the first fire is start itself.
        (FaultSpec(start=10, period=4), 7, 12, 0, [3, 7, 11]),
        # Straddles stop: nothing at or after stop.
        (FaultSpec(start=0, period=3, stop=10), 5, 20, 0, [1, 4]),
        # Exhausts max_fires partway, counting earlier fires.
        (FaultSpec(period=2, max_fires=5), 0, 40, 3, [0, 2]),
        (FaultSpec(period=1, max_fires=2), 0, 9, 2, []),
        # count=0 never fires, even on a firing visit.
        (FaultSpec(), 0, 0, 0, []),
        # Mid-period visit rounds up to the next firing event.
        (FaultSpec(start=1, period=5), 3, 10, 0, [3, 8]),
    ])
    def test_edges(self, spec, visit, count, fired, expected):
        assert list(spec.fire_offsets(visit, count, fired)) == expected
        assert expected == fire_offsets_by_loop(spec, visit, count, fired)


class TestSpecValidation:
    def test_cxl_kind_checked(self):
        with pytest.raises(ConfigurationError):
            CxlLinkFault(kind="flap")
        with pytest.raises(ConfigurationError):
            CxlLinkFault(retries=0)

    def test_ecc_bits_checked(self):
        with pytest.raises(ConfigurationError):
            EccFault(bits=0)

    def test_power_exit_checked(self):
        with pytest.raises(ConfigurationError):
            PowerExitFault(target="dimm")
        with pytest.raises(ConfigurationError):
            PowerExitFault(kind="explode")
        with pytest.raises(ConfigurationError):
            PowerExitFault(failures=0)

    def test_ecc_rank_filter(self):
        spec = EccFault(channel=1, rank=2)
        assert spec.applies_to(1, 2)
        assert not spec.applies_to(0, 2)
        assert not spec.applies_to(1, 3)
        assert EccFault().applies_to(7, 7)

    def test_abort_progress_filter(self):
        spec = MigrationAbortFault(at_lines_done=5, channel=0)
        assert spec.applies_to(5, 0)
        assert not spec.applies_to(4, 0)
        assert not spec.applies_to(5, 1)

    def test_abort_is_fire_capped_by_default(self):
        # An unbounded every-visit abort would starve drain() forever.
        assert MigrationAbortFault().max_fires > 0

    def test_power_exit_penalty(self):
        assert PowerExitFault(kind="delay",
                              delay_ns=100.0).extra_penalty_ns == 100.0
        assert PowerExitFault(kind="fail", delay_ns=100.0,
                              failures=3).extra_penalty_ns == 300.0


class TestHookDispatch:
    def test_every_spec_type_maps(self):
        assert hook_point_of(CxlLinkFault()) is HookPoint.CXL_ACCESS
        assert hook_point_of(EccFault()) is HookPoint.DRAM_ACCESS
        assert hook_point_of(MigrationAbortFault()) \
            is HookPoint.MIGRATION_COPY
        assert hook_point_of(SmcCorruptionFault()) is HookPoint.SMC_LOOKUP
        assert hook_point_of(PowerExitFault(target="mpsm")) \
            is HookPoint.MPSM_EXIT
        assert hook_point_of(PowerExitFault(target="sr")) \
            is HookPoint.SR_EXIT

    def test_by_hook_groups_with_plan_indices(self):
        plan = FaultPlan(specs=(CxlLinkFault(), EccFault(),
                                CxlLinkFault(kind="stall")))
        grouped = plan.by_hook()
        assert [i for i, _ in grouped[HookPoint.CXL_ACCESS]] == [0, 2]
        assert [i for i, _ in grouped[HookPoint.DRAM_ACCESS]] == [1]
        assert grouped[HookPoint.SR_EXIT] == ()


class TestFaultPlan:
    def test_active(self):
        assert not FaultPlan().active
        assert FaultPlan(specs=(EccFault(),)).active

    def test_plan_is_hashable(self):
        plan = FaultPlan(seed=7, specs=(CxlLinkFault(), EccFault()))
        assert hash(plan) == hash(FaultPlan(seed=7, specs=(CxlLinkFault(),
                                                           EccFault())))

    def test_escalated_halves_periods(self):
        plan = FaultPlan(name="p", specs=(EccFault(period=8),
                                          CxlLinkFault(period=3)))
        harsher = plan.escalated(2)
        assert [spec.period for spec in harsher.specs] == [2, 1]
        assert harsher.name == "p@L2"

    def test_escalated_level_zero_is_identity(self):
        plan = FaultPlan(specs=(EccFault(period=8),))
        assert plan.escalated(0) is plan

    def test_escalated_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            FaultPlan().escalated(-1)
