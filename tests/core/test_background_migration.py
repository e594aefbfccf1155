"""Tests for background (idle-bandwidth) consolidation migration."""

import numpy as np
import pytest

from repro.core.checker import check
from repro.core.config import DtlConfig
from repro.core.controller import DtlController
from repro.dram.geometry import DramGeometry
from repro.dram.power import PowerState
from repro.units import MIB


@pytest.fixture
def controller():
    return DtlController(DtlConfig(
        geometry=DramGeometry(channels=2, ranks_per_channel=4,
                              rank_bytes=64 * MIB),
        au_bytes=16 * MIB, enable_self_refresh=False,
        background_migration=True))


def force_consolidation(controller):
    """Create a layout where power-down must migrate live segments."""
    vm_a = controller.allocate_vm(0, 96 * MIB, now_s=0.0)
    vm_b = controller.allocate_vm(0, 96 * MIB, now_s=1.0)
    controller.deallocate_vm(vm_a, now_s=2.0)
    return vm_b


class TestDeferredPowerDown:
    def test_mpsm_waits_for_copies(self, controller):
        force_consolidation(controller)
        policy = controller.power_down
        if not policy.pending_power_downs():
            pytest.skip("this layout needed no live-segment migration")
        # Victims are fenced but still in standby, holding their data.
        pending = policy.pending_power_downs()[0]
        for rank_id in pending.victims:
            assert controller.device.ranks[rank_id].state \
                is PowerState.STANDBY
        assert controller.migration.pending_count() > 0

    def test_pump_completes_power_down(self, controller):
        force_consolidation(controller)
        policy = controller.power_down
        if not policy.pending_power_downs():
            pytest.skip("no migration needed")
        pending = policy.pending_power_downs()[0]
        # Grant bandwidth until the copies drain.
        for _ in range(10_000):
            if not policy.pending_power_downs():
                break
            controller.pump_migrations(now_s=3.0, lines=4096)
        assert not policy.pending_power_downs()
        for rank_id in pending.victims:
            assert controller.device.ranks[rank_id].state is PowerState.MPSM
        check(controller, balance_tolerance=10 ** 9)

    def test_fenced_ranks_refuse_new_allocations(self, controller):
        force_consolidation(controller)
        policy = controller.power_down
        fenced = {rank_id for pending in policy.pending_power_downs()
                  for rank_id in pending.victims}
        vm = controller.allocate_vm(1, 32 * MIB, now_s=4.0)
        for au_id in vm.au_ids:
            for offset in range(controller.host_layout.segments_per_au):
                hsn = controller.host_layout.pack_hsn(1, au_id, offset)
                dsn = controller.tables.walk(hsn).dsn
                assert controller.allocator.rank_of_dsn(dsn) not in fenced

    def test_busy_channels_stall_copies(self, controller):
        force_consolidation(controller)
        if not controller.power_down.pending_power_downs():
            pytest.skip("no migration needed")
        busy = set(range(controller.geometry.channels))
        assert controller.pump_migrations(5.0, lines=64,
                                          busy_channels=busy) == 0

    def test_foreground_writes_still_consistent(self, controller):
        vm_b = force_consolidation(controller)
        # Write to the surviving VM while copies are in flight.
        for offset in range(8):
            controller.access(0, controller.hpa_of(vm_b.au_ids[0], offset),
                              is_write=True)
        for _ in range(10_000):
            if not controller.power_down.pending_power_downs():
                break
            controller.pump_migrations(now_s=6.0, lines=4096)
        check(controller, balance_tolerance=10 ** 9)


class TestCompletionWindow:
    def test_write_during_completion_window_routes_to_new_dsn(self,
                                                              controller):
        """Regression (Section 4.2): after the last line is copied the
        request sits one pump with its completion bit set and the mapping
        update pending; a foreground write in that window must reach the
        new DSN through the *live* access path."""
        force_consolidation(controller)
        engine = controller.migration
        request = None
        for channel in range(controller.geometry.channels):
            if engine._queues[channel]:
                request = engine._queues[channel][0]
                break
        if request is None:
            pytest.skip("this layout needed no live-segment migration")
        channel = engine.channel_of(request.old_dsn)
        engine.step_channel(channel, lines=request.lines_total)
        assert request.completion
        assert engine.request_for(request.old_dsn) is request
        host_id, au_id, au_offset = controller.host_layout.unpack_hsn(
            request.hsn)
        hpa = controller.hpa_of(au_id, au_offset)
        write = controller.access(host_id, hpa, is_write=True)
        assert write.routed_to_new_dsn
        assert write.dsn == request.new_dsn
        assert engine.stats.foreground_redirects == 1
        # The next pumps retire the request and update the mapping.
        for _ in range(10_000):
            if not controller.power_down.pending_power_downs():
                break
            controller.pump_migrations(now_s=3.0, lines=4096)
        read = controller.access(host_id, hpa)
        assert read.dsn == request.new_dsn
        assert not read.routed_to_new_dsn
        check(controller, balance_tolerance=10 ** 9)


class TestSynchronousDefault:
    def test_default_mode_drains_inline(self):
        controller = DtlController(DtlConfig(
            geometry=DramGeometry(channels=2, ranks_per_channel=4,
                                  rank_bytes=64 * MIB),
            au_bytes=16 * MIB, enable_self_refresh=False))
        vm_a = controller.allocate_vm(0, 96 * MIB, now_s=0.0)
        controller.allocate_vm(0, 96 * MIB, now_s=1.0)
        controller.deallocate_vm(vm_a, now_s=2.0)
        assert controller.migration.pending_count() == 0
        assert not controller.power_down.pending_power_downs()


class TestSelfRefreshDuringPendingPowerDown:
    def test_sr_swaps_never_move_data_into_fenced_ranks(self):
        """Self-refresh entry while a power-down is still copying.

        The fenced victim ranks stay in standby until their evacuation
        drains, so the self-refresh planner sees them as ordinary target
        ranks.  Hot segments planned into them must stay put: once the
        copies drain, the ranks are parked in MPSM, which loses data.
        """
        geometry = DramGeometry(channels=2, ranks_per_channel=4,
                                rank_bytes=64 * MIB)
        controller = DtlController(DtlConfig(
            geometry=geometry, au_bytes=4 * MIB, background_migration=True,
            window_ns=1000.0, profiling_threshold_ns=5000.0))
        # One segment per channel per VM: ranks 0 and 1 fill up, rank 2
        # keeps two segments per channel, rank 3 stays empty.
        vms = [controller.allocate_vm(0, 4 * MIB) for _ in range(66)]
        for vm in vms[:2]:
            controller.deallocate_vm(vm)
        policy = controller.power_down
        pending = policy.pending_power_downs()
        assert len(pending) == 1
        fenced = set(pending[0].victims)
        assert {rank for _, rank in fenced} == {2}
        layout = controller.device_layout
        seg = geometry.segment_bytes

        def hpas_in_rank(rank: int) -> np.ndarray:
            return np.array([controller.tables.hsn_of_dsn(dsn) * seg
                             for dsn in controller.tables.live_dsns()
                             if layout.rank_of_dsn(dsn) == rank],
                            dtype=np.int64)

        # Keep rank 2 busy for one window so rank 0 is the SR victim, then
        # heat rank 0 up while profiling: its segments get planned onto
        # cold partners in ranks 1 and 2.
        warm = np.tile(hpas_in_rank(2), 4)
        controller.access_batch(0, warm, np.zeros(len(warm), dtype=bool))
        controller.end_window()
        controller.tick(100.0)
        sr = controller.self_refresh
        assert all(sr.victim_ranks(channel) == (0,) for channel in range(2))
        hot = hpas_in_rank(0)
        controller.access_batch(0, hot, np.zeros(len(hot), dtype=bool),
                                now_ns=200.0)
        planned_ranks = {(layout.channel_of_dsn(int(target)),
                          layout.rank_of_dsn(int(target)))
                         for dsn, target in enumerate(sr.planned)
                         if target != dsn}
        assert planned_ranks & fenced, "plan never targeted a fenced rank"
        controller.tick(200.0 + 6000.0)
        assert policy.pending_power_downs(), "copies drained too early"
        assert all(controller.device.ranks[(channel, 0)].state
                   is PowerState.SELF_REFRESH for channel in range(2))
        for _ in range(100):
            if not policy.pending_power_downs():
                break
            controller.pump_migrations(now_s=1.0, lines=4096)
        assert not policy.pending_power_downs()
        for rank_id in fenced:
            assert controller.device.ranks[rank_id].state is PowerState.MPSM
            assert controller.allocator.usage(rank_id).allocated == 0
        check(controller)
