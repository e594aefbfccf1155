"""The benchmark's own tests: percentile rule, self-time arithmetic,
request-stream purity, host-speed scaling, run size and the failure
classifier.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import itertools
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calibrate  # noqa: E402
from perfbench.layers import (FAULT_HOOKS, PER_LAYER, REQUEST_ROOT,  # noqa: E402
                              install, request_paths)
from perfbench.spans import Span, SpanRecorder, covered, self_times  # noqa: E402
from perfbench.stats import (classify_outcome, classify_response,  # noqa: E402
                             percentile, samples_beyond, tail_percentile,
                             windowed_tail)
from perfbench.streams import (BATCH, STEPS_PER_PASS, Access, Churn,  # noqa: E402
                               tenant_stream)

CODES = ("internal", "rate_limited")


# -- percentile rule ---------------------------------------------------------


def test_percentile_matches_linear_interpolation():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert percentile(list(range(101)), 99.0) == 99.0


@pytest.mark.parametrize("n, q, beyond", [(1000, 99.0, 10), (999, 99.0, 10),
                                          (900, 99.0, 9), (11, 0.0, 10),
                                          (3, 50.0, 1)])
def test_samples_beyond(n, q, beyond):
    assert samples_beyond(n, q) == beyond
    ordered = list(range(n))
    assert sum(value > percentile(ordered, q) for value in ordered) == beyond


def test_p99_reported_only_with_ten_samples_beyond():
    q, value, note = tail_percentile([float(i) for i in range(1000)])
    assert (q, note) == (99.0, "")
    assert value == percentile(list(range(1000)), 99.0)


def test_p99_falls_back_to_highest_supported_percentile():
    q, _, note = tail_percentile([float(i) for i in range(500)])
    assert q == 95.0 and "reporting p95" in note
    q, _, note = tail_percentile([float(i) for i in range(30)])
    assert q == 50.0 and "reporting p50" in note


def test_too_few_samples_report_the_median_and_say_so():
    q, value, note = tail_percentile([3.0, 1.0, 2.0])
    assert (q, value) == (50.0, 2.0)
    assert "median" in note


def test_windowed_tail_is_the_median_window_p99():
    quiet = [1.0] * 1014 + [2.0] * 10
    burst = [1.0] * 900 + [50.0] * 124
    q, value, note = windowed_tail(quiet * 2 + burst)
    assert (q, value) == (99.0, percentile(quiet, 99.0))
    assert "median of 3 windows" in note
    # Fewer samples than one window: the plain rule over all of them.
    assert windowed_tail([1.0, 2.0, 3.0]) == tail_percentile([1.0, 2.0, 3.0])


# -- self-time arithmetic ----------------------------------------------------


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert covered([(2, 5), (4, 8), (9, 20)], 0, 10) == 7
    assert covered([], 0, 10) == 0


def test_self_time_is_duration_minus_child_coverage():
    spans = [Span(1, "root", 0, 100, None, 7),
             Span(2, "a", 10, 40, 1, 7),
             Span(3, "b", 50, 90, 1, 7),
             Span(4, "a.inner", 20, 30, 2, 7)]
    own = self_times(spans)
    assert own == {1: 30, 2: 20, 3: 40, 4: 10}
    assert sum(own.values()) == 100


def test_request_path_self_times_add_up_to_root_wall():
    spans = [Span(1, REQUEST_ROOT, 0, 100, None, 1),
             Span(2, "handle", 5, 95, 1, 1),
             Span(3, REQUEST_ROOT, 200, 260, None, 2),
             Span(4, "handle", 210, 270, 3, 2)]
    paths = request_paths(spans)
    assert paths["requests"] == 2
    assert paths["escaped_spans"] == 1
    assert paths["unattributed_share"] == pytest.approx((10 + 10) / 160)


def test_recorder_keeps_interleaved_requests_apart():
    recorder = SpanRecorder()

    class Layer:
        def work(self):
            return 1

        async def handle(self, delay):
            await asyncio.sleep(delay)
            return self.work()

    recorder.wrap(Layer, "work", "layer.work")
    recorder.wrap(Layer, "handle", "layer.handle")
    recorder.enabled = True

    async def client(request, delay):
        with recorder.root(REQUEST_ROOT, request):
            await Layer().handle(delay)

    async def both():
        await asyncio.gather(client(1, 0.02), client(2, 0.0))

    try:
        asyncio.run(both())
    finally:
        recorder.uninstall()
    assert Layer.work.__name__ == "work" and not hasattr(
        Layer.work, "__wrapped__")
    by_id = {span.span_id: span for span in recorder.spans}
    for span in recorder.spans:
        if span.parent is not None:
            assert by_id[span.parent].request == span.request
    paths = request_paths(recorder.spans)
    assert paths["requests"] == 2 and paths["escaped_spans"] == 0
    assert paths["self_sum_ratio"] == pytest.approx(1.0)


def test_patch_skips_missing_attributes():
    recorder = SpanRecorder()

    class Empty:
        pass

    assert not recorder.wrap(Empty, "gone", "empty.gone")


# -- request stream ----------------------------------------------------------


def _take(seed, tenant, churn=True, count=40):
    return list(itertools.islice(
        tenant_stream(seed, tenant, 16, churn=churn), count))


def test_stream_is_a_pure_function_of_seed_and_tenant():
    assert _take(3, 1) == _take(3, 1)
    assert _take(3, 1) != _take(4, 1)
    assert _take(3, 1) != _take(3, 2)


def test_stream_shape():
    ops = _take(0, 0)
    accesses = [op for op in ops if isinstance(op, Access)]
    assert isinstance(ops[STEPS_PER_PASS], Churn)
    assert all(len(op.segments) == len(op.writes) == BATCH
               for op in accesses)
    assert all(0 <= s < 16 for op in accesses for s in op.segments)
    assert [op.slot for op in accesses[:4]] == [0, 1, 0, 1]
    calm = _take(0, 0, churn=False)
    assert not any(isinstance(op, Churn) for op in calm)
    # Churn does not consume randomness: calm and churned streams carry
    # the same access batches.
    assert [op for op in calm if isinstance(op, Access)][:len(accesses)] \
        == accesses


def test_stream_rejects_negative_seeds():
    with pytest.raises(ValueError):
        next(tenant_stream(-1, 0, 16))


# -- host-speed calibration and run size ------------------------------------


def test_unit_scale_uses_the_mean_kernel_time_of_each_unit():
    ref = calibrate.REFERENCE_S
    assert calibrate.unit_scales([(ref, ref), (ref, 3 * ref),
                                  (ref, 2 * ref, 3 * ref)]) \
        == pytest.approx([1.0, 0.5, 0.5])


def test_sampler_samples_inside_the_block_and_restores_the_handler():
    import signal
    import time
    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler(0.02) as sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert sampler.samples
    assert sampler.busy_s >= sum(sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_scale_by_unit_scales_each_units_slice():
    samples = [1.0, 1.0, 1.0, 2.0, 2.0]
    assert calibrate.scale_by_unit(samples, [0, 3], [0.5, 2.0]) \
        == [0.5, 0.5, 0.5, 4.0, 4.0]
    # A unit with no samples of its own (as a pass may have none).
    assert calibrate.scale_by_unit(samples, [0, 0, 3], [9.0, 1.0, 1.0]) \
        == samples
    with pytest.raises(ValueError):
        calibrate.scale_by_unit(samples, [0], [1.0, 1.0])


def test_kernel_does_fixed_work():
    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.sample() > 0


def test_run_size_is_a_fixed_pass_count():
    from perfbench.run import PASS_BUDGET_S, WORKLOADS, passes_for
    assert set(PASS_BUDGET_S) == set(WORKLOADS)
    assert passes_for("serve-chaos", 30) == 40
    assert passes_for("serve-tcp-calm", 30) == 100
    assert passes_for("figures", 25) == 1
    assert passes_for("figures", 70) == 2


# -- failure classifier ------------------------------------------------------


@pytest.mark.parametrize("response, verdict", [
    ({"ok": True, "op": "free"}, "ok"),
    ({"ok": False, "error": "internal", "message": "boom"}, "failed"),
    ({"ok": False, "error": "rate_limited"}, "failed"),
    ({"ok": False, "error": "no_such_code"}, "malformed"),
    ({"ok": False}, "malformed"),
    ({"ok": "yes"}, "malformed"),
    ({}, "malformed"),
    ("ok", "malformed"),
    (None, "malformed"),
])
def test_failure_classifier(response, verdict):
    assert classify_response(response, CODES) == verdict


def test_outcome_classifier():
    class Outcome:
        def __init__(self, ok):
            self.ok = ok

    assert classify_outcome(Outcome(True)) == "ok"
    assert classify_outcome(Outcome(False)) == "failed"
    assert classify_outcome(object()) == "failed"


# -- layer table -------------------------------------------------------------


def test_benchmark_json_lists_every_per_layer_metric():
    import json
    with (ROOT / "BENCHMARK.json").open() as handle:
        listed = [(entry["name"], entry["unit"])
                  for entry in json.load(handle)["per_layer"]]
    assert listed == PER_LAYER


def test_fault_hook_names_match_the_program():
    from repro.faults.hooks import HookPoint
    assert set(FAULT_HOOKS) == {point.value for point in HookPoint}


def test_every_layer_boundary_is_wrapped_and_restored():
    from repro.core.controller import DtlController
    from repro.server import server
    original = (DtlController.access_batch, server.decode_line)
    recorder = SpanRecorder()
    try:
        assert install(recorder) == []
        assert DtlController.access_batch is not original[0]
        assert server.decode_line is not original[1]
    finally:
        recorder.uninstall()
    assert (DtlController.access_batch, server.decode_line) == original


def test_wrapped_layers_keep_the_program_working():
    import numpy as np

    from repro.server.server import small_dtl_config
    from repro.server.shards import ControllerShard

    recorder = SpanRecorder()
    assert install(recorder) == []
    recorder.enabled = True
    try:
        shard = ControllerShard(0, small_dtl_config())
        vm = shard.apply_allocate(0, 2 * 1024 * 1024)
        shard.apply_access_batch(vm, np.array([0, 1, 1]), np.zeros(3, int),
                                 np.array([True, False, True]))
        shard.controller.migration.step_channel(0, lines=4)
        shard.apply_free(vm)
    finally:
        recorder.uninstall()
    names = {span.name for span in recorder.spans}
    assert {"server.shards.apply_access_batch",
            "core.controller.access_batch.vector",
            "core.migration.step_channel",
            "core.controller.deallocate_vm"} <= names
    assert recorder.tallies[
        "core.controller.access_batch.vector.accesses"] == 3
