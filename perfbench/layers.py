"""Which functions the traced run wraps, and the per-layer metrics.

:data:`PER_LAYER` is the one list of per-layer metric names and units;
``BENCHMARK.json`` carries the same list, and every traced run reports
every entry (0 where a layer does not run on that workload).

Busy times, self times, call counts and tallies are totals over the
traced passes divided by the number of traced passes, so a run's length
does not move them.  A pass is the workload's fixed unit of work: 16
access batches per tenant (plus churn on serve-chaos), or one figure
tree.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from typing import Any

from perfbench.spans import Span, SpanRecorder, self_times
from perfbench.stats import tail_percentile

#: Fault hook names, as ``FaultInjector.report().injected`` keys them.
FAULT_HOOKS = ("cxl.access", "smc.lookup", "dram.access",
               "migration.copy", "power.mpsm_exit", "sr.exit")

#: The figure-tree subcommands ``repro all`` runs, in order.
CLI_COMMANDS = ("fig1", "fig2", "fig5", "fig12", "fig14", "fig15",
                "tables", "stats")

#: Root span names: one per client request, one per figure tree.
REQUEST_ROOT = "client.request"
PASS_ROOT = "figures.pass"

_PER_PASS_S = "s/pass"
_PER_PASS = "count/pass"

PER_LAYER: list[tuple[str, str]] = [
    ("server.protocol.decode_line.busy_s", _PER_PASS_S),
    ("server.protocol.encode.busy_s", _PER_PASS_S),
    ("server.protocol.bytes_per_request", "B/request"),
    ("server.server.handle_request.self_s", _PER_PASS_S),
    ("server.server.handle_request.calls", _PER_PASS),
    ("server.admission.busy_s", _PER_PASS_S),
    ("server.admission.rejected", _PER_PASS),
    ("server.shards.queue_wait_s.p50", "s"),
    ("server.shards.queue_wait_s.p99", "s"),
    ("server.shards.apply_access_batch.self_s", _PER_PASS_S),
    ("server.shards.apply_free.self_s", _PER_PASS_S),
    ("server.shards.apply_allocate.self_s", _PER_PASS_S),
    ("core.controller.access_batch.replay_s", _PER_PASS_S),
    ("core.controller.access_batch.replay_accesses", _PER_PASS),
    ("core.controller.access_batch.vector_s", _PER_PASS_S),
    ("core.controller.access_batch.vector_accesses", _PER_PASS),
    ("core.controller.pump_migrations.calls", _PER_PASS),
    ("core.controller.pump_migrations.busy_s", _PER_PASS_S),
    ("core.controller.allocate_vm.busy_s", _PER_PASS_S),
    ("core.controller.deallocate_vm.busy_s", _PER_PASS_S),
    ("core.controller.tick.busy_s", _PER_PASS_S),
    ("core.translation.translate_hsn_batch.busy_s", _PER_PASS_S),
    ("core.segment_cache.lookups", _PER_PASS),
    ("core.segment_cache.l1_hit_ratio", "ratio"),
    ("core.segment_cache.l2_hit_ratio", "ratio"),
    ("core.migration.step_channel.calls", _PER_PASS),
    ("core.migration.step_channel.lines", _PER_PASS),
    ("core.migration.lines_per_call", "ratio"),
    ("core.migration.step_channel.busy_s", _PER_PASS_S),
    ("core.migration.aborts", _PER_PASS),
    ("core.power_down.maybe_power_down.busy_s", _PER_PASS_S),
    ("core.power_down.consolidated_segments", _PER_PASS),
    ("core.self_refresh.on_access_batch.busy_s", _PER_PASS_S),
    ("core.self_refresh.on_batch.busy_s", _PER_PASS_S),
    ("core.checker.audit.calls", _PER_PASS),
    ("core.checker.audit.busy_s", _PER_PASS_S),
    *((f"faults.injected.{hook}", _PER_PASS) for hook in FAULT_HOOKS),
    ("telemetry.accesses", _PER_PASS),
    ("telemetry.trace_events_per_access", "ratio"),
    ("sim.powerdown_sim.advance.busy_s", _PER_PASS_S),
    ("sim.selfrefresh_sim.begin.busy_s", _PER_PASS_S),
    ("sim.selfrefresh_sim.advance.busy_s", _PER_PASS_S),
    ("workloads.azure.generate_vm_trace.busy_s", _PER_PASS_S),
    ("exec.run_experiments.busy_s", _PER_PASS_S),
    ("exec.cache_hits", _PER_PASS),
    *((f"cli.cmd_{command}.busy_s", _PER_PASS_S)
      for command in CLI_COMMANDS),
    ("trace.passes", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.request_self_sum_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
]

#: Modules that bind ``generate_vm_trace`` by name.
_VM_TRACE_IMPORTERS = ("repro.workloads.azure", "repro.workloads",
                       "repro.cli", "repro.sim.powerdown_sim",
                       "repro.sim.figures")


def _faults_active(controller: Any, *_: Any) -> bool:
    faults = getattr(controller, "_faults", None)
    return faults is not None and bool(faults.active)


def _access_batch_name(controller: Any, *_: Any) -> str:
    path = "replay" if _faults_active(controller) else "vector"
    return f"core.controller.access_batch.{path}"


def _consolidated(policy: Any, *_: Any) -> float:
    counter = getattr(policy, "_consolidated_segments", None)
    return float(counter.value) if counter is not None else 0.0


def install(recorder: SpanRecorder) -> list[str]:
    """Wrap every layer boundary; returns the names that could not be
    wrapped (the function no longer exists)."""
    mod = importlib.import_module
    server = mod("repro.server.server")
    shards = mod("repro.server.shards")
    admission = mod("repro.server.admission")
    controller = mod("repro.core.controller").DtlController
    cli = mod("repro.cli")
    missing: list[str] = []

    def wrap(owner: Any, attribute: str, name: str, **options: Any) -> None:
        if not recorder.wrap(owner, attribute, name, **options):
            missing.append(name)

    if not recorder.patch(server, "decode_line", lambda fn: recorder
                          .wrap_decode("server.protocol.decode_line", fn,
                                       "server.protocol.bytes")):
        missing.append("server.protocol.decode_line")
    wrap(server, "encode", "server.protocol.encode",
         after=lambda frame, *args, **kwargs: recorder.tally(
             "server.protocol.bytes", len(frame)))
    wrap(server.DtlServer, "handle_request", "server.server.handle_request")
    for method in ("admit_open", "admit_request", "admit_reservation",
                   "reserve", "release"):
        wrap(admission.AdmissionController, method,
             f"server.admission.{method}")
    if not recorder.patch(shards.ControllerShard, "submit", lambda fn:
                          recorder.wrap_submit("server.shards.submit", fn)):
        missing.append("server.shards.submit")
    for method in ("apply_access_batch", "apply_free", "apply_allocate"):
        wrap(shards.ControllerShard, method, f"server.shards.{method}")

    wrap(controller, "access_batch", "core.controller.access_batch",
         naming=_access_batch_name,
         after=lambda result, controller, *args, **kwargs: recorder.tally(
             _access_batch_name(controller) + ".accesses",
             len(result.latency_ns)))
    for method in ("pump_migrations", "allocate_vm", "deallocate_vm",
                   "tick"):
        wrap(controller, method, f"core.controller.{method}")
    wrap(mod("repro.core.translation").TranslationEngine,
         "translate_hsn_batch", "core.translation.translate_hsn_batch")
    migration = mod("repro.core.migration").MigrationEngine
    wrap(migration, "step_channel", "core.migration.step_channel",
         after=lambda copied, *args, **kwargs: recorder.tally(
             "core.migration.step_channel.lines", copied))
    wrap(migration, "_abort", "core.migration.abort")
    wrap(mod("repro.core.power_down").RankPowerDownPolicy,
         "maybe_power_down", "core.power_down.maybe_power_down",
         delta=("core.power_down.consolidated_segments", _consolidated))
    self_refresh = mod("repro.core.self_refresh").HotnessSelfRefreshPolicy
    for method in ("on_access_batch", "on_batch"):
        wrap(self_refresh, method, f"core.self_refresh.{method}")
    wrap(mod("repro.core.checker").ConsistencyChecker, "audit",
         "core.checker.audit")

    wrap(mod("repro.sim.powerdown_sim").PowerDownSimulator, "advance",
         "sim.powerdown_sim.advance")
    selfrefresh = mod("repro.sim.selfrefresh_sim").SelfRefreshSimulator
    for method in ("begin", "advance"):
        wrap(selfrefresh, method, f"sim.selfrefresh_sim.{method}")
    for module in _VM_TRACE_IMPORTERS:
        wrap(mod(module), "generate_vm_trace",
             "workloads.azure.generate_vm_trace")
    wrap(cli, "run_experiments", "exec.run_experiments")
    for command in CLI_COMMANDS:
        wrap(cli, f"cmd_{command}", f"cli.cmd_{command}")
    return sorted(set(missing))


def span_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy (inclusive) and self seconds."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for span in spans:
        entry = totals[span.name]
        entry["calls"] += 1
        entry["busy_s"] += span.duration / 1e9
        entry["self_s"] += own[span.span_id] / 1e9
    return dict(totals)


def request_paths(spans: list[Span]) -> dict[str, float]:
    """How the self times along each request path add up.

    For every root span (a client request or a figure tree) the self
    times of all spans carrying its request id are summed and compared
    with the root's wall time.  Also counts spans that stick out of
    their parent, which would make the sum meaningless.
    """
    own = self_times(spans)
    by_id = {span.span_id: span for span in spans}
    roots = {span.request: span for span in spans
             if span.parent is None and span.request is not None
             and span.name in (REQUEST_ROOT, PASS_ROOT)}
    self_sum = {request: 0 for request in roots}
    escaped = 0
    for span in spans:
        if span.request in self_sum:
            self_sum[span.request] += own[span.span_id]
        parent = by_id.get(span.parent) if span.parent is not None \
            else None
        if parent is not None and (span.start < parent.start
                                   or span.end > parent.end):
            escaped += 1
    wall = sum(root.duration for root in roots.values())
    root_self = sum(own[root.span_id] for root in roots.values())
    return {
        "requests": len(roots),
        "wall_s": wall / 1e9,
        "self_sum_s": sum(self_sum.values()) / 1e9,
        "self_sum_ratio": sum(self_sum.values()) / wall if wall else 0.0,
        "unattributed_share": root_self / wall if wall else 0.0,
        "escaped_spans": escaped,
    }


def overhead_ratio(untraced: list[float], traced: list[float]) -> float:
    """Median traced pass wall over median untraced pass wall.

    The first untraced pass is left out when there are others: it pays
    one-time work (serve-chaos: the first frees drain the consolidation
    copies the empty device starts; figures: lazy imports), which the
    traced passes, coming later, never see.
    """
    steady = untraced[1:] or untraced
    return statistics.median(traced) / statistics.median(steady)


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``, 0 when the base is empty."""
    return numerator / base if base else 0.0


def layer_metrics(recorder: SpanRecorder, passes: int,
                  counts: dict[str, float], overhead: float,
                  ) -> tuple[dict[str, float], dict[str, Any]]:
    """Every :data:`PER_LAYER` value, plus the raw material behind them.

    ``counts`` holds the program-counted values the workload read from
    the program's own telemetry over the traced passes (totals, not per
    pass): ``smc.l1.hits``, ``smc.l1.misses``, ``smc.l2.hits``,
    ``smc.l2.misses``, ``accesses``, ``trace_events``,
    ``admission_rejected``, ``cache_hits`` and ``faults.<hook>``.
    """
    totals = span_totals(recorder.spans)
    tallies = recorder.tallies
    paths = request_paths(recorder.spans)

    def per_pass(value: float) -> float:
        return value / passes

    def busy(name: str) -> float:
        return per_pass(totals.get(name, {}).get("busy_s", 0.0))

    def own(name: str) -> float:
        return per_pass(totals.get(name, {}).get("self_s", 0.0))

    def calls(name: str) -> float:
        return per_pass(totals.get(name, {}).get("calls", 0))

    def busy_prefix(prefix: str) -> float:
        return per_pass(sum(entry["busy_s"] for name, entry
                            in totals.items() if name.startswith(prefix)))

    waits = [wait / 1e9 for wait in recorder.queue_waits]
    wait_q, wait_tail, wait_note = (tail_percentile(waits) if waits
                                    else (99.0, 0.0, ""))
    handled = totals.get("server.server.handle_request", {}).get("calls", 0)
    step_calls = totals.get("core.migration.step_channel", {}) \
        .get("calls", 0)
    step_lines = tallies.get("core.migration.step_channel.lines", 0.0)
    l1_lookups = counts.get("smc.l1.hits", 0) + counts.get("smc.l1.misses", 0)
    l2_lookups = counts.get("smc.l2.hits", 0) + counts.get("smc.l2.misses", 0)
    values: dict[str, float] = {
        "server.protocol.decode_line.busy_s":
            busy("server.protocol.decode_line"),
        "server.protocol.encode.busy_s": busy("server.protocol.encode"),
        "server.protocol.bytes_per_request": ratio(
            tallies.get("server.protocol.bytes", 0.0), handled),
        "server.server.handle_request.self_s":
            own("server.server.handle_request"),
        "server.server.handle_request.calls":
            calls("server.server.handle_request"),
        "server.admission.busy_s": busy_prefix("server.admission."),
        "server.admission.rejected": per_pass(
            counts.get("admission_rejected", 0)),
        "server.shards.queue_wait_s.p50": (
            tail_percentile(waits, 50.0)[1] if waits else 0.0),
        "server.shards.queue_wait_s.p99": wait_tail,
        "server.shards.apply_access_batch.self_s":
            own("server.shards.apply_access_batch"),
        "server.shards.apply_free.self_s": own("server.shards.apply_free"),
        "server.shards.apply_allocate.self_s":
            own("server.shards.apply_allocate"),
        "core.controller.access_batch.replay_s":
            busy("core.controller.access_batch.replay"),
        "core.controller.access_batch.replay_accesses": per_pass(
            tallies.get("core.controller.access_batch.replay.accesses", 0)),
        "core.controller.access_batch.vector_s":
            busy("core.controller.access_batch.vector"),
        "core.controller.access_batch.vector_accesses": per_pass(
            tallies.get("core.controller.access_batch.vector.accesses", 0)),
        "core.controller.pump_migrations.calls":
            calls("core.controller.pump_migrations"),
        "core.controller.pump_migrations.busy_s":
            busy("core.controller.pump_migrations"),
        "core.controller.allocate_vm.busy_s":
            busy("core.controller.allocate_vm"),
        "core.controller.deallocate_vm.busy_s":
            busy("core.controller.deallocate_vm"),
        "core.controller.tick.busy_s": busy("core.controller.tick"),
        "core.translation.translate_hsn_batch.busy_s":
            busy("core.translation.translate_hsn_batch"),
        "core.segment_cache.lookups": per_pass(l1_lookups),
        "core.segment_cache.l1_hit_ratio": ratio(
            counts.get("smc.l1.hits", 0), l1_lookups),
        "core.segment_cache.l2_hit_ratio": ratio(
            counts.get("smc.l2.hits", 0), l2_lookups),
        "core.migration.step_channel.calls": per_pass(step_calls),
        "core.migration.step_channel.lines": per_pass(step_lines),
        "core.migration.lines_per_call": ratio(step_lines, step_calls),
        "core.migration.step_channel.busy_s":
            busy("core.migration.step_channel"),
        "core.migration.aborts": calls("core.migration.abort"),
        "core.power_down.maybe_power_down.busy_s":
            busy("core.power_down.maybe_power_down"),
        "core.power_down.consolidated_segments": per_pass(
            tallies.get("core.power_down.consolidated_segments", 0.0)),
        "core.self_refresh.on_access_batch.busy_s":
            busy("core.self_refresh.on_access_batch"),
        "core.self_refresh.on_batch.busy_s":
            busy("core.self_refresh.on_batch"),
        "core.checker.audit.calls": calls("core.checker.audit"),
        "core.checker.audit.busy_s": busy("core.checker.audit"),
        **{f"faults.injected.{hook}": per_pass(counts.get(
            f"faults.{hook}", 0)) for hook in FAULT_HOOKS},
        "telemetry.accesses": per_pass(counts.get("accesses", 0)),
        "telemetry.trace_events_per_access": ratio(
            counts.get("trace_events", 0), counts.get("accesses", 0)),
        "sim.powerdown_sim.advance.busy_s":
            busy("sim.powerdown_sim.advance"),
        "sim.selfrefresh_sim.begin.busy_s":
            busy("sim.selfrefresh_sim.begin"),
        "sim.selfrefresh_sim.advance.busy_s":
            busy("sim.selfrefresh_sim.advance"),
        "workloads.azure.generate_vm_trace.busy_s":
            busy("workloads.azure.generate_vm_trace"),
        "exec.run_experiments.busy_s": busy("exec.run_experiments"),
        "exec.cache_hits": per_pass(counts.get("cache_hits", 0)),
        **{f"cli.cmd_{command}.busy_s": busy(f"cli.cmd_{command}")
           for command in CLI_COMMANDS},
        "trace.passes": float(passes),
        "trace.overhead_ratio": overhead,
        "trace.request_self_sum_ratio": paths["self_sum_ratio"],
        "trace.unattributed_share": paths["unattributed_share"],
    }
    detail = {
        "request_paths": paths,
        "queue_wait_tail": {"q": wait_q, "note": wait_note,
                            "samples": len(waits)},
        "spans": len(recorder.spans),
        "span_totals": totals,
        "tallies": dict(tallies),
        "program_counts": dict(counts),
    }
    return values, detail
