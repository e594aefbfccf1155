"""Run one benchmark workload, or every workload several times.

One run (what ``BENCHMARK.json``'s command does)::

    python3 perfbench/run.py --workload serve-chaos --seed 1 \\
        --seconds 25 --trace 0

measures a fixed number of passes sized to take about ``--seconds``
on a 2-core host, checks the program's outputs, writes a
record with provenance and raw per-pass values to ``.perfbench/``, and
prints one JSON object as its last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  It exits 1
when an output check fails and 2 when the checkout has no ``src/repro``.

Every workload, each run in a fresh process (medians with quartiles and
sample counts across runs, then one traced run per workload)::

    python3 perfbench/run.py --runs 3
"""

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402  (the start stamp above comes first)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("serve-chaos", "serve-tcp-calm", "figures")
#: Set-ups measured per run (each in a fresh process); setup_s is their
#: median.
SETUP_PROBES = 5
#: Host-speed kernel samples taken just before each set-up probe is
#: spawned and again in the probe after its stamp; each side is their
#: median.
PROBE_CALIBRATIONS = 3
#: Seconds of ``--seconds`` per pass.  A run measures
#: ``round(seconds / PASS_BUDGET_S)`` passes: a fixed amount of work, so
#: a run's ops, and with them its failure count and share, are a pure
#: function of seed and ``--seconds``, and a faster program does the
#: same work sooner rather than more work.  The budget is the pass wall
#: on the 2-core host, so a run takes about ``--seconds``, except that
#: a run measures at least one pass: a figures pass is six whole
#: trees, about 35 s there.
PASS_BUDGET_S = {"serve-chaos": 0.75, "serve-tcp-calm": 0.3,
                 "figures": 35.0}

END_TO_END = (("accesses_per_s", "1/s"), ("p50_ms", "ms"), ("p99_ms", "ms"),
              ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC}/repro; "
                         "run from a full checkout\n")
        sys.exit(2)
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [str(SRC), str(ROOT)] + [
        entry for entry in sys.path if entry != here]


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _source_digest() -> str:
    """sha256 over every file under ``src/`` (identifies the code when
    there is no git metadata)."""
    import hashlib
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def passes_for(workload: str, seconds: float) -> int:
    """Passes one run of ``workload`` measures for ``--seconds``."""
    return max(1, round(seconds / PASS_BUDGET_S[workload]))


def _setup_probe(workload: str, seed: int) -> None:
    """Child-process body: set up, take the ready stamp, tear down, then
    time the host-speed kernel; prints both."""
    from perfbench import calibrate
    if workload == "figures":
        from perfbench import figures
        stamp = figures.setup_only(WORKDIR)
    else:
        from perfbench import serve
        stamp = serve.setup_only(seed, chaos=workload == "serve-chaos",
                                 tcp=workload == "serve-tcp-calm")
    calibration = [calibrate.sample() for _ in range(PROBE_CALIBRATIONS)]
    print(json.dumps({"ready": stamp, "calibration_s": calibration}))


def _measure_setups(workload: str,
                    seed: int) -> tuple[list[float], list[float]]:
    """Seconds from process spawn to first-timed-op readiness, measured
    in :data:`SETUP_PROBES` fresh processes (``time.monotonic`` is
    system-wide, so the child's stamp compares with the parent's).

    Returns the raw samples and the same in reference seconds, each
    scaled by the kernel times around its own probe."""
    from perfbench import calibrate
    samples = []
    scaled = []
    for _ in range(SETUP_PROBES):
        before = statistics.median(calibrate.sample()
                                   for _ in range(PROBE_CALIBRATIONS))
        spawned = time.monotonic()
        result = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if result.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {result.stderr[-2000:]}")
        probe = json.loads(result.stdout.strip().splitlines()[-1])
        samples.append(probe["ready"] - spawned)
        after = statistics.median(probe["calibration_s"])
        scaled.append(samples[-1]
                      * calibrate.unit_scales([(before, after)])[0])
    return samples, scaled


def _load_pins() -> dict:
    with (Path(__file__).resolve().parent / "pins.json").open() as handle:
        return json.load(handle)


def _timings(walls: list[float], accesses: list[float],
             latencies: list[float], setups: list[float],
             ) -> tuple[dict[str, float], float, list[str]]:
    """The timing metrics of one run from its per-unit walls and
    accesses, its latency samples and its set-up probes; also returns
    the percentile ``p99_ms`` stands for and notes on the estimators.

    Throughput and unit wall are means, so a run that is partly on a
    slow stretch of the host reports the blend.  Both percentiles are
    taken per window of consecutive requests (see
    :func:`stats.windowed_tail`) and averaged over the windows.
    """
    from perfbench.stats import summary, windowed_tail
    _, p50_s, p50_note = windowed_tail(latencies, 50.0,
                                       combine=statistics.fmean)
    tail_q, tail_s, tail_note = windowed_tail(latencies, 99.0,
                                              combine=statistics.fmean)
    notes = [f"{name}: {note}" for name, note
             in (("p50_ms", p50_note), ("p99_ms", tail_note)) if note]
    return {
        "accesses_per_s": sum(accesses) / sum(walls),
        "p50_ms": p50_s * 1e3,
        "p99_ms": tail_s * 1e3,
        "wall_s": statistics.fmean(walls),
        "setup_s": summary(setups)["median"],
    }, tail_q, notes


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    """One run; returns ``(result line, record)``."""
    from perfbench.calibrate import scale_by_unit, unit_scales
    from perfbench.stats import summary, tail_percentile
    setups, scaled_setups = (([], []) if trace
                             else _measure_setups(workload, seed))
    passes = passes_for(workload, seconds)
    checks: dict = {}
    notes: list[str] = []
    if workload == "figures":
        from perfbench import figures
        outcome = figures.run(seed, passes, trace, WORKDIR)
        attempted, failed = outcome["attempted"], outcome["failed"]
        pins = _load_pins()["figures_records_sha256"]
        digests = outcome["digests"]
        checks["records_sha256"] = digests
        checks["records_repeat"] = all(len(found) == 1
                                       for found in digests.values())
        checks["records_pinned"] = all(
            found == [pins[str(tree_seed)]]
            for tree_seed, found in digests.items()
            if str(tree_seed) in pins)
        checks["experiments_failed"] = failed
        notes.append("figures: one op is one experiment outcome; "
                     "p50_ms/p99_ms are over figure-tree wall times, wall_s "
                     "is the mean tree wall and accesses_per_s "
                     "counts the trees' datapath accesses (their stats "
                     "records)")
    else:
        from perfbench import serve
        outcome = serve.run(seed, passes, chaos=workload == "serve-chaos",
                            tcp=workload == "serve-tcp-calm", trace=trace)
        tally = outcome["tally"]
        attempted, failed = tally.attempted, tally.failed
        checks.update(outcome["checks"])
        checks["responses_typed"] = tally.malformed == 0
        checks["errors"] = tally.to_dict()["errors"]
    latencies = outcome["latencies_s"]
    unscaled: dict[str, float] = {}
    tail_q = None
    main_setup_s = outcome["setup_done"] - _STARTED
    if trace:
        paths = outcome["layer_detail"]["request_paths"]
        checks["request_path_self_sum_within_10pct"] = (
            abs(paths["self_sum_ratio"] - 1.0) <= 0.10
            and paths["escaped_spans"] == 0)
    checks["threads"] = threading.active_count()
    passed = (checks.get("request_path_self_sum_within_10pct", True)
              and checks.get("responses_typed", True)
              and not checks.get("leaks")
              and checks.get("replay", {}).get("identical", True)
              and checks.get("records_repeat", True)
              and checks.get("records_pinned", True)
              and not checks.get("experiments_failed"))
    if trace:
        metrics = outcome["layer_values"]
        from perfbench.layers import PER_LAYER
        units = dict(PER_LAYER)
    else:
        # Every timing in reference seconds, each unit of work (serve
        # pass, figure tree) scaled by the kernel times around and in it
        # (see calibrate.py); set-up probes carry their own factors.
        # The same estimators over the raw timings go to the record.
        scales = unit_scales(outcome["unit_calibration"])
        scaled_latencies = scale_by_unit(
            latencies, outcome["unit_latency_starts"], scales)
        scaled_walls = [wall * factor for wall, factor
                        in zip(outcome["unit_walls"], scales)]
        unscaled, _, _ = _timings(outcome["unit_walls"],
                                  outcome["unit_accesses"], latencies,
                                  setups)
        metrics, tail_q, timing_notes = _timings(
            scaled_walls, outcome["unit_accesses"], scaled_latencies,
            scaled_setups)
        notes.extend(timing_notes)
        metrics["peak_rss_mb"] = _peak_rss_mb()
        units = dict(END_TO_END)
    result = {
        "correct": bool(passed),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "passes": len(outcome["pass_walls"]),
        "provenance": provenance(seed),
        "result": result,
        "checks": checks,
        "notes": notes,
        "raw": {
            "pass_walls_s": outcome["pass_walls"],
            "pass_accesses": outcome["pass_accesses"],
            "untraced_pass_walls_s": outcome["untraced_walls"],
            "traced_pass_walls_s": outcome["traced_walls"],
            "setup_probes_s": setups,
            "setup_probes_reference_s": scaled_setups,
            "unit_walls_s": outcome["unit_walls"],
            "unit_calibration_s": outcome["unit_calibration"],
            "unscaled_metrics": unscaled,
            "main_setup_s": main_setup_s,
            "latency_samples": len(latencies),
            "p99_ms_reports_percentile": tail_q,
            "p99_ms_whole_run": (tail_percentile(latencies, 99.0)[1] * 1e3
                                 if latencies else None),
            "latency_ms": summary([value * 1e3 for value in latencies]),
            "failure_share": failed / attempted if attempted else 0.0,
        },
    }
    if workload == "serve-chaos":
        prefix = outcome["prefix"]
        record["raw"]["deterministic_prefix"] = {
            **prefix, "passes": serve.PREFIX_PASSES,
            "failure_share": prefix["failed"] / prefix["attempted"]}
    if trace:
        record["layers"] = outcome["layer_detail"]
        outcome["recorder"].dump(str(WORKDIR / f"spans-{workload}.jsonl"))
    return result, record


def _print_human(record: dict) -> None:
    result = record["result"]
    print(f"workload {record['workload']} seed {record['provenance']['seed']}"
          f" trace {int(record['trace'])}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<48} {entry['value']:>16.6g} {entry['unit']}")
    for note in record["notes"]:
        print(f"  note: {note}")
    checks = record["checks"]
    print("  checks: " + json.dumps(
        {key: value for key, value in checks.items()
         if key not in ("records_sha256",)}, sort_keys=True))


def single(args: argparse.Namespace) -> int:
    WORKDIR.mkdir(exist_ok=True)
    result, record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    path = WORKDIR / (f"{args.workload}-seed{args.seed}-"
                      f"trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=2, sort_keys=True,
                               default=str) + "\n")
    _print_human(record)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def orchestrate(args: argparse.Namespace) -> int:
    """Every workload ``--runs`` times untraced, then once traced, each
    run in a fresh process; prints medians with quartiles and counts."""
    from perfbench.stats import summary
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    summaries: dict = {}
    ok = True
    for workload in workloads:
        runs = []
        for trace in [0] * args.runs + [1]:
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", f"{args.seconds:g}",
                       "--trace", str(trace)]
            completed = subprocess.run(command, cwd=ROOT,
                                       capture_output=True, text=True)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                ok = False
                print(f"{workload} trace {trace}: FAILED "
                      f"(exit {completed.returncode})\n"
                      f"{completed.stdout[-2000:]}{completed.stderr[-2000:]}")
                continue
            runs.append((trace, json.loads(lines[-1])))
        untraced = [result for trace, result in runs if not trace]
        traced = [result for trace, result in runs if trace]
        entry: dict = {"runs": untraced + traced, "end_to_end": {},
                       "per_layer": traced[0]["metrics"] if traced else {}}
        print(f"\n== {workload}: {len(untraced)} untraced run(s) ==")
        for name, unit in END_TO_END:
            values = [result["metrics"][name]["value"] for result in untraced]
            if not values:
                continue
            stats = summary(values)
            entry["end_to_end"][name] = {**stats, "unit": unit,
                                         "values": values}
            print(f"  {name:<16} median {stats['median']:>12.6g} {unit:<4} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
                  f"n={stats['n']}")
        for result in untraced + traced:
            ok = ok and result["correct"]
        print("  ops: " + ", ".join(
            f"{result['failed']}/{result['attempted']} failed"
            for result in untraced))
        if traced:
            print("  traced run (per-layer, per pass):")
            for name, metric in traced[0]["metrics"].items():
                if metric["value"]:
                    print(f"    {name:<48} {metric['value']:.6g} "
                          f"{metric['unit']}")
        summaries[workload] = entry
    WORKDIR.mkdir(exist_ok=True)
    (WORKDIR / "summary.json").write_text(json.dumps(
        {"provenance": provenance(args.seed), "seconds": args.seconds,
         "workloads": summaries}, indent=2, sort_keys=True) + "\n")
    print(f"\nsummary written to {WORKDIR / 'summary.json'}; "
          f"{'all checks passed' if ok else 'A CHECK FAILED'}")
    return 0 if ok else 1


def _default_seconds() -> float:
    try:
        with (ROOT / "BENCHMARK.json").open() as handle:
            return float(json.load(handle)["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 10.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all, "
                             "orchestrated)")
    parser.add_argument("--seed", type=int, default=0,
                        help="request-stream / figure-tree seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="sizes a run: passes worth about this many "
                             "seconds on a 2-core host (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: traced per-layer "
                             "run (single-run mode only)")
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced runs per workload when "
                             "orchestrating")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    _use_checkout_source()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if args.seconds is None:
        args.seconds = _default_seconds()
    if args.trace is None:
        return orchestrate(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
