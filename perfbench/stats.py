"""Summary statistics and output classification shared by every workload.

Pure functions only, so the benchmark's own tests can pin them down.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Iterable, Sequence

#: A reported tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: Percentiles tried, highest first, when p99 lacks the samples.
PERCENTILE_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q`` percentile's
    rank position."""
    return n - 1 - int((n - 1) * q / 100.0)


def tail_percentile(samples: Sequence[float], want: float = 99.0,
                    ) -> tuple[float, float, str]:
    """The highest percentile up to ``want`` with ten samples beyond it.

    Returns ``(q, value, note)``.  ``note`` is empty when ``want`` itself
    qualified; otherwise it says which percentile stands in and why.
    With too few samples for any ladder entry the median is reported.
    """
    n = len(samples)
    for q in PERCENTILE_LADDER:
        if q <= want and samples_beyond(n, q) >= MIN_BEYOND:
            note = "" if q == want else (
                f"p{want:g} has fewer than {MIN_BEYOND} samples beyond it "
                f"(n={n}); reporting p{q:g}")
            return q, percentile(samples, q), note
    return 50.0, percentile(samples, 50.0), (
        f"no percentile has {MIN_BEYOND} samples beyond it (n={n}); "
        "reporting the median")


def windowed_tail(samples: Sequence[float], want: float = 99.0,
                  window: int = 1024,
                  combine: Callable[[list[float]], float] = statistics.median,
                  ) -> tuple[float, float, str]:
    """``combine`` over consecutive ``window``-sample chunks of each
    chunk's :func:`tail_percentile`.

    With the median, a burst of host slowdown lands in a few windows
    and moves their tails, not the median window's, while each window
    still has ten samples beyond its p99 (1024 samples leave 11).  With
    the mean, a run split between a fast and a slow stretch of the host
    reports the time-weighted blend instead of flipping to whichever
    stretch is longer.  A trailing partial window is dropped; with fewer
    than ``window`` samples this is :func:`tail_percentile` over them all.
    """
    if len(samples) < window:
        return tail_percentile(samples, want)
    tails = [tail_percentile(samples[start:start + window], want)
             for start in range(0, len(samples) - window + 1, window)]
    q = min(tail[0] for tail in tails)
    value = combine([tail[1] for tail in tails])
    note = (f"{combine.__name__} of {len(tails)} windows of {window} "
            "requests")
    if q != want:
        note += f"; {tails[0][2]}"
    return q, value, note


def summary(values: Sequence[float]) -> dict[str, Any]:
    """Median, quartiles and sample count of ``values``."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def classify_response(response: Any, error_codes: Iterable[str]) -> str:
    """Sort one protocol response into ``ok``, ``failed`` or ``malformed``.

    A response is ``ok`` when it says ``"ok": true``.  A typed failure
    (``"ok": false`` and an ``error`` naming one of ``error_codes``) is a
    ``failed`` op: counted, not a broken output.  Anything else -- not a
    dict, no boolean ``ok``, an untyped or unknown error -- is
    ``malformed`` and fails the run's output check.
    """
    if not isinstance(response, dict):
        return "malformed"
    flag = response.get("ok")
    if flag is True:
        return "ok"
    if flag is False and response.get("error") in set(error_codes):
        return "failed"
    return "malformed"


def classify_outcome(outcome: Any) -> str:
    """An experiment outcome is ``ok`` when it carries no error."""
    return "ok" if getattr(outcome, "ok", False) else "failed"
