"""Shared pieces of the benchmark: pass results, the timed loop, statistics."""

from __future__ import annotations

import gc
import math
import resource
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List


class GateError(Exception):
    """A correctness gate failed: the run's numbers must not be reported."""


def gate(condition: bool, message: str) -> None:
    """Raise :class:`GateError` with *message* unless *condition* holds."""
    if not condition:
        raise GateError(message)


@dataclass
class PassResult:
    """One pass of a workload: its timings, work and failure accounting.

    ``ops`` are the units the throughput counts (completed requests, or
    checked hunt candidates); ``latencies_s`` holds one wall time per
    unit.  ``setup_s`` holds the pass's set-up steps, which line up
    across same-seed passes; ``counters`` are exact work counts that
    must repeat on every pass.
    """

    setup_s: List[float]
    wall_s: float
    ops: int
    latencies_s: List[float]
    attempted: int
    completed: int
    failed: int
    refused: int
    counters: Dict[str, int] = field(default_factory=dict)


def pass_count(seconds: float, pass_seconds: float) -> int:
    """How many passes fill about *seconds* (always at least one).

    *pass_seconds* is a workload's nominal pass time, a constant, so
    the count depends only on the arguments: every run of a seed does
    the same work and reports the same ``attempted`` and ``failed``,
    however fast the machine happens to be while it runs.
    """
    return max(1, round(seconds / pass_seconds))


def run_passes(count: int, run_pass: Callable[[], PassResult]
               ) -> List[PassResult]:
    """Run *count* whole passes.

    The previous pass's garbage is collected first, so each pass starts
    from the same heap and the peak RSS is one pass's.
    """
    passes: List[PassResult] = []
    for _ in range(count):
        gc.collect()
        passes.append(run_pass())
    return passes


def same_counters(passes: List[PassResult]) -> None:
    """Gate: every same-seed pass did exactly the same work."""
    def work(p: PassResult):
        return dict(p.counters, attempted=p.attempted, failed=p.failed,
                    refused=p.refused)

    first = work(passes[0])
    for index, other in enumerate(passes[1:], start=2):
        gate(work(other) == first,
             f"pass {index} work {work(other)} differs from pass 1 "
             f"{first}")


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile *q* (0-100) of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes: List[PassResult]) -> Dict[str, float]:
    """The end-to-end metrics of a run of untraced passes.

    Throughput and the latency percentiles are medians over the passes
    of each pass's value; set-up time is the median over the passes of
    each set-up step, summed over the steps.  On the shared 2-core
    machine the benchmark was written on, the host alternated between a
    fast state and one 1.4-1.9x slower in episodes of seconds to
    minutes.  A percentile pooled over every sample of a run takes its
    tail from the slowest passes, so one slow pass moved the pooled p99
    by the whole slow-down; a median over passes moves only when most
    of the run was slow.  Minimums were worse still (spreads of 0.2-0.4
    across seeds): they track whichever rare fast episode a run caught.
    """
    steps = {len(p.setup_s) for p in passes}
    gate(len(steps) == 1, "passes timed different set-up steps")

    def median_percentile(q: float) -> float:
        return statistics.median(percentile(sorted(p.latencies_s), q)
                                 for p in passes)

    return {
        "setup_s": sum(statistics.median(step)
                       for step in zip(*(p.setup_s for p in passes))),
        "ops_per_s": statistics.median(p.ops / p.wall_s for p in passes),
        "latency_p50_us": median_percentile(50) * 1e6,
        "latency_p99_us": median_percentile(99) * 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }
