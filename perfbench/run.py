"""Wall-clock benchmark of the DMA service and the checker.

Usage (from the repository root)::

    python3 perfbench/run.py --workload soak-zipf-faults --seed 7 \\
        --seconds 30 --trace 0

``--trace 0`` runs as many whole untraced passes as fill about
``--seconds`` at the workload's nominal pass time and prints the
end-to-end metrics; ``--trace 1`` runs an untraced, a traced
and another untraced pass and prints the per-layer metrics (see
``layers.py``).  Every pass is checked for correctness; a failed gate
prints ``"correct": false`` and exits 1.  The last line of standard
output is the JSON result; the lines before it are a readable summary.
See ``README.md`` for the workloads, metrics and gates.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Where traced runs write their spans (inside the checkout).
SPAN_DIR = os.path.join(ROOT, ".perfbench")

#: Traced counts that must equal the program's own counters: a wrapper
#: installed too late (after the injector bound the bus) would miss some.
CROSS_CHECKS = {"hw.bus.accesses": "bus_accesses",
                "sim.engine.events_fired": "events_fired",
                "verify.interleave.orders": "interleavings",
                "verify.incremental.accesses_delivered":
                    "accesses_delivered"}

#: glibc's mallopt parameter number for the mmap threshold.
M_MMAP_THRESHOLD = -3

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_us": "us",
         "latency_p99_us": "us", "peak_rss_mb": "MiB"}


def _import_program() -> None:
    """Import the program from this checkout's ``src`` or exit 2."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import the program: {exc}\n")
        sys.exit(2)
    source = os.path.realpath(os.path.dirname(repro.__file__))
    if not source.startswith(os.path.realpath(os.path.join(ROOT, "src"))):
        sys.stderr.write(f"perfbench: imported repro from {source}, "
                         f"not from this checkout\n")
        sys.exit(2)


def _pin_to_one_cpu() -> None:
    """Run on one CPU: the measurement is of single-core speed, and
    migrations between cores were the largest source of pass-to-pass
    noise on a 2-core machine."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _fix_allocator() -> None:
    """Keep glibc's mmap threshold at its initial 128 KiB.

    Left alone, glibc raises the threshold after large blocks are freed,
    and from then on each machine's 16 MiB simulated RAM comes from
    already-touched heap instead of fresh pages: service set-up dropped
    from ~50 ms to ~14 ms after the second pass of a run, so ``setup_s``
    depended on how many passes the run managed.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(ctypes.c_int(M_MMAP_THRESHOLD), ctypes.c_int(128 * 1024))


def _workloads():
    from hunt import HuntWorkload
    from soak import SoakWorkload
    from wire import WireWorkload

    return {w.name: w for w in (SoakWorkload, WireWorkload, HuntWorkload)}


def _per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _summary(name: str, passes, metrics: dict) -> None:
    """Readable lines, with the names each workload's metrics go by."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    refused = sum(p.refused for p in passes)
    completed = sum(p.completed for p in passes)
    samples = sum(len(p.latencies_s) for p in passes)
    print(f"# {name}: {len(passes)} pass(es), {attempted} attempted, "
          f"{completed} completed, {failed} failed, {refused} refused")
    print(f"error_rate {(failed + refused) / attempted:.6f} "
          f"(failed + refused) / attempted")
    if name == "hunt":
        orders_per_op = passes[0].counters["interleavings"] / passes[0].ops
        print(f"candidates_per_s {metrics['ops_per_s']:.3f} 1/s")
        print(f"orders_per_s {metrics['ops_per_s'] * orders_per_op:.1f} "
              f"1/s")
    else:
        print(f"req_per_s {metrics['ops_per_s']:.3f} 1/s")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {UNITS[key]}"
              + (f" (n={samples})" if key.startswith("latency") else ""))
    print("pass wall_s: " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    print(f"work per pass: {json.dumps(passes[0].counters)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    _pin_to_one_cpu()
    _fix_allocator()
    from common import (GateError, end_to_end, pass_count, run_passes,
                        same_counters)

    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads)}")
    passes = []
    try:
        workload = workloads[args.workload](ROOT, args.seed)
        if args.trace == 0:
            passes = run_passes(
                pass_count(args.seconds, workload.pass_seconds),
                workload.run_pass)
            same_counters(passes)
            metrics = end_to_end(passes)
            _summary(args.workload, passes, metrics)
            result = {k: {"value": v, "unit": UNITS[k]}
                      for k, v in metrics.items()}
        else:
            result = _traced(workload, args, passes)
    except GateError as exc:
        sys.stderr.write(f"perfbench: correctness gate failed: {exc}\n")
        print(json.dumps({
            "correct": False,
            "attempted": max(1, sum(p.attempted for p in passes)),
            "failed": sum(p.failed for p in passes), "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": result}))
    return 0


def _traced(workload, args, passes) -> dict:
    """An untraced, a traced and another untraced pass; per-layer metrics.

    The overhead compares the traced pass with the mean of the untraced
    passes around it, so neither a cold first pass nor drift in the
    machine's speed is charged to tracing.
    """
    from common import gate
    from layers import Tracer, install, per_layer_metrics

    units = _per_layer_units()

    def timed():
        gc.collect()
        t0 = time.perf_counter()
        passes.append(workload.run_pass())
        return time.perf_counter() - t0

    untraced_wall = timed()
    tracer = Tracer()
    state = install(tracer)
    workload.trace_state = state
    try:
        traced_wall = timed()
    finally:
        tracer.uninstall()
    workload.trace_state = {}
    untraced_wall = (untraced_wall + timed()) / 2
    untraced, traced, _ = passes
    for other in (traced, passes[2]):
        gate(other.counters == untraced.counters,
             f"passes did different work: {other.counters} vs "
             f"{untraced.counters}")
    work = dict(traced.counters)
    work["traced_wall_s"] = traced_wall
    work["untraced_wall_s"] = untraced_wall
    metrics = per_layer_metrics(tracer, state, work)
    for metric, counter in CROSS_CHECKS.items():
        if counter in traced.counters:
            gate(metrics[metric] == traced.counters[counter],
                 f"wrappers saw {metrics[metric]} for {metric}, the "
                 f"program counted {traced.counters[counter]} {counter}")
    gate(set(metrics) == set(units),
         f"per-layer metrics {sorted(set(metrics) ^ set(units))} do not "
         f"match BENCHMARK.json")
    os.makedirs(SPAN_DIR, exist_ok=True)
    path = os.path.join(SPAN_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    kept = tracer.dump(path)
    print(f"# traced {args.workload}: {tracer.next_id} spans, {kept} kept "
          f"in {os.path.relpath(path, ROOT)}")
    for key in sorted(metrics):
        print(f"{key} {metrics[key]:.6g} {units[key]}")
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
