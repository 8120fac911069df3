"""Workload ``hunt``: counterexample synthesis over every hunted method.

``verify.synth.hunt_method`` runs over every method in ``HUNT_METHODS``
with a 300-candidate budget and shrinking on.  One unit of work is one
checked candidate; its latency is the wall time from the start of its
check to the start of the next candidate's (the last one of a method
runs to the method's end, so the shrink of a found counterexample is
part of it).  The time a method spends before its first check is its
set-up (victim stream, adversary vocabulary, probe harness).

Why: it never touches ``service``, ``hw.cpu``, ``hw.bus`` or
``os.kernel``.  Its time goes to ``verify.incremental``,
``verify.interleave.deliver``, ``sim.journal``, ``hw.dma.engine`` and
per-harness ``sim.engine`` construction; the four broken variants also
run the shrinker and naive replay.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from common import PassResult, gate

from repro.verify.synth import search
from repro.verify.synth.shrink import is_one_minimal

BUDGET = 300
#: Deliberately broken variants; every other hunted method is hardened.
BROKEN = ("repeated3", "repeated4", "iommu_noshootdown", "capio_noepoch")
FINGERPRINT_SEED = 7
#: At seed 7: (candidate the attack is found at, shrunk core length).
FINGERPRINT = {"repeated3": (8, 3), "repeated4": (6, 4),
               "iommu_noshootdown": (23, 2), "capio_noepoch": (192, 4)}


class HuntWorkload:
    name = "hunt"
    #: Nominal pass time, which sets how many passes a run makes.
    #: About 3.4-5.1 s on the 2-core machine the benchmark was written on.
    pass_seconds = 4.5

    def __init__(self, root: str, seed: int) -> None:
        self.seed = seed
        self.config = search.HuntConfig(seed=seed, max_candidates=BUDGET,
                                        shrink=True)
        gate(set(BROKEN) <= set(search.HUNT_METHODS),
             "a broken variant is missing from HUNT_METHODS")
        #: Set by a traced run: the tracer's candidate numbering.
        self.trace_state: Dict[str, object] = {}

    def _hunt(self, method: str) -> Tuple[search.HuntReport, List[float]]:
        """Hunt one method, noting when each candidate's check starts."""
        starts: List[float] = []
        check = search.check_scenario_incremental

        def noted(*args, **kwargs):
            starts.append(time.perf_counter())
            return check(*args, **kwargs)

        search.check_scenario_incremental = noted
        try:
            report = search.hunt_method(method, self.config)
        finally:
            search.check_scenario_incremental = check
        return report, starts

    def run_pass(self) -> PassResult:
        clock = time.perf_counter
        setup: List[float] = []
        latencies: List[float] = []
        reports: List[search.HuntReport] = []
        t0 = clock()
        for method in search.HUNT_METHODS:
            if self.trace_state:
                self.trace_state["method"] = method
                self.trace_state["candidate"] = 0
            began = clock()
            report, starts = self._hunt(method)
            ended = clock()
            reports.append(report)
            gate(len(starts) == report.candidates and starts,
                 f"{method}: {report.candidates} candidates but "
                 f"{len(starts)} checks")
            setup.append(starts[0] - began)
            latencies.extend(b - a for a, b in zip(starts, starts[1:]))
            latencies.append(ended - starts[-1])
        wall = clock() - t0 - sum(setup)
        for report in reports:
            self._check(report)
        candidates = sum(r.candidates for r in reports)
        return PassResult(
            setup_s=setup, wall_s=wall,
            ops=candidates, latencies_s=latencies, attempted=candidates,
            completed=candidates, failed=0, refused=0,
            counters={
                "candidates": candidates,
                "interleavings": sum(r.interleavings for r in reports),
                "accesses_delivered": sum(r.accesses_delivered
                                          for r in reports),
                "found": sum(r.found for r in reports)})

    def _check(self, report: search.HuntReport) -> None:
        method = report.method
        if method not in BROKEN:
            gate(not report.found and report.candidates == BUDGET,
                 f"hardened {method}: {report.summary()}")
            return
        if self.seed == FINGERPRINT_SEED:
            found_at, core = FINGERPRINT[method]
            gate(report.found and report.candidates == found_at
                 and report.shrunk is not None
                 and len(report.shrunk) == core,
                 f"seed-7 {method}: {report.summary()}, expected found "
                 f"at {found_at} with a core of {core}")
        if not report.found:
            gate(report.candidates == BUDGET,
                 f"{method} stopped early without a counterexample")
            return
        gate(report.shrunk is not None, f"{method}: core not shrunk")
        victim, keys = search._victim_setup(method)
        scenario = search.compose_scenario(
            method, victim, keys, search.adversary_profile_for(method),
            list(report.adversary_stream), "gate")
        gate(is_one_minimal(scenario, report.shrunk.interleaving,
                            report.shrunk.prop),
             f"{method}: shrunk core is not a 1-minimal violation")
