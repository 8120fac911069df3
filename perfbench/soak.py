"""Workload ``soak-zipf-faults``: the acceptance soak, faulted run only.

1,000 zipf(1.1) tenants, 60 service-seconds at 10 Hz, a 10 % Bernoulli
fault plan on the keyed method, incast every 50 ticks and a 5 % atomic /
10 % message mix: the committed ``BENCH_service.json`` configuration,
without its fault-free control replay.  The schedule comes from
``service.soak.build_schedule`` and is driven through ``DmaService``
``start``/``submit``/``advance_tick``/``shutdown``.

Why: about 980 tenants register on first sight and most exceed the 8
register contexts per shard, so they take the kernel path; the injector
sits on every bus access and telemetry windows close every 10 ticks.
Registration, faults, ``os.kernel`` and the retry loop do most of the
work here.

Latency is wall time from ``submit`` to the moment the awaiting caller
sees the completion, for every admitted request; refused (throttled)
requests resolve at once and are counted as refusals, not as samples.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from typing import Any, Dict, List, Tuple

from common import PassResult, gate

from repro.faults.plan import bernoulli_plan
from repro.service.frontend import DmaService, ServiceConfig
from repro.service.requests import (
    OUTCOME_ABORTED,
    OUTCOME_FELL_BACK,
    OUTCOME_REJECTED,
    OUTCOME_RETRIED,
    OUTCOME_WRONG_DATA,
    Request,
)
from repro.service.soak import SoakConfig, build_schedule

#: The committed soak report; at seed 7 the run must reproduce it.
BASELINE = os.path.join("benchmarks", "results", "BENCH_service.json")
FINGERPRINT_SEED = 7
#: Fingerprinted report blocks (all deterministic functions of the seed).
FINGERPRINT_KEYS = ("requests", "counters", "latency_us", "fairness",
                    "goodput_mbytes_per_s")


class SoakWorkload:
    name = "soak-zipf-faults"
    #: Nominal pass time, which sets how many passes a run makes.
    #: About 3-6 s on the 2-core machine the benchmark was written on.
    pass_seconds = 5.0

    def __init__(self, root: str, seed: int) -> None:
        self.seed = seed
        self.config = SoakConfig(tenants=1000, duration_s=60, seed=seed,
                                 fault_rate=0.1, control_run=False)
        self.schedule = build_schedule(self.config)
        self.generated = sum(len(entries) for entries in self.schedule)
        self.baseline = None
        if seed == FINGERPRINT_SEED:
            path = os.path.join(root, BASELINE)
            with open(path, encoding="utf-8") as handle:
                report = json.load(handle)
            gate(report.get("config", {}).get("tenants") == 1000
                 and report["config"].get("fault_rate") == 0.1,
                 f"{BASELINE} is not the acceptance configuration")
            self.baseline = {k: report[k] for k in FINGERPRINT_KEYS}

    def _service(self) -> DmaService:
        cfg = self.config
        return DmaService(ServiceConfig(
            shards=cfg.shards, method=cfg.method, seed=cfg.seed,
            atomics=cfg.atomic_frac > 0.0, tick_hz=cfg.tick_hz,
            admission_rate=cfg.admission_rate,
            admission_burst=cfg.admission_burst,
            max_queue_depth=cfg.max_queue_depth,
            fault_plan=bernoulli_plan(cfg.fault_rate,
                                      seed=cfg.seed).to_dict()))

    async def _drive(self, service: DmaService
                     ) -> Tuple[List[str], List[float], List[Any]]:
        """Play the schedule; returns (sweep problems, latencies of
        admitted requests, completions)."""
        clock = time.perf_counter
        sent: List[float] = []
        seen: List[float] = []
        futures: List[Any] = []

        def observed(slot: int):
            return lambda _future: seen.__setitem__(slot, clock())

        await service.start()
        for entries in self.schedule:
            for tenant, kind, size, hot, shard in entries:
                request = Request(tenant=tenant, kind=kind, size=size,
                                  hot=hot, shard=shard, tick=service.tick,
                                  req_id=service.next_req_id())
                sent.append(clock())
                seen.append(0.0)
                future = await service.submit(request)
                future.add_done_callback(observed(len(futures)))
                futures.append(future)
            await service.advance_tick()
        problems = await service.shutdown(drain=True)
        completions = await asyncio.gather(*futures)
        latencies = [seen[i] - sent[i]
                     for i, c in enumerate(completions)
                     if c.outcome != OUTCOME_REJECTED]
        return problems, latencies, completions

    def run_pass(self) -> PassResult:
        t0 = time.perf_counter()
        service = self._service()
        setup = time.perf_counter() - t0
        t0 = time.perf_counter()
        problems, latencies, completions = asyncio.run(
            self._drive(service))
        wall = time.perf_counter() - t0
        completed, failed, refused = self._check(
            service, problems, latencies, completions)
        return PassResult(
            setup_s=[setup], wall_s=wall, ops=completed,
            latencies_s=latencies, attempted=self.generated,
            completed=completed, failed=failed, refused=refused,
            counters=service_counters(service))

    def _check(self, service: DmaService, problems: List[str],
               latencies: List[float], completions: List[Any]
               ) -> Tuple[int, int, int]:
        """Gate the pass; returns (completed, failed, refused)."""
        outcomes: Dict[str, int] = {}
        for completion in service.completions:
            outcomes[completion.outcome] = (
                outcomes.get(completion.outcome, 0) + 1)
        fleet = service.fleet_counters()
        admission = service.admission
        completed = service.telemetry.completed
        failed = outcomes.get(OUTCOME_ABORTED, 0) + outcomes.get(
            OUTCOME_WRONG_DATA, 0)
        refused = admission.total_rejected

        gate(not problems, f"wrong-page sweep found {problems[:3]}")
        gate(fleet["wrong_transfers"] == 0,
             f"{fleet['wrong_transfers']} wrong-page transfers")
        gate(len(completions) == self.generated
             and admission.total_admitted + refused == self.generated,
             "not every generated request was answered exactly once")
        gate(completed + failed == admission.total_admitted
             and len(latencies) == admission.total_admitted,
             f"admitted {admission.total_admitted} but completed "
             f"{completed} + failed {failed}")
        gate(outcomes.get(OUTCOME_WRONG_DATA, 0) == fleet["wrong_data"],
             "wrong-data completions disagree with the shard counters")

        if self.baseline is not None:
            report = {
                "requests": {
                    "generated": self.generated,
                    "admitted": admission.total_admitted,
                    "rejected": refused,
                    "rejected_by_reason": dict(sorted(
                        admission.rejections_by_reason.items())),
                    "completed": completed,
                    "retried": outcomes.get(OUTCOME_RETRIED, 0),
                    "fell_back": outcomes.get(OUTCOME_FELL_BACK, 0),
                    "aborted": outcomes.get(OUTCOME_ABORTED, 0),
                    "wrong_data": outcomes.get(OUTCOME_WRONG_DATA, 0),
                    "wrong_transfers": fleet["wrong_transfers"],
                },
                "counters": fleet,
                "latency_us": {k: round(v, 3) for k, v in
                               service.telemetry.latency().items()},
                "fairness": {
                    k: (round(v, 4) if isinstance(v, float) else v)
                    for k, v in service.telemetry.fairness().items()},
                "goodput_mbytes_per_s": round(
                    service.goodput_mbytes_per_s(), 4),
            }
            for key in FINGERPRINT_KEYS:
                gate(report[key] == self.baseline[key],
                     f"seed-7 {key} {report[key]} differs from "
                     f"{BASELINE} {self.baseline[key]}")

        return completed, failed, refused


def service_counters(service: DmaService) -> Dict[str, int]:
    """Exact work counts the program keeps itself (no tracing needed)."""
    totals = {"instructions": 0, "bus_accesses": 0, "events_fired": 0,
              "faults_fired": 0, "completed": service.telemetry.completed}
    for shard in service.shards:
        ws = shard.ws
        totals["instructions"] += ws.cpu.stats.counter("instructions").value
        totals["bus_accesses"] += sum(
            ws.bus.stats.counter(name).value
            for name in ("device_reads", "device_writes",
                         "ram_reads", "ram_writes"))
        totals["events_fired"] += ws.sim.events_fired
        totals["faults_fired"] += shard.faults_injected
    return totals
