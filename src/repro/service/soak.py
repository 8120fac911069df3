"""The soak driver: scripted multi-tenant load against the service.

``repro soak`` generates a *deterministic* request schedule — a pure
function of the :class:`SoakConfig` (tenant count, duration, skew,
traffic mix, seed) — and plays it through a :class:`DmaService`.  The
same seed therefore yields the identical completion stream, report, and
trend history on every run, which is what lets CI diff soak reports
across commits.

Traffic shaping:

* **skew** — tenants are drawn zipf-weighted (``weight ∝ 1/rank^s``) so
  a handful of hot tenants dominate the offered load, or uniformly;
* **hot-receiver** — a fraction of DMAs target the shard's shared
  hot-receiver buffer rather than the tenant's private destination;
* **incast** — every ``incast_period_ticks`` a burst of distinct
  tenants all aims at one rotating shard, overriding the hash routing.

When faults are enabled the driver replays the *same schedule* through
a fault-free control service and reports the goodput and p99 ratios —
the "≥95 % of fault-free" CI gate reads ``vs_faultfree``.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..faults.plan import bernoulli_plan
from ..obs.flightrec import REASON_UNSAFE_VERDICT
from .frontend import DmaService, ServiceConfig
from .requests import (
    KIND_ATOMIC,
    KIND_DMA,
    KIND_MESSAGE,
    OUTCOME_ABORTED,
    OUTCOME_FELL_BACK,
    OUTCOME_RETRIED,
    OUTCOME_WRONG_DATA,
    Request,
)

#: Payload sizes the mix draws from (word, typical, one full page).
SIZE_CHOICES = (256, 1024, 4096)

#: Fault-recovery verdicts, best to worst.
VERDICT_CLEAN = "CLEAN"
VERDICT_RECOVERED = "RECOVERED"
VERDICT_DEGRADED = "DEGRADED"
VERDICT_UNSAFE = "UNSAFE"

#: One schedule entry: (tenant, kind, size, hot, shard-override).
ScheduleEntry = Tuple[str, str, int, bool, Optional[int]]


@dataclass
class SoakConfig:
    """Configuration of one soak run.

    Attributes:
        tenants: simulated tenant count.
        duration_s: soak length in *service* seconds (virtual time).
        tick_hz: service ticks per second.
        rate: offered load, requests per tenant-second (mean across the
            fleet; skew concentrates it).
        skew: ``"zipf"`` or ``"uniform"`` tenant selection.
        zipf_s: zipf exponent (higher = hotter head).
        shards: machine pool size.
        method: initiation method every shard runs.
        seed: master seed — schedule, shard machines, and fault streams
            all derive from it.
        fault_rate: Bernoulli fault rate (builds the benchmark's
            standard plan); 0 disables injection.
        fault_plan: explicit plan dict (``FaultPlan.to_dict`` format /
            ``--faults plan.json``); overrides ``fault_rate``.
        atomic_frac / message_frac: traffic-mix fractions (the rest is
            plain DMA).
        hot_frac: fraction of DMAs aimed at the hot receiver.
        incast_period_ticks: ticks between incast bursts (0 disables).
        incast_burst: requests per incast burst.
        control_run: replay the schedule fault-free for the
            ``vs_faultfree`` comparison (only when faults are on).
        spans: record causal spans (enables the fleet Perfetto trace).
        admission_rate / admission_burst / max_queue_depth: front-end
            admission knobs (see :mod:`repro.service.admission`).
        slo: optional SLO spec (parsed ``slo.json``); None evaluates
            the default rule set.  Breaches are always reported under
            ``report["slo"]``; ``repro soak --slo`` makes them fatal.
    """

    tenants: int = 200
    duration_s: int = 20
    tick_hz: int = 10
    rate: float = 0.2
    skew: str = "zipf"
    zipf_s: float = 1.1
    shards: int = 4
    method: str = "keyed"
    seed: int = 7
    fault_rate: float = 0.0
    fault_plan: Optional[Dict[str, Any]] = None
    atomic_frac: float = 0.05
    message_frac: float = 0.10
    hot_frac: float = 0.25
    incast_period_ticks: int = 50
    incast_burst: int = 12
    control_run: bool = True
    spans: bool = False
    admission_rate: float = 5.0
    admission_burst: float = 10.0
    max_queue_depth: int = 64
    slo: Optional[Any] = None
    size_choices: Sequence[int] = field(default=SIZE_CHOICES)

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ConfigError(f"tenants must be >= 1, got {self.tenants}")
        if self.duration_s < 1:
            raise ConfigError(
                f"duration_s must be >= 1, got {self.duration_s}")
        if self.skew not in ("zipf", "uniform"):
            raise ConfigError(f"unknown skew {self.skew!r}")
        if self.rate <= 0.0:
            raise ConfigError(f"rate must be positive, got {self.rate}")

    def to_dict(self) -> Dict[str, Any]:
        """The config block of the soak report."""
        return {
            "tenants": self.tenants, "duration_s": self.duration_s,
            "tick_hz": self.tick_hz, "rate": self.rate,
            "skew": self.skew, "zipf_s": self.zipf_s,
            "shards": self.shards, "method": self.method,
            "seed": self.seed, "fault_rate": self.fault_rate,
            "fault_plan": self.fault_plan,
            "atomic_frac": self.atomic_frac,
            "message_frac": self.message_frac,
            "hot_frac": self.hot_frac,
            "incast_period_ticks": self.incast_period_ticks,
            "incast_burst": self.incast_burst,
            **({"slo": self.slo} if self.slo is not None else {}),
        }


# ----------------------------------------------------------------------
# schedule generation (pure function of config)
# ----------------------------------------------------------------------

def tenant_weights(config: SoakConfig) -> List[float]:
    """Per-tenant selection weights (zipf or uniform)."""
    if config.skew == "uniform":
        return [1.0] * config.tenants
    return [1.0 / (rank + 1) ** config.zipf_s
            for rank in range(config.tenants)]


def build_schedule(config: SoakConfig) -> List[List[ScheduleEntry]]:
    """The per-tick request schedule — deterministic given the config.

    Offered load per tick is ``tenants * rate / tick_hz``, carried as a
    fractional accumulator so low rates still emit requests.  Incast
    bursts are appended on their cadence, aimed at a rotating shard.
    """
    rng = random.Random(config.seed)
    weights = tenant_weights(config)
    names = [f"t{i:04d}" for i in range(config.tenants)]
    ticks = config.duration_s * config.tick_hz
    per_tick = config.tenants * config.rate / config.tick_hz
    schedule: List[List[ScheduleEntry]] = []
    carry = 0.0
    for tick in range(ticks):
        carry += per_tick
        n = int(carry)
        carry -= n
        entries: List[ScheduleEntry] = []
        for tenant in rng.choices(names, weights=weights, k=n):
            draw = rng.random()
            if draw < config.atomic_frac:
                kind = KIND_ATOMIC
            elif draw < config.atomic_frac + config.message_frac:
                kind = KIND_MESSAGE
            else:
                kind = KIND_DMA
            size = rng.choice(list(config.size_choices))
            hot = (kind == KIND_DMA
                   and rng.random() < config.hot_frac)
            entries.append((tenant, kind, size, hot, None))
        if (config.incast_period_ticks > 0 and config.incast_burst > 0
                and tick > 0 and tick % config.incast_period_ticks == 0):
            target = (tick // config.incast_period_ticks) % config.shards
            burst = rng.sample(range(config.tenants),
                               k=min(config.incast_burst, config.tenants))
            entries.extend((names[i], KIND_DMA, 4096, True, target)
                           for i in burst)
        schedule.append(entries)
    return schedule


# ----------------------------------------------------------------------
# the drive loop
# ----------------------------------------------------------------------

async def _drive(service: DmaService,
                 schedule: List[List[ScheduleEntry]]) -> List[str]:
    """Play *schedule* through *service*; return sweep problems."""
    await service.start()
    futures = []
    for entries in schedule:
        for tenant, kind, size, hot, shard in entries:
            request = Request(tenant=tenant, kind=kind, size=size,
                              hot=hot, shard=shard, tick=service.tick,
                              req_id=service.next_req_id())
            futures.append(await service.submit(request))
        await service.advance_tick()
    problems = await service.shutdown(drain=True)
    if futures:
        await asyncio.gather(*futures)
    return problems


def _run_service(config: SoakConfig, schedule: List[List[ScheduleEntry]],
                 with_faults: bool) -> Tuple[DmaService, List[str]]:
    """One full pass of the schedule; returns (service, sweep problems)."""
    plan = None
    if with_faults:
        if config.fault_plan is not None:
            plan = config.fault_plan
        elif config.fault_rate > 0.0:
            plan = bernoulli_plan(config.fault_rate,
                                  seed=config.seed).to_dict()
    service = DmaService(ServiceConfig(
        shards=config.shards, method=config.method, seed=config.seed,
        atomics=config.atomic_frac > 0.0, tick_hz=config.tick_hz,
        admission_rate=config.admission_rate,
        admission_burst=config.admission_burst,
        max_queue_depth=config.max_queue_depth,
        spans_enabled=config.spans, fault_plan=plan, slo=config.slo))
    problems = asyncio.run(_drive(service, schedule))
    return service, problems


def _outcome_counts(service: DmaService) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for completion in service.completions:
        counts[completion.outcome] = counts.get(completion.outcome, 0) + 1
    return counts


def _verdict(wrong: int, problems: List[str], faults: int,
             goodput_ratio: Optional[float], aborted: int) -> str:
    """Grade the run's fault recovery."""
    if wrong > 0 or problems:
        return VERDICT_UNSAFE
    if faults == 0:
        return VERDICT_CLEAN
    if goodput_ratio is not None:
        return (VERDICT_RECOVERED if goodput_ratio >= 0.95
                else VERDICT_DEGRADED)
    return VERDICT_RECOVERED if aborted == 0 else VERDICT_DEGRADED


def run_soak(config: Optional[SoakConfig] = None) -> Dict[str, Any]:
    """Run one soak and return the ``BENCH_service.json`` report.

    Everything in the report except the ``wall`` block is a
    deterministic function of the config — CI compares reports with
    ``wall`` stripped.  The ``wall`` block times the main (faulted) run
    and the fault-free control run separately, each from building its
    service to the end of its shutdown sweep.
    """
    config = config if config is not None else SoakConfig()
    schedule = build_schedule(config)
    generated = sum(len(entries) for entries in schedule)
    faults_on = config.fault_plan is not None or config.fault_rate > 0.0

    started = time.perf_counter()
    service, problems = _run_service(config, schedule, with_faults=faults_on)
    faulted_s = time.perf_counter() - started
    fleet = service.fleet_counters()
    outcomes = _outcome_counts(service)
    goodput = service.goodput_mbytes_per_s()
    latency = service.telemetry.latency()

    vs_faultfree: Optional[Dict[str, float]] = None
    goodput_ratio: Optional[float] = None
    control_s: Optional[float] = None
    if faults_on and config.control_run:
        started = time.perf_counter()
        control, _ = _run_service(config, schedule, with_faults=False)
        control_s = time.perf_counter() - started
        control_goodput = control.goodput_mbytes_per_s()
        control_p99 = control.telemetry.latency()["p99"]
        goodput_ratio = (goodput / control_goodput
                         if control_goodput > 0.0 else 1.0)
        vs_faultfree = {
            "goodput_ratio": round(goodput_ratio, 4),
            "p99_ratio": round(latency["p99"] / control_p99, 4)
            if control_p99 > 0.0 else 1.0,
            "faultfree_goodput_mbytes_per_s": round(control_goodput, 4),
            "faultfree_p99_us": round(control_p99, 3),
        }

    aborted = outcomes.get(OUTCOME_ABORTED, 0)
    verdict = _verdict(fleet["wrong_transfers"], problems,
                       fleet["faults"], goodput_ratio, aborted)
    if verdict == VERDICT_UNSAFE:
        # Freeze the evidence on every shard before reporting: the
        # UNSAFE verdict is one of the flight recorder's triggers.
        for shard in service.shards:
            shard.flightrec.bundle(
                REASON_UNSAFE_VERDICT, ws=shard.ws, seed=config.seed,
                tick=service.tick,
                offending=[{"problem": p} for p in problems],
                fault_plan=service.config.fault_plan,
                counters=shard.counters(),
                detail="soak verdict UNSAFE")
    bundles = service.postmortems()
    by_reason: Dict[str, int] = {}
    for bundle in bundles:
        by_reason[bundle["reason"]] = by_reason.get(bundle["reason"], 0) + 1
    report: Dict[str, Any] = {
        "benchmark": "service_soak",
        "config": config.to_dict(),
        "requests": {
            "generated": generated,
            "admitted": service.admission.total_admitted,
            "rejected": service.admission.total_rejected,
            "rejected_by_reason": dict(sorted(
                service.admission.rejections_by_reason.items())),
            "completed": service.telemetry.completed,
            "retried": outcomes.get(OUTCOME_RETRIED, 0),
            "fell_back": outcomes.get(OUTCOME_FELL_BACK, 0),
            "aborted": aborted,
            "wrong_data": outcomes.get(OUTCOME_WRONG_DATA, 0),
            "wrong_transfers": fleet["wrong_transfers"],
        },
        "goodput_mbytes_per_s": round(goodput, 4),
        "latency_us": {k: round(v, 3) for k, v in latency.items()},
        "fairness": {
            k: (round(v, 4) if isinstance(v, float) else v)
            for k, v in service.telemetry.fairness().items()},
        "admission_fairness": round(
            service.admission.admitted_fairness(), 4),
        "counters": fleet,
        "per_shard": [shard.snapshot() for shard in service.shards],
        "faults": {
            "enabled": faults_on,
            "injected": fleet["faults"],
            "sweep_problems": problems,
            "verdict": verdict,
        },
        "slo": service.slo.snapshot(),
        "postmortems": {
            "count": len(bundles),
            "by_reason": dict(sorted(by_reason.items())),
        },
        "trend": service.telemetry.trend_report(
            meta={"benchmark": "service_soak", "seed": config.seed}),
    }
    if vs_faultfree is not None:
        report["vs_faultfree"] = vs_faultfree
    report["wall"] = {
        "faulted_s": round(faulted_s, 3),
        "control_s": None if control_s is None else round(control_s, 3),
        "faulted_req_per_s": round(
            service.telemetry.completed / faulted_s, 1),
    }
    report["_service"] = service  # stripped before serialization
    report["_postmortems"] = bundles  # full bundles (``--postmortem``)
    return report


def strip_runtime(report: Dict[str, Any]) -> Dict[str, Any]:
    """Drop non-serializable / non-deterministic fields for JSON output."""
    out = {k: v for k, v in report.items()
           if k not in ("_service", "_postmortems")}
    return out


def deterministic_view(report: Dict[str, Any]) -> Dict[str, Any]:
    """The report minus wall-clock fields — identical across same-seed
    runs; what determinism tests and CI diffs compare."""
    return {k: v for k, v in strip_runtime(report).items() if k != "wall"}
