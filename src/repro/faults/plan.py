"""Declarative, seedable fault schedules.

A :class:`FaultPlan` is a list of :class:`FaultRule` entries plus a
seed.  Each rule names a *target* (the operation class it perturbs), a
fault *kind*, and a trigger — either probabilistic (``probability``) or
deterministic (``nth``: fire on the n-th matching operation).  The plan
owns all randomness: two runs with the same plan, seed, and workload
inject exactly the same faults, so every failure a test or benchmark
finds is replayable.

Targets:

* ``"store"`` — device-window word writes (shadow argument stores,
  context-page stores);
* ``"load"`` — device-window word reads (status loads);
* ``"completion"`` — DMA completion events in the transfer engine;
* ``"link"`` — remote write packets on the cluster fabric.

Kinds: :data:`DROP`, :data:`DELAY`, :data:`DUPLICATE`, :data:`REORDER`,
:data:`BITFLIP`.  Not every (kind, target) pair is meaningful — e.g.
``REORDER`` applies to stores and link packets (the in-order media);
the injector ignores impossible combinations rather than erroring, so
one plan can be reused across attachment points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..units import Time, us

DROP = "drop"
DELAY = "delay"
DUPLICATE = "duplicate"
REORDER = "reorder"
BITFLIP = "bitflip"

#: Every fault kind, in canonical order.
FAULT_KINDS: Tuple[str, ...] = (DROP, DELAY, DUPLICATE, REORDER, BITFLIP)

#: Every injection target the runtime injector understands.
FAULT_TARGETS: Tuple[str, ...] = ("store", "load", "completion", "link")


@dataclass(frozen=True)
class FaultRule:
    """One entry of a fault schedule.

    Attributes:
        kind: fault kind (see :data:`FAULT_KINDS`).
        target: operation class to perturb (see :data:`FAULT_TARGETS`).
        probability: chance of firing per matching operation (ignored
            when ``nth`` is set).
        nth: fire deterministically on the n-th matching operation
            (1-based) instead of probabilistically.
        count: maximum number of times this rule may fire (None means
            unlimited) — ``nth=3, count=1`` is "exactly the third store".
        bit: bit index for BITFLIP (None picks a random bit per fire).
        delay: extra latency for DELAY (and the duplicate-completion
            gap); defaults to 5 µs.
        issuer: only perturb operations issued by this pid (None = any).
        kernel_immune: skip kernel-mode accesses.  True by default: the
            kernel syscall path is the *fallback* after user-level retry
            exhaustion, and the driver behind it is modelled as running
            with its own bus-level error handling.
    """

    kind: str
    target: str
    probability: float = 0.0
    nth: Optional[int] = None
    count: Optional[int] = None
    bit: Optional[int] = None
    delay: Time = us(5)
    issuer: Optional[int] = None
    kernel_immune: bool = True

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        if self.target not in FAULT_TARGETS:
            raise ConfigError(f"unknown fault target {self.target!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(
                f"probability must be in [0, 1], got {self.probability}")
        if self.nth is not None and self.nth < 1:
            raise ConfigError(f"nth must be >= 1, got {self.nth}")
        if self.bit is not None and not 0 <= self.bit < 64:
            raise ConfigError(f"bit must be in [0, 64), got {self.bit}")


@dataclass
class FaultPlan:
    """A fault schedule with its own deterministic randomness.

    Attributes:
        rules: the schedule entries.
        seed: master seed; :meth:`reset` returns the plan to its
            initial deterministic state.
    """

    rules: List[FaultRule] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Re-seed the RNG and zero all match/fire counters."""
        self._rng = random.Random(self.seed)
        self._seen: Dict[int, int] = {i: 0 for i in range(len(self.rules))}
        self._fired: Dict[int, int] = {i: 0 for i in range(len(self.rules))}
        #: (index, rule) pairs per target, in schedule order: most
        #: operations (every bus access) match few or no rules.
        self._by_target: Dict[str, List[Tuple[int, FaultRule]]] = {}
        for index, rule in enumerate(self.rules):
            self._by_target.setdefault(rule.target, []).append(
                (index, rule))

    @property
    def total_fired(self) -> int:
        """Faults injected since the last :meth:`reset`."""
        return sum(self._fired.values())

    def fired(self, rule: FaultRule) -> int:
        """How many times *rule* has fired since the last reset."""
        return self._fired[self.rules.index(rule)]

    def decide(self, target: str, issuer: Optional[int] = None,
               kernel: bool = False) -> Optional[FaultRule]:
        """The rule (if any) that fires on this operation.

        At most one fault is injected per operation: the first rule in
        schedule order whose trigger hits.  Every matching rule's
        operation counter still advances, and every probabilistic
        matching rule still consumes one RNG draw, so the decision
        stream is a pure function of (plan, seed, operation sequence)
        regardless of which rule wins.
        """
        chosen: Optional[FaultRule] = None
        for index, rule in self._by_target.get(target, ()):
            if rule.kernel_immune and kernel:
                continue
            if rule.issuer is not None and issuer != rule.issuer:
                continue
            self._seen[index] += 1
            if rule.nth is not None:
                hit = self._seen[index] == rule.nth
            else:
                hit = (rule.probability > 0.0
                       and self._rng.random() < rule.probability)
            if rule.count is not None and self._fired[index] >= rule.count:
                continue
            if hit and chosen is None:
                self._fired[index] += 1
                chosen = rule
        return chosen

    def pick_bit(self, rule: FaultRule) -> int:
        """The bit a BITFLIP fire perturbs (fixed or drawn from the RNG)."""
        if rule.bit is not None:
            return rule.bit
        return self._rng.randrange(64)

    def pick_byte(self, rule: FaultRule, length: int) -> int:
        """The byte index a link-level BITFLIP perturbs."""
        if length <= 0:
            return 0
        return self._rng.randrange(length)


    # ------------------------------------------------------------------
    # JSON round-trip (the `repro soak --faults plan.json` format)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready rendering: ``{"seed": ..., "rules": [...]}``.

        Delay fields are expressed in microseconds so plan files stay
        human-readable; :meth:`from_dict` converts back to ps.
        """
        rules = []
        for rule in self.rules:
            entry: Dict[str, object] = {"kind": rule.kind,
                                        "target": rule.target}
            if rule.probability:
                entry["probability"] = rule.probability
            if rule.nth is not None:
                entry["nth"] = rule.nth
            if rule.count is not None:
                entry["count"] = rule.count
            if rule.bit is not None:
                entry["bit"] = rule.bit
            if rule.delay != us(5):
                entry["delay_us"] = rule.delay / 1_000_000
            if rule.issuer is not None:
                entry["issuer"] = rule.issuer
            if not rule.kernel_immune:
                entry["kernel_immune"] = False
            rules.append(entry)
        return {"seed": self.seed, "rules": rules}

    @classmethod
    def from_dict(cls, data: Dict[str, object],
                  seed: Optional[int] = None) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (or a hand-written
        plan file).  *seed* overrides the stored seed — the service layer
        uses this to derive a distinct deterministic stream per shard.
        """
        if not isinstance(data, dict) or "rules" not in data:
            raise ConfigError("fault plan must be an object with 'rules'")
        rules: List[FaultRule] = []
        raw_rules = data["rules"]
        if not isinstance(raw_rules, list):
            raise ConfigError("fault plan 'rules' must be a list")
        for raw in raw_rules:
            if not isinstance(raw, dict):
                raise ConfigError(f"fault rule must be an object: {raw!r}")
            fields = dict(raw)
            delay_us = fields.pop("delay_us", None)
            kwargs: Dict[str, object] = {}
            for key in ("kind", "target", "probability", "nth", "count",
                        "bit", "issuer", "kernel_immune"):
                if key in fields:
                    kwargs[key] = fields.pop(key)
            if fields:
                raise ConfigError(
                    f"unknown fault rule field(s): {sorted(fields)}")
            if delay_us is not None:
                kwargs["delay"] = us(float(delay_us))
            rules.append(FaultRule(**kwargs))  # type: ignore[arg-type]
        plan_seed = seed if seed is not None else int(data.get("seed", 0))
        return cls(rules=rules, seed=plan_seed)


def bernoulli_plan(rate: float, seed: int = 0,
                   kinds: Sequence[str] = (DROP, BITFLIP),
                   completion_kinds: Sequence[str] = (DROP, DELAY),
                   delay: Time = us(5)) -> FaultPlan:
    """The benchmark's built-in schedule: i.i.d. faults at *rate*.

    Splits *rate* evenly across store faults (*kinds*) and completion
    faults (*completion_kinds*), so the overall per-operation fault
    probability stays comparable across rates.
    """
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"rate must be in [0, 1], got {rate}")
    rules: List[FaultRule] = []
    groups = [("store", kinds), ("completion", completion_kinds)]
    n_rules = sum(len(ks) for _, ks in groups)
    if rate > 0.0 and n_rules:
        p = rate / n_rules
        for target, target_kinds in groups:
            for kind in target_kinds:
                rules.append(FaultRule(kind=kind, target=target,
                                       probability=p, delay=delay))
    return FaultPlan(rules=rules, seed=seed)
