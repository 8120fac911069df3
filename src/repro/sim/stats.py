"""Event counters.

Every hardware and OS model exposes its activity through a
:class:`StatRegistry` of counters so experiments can report instruction
counts, bus transactions, context switches and DMA initiations without
the models printing anything themselves.  Latency distributions are
aggregated by :class:`~repro.obs.histogram.LatencyHistogram`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


class Counter:
    """A monotonically increasing event counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        """Increment by *n* (must be non-negative)."""
        if n < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {n}")
        self.value += n

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


@dataclass
class StatRegistry:
    """A namespace of counters owned by one component."""

    prefix: str = ""
    counters: Dict[str, Counter] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        """Get or create the counter *name*."""
        if name not in self.counters:
            self.counters[name] = Counter(self._qualify(name))
        return self.counters[name]

    def reset(self) -> None:
        """Zero every counter in the registry."""
        for counter in self.counters.values():
            counter.reset()

    def snapshot(self) -> Dict[str, float]:
        """Flat qualified-name -> value dict of all counters."""
        return {self._qualify(name): float(counter.value)
                for name, counter in self.counters.items()}

    def _qualify(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name
