"""Unit tests for counters and the stat registry."""

import pytest

from repro.sim.stats import Counter, StatRegistry


def test_counter_add_and_reset():
    counter = Counter("x")
    counter.add()
    counter.add(4)
    assert counter.value == 5
    counter.reset()
    assert counter.value == 0


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter("x").add(-1)


def test_registry_reuses_instances():
    registry = StatRegistry("dev")
    assert registry.counter("a") is registry.counter("a")


def test_registry_reset_clears_all():
    registry = StatRegistry()
    registry.counter("a").add(3)
    registry.counter("b").add(1)
    registry.reset()
    assert registry.counter("a").value == 0
    assert registry.counter("b").value == 0


def test_registry_snapshot_qualifies_names():
    registry = StatRegistry("cpu0")
    registry.counter("instructions").add(7)
    snap = registry.snapshot()
    assert snap["cpu0.instructions"] == 7.0
