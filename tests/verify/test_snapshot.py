"""Snapshot/restore round-trip property, for every initiation method.

The incremental checker's correctness rests on one invariant: after
``snapshot(); deliver(access); restore(token)`` the whole harness —
simulator, RAM, DMA engine, and protocol recognizer — is byte-identical
to the state before the snapshot.  Snapshots are undo-journal marks (the
first one binds the harness's journal), so these tests exercise the
journal's restore contract at every depth of a delivery sequence, for
every protocol registered in :mod:`repro.core.methods`, both
deterministically and under hypothesis-driven random interleavings.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import (
    draw_interleaving,
    observe_harness,
    two_process_harness,
    two_process_streams,
)

from repro.core.methods import METHODS
from repro.verify.interleave import AccessSpec, ProtocolHarness


def capture(harness: ProtocolHarness) -> Tuple:
    """Observable state plus the harness's own memoization fingerprint."""
    return (harness.fingerprint(), observe_harness(harness))


def zipper(streams: List[List[AccessSpec]]) -> List[AccessSpec]:
    """A deterministic maximal interleaving (round-robin merge)."""
    order: List[AccessSpec] = []
    positions = [0] * len(streams)
    while any(p < len(s) for p, s in zip(positions, streams)):
        for index, stream in enumerate(streams):
            if positions[index] < len(stream):
                order.append(stream[positions[index]])
                positions[index] += 1
    return order


@pytest.mark.parametrize("method", sorted(METHODS))
def test_snapshot_deliver_restore_roundtrip(method):
    """snapshot(); deliver(a); restore() is a no-op at every depth."""
    harness = two_process_harness(method)
    for access in zipper(two_process_streams(method)):
        before = capture(harness)
        token = harness.snapshot()
        assert harness.journal is not None
        harness.deliver(access)
        harness.restore(token)
        assert capture(harness) == before, (
            f"{method}: restore after delivering {access} did not "
            f"return the harness to its prior state")
        harness.deliver(access)  # move one level deeper and re-test


@pytest.mark.parametrize("method", sorted(METHODS))
def test_snapshot_restore_across_many_deliveries(method):
    """A root snapshot survives an arbitrarily deep excursion."""
    harness = two_process_harness(method)
    order = zipper(two_process_streams(method))
    harness.deliver(order[0])  # snapshot from a non-virgin state
    before = capture(harness)
    token = harness.snapshot()
    for access in order[1:]:
        harness.deliver(access)
    harness.restore(token)
    assert capture(harness) == before


@settings(max_examples=40, deadline=None)
@given(method=st.sampled_from(sorted(METHODS)), data=st.data())
def test_snapshot_roundtrip_random_interleavings(method, data):
    """The round-trip property under random stream interleavings."""
    harness = two_process_harness(method)
    for access in draw_interleaving(data, two_process_streams(method)):
        before = capture(harness)
        token = harness.snapshot()
        harness.deliver(access)
        harness.restore(token)
        assert capture(harness) == before
        harness.deliver(access)
