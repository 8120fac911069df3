"""Journaled snapshots agree with replaying from a fresh harness.

The incremental checker backtracks through the harness's undo journal
instead of replaying every interleaving from ``reset()`` the way the
naive oracle does.  Its soundness rests on the two being
indistinguishable: every observable bit of harness state — RAM bytes,
simulator clock and event set, engine registers and tables, initiation
records, protocol FSM scalars — must match a fresh replay of the same
prefix after every deliver and every restore, including arbitrarily
nested snapshot stacks and with the span tracer recording.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import (
    draw_interleaving,
    observe_harness as observe,
    two_process_harness,
    two_process_streams,
)

from repro.core.methods import METHODS
from repro.verify.interleave import AccessSpec, ProtocolHarness


def replay(harness: ProtocolHarness,
           prefix: Sequence[AccessSpec]) -> Optional[int]:
    """The naive oracle's reference: reset, then deliver *prefix*.

    Returns the status of the last delivery (None for an empty prefix).
    """
    harness.reset()
    status = None
    for access in prefix:
        status = harness.deliver(access)
    return status


@settings(max_examples=40, deadline=None)
@given(method=st.sampled_from(sorted(METHODS)), data=st.data())
def test_journaled_matches_fresh_replay_random_walk(method, data):
    """The journaled harness tracks a fresh replay step for step.

    For every access of a random interleaving, the journaled harness
    does snapshot -> deliver -> compare -> restore -> compare ->
    re-deliver -> compare, each time against a journal-free harness
    that replays the same prefix from ``reset()``, so divergence is
    caught at the exact step it appears.
    """
    journaled = two_process_harness(method)
    fresh = two_process_harness(method)
    prefix: List[AccessSpec] = []
    assert observe(journaled) == observe(fresh)
    for access in draw_interleaving(data, two_process_streams(method)):
        token = journaled.snapshot()
        status = journaled.deliver(access)
        assert status == replay(fresh, prefix + [access])
        assert observe(journaled) == observe(fresh)
        journaled.restore(token)
        replay(fresh, prefix)
        assert observe(journaled) == observe(fresh)
        journaled.deliver(access)  # commit the step, walk one level deeper
        prefix.append(access)
        replay(fresh, prefix)
        assert observe(journaled) == observe(fresh)
    assert fresh.journal is None


@settings(max_examples=40, deadline=None)
@given(method=st.sampled_from(sorted(METHODS)), data=st.data())
def test_nested_snapshot_stack_unwinds_exactly(method, data):
    """A random LIFO stack of journal marks restores every level.

    Mirrors the checker's DFS: marks nest arbitrarily deep, each undo
    must land bit-exactly on the state its mark captured.
    """
    harness = two_process_harness(method)
    order = draw_interleaving(data, two_process_streams(method))
    stack: List[Tuple[object, Tuple]] = []
    cursor = 0
    for _ in range(3 * len(order)):
        can_push = cursor < len(order)
        can_pop = bool(stack)
        if not (can_push or can_pop):
            break
        push = can_push and (not can_pop or data.draw(st.booleans()))
        if push:
            stack.append((harness.snapshot(), observe(harness)))
            harness.deliver(order[cursor])
            cursor += 1
        else:
            token, expected = stack.pop()
            harness.restore(token)
            cursor -= 1
            assert observe(harness) == expected
    while stack:
        token, expected = stack.pop()
        harness.restore(token)
        assert observe(harness) == expected


@pytest.mark.parametrize("method", sorted(METHODS))
def test_spans_and_trace_survive_journal_restore(method):
    """The span trace is part of the journal's restore contract.

    With spans enabled, a deliver mutates the span tracer (open and
    finished spans, instants, the id counter); undoing to a mark must
    put all of it back exactly.
    """
    harness = two_process_harness(method)
    engine = harness.engine
    engine.spans.enabled = True

    def obs_state() -> Tuple:
        spans = engine.spans
        return (spans._next_id, list(spans._finished), dict(spans._open),
                list(spans._stack), spans.dropped)

    streams = two_process_streams(method)
    order = streams[0] + streams[1]
    harness.deliver(order[0])  # snapshot from a non-virgin state
    before = obs_state()
    token = harness.snapshot()
    for access in order[1:]:
        harness.deliver(access)
    harness.restore(token)
    assert obs_state() == before
