"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.journal import UndoJournal


def test_initial_time_is_zero():
    assert Simulator().now == 0


def test_schedule_and_step_fires_in_order():
    sim = Simulator()
    fired = []
    sim.schedule(30, lambda: fired.append("c"))
    sim.schedule(10, lambda: fired.append("a"))
    sim.schedule(20, lambda: fired.append("b"))
    while sim.step():
        pass
    assert fired == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(5, lambda lab=label: fired.append(lab))
    sim.run()
    assert fired == list("abcde")


def test_advance_moves_clock():
    sim = Simulator()
    sim.advance(1234)
    assert sim.now == 1234


def test_advance_fires_due_events():
    sim = Simulator()
    fired = []
    sim.schedule(50, lambda: fired.append(sim.now))
    sim.advance(100)
    assert fired == [50]
    assert sim.now == 100


def test_advance_does_not_fire_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(200, lambda: fired.append(True))
    sim.advance(100)
    assert fired == []
    assert sim.pending == 1


def test_negative_advance_rejected():
    with pytest.raises(SimulationError):
        Simulator().advance(-1)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-5, lambda: None)


def test_call_at_before_now_rejected():
    sim = Simulator()
    sim.advance(100)
    with pytest.raises(SimulationError):
        sim.call_at(50, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(10, lambda: fired.append(True))
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(10, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.pending == 0


def test_run_until_deadline_leaves_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: fired.append(10))
    sim.schedule(1000, lambda: fired.append(1000))
    sim.run_until(500)
    assert fired == [10]
    assert sim.now == 500
    assert sim.pending == 1


def test_run_max_events_budget():
    sim = Simulator()
    for _ in range(10):
        sim.schedule(1, lambda: None)
    assert sim.run(max_events=3) == 3
    assert sim.pending == 7


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain():
        fired.append(sim.now)
        if len(fired) < 3:
            sim.schedule(10, chain)

    sim.schedule(10, chain)
    sim.run()
    assert fired == [10, 20, 30]


def test_wait_for_predicate_satisfied_by_event():
    sim = Simulator()
    box = {"ready": False}
    sim.schedule(100, lambda: box.update(ready=True))
    assert sim.wait_for(lambda: box["ready"])
    assert sim.now == 100


def test_wait_for_timeout_returns_false():
    sim = Simulator()
    sim.schedule(10_000, lambda: None)
    assert not sim.wait_for(lambda: False, timeout=100)
    assert sim.now == 100


def test_wait_for_immediately_true_does_not_advance():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    assert sim.wait_for(lambda: True)
    assert sim.now == 0


def test_events_fired_counter():
    sim = Simulator()
    for _ in range(4):
        sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_fired == 4


def test_pending_excludes_cancelled_events():
    """`pending` is a live counter, not a scan: cancelled events drop
    out immediately and double-cancel does not double-count."""
    sim = Simulator()
    events = [sim.schedule(10 * (i + 1), lambda: None) for i in range(4)]
    assert sim.pending == 4
    events[1].cancel()
    assert sim.pending == 3
    events[3].cancel()
    events[3].cancel()
    assert sim.pending == 2
    sim.run()
    assert sim.pending == 0
    assert sim.events_fired == 2


def test_pending_counts_only_live_events_during_run():
    sim = Simulator()
    survivor = []
    victim = sim.schedule(20, lambda: survivor.append("victim"))
    sim.schedule(10, victim.cancel)
    sim.schedule(30, lambda: survivor.append("late"))
    sim.advance(15)
    assert sim.pending == 1
    sim.run()
    assert survivor == ["late"]


# -- event wheel: far-future heap fallback and rebase ----------------------


def test_far_future_events_fire_in_order():
    """Events beyond the wheel horizon (far heap) interleave correctly
    with near events, including after the wheel rebases past them."""
    sim = Simulator()
    span = sim._span
    fired = []
    sim.call_at(span * 3 + 17, lambda: fired.append("far2"))
    sim.call_at(span + 5, lambda: fired.append("far1"))
    sim.call_at(10, lambda: fired.append("near"))
    sim.run()
    assert fired == ["near", "far1", "far2"]
    assert sim.now == span * 3 + 17


def test_same_time_insertion_order_across_horizon():
    """Same-timestamp events keep insertion order even when one starts
    in the far heap and migrates into the wheel on rebase."""
    sim = Simulator()
    when = sim._span + 123  # beyond the initial horizon
    fired = []
    sim.call_at(when, lambda: fired.append("a"))
    sim.call_at(when, lambda: fired.append("b"))
    sim.call_at(when, lambda: fired.append("c"))
    sim.advance(sim._span)  # forces a rebase; events migrate to wheel
    sim.run()
    assert fired == ["a", "b", "c"]


def test_cancel_far_event_then_run():
    sim = Simulator()
    fired = []
    far = sim.call_at(sim._span * 2, lambda: fired.append("far"))
    sim.call_at(5, lambda: fired.append("near"))
    far.cancel()
    sim.run()
    assert fired == ["near"]
    assert sim.pending == 0


def test_live_event_signature_tracks_wheel_and_far():
    sim = Simulator()
    sim.schedule(10, lambda: None, label="near")
    far = sim.call_at(sim._span + 1, lambda: None, label="far")
    assert sim.live_event_signature() == ((10, "near"),
                                          (sim._span + 1, "far"))
    far.cancel()
    assert sim.live_event_signature() == ((10, "near"),)


# -- transient event recycling ---------------------------------------------


def test_transient_events_are_recycled():
    sim = Simulator()
    sim.schedule(10, lambda: None, transient=True)
    sim.run()
    assert len(sim._free) == 1
    recycled = sim._free[-1]
    event = sim.schedule(20, lambda: None)
    assert event is recycled  # the pool object was reused
    assert not event.cancelled
    sim.run()


def test_recycling_disabled_under_journal():
    """Journal undo entries reference fired events; recycling them
    would corrupt a later undo_to."""
    sim = Simulator()
    sim.bind_journal(UndoJournal())
    sim.schedule(10, lambda: None, transient=True)
    sim.run()
    assert sim._free == []


# -- journal mark/undo -----------------------------------------------------


def test_journal_mark_undo_roundtrip():
    sim = Simulator()
    journal = UndoJournal()
    sim.bind_journal(journal)
    fired = []
    sim.schedule(10, lambda: fired.append("a"))
    sim.advance(5)
    mark = journal.mark()
    sim.schedule(30, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b"]
    journal.undo_to(mark)
    assert (sim.now, sim.pending, sim.events_fired) == (5, 1, 0)
    fired.clear()
    sim.run()
    assert fired == ["a"]


def test_journal_undo_revives_cancelled_event():
    sim = Simulator()
    journal = UndoJournal()
    sim.bind_journal(journal)
    fired = []
    event = sim.schedule(10, lambda: fired.append(True))
    mark = journal.mark()
    event.cancel()
    assert sim.pending == 0
    journal.undo_to(mark)
    assert sim.pending == 1
    assert sim.live_event_signature() == ((10, ""),)
    sim.run()
    assert fired == [True]


def test_journal_nested_marks_undo_in_stack_order():
    sim = Simulator()
    journal = UndoJournal()
    sim.bind_journal(journal)
    sim.advance(1)
    outer = journal.mark()
    sim.advance(10)
    inner = journal.mark()
    sim.schedule(100, lambda: None)
    sim.advance(5)
    journal.undo_to(inner)
    assert (sim.now, sim.pending) == (11, 0)
    journal.undo_to(outer)
    assert (sim.now, sim.pending) == (1, 0)


# -- live_event_signature and pending against a full scan ---------------------


def scanned_signature(sim):
    """The signature by a full scan of both tiers (the reference)."""
    events = [e for slot in sim._slots for e in slot] + list(sim._far)
    return tuple(sorted((e.when, e.label) for e in events
                        if not e.cancelled))


#: One step of the signature property: (op, argument).
SIM_OPS = st.one_of(
    st.tuples(st.just("near"), st.integers(min_value=0, max_value=127)),
    st.tuples(st.just("far"), st.integers(min_value=0, max_value=300)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("step"), st.just(0)),
    st.tuples(st.just("advance"), st.integers(min_value=0, max_value=300)),
    st.tuples(st.just("mark"), st.just(0)),
    st.tuples(st.just("undo"), st.just(0)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ops=st.lists(SIM_OPS, max_size=40))
@example(ops=[])
@example(ops=[("near", 5), ("far", 0), ("cancel", 0), ("cancel", 1)])
def test_signature_matches_full_scan_after_every_step(ops):
    """The cached signature and the live count equal a full scan.

    A tiny wheel (8 slots of 16 ps, a 128 ps horizon) makes far-heap
    placement, migration and rebases frequent; journal marks and undos
    interleave with every other operation.  The examples pin the empty
    queue and a queue whose every event is cancelled.
    """
    sim = Simulator(wheel_granularity_bits=4, wheel_slots=8)
    journal = UndoJournal()
    sim.bind_journal(journal)
    handles, marks = [], []
    assert sim.live_event_signature() == () == scanned_signature(sim)
    for op, arg in ops:
        if op == "near":
            handles.append(sim.schedule(arg, lambda: None,
                                        label=f"n{arg % 3}"))
        elif op == "far":
            handles.append(sim.call_at(sim.now + sim._span + arg,
                                       lambda: None, label="far"))
        elif op == "cancel" and handles:
            handles[arg % len(handles)].cancel()
        elif op == "step":
            sim.step()
        elif op == "advance":
            sim.advance(arg)
        elif op == "mark":
            marks.append(journal.mark())
        elif op == "undo" and marks:
            journal.undo_to(marks.pop())
        assert sim.live_event_signature() == scanned_signature(sim), (
            op, arg)
        assert sim.pending == len(scanned_signature(sim)), (op, arg)
