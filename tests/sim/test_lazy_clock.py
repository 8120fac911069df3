"""The lazy clock: ``Simulator.advance`` skips the queue only when it may.

``advance`` consults the event queue only when something could be due by
the target: when nothing is live, or the cached head is clean and later
than the target, it is one compare and an add.  Random schedules run
against a reference queue that fires one event at a time — including
events due exactly at a target, cancelled heads, an empty queue, wheel
rebases (a tiny wheel pushes most events to the far heap) and undo
journal marks around ``advance`` — and must agree on firing order,
``now`` and ``pending`` after every operation.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.journal import UndoJournal

#: Delays and advance steps from one small set, so events often fall
#: exactly on an advance target, and past the 128 ps wheel horizon.
TIMES = (0, 1, 5, 16, 100, 127, 128, 129, 300)


class ReferenceQueue:
    """Events fired strictly one at a time in (when, seq) order."""

    def __init__(self) -> None:
        self.now = 0
        self.seq = 0
        #: seq -> (when, label, follow-up delay or None)
        self.live = {}

    def schedule(self, delay, label, follow):
        seq = self.seq
        self.seq += 1
        self.live[seq] = (self.now + delay, label, follow)
        return seq

    def cancel(self, seq) -> None:
        self.live.pop(seq, None)

    def advance(self, delta, log) -> None:
        target = self.now + delta
        while self.live:
            seq = min(self.live, key=lambda s: (self.live[s][0], s))
            when, label, follow = self.live[seq]
            if when > target:
                break
            del self.live[seq]
            self.now = when
            log.append((when, label))
            if follow is not None:
                self.schedule(follow, label + "'", None)
        self.now = target


ops = st.lists(st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from(TIMES),
              st.one_of(st.none(), st.sampled_from(TIMES))),
    st.tuples(st.just("cancel"), st.integers(0, 20)),
    st.tuples(st.just("advance"), st.sampled_from(TIMES)),
    st.tuples(st.just("mark")),
    st.tuples(st.just("undo")),
), max_size=40)


@settings(max_examples=300, deadline=None)
@given(ops, st.booleans())
def test_advance_matches_one_event_at_a_time(program, journaled):
    sim = Simulator(wheel_granularity_bits=4, wheel_slots=8)
    journal = UndoJournal() if journaled else None
    sim.bind_journal(journal)
    ref = ReferenceQueue()
    log, ref_log = [], []
    handles = []   # (engine event, reference seq)
    marks = []     # (journal mark, reference snapshot, handle count)

    def fire(label, follow):
        def action():
            log.append((sim.now, label))
            if follow is not None:
                sim.schedule(follow, fire(label + "'", None),
                             label=label + "'", transient=True)
        return action

    for index, op in enumerate(program):
        kind = op[0]
        if kind == "schedule":
            label = f"e{index}"
            event = sim.schedule(op[1], fire(label, op[2]), label=label)
            handles.append((event, ref.schedule(op[1], label, op[2])))
        elif kind == "cancel" and handles:
            event, seq = handles[op[1] % len(handles)]
            event.cancel()
            ref.cancel(seq)
        elif kind == "advance":
            assert sim.advance(op[1]) == ref.now + op[1]
            ref.advance(op[1], ref_log)
        elif kind == "mark" and journal is not None:
            marks.append((journal.mark(), copy.deepcopy(ref.__dict__),
                          len(handles)))
        elif kind == "undo" and marks:
            mark, snapshot, kept = marks.pop()
            journal.undo_to(mark)
            ref.__dict__.update(copy.deepcopy(snapshot))
            # Events scheduled after the mark no longer exist.
            del handles[kept:]
        assert log == ref_log
        assert sim.now == ref.now
        assert sim.pending == len(ref.live)


def test_advance_skips_the_queue_when_nothing_can_be_due():
    sim = Simulator()
    calls = []
    original = sim._drain_until
    sim._drain_until = lambda target: (calls.append(target),
                                       original(target))[1]
    sim.advance(10)                       # nothing live
    sim.schedule(90, lambda: None)        # due at 100
    sim.advance(10)                       # clean head due later
    assert calls == []
    sim.advance(80)                       # head due exactly at the target
    assert calls == [100] and sim.now == 100 and sim.pending == 0
    head = sim.schedule(50, lambda: None)
    sim.schedule(500, lambda: None)
    head.cancel()                         # cancelled head: dirty cache
    sim.advance(10)
    assert calls == [100, 110] and sim.pending == 1
    sim.advance(10)                       # recomputed clean head is later
    assert calls == [100, 110]
