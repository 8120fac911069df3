"""Unit tests for the span tracer: nesting, pairing, caps, snapshots."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.spans import NULL_SPAN, SpanTracer, disabled_tracer


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return SpanTracer(clock=clock, enabled=True)


def test_begin_end_records_duration(tracer, clock):
    span = tracer.begin("work")
    clock.now = 500
    tracer.end(span)
    assert span.closed
    assert span.duration == 500
    assert tracer.finished() == [span]


def test_nested_spans_parent_automatically(tracer):
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    assert inner.parent_id == outer.span_id
    tracer.end(inner)
    tracer.end(outer)
    assert outer.parent_id is None


def test_explicit_parent_overrides_stack(tracer):
    a = tracer.begin("a")
    b = tracer.begin("b", parent=None)  # default: stack top (a)
    assert b.parent_id == a.span_id
    c = tracer.begin("c", parent=a, stack=False)
    assert c.parent_id == a.span_id
    tracer.end(c)
    tracer.end(b)
    tracer.end(a)


def test_null_span_parent_means_root(tracer):
    span = tracer.begin("root", parent=NULL_SPAN)
    assert span.parent_id is None
    tracer.end(span)


def test_unbalanced_pairing_raises(tracer):
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(ObservabilityError, match="unbalanced"):
        tracer.end(outer)


def test_double_end_raises(tracer):
    span = tracer.begin("once")
    tracer.end(span)
    with pytest.raises(ObservabilityError, match="not open"):
        tracer.end(span)


def test_end_of_foreign_span_raises(tracer, clock):
    other = SpanTracer(clock=clock, enabled=True)
    span = other.begin("elsewhere")
    with pytest.raises(ObservabilityError):
        tracer.end(span)


def test_background_span_ends_out_of_order(tracer, clock):
    sync = tracer.begin("sync")
    background = tracer.begin("transfer", stack=False)
    tracer.end(sync)          # fine: background never joined the stack
    clock.now = 999
    tracer.end(background)
    assert background.end == 999


def test_context_manager_balances(tracer):
    with tracer.span("phase") as span:
        assert tracer.current is span
    assert span.closed
    tracer.require_balanced()


def test_require_balanced_names_open_spans(tracer):
    tracer.begin("left-open")
    with pytest.raises(ObservabilityError, match="left-open"):
        tracer.require_balanced()


def test_disabled_tracer_returns_null_span():
    tracer = disabled_tracer()
    span = tracer.begin("anything", pid=3)
    assert span is NULL_SPAN
    tracer.end(span)  # no-op, no raise
    assert tracer.instant("cpu.fault", track="cpu0") is NULL_SPAN
    assert len(tracer) == 0
    assert span.set(x=1) is span
    assert span.attrs == {}


def test_instant_is_a_closed_point_under_the_current_parent(tracer, clock):
    outer = tracer.begin("outer")
    clock.now = 70
    point = tracer.instant("fault.store.drop", track="faults", paddr=8)
    assert point.instant and point.closed
    assert (point.start, point.end) == (70, 70)
    assert point.parent_id == outer.span_id
    assert point.attrs == {"paddr": 8}
    # An instant never joins the stack, so the outer span still closes.
    assert tracer.current is outer
    tracer.end(outer)
    assert tracer.finished() == [point, outer]
    assert not outer.instant


def test_max_spans_ring_buffer_caps_finished(clock):
    tracer = SpanTracer(clock=clock, enabled=True, max_spans=3)
    for index in range(7):
        tracer.end(tracer.begin(f"s{index}"))
    assert len(tracer) == 3
    assert [s.name for s in tracer.finished()] == ["s4", "s5", "s6"]
    assert tracer.dropped == 4


def test_attrs_set_on_begin_end_and_chain(tracer):
    span = tracer.begin("dma", pid=1).set(size=64)
    tracer.end(span, outcome="completed")
    assert span.attrs == {"pid": 1, "size": 64, "outcome": "completed"}


def test_snapshot_restore_roundtrip(tracer, clock):
    first = tracer.begin("kept")
    tracer.end(first)
    token = tracer.snapshot()
    span = tracer.begin("discarded")
    tracer.end(span)
    tracer.restore(token)
    assert [s.name for s in tracer.all_spans()] == ["kept"]
    # Span ids continue from the restored counter, not the discarded one.
    again = tracer.begin("again")
    assert again.span_id == span.span_id
    tracer.end(again)


def test_snapshot_is_none_when_disabled_and_empty():
    tracer = disabled_tracer()
    assert tracer.snapshot() is None
    tracer.restore(None)  # restoring the trivial token is a no-op
    assert len(tracer) == 0


def test_clear_resets_everything(tracer):
    tracer.end(tracer.begin("a"))
    tracer.begin("open")
    tracer.clear()
    assert tracer.all_spans() == []
    assert tracer.current is None
