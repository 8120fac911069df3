"""Span-based tests: the engine sees exactly the access sequence the
paper's figures prescribe."""

from tests.conftest import ready_channel


def engine_spans(ws, name=None):
    """The engine's spans (everything under ``dma.initiate``), in begin
    order, optionally only those called *name*."""
    return [s for s in ws.spans.all_spans()
            if s.name != "dma.initiate" and (name is None or s.name == name)]


def span_names(ws):
    return [s.name for s in engine_spans(ws)]


def test_keyed_initiation_trace():
    ws, proc, src, dst, chan = ready_channel("keyed", spans_enabled=True)
    chan.initiate(src.vaddr, dst.vaddr, 64)
    # Fig. 3: two keyed shadow stores, a size store to the context page,
    # then the start fires inside the handling of the status load.
    assert span_names(ws) == ["dma.shadow_store", "dma.shadow_store",
                              "dma.context_store", "dma.context_load",
                              "dma.transfer"]
    (load,) = engine_spans(ws, "dma.context_load")
    (transfer,) = engine_spans(ws, "dma.transfer")
    assert transfer.parent_id == load.span_id


def test_extshadow_initiation_trace():
    ws, proc, src, dst, chan = ready_channel("extshadow", spans_enabled=True)
    chan.initiate(src.vaddr, dst.vaddr, 64)
    names = span_names(ws)
    assert names[0] == "dma.shadow_store"
    assert "dma.transfer" in names
    # Exactly one shadow store and one shadow load (Fig. 4).
    assert names.count("dma.shadow_store") == 1
    assert names.count("dma.shadow_load") == 1


def test_repeated5_trace_shows_five_shadow_accesses():
    ws, proc, src, dst, chan = ready_channel("repeated5", spans_enabled=True)
    chan.initiate(src.vaddr, dst.vaddr, 64, with_retry=False)
    shadow = [n for n in span_names(ws) if n.startswith("dma.shadow")]
    assert shadow == ["dma.shadow_store", "dma.shadow_load",
                      "dma.shadow_store", "dma.shadow_load",
                      "dma.shadow_load"]


def test_trace_records_issuers():
    ws, proc, src, dst, chan = ready_channel("keyed", spans_enabled=True)
    chan.initiate(src.vaddr, dst.vaddr, 64)
    stores = engine_spans(ws, "dma.shadow_store")
    assert stores
    assert all(s.track == f"proc{proc.pid}" for s in stores)


def test_trace_records_decoded_arguments():
    ws, proc, src, dst, chan = ready_channel("extshadow", spans_enabled=True)
    chan.initiate(src.vaddr, dst.vaddr, 64)
    store = engine_spans(ws, "dma.shadow_store")[0]
    assert store.attrs["paddr"] == ws.engine.global_address(dst.paddr)
    transfer = engine_spans(ws, "dma.transfer")[0]
    assert transfer.attrs["psrc"] == ws.engine.global_address(src.paddr)
    assert transfer.attrs["size"] == 64


def test_rejected_start_traced():
    ws, proc, src, dst, chan = ready_channel("extshadow", spans_enabled=True)
    chan.initiate(src.vaddr, dst.vaddr, 1 << 30)  # too large
    (rejected,) = engine_spans(ws, "dma.rejected")
    assert rejected.instant
    assert rejected.attrs["outcome"] == "rejected"
    assert rejected.attrs["size"] == 1 << 30


def test_disabled_trace_costs_nothing():
    ws, proc, src, dst, chan = ready_channel("keyed", spans_enabled=False)
    chan.initiate(src.vaddr, dst.vaddr, 64)
    assert ws.spans.all_spans() == []


def test_cpu_fault_scheduler_switch_and_atomic_op_are_instants():
    from repro.core.atomics import AtomicChannel
    from repro.core.machine import MachineConfig, Workstation
    from repro.hw.isa import Addr, Halt, Load, assemble
    from repro.os.scheduler import RoundRobinPolicy

    ws = Workstation(MachineConfig(method="keyed", atomic_mode="keyed",
                                   spans_enabled=True))
    procs = [ws.kernel.spawn(name) for name in ("a", "b")]
    scheduler = ws.make_scheduler(RoundRobinPolicy(1))
    for proc in procs:
        scheduler.add(proc, proc.new_thread(assemble([
            Load("t0", Addr(None, 0xDEAD0000)), Halt()])))
    scheduler.run()
    ws.kernel.enable_user_atomics(procs[0])
    buf = ws.kernel.alloc_buffer(procs[0], 8192, shadow=False)
    assert AtomicChannel(ws, procs[0]).atomic_add(buf.vaddr, 5).ok

    instants = [s for s in ws.spans.all_spans() if s.instant]
    by_name = {}
    for span in instants:
        by_name.setdefault(span.name, []).append(span)
    assert {s.attrs["pid"] for s in by_name["cpu.fault"]} == {
        p.pid for p in procs}
    assert all(s.attrs["fault"] == "PageFault" and s.track == "cpu0"
               for s in by_name["cpu.fault"])
    assert by_name["sched.switch"][0].attrs["new"] in {p.pid for p in procs}
    (atomic,) = by_name["atomic.op"]
    assert atomic.attrs["op"] == "add" and atomic.track == "atomic"
