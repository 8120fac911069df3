"""The decoded interpreter against the ``isinstance`` interpreter it replaced.

Random valid programs (loads, stores, barriers, moves, adds, branches and
the ``dma`` syscall, against a mapped RAM page, the DMA engine's device
window and an unmapped page) run on twin machines: one through a
test-local copy of the per-instruction semantics the decoded handlers
replaced, one through ``Cpu.step``, one through ``Cpu.run`` one
instruction at a time, and one through a single ``Cpu.run``.  The
machine state must match after every instruction and at the end.
"""

import json
import pathlib

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tests.conftest import ready_channel

from repro.analysis.trends import measure_initiation_us
from repro.core.methods import MODERN_METHODS, TABLE1_METHODS
from repro.errors import PageFault, ProtectionFault, ReproError
from repro.hw.cpu import WORD_MASK, Fault, StepStatus, decoded
from repro.hw.isa import (
    Add,
    Addr,
    Beq,
    Bne,
    Halt,
    Label,
    Load,
    Mb,
    Mov,
    Nop,
    Store,
    Syscall,
    assemble,
)
from repro.os.process import shadow_vaddr

#: Instructions a generated program may execute before it is cut off.
BUDGET = 48
REGISTERS = ("v0", "a0", "a1", "a2", "t0", "t1", "zero")
LABELS = ("L0", "L1", "L2")

#: Addresses of the ready_channel("keyed") machine: its source buffer
#: (RAM), the buffer's shadow page and the register-context page (both
#: device window), and an unmapped page (faults).
_, _PROC, _SRC, _DST, _ = ready_channel("keyed")
RAM_ADDRS = tuple(_SRC.vaddr + 8 * i for i in range(4))
DEVICE_ADDRS = (shadow_vaddr(_SRC.vaddr), shadow_vaddr(_DST.vaddr),
                _PROC.dma_binding.ctx_page_vaddr)
UNMAPPED = 0x7FFF_0000
IMMEDIATES = (0, 1, 64, 4096, _SRC.vaddr, _DST.vaddr, 2 ** 64 - 1)
#: Starting register values: based addresses off them land in RAM, in
#: the device window, on an unmapped page, or wrap past 2**64.
BASES = (0, _SRC.vaddr, shadow_vaddr(_SRC.vaddr),
         _PROC.dma_binding.ctx_page_vaddr, 2 ** 64 - 8)


def _operand():
    return st.one_of(st.sampled_from(REGISTERS), st.sampled_from(IMMEDIATES))


def _address():
    absolute = st.sampled_from(RAM_ADDRS + DEVICE_ADDRS + (UNMAPPED,)).map(
        lambda vaddr: Addr(None, vaddr))
    based = st.builds(Addr, st.sampled_from(REGISTERS),
                      st.sampled_from((0, 8, 16)))
    return st.one_of(absolute, based)


def _instruction():
    dst = st.sampled_from(REGISTERS)
    label = st.sampled_from(LABELS)
    return st.one_of(
        st.builds(Load, dst, _address()),
        st.builds(Store, _address(), _operand()),
        st.just(Mb()),
        st.builds(Mov, dst, _operand()),
        st.builds(Add, dst, _operand(), _operand()),
        st.builds(Beq, _operand(), _operand(), label),
        st.builds(Bne, _operand(), _operand(), label),
        st.just(Syscall("dma")),
        st.just(Nop()),
        st.just(Halt()),
    )


@st.composite
def programs(draw):
    """A program and its starting registers (so based addresses reach
    the mapped pages and wrap around the top of the address space)."""
    body = draw(st.lists(_instruction(), min_size=1, max_size=14))
    for name in LABELS:
        body.insert(draw(st.integers(0, len(body))), Label(name))
    registers = draw(st.fixed_dictionaries(
        {reg: st.sampled_from(BASES) for reg in REGISTERS[:-1]}))
    return assemble(body, name="generated"), registers


def _machine(program, registers):
    ws, proc, _src, _dst, _chan = ready_channel("keyed")
    ws.cpu.mmu.activate(proc.page_table, flush=True)
    thread = proc.new_thread(program)
    for reg, value in registers.items():
        thread.set_reg(reg, value)
    return ws, thread


def _state(ws, thread):
    return {
        "registers": dict(thread.registers),
        "pc": thread.pc,
        "halted": thread.halted,
        "fault": thread.fault,
        "now": ws.sim.now,
        "pending": ws.sim.pending,
        "retired": thread.instructions_retired,
        "cpu": ws.cpu.stats.snapshot(),
        "bus": ws.bus.stats.snapshot(),
        "src": ws.bus.ram.read(_SRC.paddr, 32),
        "dst": ws.bus.ram.read(_DST.paddr, 64),
    }


def _value(thread, operand):
    if isinstance(operand, str):
        return thread.reg(operand)
    return operand & WORD_MASK


def _effective(thread, addr):
    base = thread.reg(addr.base) if addr.base is not None else 0
    return (base + addr.disp) & WORD_MASK


def _reference_execute(cpu, thread, instr):
    """One instruction by type dispatch, costs converted on the spot.

    The memory paths (``Cpu._load``/``_store``) are shared with the
    decoded handlers; operand and address decoding, branch polarity and
    every fixed cost are computed here independently.
    """
    pc = thread.pc
    cycles = cpu.clock.cycles
    costs = cpu.costs
    if isinstance(instr, Store):
        cpu._store(thread, _effective(thread, instr.addr),
                   _value(thread, instr.src))
        return pc + 1
    if isinstance(instr, Load):
        cpu._load(thread, instr.dst, _effective(thread, instr.addr))
        return pc + 1
    if isinstance(instr, Mov):
        thread.set_reg(instr.dst, _value(thread, instr.src))
        cpu.sim.advance(cycles(costs.base_cycles))
        return pc + 1
    if isinstance(instr, Halt):
        thread.halted = True
        cpu.sim.advance(cycles(costs.base_cycles))
        cpu.write_buffer.flush(cpu._drain_fn(thread))
        return pc + 1
    if isinstance(instr, Syscall):
        cpu.stats.counter("syscalls").add()
        cpu.sim.advance(cycles(costs.syscall_entry_cycles))
        cpu._in_kernel = True
        try:
            result = cpu._syscalls[instr.name](thread, cpu)
        finally:
            cpu._in_kernel = False
        thread.set_reg("v0", result & WORD_MASK)
        cpu.sim.advance(cycles(costs.syscall_exit_cycles))
        return pc + 1
    if isinstance(instr, Mb):
        cpu.sim.advance(cycles(costs.mb_cycles))
        cpu.write_buffer.flush(cpu._drain_fn(thread))
        cpu.stats.counter("mbs").add()
        return pc + 1
    if isinstance(instr, (Beq, Bne)):
        cpu.sim.advance(cycles(costs.branch_cycles))
        equal = _value(thread, instr.a) == _value(thread, instr.b)
        if equal == isinstance(instr, Beq):
            return thread.program.target(instr.target)
        return pc + 1
    if isinstance(instr, Add):
        thread.set_reg(instr.dst,
                       _value(thread, instr.a) + _value(thread, instr.b))
        cpu.sim.advance(cycles(costs.base_cycles))
        return pc + 1
    if isinstance(instr, Nop):
        cpu.sim.advance(cycles(costs.base_cycles))
        return pc + 1
    raise AssertionError(f"generator made {instr!r}")


def _reference_step(cpu, thread):
    if thread.done:
        return StepStatus.HALTED if thread.halted else StepStatus.FAULTED
    instructions = thread.program.instructions
    if thread.pc >= len(instructions):
        thread.halted = True
        return StepStatus.HALTED
    try:
        thread.pc = _reference_execute(cpu, thread,
                                       instructions[thread.pc])
    except (PageFault, ProtectionFault) as exc:
        thread.fault = Fault(kind=type(exc).__name__, vaddr=exc.vaddr,
                             access=exc.access, pc=thread.pc)
        cpu.stats.counter("faults").add()
        return StepStatus.FAULTED
    thread.instructions_retired += 1
    cpu.stats.counter("instructions").add()
    return StepStatus.HALTED if thread.halted else StepStatus.RUNNING


def _outcome(call):
    """What *call* returned, or the type and message of the simulator
    error it raised (a syscall may reject its arguments that way)."""
    try:
        return call()
    except ReproError as exc:
        return type(exc).__name__, str(exc)


def _ran_out(outcome, thread, budget):
    """What ``Cpu.run`` reports where one-at-a-time stepping saw
    *outcome* after *budget* instructions."""
    if outcome is StepStatus.RUNNING:
        return ("ReproError",
                f"thread {thread.pid} exceeded {budget} instructions")
    return outcome


#: Always-run cases for what a decoder gets wrong most easily.
WRAPPED_LOAD = (assemble([Load("a0", Addr("t0", 16)), Halt()]),
                {"t0": 2 ** 64 - 8})
WRAPPED_STORE = (assemble([Store(Addr("t0", 16), 1), Halt()]),
                 {"t0": 2 ** 64 - 8})
ZERO_REGISTER = (assemble([
    Mov("a0", "zero"), Add("a1", "zero", 1),
    Store(Addr(None, _SRC.vaddr), "zero"), Beq("zero", 0, "skip"),
    Mov("t0", 1), Label("skip"), Halt()]), {"a0": 7})
BRANCHES = (assemble([
    Beq(1, 1, "one"), Mov("t0", 5), Label("one"), Bne("a0", 0, "two"),
    Mov("t1", 6), Label("two"), Bne(1, 1, "three"), Mov("a1", 9),
    Label("three"), Halt()]), {"a0": 3})


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs())
@example(WRAPPED_LOAD)
@example(WRAPPED_STORE)
@example(ZERO_REGISTER)
@example(BRANCHES)
def test_decoded_handlers_match_the_reference_after_every_instruction(
        generated):
    ref_ws, reference = _machine(*generated)
    stepped_ws, stepped = _machine(*generated)
    run_ws, by_run = _machine(*generated)
    whole_ws, whole = _machine(*generated)

    outcome = None
    for _ in range(BUDGET):
        outcome = _outcome(lambda: _reference_step(ref_ws.cpu, reference))
        assert _outcome(lambda: stepped_ws.cpu.step(stepped)) == outcome
        assert _state(stepped_ws, stepped) == _state(ref_ws, reference)
        assert _outcome(lambda: run_ws.cpu.run(by_run, max_instructions=1)) \
            == _ran_out(outcome, by_run, 1)
        assert _state(run_ws, by_run) == _state(ref_ws, reference)
        if outcome is not StepStatus.RUNNING:
            break

    assert _outcome(lambda: whole_ws.cpu.run(whole, max_instructions=BUDGET)) \
        == _ran_out(outcome, whole, BUDGET)
    assert _state(whole_ws, whole) == _state(ref_ws, reference)
