"""The CPU model.

Executes :class:`~repro.hw.isa.Program` instruction streams against an MMU,
a write buffer, and the I/O bus, advancing the simulation clock by a
calibrated per-instruction cost.  The model captures exactly the properties
the paper's protocols depend on:

* **Interruptibility** — the scheduler may preempt a thread *between* any
  two instructions (that is what breaks SHRIMP-2/FLASH without kernel
  hooks), but never inside a PAL call or a syscall, which execute as one
  indivisible :meth:`Cpu.step`.
* **Posted writes** — uncached stores land in the write buffer and reach
  the device later (in FIFO order), possibly collapsed, unless an ``MB``
  or an uncached load forces a drain.
* **Protection** — every user-mode access is checked by the MMU against
  the active page table, including accesses issued from PAL mode (PAL code
  is privileged only in that it cannot be interrupted; its loads and
  stores still translate through the user's mappings, which is precisely
  why the paper's PAL method is safe).

Costs are expressed in CPU cycles via :class:`CpuCosts` and converted
through the CPU clock domain once, at construction; bus-side costs come
from the bus itself.

A program runs from its decoded form (:func:`decoded`): one handler per
instruction, built the first time the program runs and kept on it, so
:meth:`Cpu.run` and the scheduler's :meth:`Cpu.step` dispatch without
re-inspecting instruction types or operands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigError, PageFault, ProtectionFault, ReproError
from ..obs.spans import SpanTracer, disabled_tracer
from ..sim.clock import Clock
from ..sim.engine import Simulator
from ..sim.stats import StatRegistry
from ..units import Time
from .bus import Bus
from .device import AccessContext
from .isa import (
    Add,
    Addr,
    Beq,
    Bne,
    CallPal,
    CompareExchange,
    Halt,
    Instruction,
    Jump,
    Load,
    Mb,
    Mov,
    Nop,
    Operand,
    PAL_MAX_INSTRUCTIONS,
    Program,
    Store,
    Syscall,
)
from .mmu import Mmu
from .pagetable import PageTable
from .writebuffer import WriteBuffer

WORD_MASK = (1 << 64) - 1

#: Signature of a registered syscall handler: (thread, cpu) -> result.
SyscallHandler = Callable[["Thread", "Cpu"], int]


@dataclass(frozen=True)
class CpuCosts:
    """Per-instruction cycle costs (CPU clock domain).

    Calibrated in :mod:`repro.core.timing`; see DESIGN.md §6.
    """

    base_cycles: float = 1.0
    mem_cycles: float = 2.0
    uncached_issue_cycles: float = 4.0
    mb_cycles: float = 3.0
    branch_cycles: float = 2.0
    pal_entry_cycles: float = 25.0
    pal_exit_cycles: float = 10.0
    syscall_entry_cycles: float = 1100.0
    syscall_exit_cycles: float = 1100.0


class StepStatus(Enum):
    """Outcome of executing one instruction."""

    RUNNING = auto()
    HALTED = auto()
    FAULTED = auto()


@dataclass
class Fault:
    """A memory-management fault delivered to a thread."""

    kind: str
    vaddr: int
    access: str
    pc: int


@dataclass
class Thread:
    """An executable context: program counter, registers, address space.

    Threads are owned by OS processes (:mod:`repro.os.process`); the CPU
    only needs the fields here.
    """

    pid: int
    page_table: PageTable
    program: Program
    pc: int = 0
    registers: Dict[str, int] = field(default_factory=dict)
    halted: bool = False
    fault: Optional[Fault] = None
    instructions_retired: int = 0

    def __post_init__(self) -> None:
        self.registers.setdefault("zero", 0)

    def reg(self, name: str) -> int:
        """Read register *name* (unset registers read as 0)."""
        if name == "zero":
            return 0
        return self.registers.get(name, 0)

    def set_reg(self, name: str, value: int) -> None:
        """Write register *name* (writes to ``zero`` are discarded)."""
        if name == "zero":
            return
        self.registers[name] = value & WORD_MASK

    def set_args(self, *values: int) -> None:
        """Load *values* into the argument registers a0, a1, ..."""
        if len(values) > 6:
            raise ConfigError(f"too many syscall/PAL args: {len(values)}")
        for index, value in enumerate(values):
            self.set_reg(f"a{index}", value)

    @property
    def done(self) -> bool:
        """Whether the thread can no longer run."""
        return self.halted or self.fault is not None

    def restart(self, program: Optional[Program] = None) -> None:
        """Reset control flow (and optionally swap the program)."""
        if program is not None:
            self.program = program
        self.pc = 0
        self.halted = False
        self.fault = None


class Cpu:
    """A single simulated processor.

    Args:
        sim: the discrete-event simulator (global clock).
        clock: the CPU clock domain.
        mmu: the memory-management unit.
        bus: the I/O bus (also reaches RAM).
        write_buffer: the posted-store buffer.
        costs: per-instruction cycle costs.
        spans: optional shared span tracer; a fault becomes an instant
            ``cpu.fault`` span on this CPU's track.
        name: component name for stats/traces.
    """

    def __init__(self, sim: Simulator, clock: Clock, mmu: Mmu, bus: Bus,
                 write_buffer: WriteBuffer, costs: CpuCosts,
                 spans: Optional[SpanTracer] = None, name: str = "cpu0",
                 cache=None) -> None:
        self.sim = sim
        self.clock = clock
        self.mmu = mmu
        self.bus = bus
        self.write_buffer = write_buffer
        self.costs = costs
        self.spans = spans if spans is not None else disabled_tracer()
        self.name = name
        #: Optional data cache (repro.hw.cache.DataCache); when present,
        #: cached RAM accesses pay its hit/miss cycles instead of the
        #: flat mem_cycles cost.
        self.cache = cache
        self.stats = StatRegistry(name)
        # The counters every instruction bumps, looked up once: the
        # registry resets counters in place, so these stay live.
        counter = self.stats.counter
        self._instructions = counter("instructions")
        self._loads = counter("loads")
        self._stores = counter("stores")
        self._uncached_loads = counter("uncached_loads")
        self._uncached_stores = counter("uncached_stores")
        # The fixed per-instruction costs in ps (the clock and the cost
        # table never change after construction).
        cycles = clock.cycles
        self._base_ps = cycles(costs.base_cycles)
        self._mem_ps = cycles(costs.mem_cycles)
        self._mb_ps = cycles(costs.mb_cycles)
        self._branch_ps = cycles(costs.branch_cycles)
        self._uncached_ps = cycles(costs.base_cycles
                                   + costs.uncached_issue_cycles)
        self._pal_entry_ps = cycles(costs.pal_entry_cycles)
        self._pal_exit_ps = cycles(costs.pal_exit_cycles)
        self._syscall_entry_ps = cycles(costs.syscall_entry_cycles)
        self._syscall_exit_ps = cycles(costs.syscall_exit_cycles)
        self._pal_functions: Dict[str, Program] = {}
        self._syscalls: Dict[str, SyscallHandler] = {}
        self._in_pal = False
        self._in_kernel = False

    # -- configuration ---------------------------------------------------------

    def install_pal_function(self, name: str, program: Program) -> None:
        """Install a PAL call (super-user operation in the paper).

        Raises:
            ConfigError: if the program exceeds the 16-instruction PAL slot
                or contains nested CALL_PAL/SYSCALL instructions.
        """
        if len(program) > PAL_MAX_INSTRUCTIONS:
            raise ConfigError(
                f"PAL function {name!r} has {len(program)} instructions; "
                f"PAL calls are limited to {PAL_MAX_INSTRUCTIONS}")
        for instr in program.instructions:
            if isinstance(instr, (CallPal, Syscall)):
                raise ConfigError(
                    f"PAL function {name!r} may not trap or nest PAL calls")
        self._pal_functions[name] = program

    def register_syscall(self, name: str, handler: SyscallHandler) -> None:
        """Register the kernel handler for syscall *name*."""
        self._syscalls[name] = handler

    @property
    def pal_function_names(self) -> List[str]:
        """Installed PAL call names."""
        return sorted(self._pal_functions)

    def pal_function(self, name: str) -> Program:
        """The installed PAL program *name*.

        Raises:
            ConfigError: if no such PAL function is installed.
        """
        if name not in self._pal_functions:
            raise ConfigError(f"no PAL function {name!r} installed")
        return self._pal_functions[name]

    # -- execution ----------------------------------------------------------------

    def step(self, thread: Thread) -> StepStatus:
        """Execute one instruction of *thread*, advancing simulated time.

        The caller (scheduler) is responsible for having activated the
        thread's page table.  PAL calls and syscalls complete entirely
        within one step — this is the atomicity the paper leans on.
        """
        if thread.halted:
            return StepStatus.HALTED
        if thread.fault is not None:
            return StepStatus.FAULTED
        ops = decoded(thread.program)
        pc = thread.pc
        if pc >= len(ops):
            thread.halted = True
            return StepStatus.HALTED
        try:
            thread.pc = ops[pc](self, thread)
        except (PageFault, ProtectionFault) as exc:
            thread.fault = Fault(
                kind=type(exc).__name__,
                vaddr=exc.vaddr,
                access=exc.access,
                pc=thread.pc,
            )
            self.stats.counter("faults").add()
            if self.spans.enabled:
                self.spans.instant("cpu.fault", track=self.name,
                                   pid=thread.pid, pc=thread.pc,
                                   fault=thread.fault.kind, vaddr=exc.vaddr)
            return StepStatus.FAULTED
        thread.instructions_retired += 1
        self._instructions.value += 1
        if thread.halted:
            return StepStatus.HALTED
        return StepStatus.RUNNING

    def run(self, thread: Thread, max_instructions: int = 1_000_000,
            ) -> StepStatus:
        """Run *thread* to completion (no preemption).

        Activates the thread's page table first, flushing the TLB only
        when the address space actually changes (so repeated runs by one
        process keep a warm TLB, as the paper's 1,000-iteration loops
        would).  Single-threaded convenience used by benchmarks and
        examples; multiprogrammed execution goes through
        :mod:`repro.os.scheduler`.

        Raises:
            ReproError: if the instruction budget is exhausted (runaway
                loop in a generated program).
        """
        switching = self.mmu.page_table is not thread.page_table
        self.mmu.activate(thread.page_table, flush=switching)
        for _ in range(max_instructions):
            status = self.step(thread)
            if status is not StepStatus.RUNNING:
                return status
        raise ReproError(
            f"thread {thread.pid} exceeded {max_instructions} instructions")

    # -- memory paths ------------------------------------------------------------------

    def _load(self, thread: Thread, dst: str, vaddr: int) -> None:
        translation = self.mmu.translate(vaddr, "read", not self._in_kernel)
        sim = self.sim
        sim.advance(translation.cost)
        paddr = translation.paddr
        bus = self.bus
        hit = bus.find_window(paddr)
        if hit is not None:
            write_buffer = self.write_buffer
            if write_buffer.relaxed:
                forwarded = write_buffer.forward(paddr)
                if forwarded is not None:
                    # Relaxed write buffer: the load is serviced from a
                    # pending same-address store and never reaches the
                    # device (footnote 6's failure mode).
                    sim.advance(self._base_ps)
                    thread.set_reg(dst, forwarded)
                    self.stats.counter("forwarded_loads").add()
                    return
            else:
                # Strongly ordered interface: drain before the load.
                self._flush_write_buffer(thread)
            sim.advance(self._uncached_ps)
            value, bus_cost = bus.read_word(paddr, self._access_ctx(thread),
                                            hit)
            sim.advance(bus_cost)
            self._uncached_loads.value += 1
        else:
            sim.advance(self._mem_ps if self.cache is None
                        else self.clock.cycles(self.cache.access(paddr)))
            value = bus.ram.read_word(paddr)
            self._loads.value += 1
        thread.set_reg(dst, value)

    def _store(self, thread: Thread, vaddr: int, value: int) -> None:
        translation = self.mmu.translate(vaddr, "write", not self._in_kernel)
        sim = self.sim
        sim.advance(translation.cost)
        paddr = translation.paddr
        if self.bus.is_device(paddr):
            sim.advance(self._uncached_ps)
            # post() advances time itself (inside the drain fn) when it
            # has to make room; its returned cost is informational.
            self.write_buffer.post(paddr, value & WORD_MASK,
                                   self._drain_fn(thread))
            self._uncached_stores.value += 1
        else:
            sim.advance(self._mem_ps if self.cache is None
                        else self.clock.cycles(self.cache.access(paddr)))
            self.bus.ram.write_word(paddr, value & WORD_MASK)
            self._stores.value += 1

    def _exchange(self, thread: Thread, dst: str, vaddr: int,
                  value: int) -> None:
        # An atomic RMW needs both read and write rights.
        translation = self.mmu.translate(vaddr, "write",
                                         user_mode=not self._in_kernel)
        self.mmu.translate(vaddr, "read", user_mode=not self._in_kernel)
        self.sim.advance(translation.cost)
        paddr = translation.paddr
        self._flush_write_buffer(thread)
        self.sim.advance(self._uncached_ps)
        hit = self.bus.find_window(paddr)
        if hit is not None:
            device, offset = hit
            exchange = getattr(device, "mmio_exchange", None)
            if exchange is None:
                from ..errors import DeviceError

                raise DeviceError(
                    f"device {device.name} does not support atomic exchange")
            old = exchange(offset, value & WORD_MASK, self._access_ctx(thread))
            cost = self.bus.clock.cycles(
                self.bus.timing.device_read_cycles
                + self.bus.timing.device_write_cycles - 4)
            self.sim.advance(cost)
        else:
            old = self.bus.ram.read_word(paddr)
            self.bus.ram.write_word(paddr, value & WORD_MASK)
            self.sim.advance(self._mem_ps)
        thread.set_reg(dst, old)
        self.stats.counter("exchanges").add()

    def _drain_fn(self, thread: Thread):
        """Build the write-buffer drain callback for *thread*'s stores."""

        def drain(paddr: int, value: int) -> Time:
            cost = self.bus.write_word(paddr, value, self._access_ctx(thread))
            self.sim.advance(cost)
            return cost

        return drain

    def _flush_write_buffer(self, thread: Thread) -> None:
        if len(self.write_buffer):
            self.write_buffer.flush(self._drain_fn(thread))

    def drain_write_buffer(self, thread: Thread) -> None:
        """Flush posted stores on behalf of *thread* (scheduler use).

        The hardware keeps draining across a context switch; the scheduler
        calls this before swapping address spaces so a preempted thread's
        posted stores still reach the device in order.
        """
        self._flush_write_buffer(thread)

    # -- traps ----------------------------------------------------------------------------

    def _call_pal(self, thread: Thread, name: str) -> None:
        if name not in self._pal_functions:
            raise ConfigError(f"no PAL function {name!r} installed")
        if self._in_pal:
            raise ConfigError("nested PAL calls are not allowed")
        self.stats.counter("pal_calls").add()
        self.sim.advance(self._pal_entry_ps)
        pal_program = self._pal_functions[name]
        ops = decoded(pal_program)
        self._in_pal = True
        saved_program, saved_pc = thread.program, thread.pc
        try:
            thread.program, thread.pc = pal_program, 0
            # Execute the entire PAL body inside this one step():
            # uninterruptible by construction.
            guard = 4 * PAL_MAX_INSTRUCTIONS
            while thread.pc < len(ops) and not thread.halted:
                thread.pc = ops[thread.pc](self, thread)
                guard -= 1
                if guard <= 0:
                    raise ConfigError(
                        f"PAL function {name!r} looped past its slot")
        finally:
            self._in_pal = False
            thread.program, thread.pc = saved_program, saved_pc
            thread.halted = False
        self.sim.advance(self._pal_exit_ps)

    def _syscall(self, thread: Thread, name: str) -> None:
        handler = self._syscalls.get(name)
        if handler is None:
            raise ConfigError(f"no syscall {name!r} registered")
        self.stats.counter("syscalls").add()
        self.sim.advance(self._syscall_entry_ps)
        self._in_kernel = True
        try:
            result = handler(thread, self)
        finally:
            self._in_kernel = False
        thread.set_reg("v0", result & WORD_MASK)
        self.sim.advance(self._syscall_exit_ps)

    # -- helpers ---------------------------------------------------------------------------

    @property
    def in_kernel(self) -> bool:
        """Whether a syscall handler is currently executing."""
        return self._in_kernel

    def _access_ctx(self, thread: Thread) -> AccessContext:
        return AccessContext(thread.pid, self._in_kernel, self.sim.now)


# -- the decoded form ----------------------------------------------------------------

#: One decoded instruction: ``handler(cpu, thread)`` executes it and
#: returns the next pc.
Handler = Callable[[Cpu, Thread], int]


def decoded(program: Program) -> Tuple[Handler, ...]:
    """*program*'s instructions as handlers, decoded once per program.

    Decoding resolves everything an instruction fixes: whether each
    operand is a register or an immediate, absolute versus based
    addresses, branch targets and the fall-through pc.  Handlers take
    the CPU as an argument, so one shared (memoised) program is decoded
    once for every CPU that runs it; the result is kept on the program.
    """
    ops = program.decoded
    if ops is None:
        ops = tuple(_decode(program, index, instr)
                    for index, instr in enumerate(program.instructions))
        object.__setattr__(program, "decoded", ops)
    return ops


def _operand(operand: Operand) -> Tuple[Optional[str], int]:
    """``(register, immediate)``: read the register unless it is None.

    The ``zero`` register always reads 0, so it decodes as an immediate.
    """
    if isinstance(operand, str):
        if operand == "zero":
            return None, 0
        return operand, 0
    return None, operand & WORD_MASK


def _address(addr: Addr) -> Tuple[Optional[str], int]:
    """``(base register, displacement)``; an absolute address has no base."""
    if addr.base is None or addr.base == "zero":
        return None, addr.disp & WORD_MASK
    return addr.base, addr.disp


def _decode(program: Program, index: int, instr: Instruction) -> Handler:
    nxt = index + 1
    if isinstance(instr, (Store, Load, CompareExchange)):
        base, disp = _address(instr.addr)
        if isinstance(instr, Store):
            src, imm = _operand(instr.src)

            def store(cpu: Cpu, thread: Thread) -> int:
                regs = thread.registers
                cpu._store(thread,
                           disp if base is None
                           else (regs.get(base, 0) + disp) & WORD_MASK,
                           imm if src is None else regs.get(src, 0))
                return nxt
            return store
        if isinstance(instr, Load):
            dst = instr.dst

            def load(cpu: Cpu, thread: Thread) -> int:
                cpu._load(thread, dst, disp if base is None else
                          (thread.registers.get(base, 0) + disp) & WORD_MASK)
                return nxt
            return load
        dst = instr.dst
        src, imm = _operand(instr.src)

        def exchange(cpu: Cpu, thread: Thread) -> int:
            regs = thread.registers
            cpu._exchange(thread, dst,
                          disp if base is None
                          else (regs.get(base, 0) + disp) & WORD_MASK,
                          imm if src is None else regs.get(src, 0))
            return nxt
        return exchange
    if isinstance(instr, Mov):
        dst = instr.dst
        src, imm = _operand(instr.src)

        def mov(cpu: Cpu, thread: Thread) -> int:
            thread.set_reg(dst, imm if src is None
                           else thread.registers.get(src, 0))
            cpu.sim.advance(cpu._base_ps)
            return nxt
        return mov
    if isinstance(instr, Add):
        dst = instr.dst
        reg_a, imm_a = _operand(instr.a)
        reg_b, imm_b = _operand(instr.b)

        def add(cpu: Cpu, thread: Thread) -> int:
            regs = thread.registers
            thread.set_reg(dst,
                           (imm_a if reg_a is None else regs.get(reg_a, 0))
                           + (imm_b if reg_b is None else regs.get(reg_b, 0)))
            cpu.sim.advance(cpu._base_ps)
            return nxt
        return add
    if isinstance(instr, (Beq, Bne)):
        reg_a, imm_a = _operand(instr.a)
        reg_b, imm_b = _operand(instr.b)
        label = instr.target
        target = program.labels.get(label)
        taken_if_equal = isinstance(instr, Beq)

        def branch(cpu: Cpu, thread: Thread) -> int:
            cpu.sim.advance(cpu._branch_ps)
            regs = thread.registers
            equal = ((imm_a if reg_a is None else regs.get(reg_a, 0))
                     == (imm_b if reg_b is None else regs.get(reg_b, 0)))
            if equal is taken_if_equal:
                # An unknown label raises only when the branch is taken.
                return target if target is not None \
                    else program.target(label)
            return nxt
        return branch
    if isinstance(instr, Jump):
        label = instr.target
        target = program.labels.get(label)

        def jump(cpu: Cpu, thread: Thread) -> int:
            cpu.sim.advance(cpu._branch_ps)
            return target if target is not None else program.target(label)
        return jump
    if isinstance(instr, Halt):
        def halt(cpu: Cpu, thread: Thread) -> int:
            thread.halted = True
            cpu.sim.advance(cpu._base_ps)
            # The buffer keeps draining after the program ends; model it
            # as a final flush so no posted store is ever lost.
            cpu._flush_write_buffer(thread)
            return nxt
        return halt
    if isinstance(instr, Syscall):
        name = instr.name

        def syscall(cpu: Cpu, thread: Thread) -> int:
            cpu._syscall(thread, name)
            return nxt
        return syscall
    if isinstance(instr, Mb):
        def mb(cpu: Cpu, thread: Thread) -> int:
            cpu.sim.advance(cpu._mb_ps)
            cpu._flush_write_buffer(thread)
            cpu.stats.counter("mbs").add()
            return nxt
        return mb
    if isinstance(instr, CallPal):
        name = instr.name

        def call_pal(cpu: Cpu, thread: Thread) -> int:
            cpu._call_pal(thread, name)
            return nxt
        return call_pal
    if isinstance(instr, Nop):
        def nop(cpu: Cpu, thread: Thread) -> int:
            cpu.sim.advance(cpu._base_ps)
            return nxt
        return nop

    def unknown(cpu: Cpu, thread: Thread) -> int:
        raise ConfigError(f"unknown instruction {instr!r}")
    return unknown
