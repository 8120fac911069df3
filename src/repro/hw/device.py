"""Base class for memory-mapped (MMIO) devices.

Devices attach to a :class:`repro.hw.bus.Bus` at a physical window and
receive word-sized reads and writes.  Each access carries the issuing
context (:class:`AccessContext`) so devices can trace *who* touched them —
the protocol FSMs must not use the issuer identity (that is the point of
the paper), but the verification layer asserts properties against it, and
the FLASH baseline consumes the identity only through its explicit
current-process register.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple, Optional

from ..units import Time


class AccessContext(NamedTuple):
    """Metadata travelling with a bus access.

    A named tuple because one is built per bus access: it is cheap to
    construct, immutable, and hashes and prints like a frozen dataclass.

    Attributes:
        issuer: process id of the instruction that caused the access, or
            None for accesses with no process context (e.g. DMA engines
            mastering the bus).
        kernel: whether the access was issued from kernel mode.
        when: bus-delivery timestamp in ps.
    """

    issuer: Optional[int]
    kernel: bool
    when: Time


class MmioDevice(ABC):
    """A device occupying a window of physical address space.

    Subclasses implement word-granularity register semantics.  Offsets are
    relative to the device's window base.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    @abstractmethod
    def mmio_read(self, offset: int, ctx: AccessContext) -> int:
        """Handle a word read at *offset*; return the 64-bit value."""

    @abstractmethod
    def mmio_write(self, offset: int, value: int, ctx: AccessContext) -> None:
        """Handle a word write of *value* at *offset*."""

    def reset(self) -> None:
        """Return the device to power-on state.  Default: nothing."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
