"""Shadow-address encoding and decoding (§2.3, §3.2).

A *shadow address* is a physical address inside the DMA engine's window
that the engine interprets as "the argument is this physical address" —
no load or store is actually performed there.  The OS creates, for every
communication page a process owns, a second (uncached) virtual mapping
whose physical side is ``shadow(paddr)``; the MMU therefore guarantees that
a process can only emit shadow addresses for pages it has rights on.

Two encodings share one codec:

* **Plain shadow** (§2.3): ``shadow(p) = SHADOW_BASE + p`` — used by the
  SHRIMP, PAL, key-based and repeated-passing methods (context id 0).
* **Extended shadow** (§3.2): the high bits of the shadow physical address
  carry a small CONTEXT_ID assigned per process by the OS, so the engine
  knows *which process* each access belongs to without any kernel hook:
  ``shadow(p, ctx) = SHADOW_BASE + (ctx << ctx_shift) + p``.

The layout also fixes where the register-context pages and privileged
pages sit inside the engine window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

from ...errors import AddressError, ConfigError
from ..pagetable import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE


class ShadowRef(NamedTuple):
    """A decoded shadow access target (one per shadow-region access).

    Attributes:
        ctx_id: the CONTEXT_ID carried in the address (0 under plain
            shadow encoding).
        paddr: the physical address being passed as an argument.
    """

    ctx_id: int
    paddr: int


@dataclass(frozen=True)
class ShadowLayout:
    """Geometry of the DMA engine's physical window.

    Window map (offsets relative to ``window_base``)::

        [0, n_contexts * PAGE)          register-context pages, one per ctx
        [n_contexts * PAGE, +PAGE)      key table (kernel-only)
        [(n_contexts+1) * PAGE, +PAGE)  control page (kernel-only, Fig. 1
                                        registers + hook registers)
        [shadow_offset, shadow_offset + (1 << (ctx_bits + ctx_shift)))
                                        the shadow region

    Attributes:
        window_base: physical base of the whole engine window.
        n_contexts: number of register contexts (paper: "say 4 to 8").
        ctx_bits: width of the CONTEXT_ID field (paper envisions 1-2 bits
            for extended shadow; the keyed method can use more).
        ctx_shift: bits of argument address space per context; every
            physical memory address the engine can name must fit below
            ``1 << ctx_shift``.
        shadow_offset: offset of the shadow region inside the window.
    """

    window_base: int = 1 << 40
    n_contexts: int = 4
    ctx_bits: int = 2
    ctx_shift: int = 34
    shadow_offset: int = 1 << 36

    def __post_init__(self) -> None:
        if self.window_base & PAGE_MASK:
            raise ConfigError("window_base must be page-aligned")
        if not 1 <= self.n_contexts <= 64:
            raise ConfigError(
                f"n_contexts must be in [1, 64], got {self.n_contexts}")
        if self.ctx_bits < 0 or (1 << self.ctx_bits) < self.n_contexts:
            raise ConfigError(
                f"ctx_bits={self.ctx_bits} cannot name "
                f"{self.n_contexts} contexts")
        if self.shadow_offset < (self.n_contexts + 2) * PAGE_SIZE:
            raise ConfigError("shadow region overlaps register pages")

    # -- derived geometry -----------------------------------------------------
    # Computed once per layout (every engine access decodes through
    # them); cached_property stores the value beside the frozen fields.

    @cached_property
    def key_page_offset(self) -> int:
        """Window offset of the kernel-only key-table page."""
        return self.n_contexts * PAGE_SIZE

    @cached_property
    def control_page_offset(self) -> int:
        """Window offset of the kernel-only control page."""
        return (self.n_contexts + 1) * PAGE_SIZE

    @cached_property
    def shadow_region_size(self) -> int:
        """Bytes of shadow space (all contexts)."""
        return 1 << (self.ctx_bits + self.ctx_shift)

    @property
    def window_size(self) -> int:
        """Total bytes of the engine window."""
        return self.shadow_offset + self.shadow_region_size

    @cached_property
    def max_argument_paddr(self) -> int:
        """Exclusive upper bound on encodable argument addresses."""
        return 1 << self.ctx_shift

    # -- register pages ------------------------------------------------------------

    def context_page_paddr(self, ctx_id: int) -> int:
        """Physical base of register-context page *ctx_id*."""
        self._check_ctx(ctx_id)
        return self.window_base + ctx_id * PAGE_SIZE

    def context_of_offset(self, offset: int) -> Optional[int]:
        """Which context page *offset* falls in, or None."""
        page = offset >> PAGE_SHIFT
        if 0 <= page < self.n_contexts:
            return page
        return None

    # -- shadow encode/decode -----------------------------------------------------------

    def shadow_paddr(self, paddr: int, ctx_id: int = 0) -> int:
        """Encode ``shadow(paddr)`` (optionally with a CONTEXT_ID).

        Raises:
            AddressError: if *paddr* does not fit the argument field.
        """
        self._check_ctx(ctx_id)
        if not 0 <= paddr < self.max_argument_paddr:
            raise AddressError(
                f"paddr {paddr:#x} does not fit in "
                f"{self.ctx_shift}-bit shadow argument field")
        return (self.window_base + self.shadow_offset
                + (ctx_id << self.ctx_shift) + paddr)

    def decode_offset(self, offset: int) -> Optional[ShadowRef]:
        """Decode a window *offset* as a shadow reference, or None.

        Returns None for offsets in the register/privileged region.
        """
        rel = offset - self.shadow_offset
        if rel < 0 or rel >= self.shadow_region_size:
            return None
        ctx_id = rel >> self.ctx_shift
        paddr = rel & (self.max_argument_paddr - 1)
        return ShadowRef(ctx_id, paddr)

    def decode_paddr(self, shadow_addr: int) -> Optional[ShadowRef]:
        """Decode an absolute physical address as a shadow reference."""
        return self.decode_offset(shadow_addr - self.window_base)

    def is_shadow(self, paddr: int) -> bool:
        """Whether an absolute physical address lies in the shadow region."""
        return self.decode_paddr(paddr) is not None

    def _check_ctx(self, ctx_id: int) -> None:
        if not 0 <= ctx_id < self.n_contexts:
            raise AddressError(
                f"context id {ctx_id} out of range "
                f"[0, {self.n_contexts})")
