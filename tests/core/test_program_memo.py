"""The assembled-program memo behind DmaChannel.program."""

import dataclasses

import pytest

from tests.conftest import ready_channel

from repro.core import api
from repro.core.api import PROGRAM_MEMO_SIZE, DmaChannel
from repro.errors import ConfigError
from repro.hw.isa import Bne, Halt, Label, Mov


def test_identical_initiations_run_the_same_program():
    ws, proc, src, dst, chan = ready_channel("keyed")
    first = chan.initiate(src.vaddr, dst.vaddr, 64)
    second = chan.initiate(src.vaddr, dst.vaddr, 64)
    assert first.ok and second.ok
    assert first.thread is not second.thread
    assert first.thread.program is second.thread.program


def test_shared_programs_are_read_only():
    ws, proc, src, dst, chan = ready_channel("keyed")
    program = chan.program(src.vaddr, dst.vaddr, 64)
    assert isinstance(program.instructions, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.name = "renamed"  # type: ignore[misc]


def test_size_binding_and_path_give_distinct_programs():
    ws, proc, src, dst, chan = ready_channel("keyed")
    base = chan.program(src.vaddr, dst.vaddr, 64)
    assert chan.program(src.vaddr, dst.vaddr, 64) is base
    assert chan.program(src.vaddr, dst.vaddr, 128) is not base
    # A second tenant on the same machine holds a different key: its
    # keyed stores differ even where its buffers sit at the same vaddrs.
    other = ws.kernel.spawn("other")
    ws.kernel.enable_user_dma(other)
    other_src = ws.kernel.alloc_buffer(other, 16384)
    other_dst = ws.kernel.alloc_buffer(other, 16384)
    assert other.dma_binding.key != proc.dma_binding.key
    other_program = DmaChannel(ws, other).program(
        other_src.vaddr, other_dst.vaddr, 64)
    assert other_program is not base
    assert other_program.instructions != base.instructions
    # The kernel path assembles its own sequence under its own name.
    kernel = DmaChannel(ws, proc, via="kernel").program(
        src.vaddr, dst.vaddr, 64)
    assert kernel.name == "dma-kernel" != base.name


@pytest.mark.parametrize("malformed", [
    [Bne("v0", 0, "nowhere")],                     # dangling label
    [Mov("bogus", 1)],                             # unknown register
    [Label("retry"), Label("retry"), Mov("v0", 1)],  # duplicate label
])
def test_malformed_sequences_still_raise_every_time(monkeypatch, malformed):
    ws, proc, src, dst, chan = ready_channel("keyed")
    monkeypatch.setattr(chan, "sequence",
                        lambda *args, **kwargs: list(malformed))
    for _ in range(2):  # a failure is never memoised
        with pytest.raises(ConfigError):
            chan.program(src.vaddr, dst.vaddr, 64)


def test_memo_stays_within_its_bound():
    ws, proc, src, dst, chan = ready_channel("kernel")
    api._assemble_memo.cache_clear()
    sizes = range(1, 10 * PROGRAM_MEMO_SIZE + 1)
    for size in sizes:
        chan.program(src.vaddr, dst.vaddr, size)
        assert api._assemble_memo.cache_info().currsize \
            <= PROGRAM_MEMO_SIZE
    assert api._assemble_memo.cache_info().currsize == PROGRAM_MEMO_SIZE
    # The most recent programs are the ones kept.
    info = api._assemble_memo.cache_info()
    newest = chan.program(src.vaddr, dst.vaddr, sizes[-1])
    assert api._assemble_memo.cache_info().hits == info.hits + 1
    chan.program(src.vaddr, dst.vaddr, sizes[0])
    assert api._assemble_memo.cache_info().misses == info.misses + 1
    assert newest.instructions[-1] == Halt()
