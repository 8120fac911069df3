"""The assembled-program memo behind DmaChannel.program."""

import dataclasses

import pytest

from tests.conftest import ready_channel

from repro.core import api
from repro.core.api import PROGRAM_MEMO_SIZE, DmaChannel
from repro.core.methods import METHODS
from repro.errors import ConfigError
from repro.hw.isa import Bne, Halt, Label, Mov, assemble


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
    # The memo is keyed by the arguments, so the patched builder is only
    # consulted on a miss: start from an empty memo.
    monkeypatch.setattr(api, "_PROGRAMS", type(api._PROGRAMS)())
    monkeypatch.setattr(chan, "sequence",
                        lambda *args, **kwargs: list(malformed))
    for _ in range(2):  # a failure is never memoised
        with pytest.raises(ConfigError):
            chan.program(src.vaddr, dst.vaddr, 64)


def test_memo_stays_within_its_bound(monkeypatch):
    ws, proc, src, dst, chan = ready_channel("kernel")
    monkeypatch.setattr(api, "_PROGRAMS", type(api._PROGRAMS)())
    sizes = range(1, 10 * PROGRAM_MEMO_SIZE + 1)
    first = chan.program(src.vaddr, dst.vaddr, sizes[0])
    for size in sizes[1:]:
        chan.program(src.vaddr, dst.vaddr, size)
        assert len(api._PROGRAMS) <= PROGRAM_MEMO_SIZE
    assert len(api._PROGRAMS) == PROGRAM_MEMO_SIZE
    # The most recent programs are the ones kept: the newest is a hit,
    # the oldest was evicted and is assembled afresh.
    newest = chan.program(src.vaddr, dst.vaddr, sizes[-1])
    assert chan.program(src.vaddr, dst.vaddr, sizes[-1]) is newest
    again = chan.program(src.vaddr, dst.vaddr, sizes[0])
    assert again is not first
    assert again.instructions == first.instructions
    assert newest.instructions[-1] == Halt()


def _reissue(vaddr):
    """Replace the capability for the buffer at *vaddr* with a new one."""
    def change(binding):
        desc = binding.capabilities[vaddr]
        binding.capabilities[vaddr] = dataclasses.replace(
            desc, epoch=desc.epoch + 1, nonce=desc.nonce ^ 1)
    return change


def _binding_changes(binding, src, dst):
    """Each binding field a sequence builder reads that *binding* sets,
    with a change to it."""
    changes = {}
    for field in ("key", "ctx_id"):
        if getattr(binding, field) is not None:
            changes[field] = lambda b, f=field: setattr(
                b, f, getattr(b, f) ^ 1)
    for field in ("ctx_page_vaddr", "capio_window_vaddr"):
        if getattr(binding, field) is not None:
            changes[field] = lambda b, f=field: setattr(
                b, f, getattr(b, f) + 0x2000)
    for role, buffer in (("src", src), ("dst", dst)):
        if buffer.vaddr in binding.capabilities:
            changes[f"{role} capability"] = _reissue(buffer.vaddr)
    return changes


#: The fields whose change shows in each method's instructions.
EMBEDDED = {
    "keyed": {"key", "ctx_id", "ctx_page_vaddr"},
    "capio": {"ctx_page_vaddr", "capio_window_vaddr", "src capability",
              "dst capability"},
    "capio_noepoch": {"ctx_page_vaddr", "capio_window_vaddr",
                      "src capability", "dst capability"},
}


@pytest.mark.parametrize("method", sorted(METHODS))
def test_memo_key_covers_the_binding_fields(method):
    """After any change to a binding field, the memo hands back exactly
    what the sequence builder makes now, never a program built before."""
    ws, proc, src, dst, chan = ready_channel(method)

    def fresh():
        return assemble(chan.sequence(src.vaddr, dst.vaddr, 64) + [Halt()])

    assert chan.program(src.vaddr, dst.vaddr, 64).instructions \
        == fresh().instructions
    binding = proc.dma  # None on the kernel path
    embedded = set()
    changes = {} if binding is None else _binding_changes(binding, src, dst)
    for field, change in changes.items():
        before = fresh().instructions
        change(binding)
        after = chan.program(src.vaddr, dst.vaddr, 64)
        assert after.instructions == fresh().instructions
        if after.instructions != before:
            embedded.add(field)
    assert embedded == EMBEDDED.get(method, set())
