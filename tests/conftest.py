"""Shared fixtures for the repro test suite."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import pytest
from hypothesis import strategies as st

from repro.core.api import DmaChannel
from repro.core.machine import MachineConfig, Workstation
from repro.hw.dma.protocols.capio import pack_cap_word
from repro.hw.dma.protocols.keyed import ARG_DESTINATION, ARG_SOURCE
from repro.core.methods import make_protocol
from repro.hw.dma.recognizer import SetupOp
from repro.verify.interleave import (
    AccessSpec,
    ProtocolHarness,
    initiation_stream,
)

#: Shared secrets for two-process modern-method harness tests.
MODERN_NONCE_1, MODERN_NONCE_2 = 0x1111, 0x2222


def modern_stream_kwargs(method: str):
    """(kwargs_1, kwargs_2) for initiation_stream on the modern methods.

    Process 1 runs on context 0, process 2 on context 1; for capio the
    psrc/pdst positional arguments double as capability-buffer offsets
    against base-0 capabilities (caps 1 and 2, see
    :func:`install_modern_setup`).
    """
    if method in ("iommu", "iommu_noshootdown"):
        return {"ctx_id": 0}, {"ctx_id": 1}
    if method in ("capio", "capio_noepoch"):
        return (
            {"ctx_id": 0,
             "src_token": pack_cap_word(1, 0, MODERN_NONCE_1, ARG_SOURCE),
             "dst_token": pack_cap_word(1, 0, MODERN_NONCE_1,
                                        ARG_DESTINATION)},
            {"ctx_id": 1,
             "src_token": pack_cap_word(2, 0, MODERN_NONCE_2, ARG_SOURCE),
             "dst_token": pack_cap_word(2, 0, MODERN_NONCE_2,
                                        ARG_DESTINATION)},
        )
    return {}, {}


def install_modern_setup(harness, method: str) -> None:
    """Kernel-side setup matching :func:`modern_stream_kwargs`."""
    if method in ("iommu", "iommu_noshootdown"):
        # Identity-map each process's pages so the stream IOVAs resolve.
        harness.install_setup(SetupOp("iommu-map", (0, 0, 0, True)))
        harness.install_setup(SetupOp("iommu-map", (1, 8192, 8192, True)))
    elif method in ("capio", "capio_noepoch"):
        harness.install_setup(SetupOp(
            "cap-mint", (1, 0, 1, 0, 16384, True, True, MODERN_NONCE_1)))
        harness.install_setup(SetupOp(
            "cap-mint", (2, 1, 2, 0, 32768, True, True, MODERN_NONCE_2)))


#: Keys and buffers of the two-process harness streams below.
HARNESS_KEY_1, HARNESS_KEY_2 = 0xAAA111, 0xBBB222
HARNESS_SRC_1, HARNESS_DST_1 = 0, 4096
HARNESS_SRC_2, HARNESS_DST_2 = 8192, 12288
HARNESS_SIZE = 256


def two_process_streams(method: str) -> List[List[AccessSpec]]:
    """Two-process access streams exercising *method*'s recognizer."""
    if method == "kernel":
        # No user-level stream exists; the recognizer still counts the
        # (ignored) shadow accesses, which snapshots must cover.
        return [
            [AccessSpec(1, "store", HARNESS_SRC_1, HARNESS_SIZE),
             AccessSpec(1, "load", HARNESS_SRC_1, final=True)],
            [AccessSpec(2, "load", HARNESS_SRC_2, final=True)],
        ]
    if method == "keyed":
        kwargs_1 = {"key": HARNESS_KEY_1, "ctx_id": 0}
        kwargs_2 = {"key": HARNESS_KEY_2, "ctx_id": 1}
    elif method == "extshadow":
        kwargs_1, kwargs_2 = {"ctx_id": 0}, {"ctx_id": 1}
    else:
        kwargs_1, kwargs_2 = modern_stream_kwargs(method)
    return [
        initiation_stream(method, 1, HARNESS_SRC_1, HARNESS_DST_1,
                          HARNESS_SIZE, **kwargs_1),
        initiation_stream(method, 2, HARNESS_SRC_2, HARNESS_DST_2,
                          HARNESS_SIZE, **kwargs_2),
    ]


def two_process_harness(method: str) -> ProtocolHarness:
    """A harness with the keys/setup :func:`two_process_streams` needs."""
    harness = ProtocolHarness(lambda: make_protocol(method))
    if method == "keyed":
        harness.install_key(0, HARNESS_KEY_1)
        harness.install_key(1, HARNESS_KEY_2)
    install_modern_setup(harness, method)
    return harness


def draw_interleaving(data, streams: List[List[AccessSpec]]
                      ) -> List[AccessSpec]:
    """Draw one random interleaving of *streams* (streams kept in order)."""
    order: List[AccessSpec] = []
    positions = [0] * len(streams)
    while True:
        live = [i for i, (p, s) in enumerate(zip(positions, streams))
                if p < len(s)]
        if not live:
            return order
        index = data.draw(st.sampled_from(live))
        order.append(streams[index][positions[index]])
        positions[index] += 1


def observe_harness(harness: ProtocolHarness) -> Tuple:
    """Every observable bit of harness state, as comparable values.

    Covers RAM bytes, the simulator clock, counters and event set, the
    engine's behaviour-determining state and initiation records, and
    *every* scalar attribute of the protocol object (fingerprints leave
    out pure statistics counters, but a restore must bring back even
    those).  Nothing here reads the undo journal, so a journaled
    harness can be compared with a journal-free one.
    """
    scalars = tuple(sorted(
        (name, value) for name, value in vars(harness.protocol).items()
        if isinstance(value, (int, str, bool, type(None)))))
    return (
        harness.ram.read(0, harness.ram_size),
        harness.sim.now,
        harness.sim.pending,
        harness.sim.events_fired,
        harness.sim.live_event_signature(),
        harness.engine.fingerprint(),
        tuple(harness.engine.initiations),
        harness.engine.protocol_violations,
        scalars,
    )


def exact_percentile(values: Sequence[float], q: float) -> float:
    """The exact *q*-th percentile of *values* by linear interpolation.

    The reference :class:`~repro.obs.histogram.LatencyHistogram` is held
    to: interpolate between the sorted samples at ranks ``floor(r)`` and
    ``ceil(r)``, ``r = (n - 1) * q / 100``.
    """
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def build_workstation(method: str = "keyed", **overrides) -> Workstation:
    """A fresh workstation wired for *method*."""
    return Workstation(MachineConfig(method=method, **overrides))


def ready_channel(method: str = "keyed", buf_bytes: int = 16384,
                  **overrides):
    """(workstation, process, src buffer, dst buffer, channel) for *method*.

    Buffers are allocated with shadow mappings where the method uses
    them; SHRIMP-1 additionally gets its mapped-out entries installed.
    """
    ws = build_workstation(method, **overrides)
    proc = ws.kernel.spawn("app")
    if method != "kernel":
        ws.kernel.enable_user_dma(proc)
    shadow = method != "kernel"
    src = ws.kernel.alloc_buffer(proc, buf_bytes, shadow=shadow)
    dst = ws.kernel.alloc_buffer(proc, buf_bytes, shadow=shadow)
    if method == "shrimp1":
        ws.kernel.map_out(proc, src.vaddr, proc, dst.vaddr, buf_bytes)
    channel = DmaChannel(ws, proc)
    return ws, proc, src, dst, channel


@pytest.fixture
def keyed_setup():
    """Default key-based machine, ready to DMA."""
    return ready_channel("keyed")


@pytest.fixture
def extshadow_setup():
    """Extended-shadow machine, ready to DMA."""
    return ready_channel("extshadow")


@pytest.fixture
def kernel_setup():
    """Kernel-only machine, ready for the Fig. 1 syscall path."""
    return ready_channel("kernel")
