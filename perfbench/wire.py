"""Workload ``wire-steady``: closed-loop JSON lines over loopback TCP.

Two client connections drive ``service.frontend.handle_connection``,
which serves a ``DmaService`` this benchmark owns, so the wrong-page
sweep that ``shutdown()`` returns can be checked (``serve_forever``
throws it away).  Sixteen uniform tenants, four per shard, all hold
user-level keyed contexts; there are no faults and the admission limits
never throttle.  The mix matches the soak (5 % atomic, 10 % message,
25 % of DMAs to the hot receiver).  Each connection sends its next
request only after the reply to the previous one arrived.

Why: registration, the injector, the kernel path and telemetry windows
are nearly absent, so time goes to the wire codec, asyncio streams and
the user-level CPU -> bus -> engine path, and the latency is the round
trip a client observes.

An untimed warm-up registers every tenant and opens its message channel
(one message request each); that cost is part of ``setup_s``.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from typing import Any, Dict, List, Tuple

from common import PassResult, gate
from soak import service_counters

from repro.msg.ring import RingLayout
from repro.service.frontend import (
    DmaService,
    ServiceConfig,
    handle_connection,
    shard_of,
)
from repro.service.requests import KIND_ATOMIC, KIND_DMA, KIND_MESSAGE
from repro.service.shard import MAX_TRANSFER_BYTES
from repro.service.soak import SIZE_CHOICES

SHARDS = 4
TENANTS_PER_SHARD = 4
CONNECTIONS = 2
#: Measured requests per connection per pass.
REQUESTS_PER_CONNECTION = 1000
ATOMIC_FRAC = 0.05
MESSAGE_FRAC = 0.10
HOT_FRAC = 0.25
#: Never throttle: the service tick never advances, so the bucket's
#: burst is the whole allowance.
UNLIMITED = 1e12


def _tenants(seed: int) -> List[str]:
    """Sixteen names, four routed to each shard."""
    per_shard: Dict[int, List[str]] = {i: [] for i in range(SHARDS)}
    k = 0
    while any(len(v) < TENANTS_PER_SHARD for v in per_shard.values()):
        name = f"w{seed}-{k:03d}"
        bucket = per_shard[shard_of(name, SHARDS)]
        if len(bucket) < TENANTS_PER_SHARD:
            bucket.append(name)
        k += 1
    return [name for shard in range(SHARDS) for name in per_shard[shard]]


def expected_bytes(kind: str, size: int) -> int:
    """Payload bytes a successful request of this kind moves."""
    if kind == KIND_ATOMIC:
        return 8
    if kind == KIND_MESSAGE:
        return min(size, RingLayout().max_payload)
    return min(size, MAX_TRANSFER_BYTES)


class WireWorkload:
    name = "wire-steady"
    #: Nominal pass time, which sets how many passes a run makes.
    #: About 0.5-1.1 s on the 2-core machine the benchmark was written on.
    pass_seconds = 0.75

    def __init__(self, root: str, seed: int) -> None:
        self.seed = seed
        tenants = _tenants(seed)
        # Connection c owns every other tenant: two per shard each.
        self.owned = [tenants[c::CONNECTIONS] for c in range(CONNECTIONS)]
        self.streams = [self._stream(c) for c in range(CONNECTIONS)]
        self.warmup = [[{"tenant": t, "kind": KIND_MESSAGE, "size": 256}
                        for t in owned] for owned in self.owned]

    def _stream(self, connection: int) -> List[Dict[str, Any]]:
        rng = random.Random(self.seed * 1_000_003 + connection)
        stream = []
        for _ in range(REQUESTS_PER_CONNECTION):
            draw = rng.random()
            kind = (KIND_ATOMIC if draw < ATOMIC_FRAC else
                    KIND_MESSAGE if draw < ATOMIC_FRAC + MESSAGE_FRAC
                    else KIND_DMA)
            size = rng.choice(SIZE_CHOICES)
            hot = kind == KIND_DMA and rng.random() < HOT_FRAC
            stream.append({"tenant": rng.choice(self.owned[connection]),
                           "kind": kind, "size": size, "hot": hot})
        return stream

    async def _client(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter,
                      requests: List[Dict[str, Any]]
                      ) -> Tuple[List[float], List[Dict[str, Any]]]:
        """Closed loop; returns (latencies, replies)."""
        clock = time.perf_counter
        latencies: List[float] = []
        replies: List[Dict[str, Any]] = []
        for request in requests:
            t0 = clock()
            writer.write(json.dumps(request).encode("utf-8") + b"\n")
            await writer.drain()
            line = await reader.readline()
            try:
                reply = json.loads(line)
            except ValueError:
                reply = {"malformed": line.decode("utf-8", "replace")}
            latencies.append(clock() - t0)
            replies.append(reply)
        return latencies, replies

    async def _run(self) -> Tuple[float, float, List[str], List[float],
                                  List[List[Dict[str, Any]]], DmaService]:
        clock = time.perf_counter
        t0 = clock()
        service = DmaService(ServiceConfig(
            shards=SHARDS, method="keyed", seed=self.seed, atomics=True,
            admission_rate=UNLIMITED, admission_burst=UNLIMITED,
            max_queue_depth=1 << 30))
        await service.start()
        handlers: List[asyncio.Task] = []

        async def serve(reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> None:
            handlers.append(asyncio.current_task())
            await handle_connection(service, reader, writer)

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        conns = [await asyncio.open_connection("127.0.0.1", port)
                 for _ in range(CONNECTIONS)]
        try:
            warm = await asyncio.gather(*(
                self._client(r, w, reqs)
                for (r, w), reqs in zip(conns, self.warmup)))
            setup = clock() - t0
            t1 = clock()
            measured = await asyncio.gather(*(
                self._client(r, w, reqs)
                for (r, w), reqs in zip(conns, self.streams)))
        finally:
            for _, writer in conns:
                writer.close()
                await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await asyncio.gather(*handlers)
        problems = await service.shutdown(drain=True)
        wall = clock() - t1
        replies = [w[1] + m[1] for w, m in zip(warm, measured)]
        latencies = [x for m in measured for x in m[0]]
        return setup, wall, problems, latencies, replies, service

    def run_pass(self) -> PassResult:
        setup, wall, problems, latencies, replies, service = asyncio.run(
            self._run())
        sent = [w + s for w, s in zip(self.warmup, self.streams)]
        moved = 0
        for requests, answers in zip(sent, replies):
            gate(len(answers) == len(requests),
                 "a connection lost replies")
            for request, reply in zip(requests, answers):
                gate(isinstance(reply, dict) and reply.get("ok") is True
                     and reply.get("tenant") == request["tenant"]
                     and reply.get("kind") == request["kind"],
                     f"reply {reply} does not answer {request} with ok")
                want = expected_bytes(request["kind"], request["size"])
                gate(reply.get("bytes_moved") == want,
                     f"reply {reply} moved {reply.get('bytes_moved')} "
                     f"bytes, expected {want}")
                moved += want
        gate(not problems, f"wrong-page sweep found {problems[:3]}")
        gate(service.telemetry.bytes_moved == moved,
             f"service moved {service.telemetry.bytes_moved} bytes, "
             f"requests asked for {moved}")
        counters = service_counters(service)
        gate(counters["faults_fired"] == 0, "faults fired without a plan")
        total = sum(len(s) for s in self.streams)
        return PassResult(
            setup_s=[setup], wall_s=wall, ops=total, latencies_s=latencies,
            attempted=total, completed=total, failed=0, refused=0,
            counters=counters)
