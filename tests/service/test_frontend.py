"""The asyncio front end: routing, admission, shutdown, TCP serving, hostile input."""

import asyncio
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.service.admission import (
    REASON_BACKPRESSURE,
    REASON_SHUTDOWN,
)
from repro.service.frontend import (
    MAX_LINE_BYTES,
    DmaService,
    ServiceConfig,
    handle_connection,
    serve_forever,
    shard_of,
)
from repro.service.requests import OUTCOME_REJECTED, Request


def run(coro):
    return asyncio.run(coro)


def small_config(**overrides):
    defaults = dict(shards=2, seed=3, telemetry_window_ticks=2)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def test_shard_of_is_stable_and_in_range():
    assert shard_of("alice", 4) == shard_of("alice", 4)
    assert 0 <= shard_of("alice", 4) < 4
    spread = {shard_of(f"t{i}", 4) for i in range(64)}
    assert spread == {0, 1, 2, 3}


def test_submit_completes_requests():
    async def scenario():
        service = DmaService(small_config())
        await service.start()
        futures = [await service.submit(
            Request(tenant=f"t{i}", size=512, req_id=i))
            for i in range(6)]
        await service.shutdown(drain=True)
        return [f.result() for f in futures]

    completions = run(scenario())
    assert all(c.ok for c in completions)
    assert {c.shard for c in completions} <= {0, 1}


def test_submit_before_start_raises():
    async def scenario():
        service = DmaService(small_config())
        with pytest.raises(ConfigError):
            await service.submit(Request(tenant="a"))

    run(scenario())


def test_route_respects_shard_override_and_validates():
    async def scenario():
        service = DmaService(small_config())
        assert service.route(Request(tenant="a", shard=1)) == 1
        with pytest.raises(ConfigError):
            service.route(Request(tenant="a", shard=9))

    run(scenario())


def test_backpressure_rejects_when_queue_is_deep():
    async def scenario():
        service = DmaService(small_config(
            shards=1, max_queue_depth=2,
            admission_rate=1000.0, admission_burst=1000.0))
        await service.start()
        # Submissions within one tick pile up before the worker runs.
        futures = [await service.submit(
            Request(tenant=f"t{i}", size=256, req_id=i))
            for i in range(5)]
        await service.shutdown(drain=True)
        return [f.result() for f in futures]

    completions = run(scenario())
    rejected = [c for c in completions if c.outcome == OUTCOME_REJECTED]
    assert len(rejected) == 3
    assert all(c.reason == REASON_BACKPRESSURE for c in rejected)
    assert all(not c.ok for c in rejected)


def test_throttled_tenant_is_shed_but_queue_still_served():
    async def scenario():
        service = DmaService(small_config(
            shards=1, admission_rate=1.0, admission_burst=2.0))
        await service.start()
        futures = [await service.submit(
            Request(tenant="hog", size=256, req_id=i))
            for i in range(4)]
        await service.shutdown(drain=True)
        return [f.result() for f in futures]

    completions = run(scenario())
    outcomes = [c.outcome for c in completions]
    assert outcomes.count(OUTCOME_REJECTED) == 2
    assert sum(1 for c in completions if c.ok) == 2


def test_graceful_shutdown_drains_in_flight_requests():
    async def scenario():
        service = DmaService(small_config(shards=2))
        await service.start()
        futures = [await service.submit(
            Request(tenant=f"t{i}", size=1024, req_id=i))
            for i in range(20)]
        # No tick ever advanced: everything is still queued when the
        # shutdown begins.  Draining must complete all of it.
        problems = await service.shutdown(drain=True)
        return futures, problems

    futures, problems = run(scenario())
    assert problems == []
    assert all(f.done() for f in futures)
    assert all(f.result().ok for f in futures)


def test_shutdown_rejects_new_submissions():
    async def scenario():
        service = DmaService(small_config())
        await service.start()
        await service.shutdown(drain=True)
        future = await service.submit(Request(tenant="late"))
        return future.result()

    completion = run(scenario())
    assert completion.outcome == OUTCOME_REJECTED
    assert completion.reason == REASON_SHUTDOWN


def test_ticks_close_trend_windows():
    async def scenario():
        service = DmaService(small_config(shards=1,
                                          telemetry_window_ticks=2))
        await service.start()
        for i in range(4):
            await service.submit(Request(tenant="a", size=512, req_id=i))
            await service.advance_tick()
        await service.shutdown(drain=True)
        return service

    service = run(scenario())
    assert len(service.telemetry.history.points) >= 2
    assert service.telemetry.completed > 0
    snapshot = service.snapshot()
    assert snapshot["goodput_mbytes_per_s"] > 0
    assert snapshot["telemetry"]["latency_us"]["p99"] > 0


def test_fault_plan_is_derived_per_shard():
    plan = {"seed": 5, "rules": [{"kind": "drop", "target": "completion",
                                  "probability": 0.5}]}

    async def scenario():
        service = DmaService(small_config(shards=2, fault_plan=plan))
        await service.start()
        for i in range(10):
            await service.submit(
                Request(tenant=f"t{i}", size=512, req_id=i))
        await service.shutdown(drain=True)
        return service

    service = run(scenario())
    counters = service.fleet_counters()
    assert counters["faults"] > 0
    # Distinct per-shard streams: seeds differ.
    seeds = {shard.index for shard in service.shards
             if shard.faults_injected >= 0}
    assert seeds == {0, 1}


def test_tcp_roundtrip_and_stats():
    async def scenario():
        ready = asyncio.Event()
        server = asyncio.get_running_loop().create_task(serve_forever(
            small_config(shards=1), ready=ready, max_connections=1))
        await ready.wait()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", ready.port)
        responses = []
        for line in (
                {"tenant": "alice", "kind": "dma", "size": 512},
                {"op": "stats"},
                "not json at all",
                {"tenant": "bob", "bogus_field": 1},
        ):
            raw = (line if isinstance(line, str)
                   else json.dumps(line))
            writer.write(raw.encode() + b"\n")
            await writer.drain()
            responses.append(json.loads(await reader.readline()))
        writer.close()
        await server
        return responses

    dma, stats, bad_json, bad_field = run(scenario())
    assert dma["ok"] is True
    assert dma["tenant"] == "alice"
    assert dma["bytes_moved"] == 512
    assert stats["telemetry"]["completed"] == 1
    assert "error" in bad_json
    assert "bogus_field" in bad_field["error"]


def test_service_config_validation():
    with pytest.raises(ConfigError):
        ServiceConfig(shards=0)
    with pytest.raises(ConfigError):
        ServiceConfig(tick_hz=0)


class _CapturingWriter:
    """The slice of ``asyncio.StreamWriter`` the connection handler uses."""

    def __init__(self):
        self.lines = []
        self.closed = False

    def write(self, data):
        self.lines.extend(data.decode().splitlines())

    async def drain(self):
        pass

    def close(self):
        self.closed = True


def _converse(lines, **overrides):
    """Feed *lines* to one in-process connection; return its replies.

    Each line is raw bytes, a str, or a JSON value to encode.  A tuple
    of byte chunks is fed one chunk per event-loop turn, so the handler
    sees the line arrive in pieces.
    """
    async def scenario():
        service = DmaService(small_config(**overrides))
        await service.start()
        reader = asyncio.StreamReader(limit=MAX_LINE_BYTES)
        writer = _CapturingWriter()
        handler = asyncio.ensure_future(
            handle_connection(service, reader, writer))
        for line in lines:
            if isinstance(line, tuple):
                for chunk in line:
                    reader.feed_data(chunk)
                    await asyncio.sleep(0)
                raw = b""
            elif isinstance(line, bytes):
                raw = line
            else:
                raw = (line if isinstance(line, str)
                       else json.dumps(line)).encode()
            reader.feed_data(raw + b"\n")
        reader.feed_eof()
        await handler
        await service.shutdown(drain=True)
        assert writer.closed
        return [json.loads(line) for line in writer.lines]

    return run(scenario())


#: A request line one byte past the front end's line limit.
OVERLONG = b'{"tenant": "' + b"a" * MAX_LINE_BYTES + b'", "size": 64}'


@pytest.mark.parametrize("bad, reason", [
    ({"tenant": 5, "size": 64}, "tenant"),
    ({"tenant": "a", "size": True}, "size"),
    ({"tenant": "a", "size": 64, "hot": 1}, "hot"),
    ({"tenant": "a", "size": 64, "shard": 99}, "shard 99"),
    ({"tenant": "a", "size": 64, "shard": False}, "shard"),
    ({"tenant": "a", "size": 64, "trace": {"trace_id": 1}}, "trace_id"),
    ({"tenant": "a", "size": 64, "trace": "abc"}, "trace"),
    ({"tenant": "a", "size": 64,
      "trace": {"trace_id": "t", "request_id": "x"}}, "request_id"),
    ([1, 2, 3], "JSON object"),
    pytest.param(b'{"tenant": "\xff\xfe", "size": 64}', "bad json",
                 id="non-utf8-string"),
    pytest.param(b"\xc3(", "bad json", id="non-utf8-line"),
    pytest.param(OVERLONG, f"longer than {MAX_LINE_BYTES}", id="overlong"),
    # The same line arriving in pieces, so the limit trips mid-line.
    pytest.param(
        tuple(OVERLONG[i:i + 4096] for i in range(0, len(OVERLONG), 4096)),
        f"longer than {MAX_LINE_BYTES}", id="overlong-chunked"),
    # Valid JSON whose tenant does not encode as UTF-8, hashed or routed.
    pytest.param({"tenant": "\ud800", "size": 64}, "UTF-8",
                 id="lone-surrogate-tenant"),
    pytest.param({"tenant": "\ud800", "size": 64, "shard": 0}, "UTF-8",
                 id="lone-surrogate-tenant-routed"),
    # 60 KB, under the line limit, but deeper than the parser recurses.
    pytest.param(b"[" * 30_000 + b"]" * 30_000, "bad json",
                 id="deep-nesting"),
    # An integer literal past Python's int-from-string digit limit.
    pytest.param(b'{"tenant": "a", "size": ' + b"9" * 5_000 + b"}",
                 "bad json", id="huge-integer"),
])
def test_mistyped_fields_get_one_error_line_and_the_connection_survives(
        bad, reason):
    replies = _converse([bad, {"tenant": "ok", "size": 256}])
    assert len(replies) == 2
    error, served = replies
    assert set(error) == {"error"}
    assert reason in error["error"]
    assert served["ok"] is True
    assert served["tenant"] == "ok"
    assert served["bytes_moved"] == 256


#: Text mixing ASCII with lone surrogates, which the default
#: ``st.text()`` almost never draws.
SURROGATE_TEXT = st.text(
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)
    | st.characters(max_codepoint=0x7F), max_size=8)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=12)

REQUEST_SHAPED = st.fixed_dictionaries(
    {"tenant": SURROGATE_TEXT},
    optional={
        "kind": st.sampled_from(["dma", "atomic", "message"])
        | SURROGATE_TEXT,
        "size": st.integers(min_value=-2, max_value=1 << 20),
        "hot": st.booleans(),
        "shard": st.none() | st.integers(min_value=-1, max_value=3),
        "trace": st.fixed_dictionaries(
            {"trace_id": SURROGATE_TEXT},
            optional={"origin": SURROGATE_TEXT,
                      "tenant": SURROGATE_TEXT,
                      "request_id": st.integers(0, 10)}),
    })

#: One wire line as raw bytes: any JSON value, a request-shaped object,
#: arrays nested up to 32,000 deep, an integer past Python's 4300-digit
#: conversion limit, or arbitrary bytes without a newline.
WIRE_LINES = st.one_of(
    JSON_VALUES.map(lambda value: json.dumps(value).encode()),
    REQUEST_SHAPED.map(lambda value: json.dumps(value).encode()),
    st.integers(min_value=1, max_value=32_000).map(
        lambda depth: b"[" * depth + b"]" * depth),
    st.integers(min_value=4_000, max_value=6_000).map(lambda n: b"9" * n),
    st.binary(max_size=64).map(lambda raw: raw.replace(b"\n", b" ")),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(st.lists(WIRE_LINES, min_size=1, max_size=3))
def test_fuzzed_lines_get_one_reply_each_and_stats_still_answers(lines):
    """Exactly one reply per line, the handler returns normally, and a
    trailing ``{"op": "stats"}`` line is still served."""
    replies = _converse(lines + [{"op": "stats"}])
    assert len(replies) == len(lines) + 1
    assert "telemetry" in replies[-1]

