import base64
import dataclasses
import hashlib
import json
import os
import random
import socket
import sys
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from searchbench.gateway import (
    DEFAULT_THINKING_BUDGET,
    AnthropicDialect,
    AuthError,
    BackendRequest,
    BackendResponse,
    DIALECTS,
    GatewayError,
    GatewayTimeout,
    HttpBackend,
    MalformedProviderReply,
    MockBackend,
    ModelGateway,
    OpenAIDialect,
    OracleBackend,
    ProviderHTTPError,
    RateLimited,
    RateLimiter,
    ResponseCache,
    RETRY_ATTEMPTS,
    RETRY_BASE_DELAY,
    TARGET_MARKER,
    call_with_retries,
    canonical_digest,
)
from searchbench.answers import canonical_text, evaluate
from searchbench.prompts import PromptMode, default_exemplars, render, render_refine
from searchbench.tasks import TaskKind


def _request(**overrides) -> BackendRequest:
    base = dict(
        model="m-1",
        system_text="sys",
        messages=(("user", "hello"),),
        temperature=0.0,
        max_tokens=128,
    )
    base.update(overrides)
    return BackendRequest(**base)


class _Provider:
    """A loopback HTTP/1.1 server in the test process, on a free port.

    Every request is recorded as (method, target, headers, body) and answered
    with the next of ``replies`` (status, body, extra headers); the last one
    repeats.  A CONNECT is answered 502.  ``connections`` counts the
    connections accepted.  The server waits ``sleep_s`` before each reply,
    and with ``close_after_reply`` closes each connection after its first
    reply without a ``Connection: close`` header.
    """

    def __init__(self, replies=((200, b"{}", {}),), sleep_s=0.0, close_after_reply=False):
        self.replies = list(replies)
        self.sleep_s = sleep_s
        self.requests = []
        self.connections = 0
        lock = threading.Lock()
        provider = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def setup(self):
                super().setup()
                with lock:
                    provider.connections += 1

            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("content-length", 0)))
                with lock:
                    provider.requests.append(("POST", self.path, self.headers, body))
                    status, data, headers = (
                        provider.replies.pop(0) if len(provider.replies) > 1
                        else provider.replies[0]
                    )
                time.sleep(provider.sleep_s)
                self.send_response(status)
                for key, value in {**headers, "content-length": str(len(data))}.items():
                    self.send_header(key, value)
                self.end_headers()
                self.wfile.write(data)
                self.close_connection = close_after_reply

            def do_CONNECT(self):
                with lock:
                    provider.requests.append(("CONNECT", self.path, self.headers, b""))
                self.send_response(502)
                self.send_header("content-length", "0")
                self.end_headers()

            def log_message(self, *args):
                pass

        class Server(ThreadingHTTPServer):
            def handle_error(self, request, client_address):
                pass  # a client that gave up on a slow reply hangs up on it

        self._server = Server(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}
        )

    def url(self, path="/v1/messages"):
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}{path}"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


@pytest.fixture(autouse=True)
def _without_proxies(monkeypatch):
    """Loopback test servers are reached directly, whatever the host's proxies."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


def _http_backend(url, **kwargs):
    """An ``HttpBackend`` reading its key from ``SOME_KEY``."""
    return HttpBackend(url, api_key_env="SOME_KEY", **kwargs)


ANTHROPIC_BODY = {
    "content": [
        {"type": "thinking", "thinking": "mull it over"},
        {"type": "text", "text": "the answer"},
    ],
    "usage": {"input_tokens": 10, "output_tokens": 4},
    "stop_reason": "end_turn",
}

OPENAI_BODY = {
    "choices": [
        {
            "message": {"content": "the answer", "reasoning_content": "mull it over"},
            "finish_reason": "stop",
        }
    ],
    "usage": {"prompt_tokens": 10, "completion_tokens": 4},
}


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


def test_digest_is_stable_and_content_addressed():
    assert canonical_digest(_request()) == canonical_digest(_request())
    assert len(canonical_digest(_request())) == 64


@pytest.mark.parametrize(
    "change",
    [
        {"model": "m-2"},
        {"system_text": "other"},
        {"messages": (("user", "hello"), ("assistant", "hi"))},
        {"temperature": 0.7},
        {"max_tokens": 256},
        {"thinking": True},
        {"thinking_budget": 9000},
        {"sample_index": 1},
    ],
)
def test_digest_changes_with_every_field(change):
    assert canonical_digest(_request(**change)) != canonical_digest(_request())


def test_request_carries_its_digest_outside_equality_hash_and_repr():
    request = _request()
    assert request.digest == canonical_digest(request)
    twin = _request()
    object.__setattr__(twin, "digest", "not a digest")
    assert twin == request and hash(twin) == hash(request)
    assert "digest" not in repr(request)
    with pytest.raises(TypeError):
        BackendRequest(model="m", system_text="", messages=(), digest="x")


def test_replaced_request_gets_a_fresh_digest():
    request = _request()
    sample = dataclasses.replace(request, sample_index=1)
    assert sample.digest == canonical_digest(sample) != request.digest
    assert dataclasses.replace(request).digest == request.digest


def _reference_digest(request: BackendRequest) -> str:
    """The cache-key contract: sha256 of the request's sorted compact JSON."""
    doc = {
        "model": request.model,
        "system": request.system_text,
        "messages": [list(m) for m in request.messages],
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
        "thinking": request.thinking,
        "thinking_budget": request.thinking_budget,
        "sample_index": request.sample_index,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# Characters JSON escapes or that need care: controls, quotes, backslashes,
# line separators, non-BMP characters and lone surrogates.
_AWKWARD = st.sampled_from(
    ["\x00", "\x1f", "\x7f", '"', "\\", "/", "\n", "\u2028", "é", "\U0001F600",
     "\ud800", "\udfff", "{", ","]
)
_TEXT = st.lists(
    st.one_of(_AWKWARD, st.text(st.characters(exclude_categories=()), max_size=8)),
    max_size=6,
).map("".join)


# A first user message holds the target marker zero, one or two times, at
# its start, in its middle or at its end, with awkward text on either side.
_FIRST_MESSAGE = st.lists(
    st.one_of(st.just(""), _AWKWARD, _TEXT), min_size=1, max_size=3
).map(TARGET_MARKER.join)


@st.composite
def _request_runs(draw):
    """Requests in the order a unit sends them: several tails per head, and
    ``ss``-style histories that grow by an (assistant, user) pair a round."""
    requests_ = []
    for _ in range(draw(st.integers(1, 4))):
        history = [("user", draw(_FIRST_MESSAGE))]
        for _ in range(draw(st.integers(0, 2))):
            history += [("assistant", draw(_TEXT)), ("user", draw(_TEXT))]
        max_tokens = draw(st.sampled_from([1, 128, 4096, 10**9]))
        for _ in range(draw(st.integers(1, 3))):
            requests_.append(BackendRequest(
                model=draw(_TEXT),
                system_text=draw(_TEXT),
                messages=tuple(history),
                temperature=draw(st.one_of(
                    st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False))),
                max_tokens=max_tokens,
                thinking=draw(st.booleans()),
                thinking_budget=draw(st.sampled_from([None, 0, 1024, 16000])),
                sample_index=draw(st.integers(0, 5)),
            ))
    return requests_


@settings(max_examples=200, deadline=None)
@given(_request_runs())
@example([_request(messages=()), _request(messages=(), model="m-2")])
@example([_request(temperature=0), _request(temperature=0.0), _request(temperature=-0.0)])
@example([_request(temperature=False), _request(temperature=True), _request(temperature=1)])
@example([_request(sample_index=False), _request(sample_index=0), _request(sample_index=True)])
@example([_request(max_tokens=v) for v in (True, 1, 1.0, 0.0, -0.0)])
@example([
    _request(messages=((role, f"{'ab' * k}{TARGET_MARKER}\u2028x{k}"),) + more)
    for k in (1, 2, 1)
    for role in ("user", "assistant")
    for more in ((), (("assistant", "a"), ("user", f"{TARGET_MARKER} again")))
])
def test_digest_is_sha256_of_the_sorted_json_request(requests_):
    for request in requests_:
        assert request.digest == canonical_digest(request) == _reference_digest(request)


def test_digest_holds_across_more_heads_than_are_kept():
    """Heads and exemplar halves are kept for a few requests only; revisiting
    one that was dropped, or reusing one with a new tail, still gives the
    contract."""
    for body in ("body {i}", "shots {i}" + TARGET_MARKER + " target {i}"):
        heads = [(("user", body.format(i=i)),) for i in range(40)]
        order = list(range(40)) + [0, 39, 5, 5, 17, 0] + list(range(39, -1, -3))
        for turn, i in enumerate(order):
            request = _request(messages=heads[i], sample_index=turn % 3, model=f"m-{turn % 2}")
            assert request.digest == _reference_digest(request)


# ---------------------------------------------------------------------------
# Response cache
# ---------------------------------------------------------------------------


def test_cache_round_trip_preserves_fields(tmp_path):
    cache = ResponseCache(tmp_path / "replies.jsonl")
    request = _request()
    response = BackendResponse(
        text="body",
        thinking_text="inner",
        prompt_tokens=7,
        completion_tokens=3,
        latency_ms=12,
        provider_meta={"stop_reason": "end_turn"},
    )
    digest = canonical_digest(request)
    assert cache.get(digest) is None
    cache.put(digest, request, response)
    got = cache.get(digest)
    assert got is not None
    assert (got.text, got.thinking_text, got.prompt_tokens) == ("body", "inner", 7)
    assert dict(got.provider_meta) == {"stop_reason": "end_turn"}
    assert len(cache) == 1


def test_cache_persists_across_instances(tmp_path):
    path = tmp_path / "replies.jsonl"
    first = ResponseCache(path)
    request = _request()
    first.put(canonical_digest(request), request, BackendResponse(text="kept"))
    second = ResponseCache(path)
    assert len(second) == 1
    assert second.get(canonical_digest(request)).text == "kept"


def test_cache_skips_corrupt_lines(tmp_path):
    path = tmp_path / "replies.jsonl"
    cache = ResponseCache(path)
    request = _request()
    cache.put(canonical_digest(request), request, BackendResponse(text="good"))
    with path.open("a", encoding="utf-8") as fh:
        fh.write("{this is not json\n")
    other = _request(model="m-2")
    cache.put(canonical_digest(other), other, BackendResponse(text="also good"))

    reloaded = ResponseCache(path)
    assert len(reloaded) == 2
    assert reloaded.skipped_lines == 1
    assert reloaded.get(canonical_digest(request)).text == "good"
    assert reloaded.get(canonical_digest(other)).text == "also good"


def test_cache_passes_over_blank_lines_without_counting_them(tmp_path):
    path = tmp_path / "replies.jsonl"
    request = _request()
    ResponseCache(path).put(request.digest, request, BackendResponse(text="good"))
    with path.open("a", encoding="utf-8") as fh:
        fh.write("\n   \n")
    other = _request(model="m-2")
    ResponseCache(path).put(other.digest, other, BackendResponse(text="also good"))

    reloaded = ResponseCache(path)
    assert reloaded.skipped_lines == 0
    assert [reloaded.get(r.digest).text for r in (request, other)] == ["good", "also good"]


def test_cache_skips_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "replies.jsonl"
    cache = ResponseCache(path)
    request = _request()
    cache.put(canonical_digest(request), request, BackendResponse(text="good"))
    with path.open("ab") as fh:
        fh.write(b'\xff\xfe{"digest": "x", "response": {"text": "bad"}}\n')
    other = _request(model="m-2")
    cache.put(canonical_digest(other), other, BackendResponse(text="also good"))

    reloaded = ResponseCache(path)
    assert len(reloaded) == 2
    assert reloaded.skipped_lines == 1
    assert reloaded.get(canonical_digest(request)).text == "good"
    assert reloaded.get(canonical_digest(other)).text == "also good"

    with path.open("ab") as fh:  # a torn last line that is not UTF-8 either
        fh.write(b'{"digest": "\xff')
    third = _request(model="m-3")
    ResponseCache(path).put(canonical_digest(third), third, BackendResponse(text="three"))
    reloaded = ResponseCache(path)
    assert reloaded.skipped_lines == 2
    assert len(reloaded) == 3 and reloaded.get(canonical_digest(third)).text == "three"


def test_caches_sharing_a_path_append_whole_lines_in_turn(tmp_path):
    path = tmp_path / "replies.jsonl"
    caches = ResponseCache(path), ResponseCache(path)
    texts = [f"reply {i} " * (1 if i % 3 else 20000) for i in range(7)]
    requests_ = [_request(model=f"m-{i}") for i in range(len(texts))]
    for i, (request, text) in enumerate(zip(requests_, texts)):
        caches[i % 2].put(request.digest, request, BackendResponse(text=text))

    lines = path.read_bytes().split(b"\n")
    assert lines.pop() == b""
    assert [json.loads(line)["response"]["text"] for line in lines] == texts
    third = ResponseCache(path)
    assert third.skipped_lines == 0 and len(third) == len(texts)
    assert [third.get(r.digest).text for r in requests_] == texts


def test_cache_first_put_makes_its_directory(tmp_path):
    path = tmp_path / "new" / "nested" / "replies.jsonl"
    cache = ResponseCache(path)
    assert not path.parent.exists()  # loading makes nothing
    request = _request()
    cache.put(request.digest, request, BackendResponse(text="one"))
    other = _request(model="m-2")
    cache.put(other.digest, other, BackendResponse(text="two"))
    reloaded = ResponseCache(path)
    assert reloaded.skipped_lines == 0
    assert [reloaded.get(r.digest).text for r in (request, other)] == ["one", "two"]


def test_cache_ends_a_torn_last_line_before_appending(tmp_path):
    path = tmp_path / "replies.jsonl"
    first = _request()
    ResponseCache(path).put(canonical_digest(first), first, BackendResponse(text="one"))
    whole = path.read_bytes()
    with path.open("a", encoding="utf-8") as fh:  # a run killed mid-write
        fh.write('{"digest": "torn", "model"')

    resumed = ResponseCache(path)
    second = _request(model="m-2")
    resumed.put(canonical_digest(second), second, BackendResponse(text="two"))
    reloaded = ResponseCache(path)
    assert reloaded.skipped_lines == 1
    assert reloaded.get(canonical_digest(first)).text == "one"
    assert reloaded.get(canonical_digest(second)).text == "two"

    path.write_bytes(whole)  # a complete file gains no blank line
    third = _request(model="m-3")
    ResponseCache(path).put(canonical_digest(third), third, BackendResponse(text="three"))
    assert path.read_bytes().startswith(whole)
    assert path.read_bytes().count(b"\n") == whole.count(b"\n") + 1


def test_cache_warm_replay_leaves_a_complete_file_unchanged(tmp_path):
    path = tmp_path / "replies.jsonl"
    request = _request()
    ResponseCache(path).put(canonical_digest(request), request, BackendResponse(text="one"))
    whole = path.read_bytes()
    replay = ResponseCache(path)
    replay.put(canonical_digest(request), request, BackendResponse(text="one"))
    assert path.read_bytes() == whole


# JSON values as ``provider_meta`` holds them; NaN is left out because it is
# not equal to itself, so a reloaded response could not compare equal.
_JSON_VALUE = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), _TEXT
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_TEXT, inner, max_size=3)
    ),
    max_leaves=8,
)
_RESPONSES = st.builds(
    BackendResponse,
    text=_TEXT,
    thinking_text=_TEXT,
    prompt_tokens=st.integers(0, 10**6),
    completion_tokens=st.integers(0, 10**6),
    thinking_tokens=st.integers(0, 10**6),
    latency_ms=st.integers(0, 10**6),
    provider_meta=st.builds(
        lambda top, nested: {**top, "nested": nested},
        st.dictionaries(_TEXT, _JSON_VALUE, max_size=3),
        st.dictionaries(_TEXT, _JSON_VALUE, min_size=1, max_size=3),
    ),
)


@settings(max_examples=100, deadline=None)
@given(
    responses=st.lists(_RESPONSES, min_size=2, max_size=3),
    repeats=st.integers(1, 3),
    model=_TEXT.map("modèle-\U0001F600-".__add__),
    digest_tail=_TEXT,
    torn=st.booleans(),
)
def test_cache_lines_are_the_sorted_json_of_their_records(
    responses, repeats, model, digest_tail, torn
):
    """Each response object is put under several digests in a row, and the
    first comes back after the others; every line is the record's sorted
    JSON, whether or not the file ended in a torn line."""
    request = _request(model=model)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "replies.jsonl"
        start = b'{"digest": "torn", "mod' if torn else b""
        path.write_bytes(start)
        cache = ResponseCache(path)
        expected, put = [], {}
        for i, response in enumerate([*responses, responses[0]]):
            for j in range(repeats):
                digest = f"{i}.{j}{digest_tail}"
                cache.put(digest, request, response)
                record = {"digest": digest, "model": model,
                          "response": dataclasses.asdict(response)}
                expected.append(json.dumps(record, sort_keys=True) + "\n")
                # JSON reads an escaped surrogate pair back as one code point
                put[digest] = json.loads(expected[-1])["response"]
        written = path.read_bytes()
        assert written == start + (b"\n" if torn else b"") + "".join(expected).encode("utf-8")
        reloaded = ResponseCache(path)
        assert reloaded.skipped_lines == torn and len(reloaded) == len(put)
        assert all(reloaded.get(d) == BackendResponse(**fields) for d, fields in put.items())


def test_cache_in_memory_without_path():
    cache = ResponseCache()
    request = _request()
    cache.put(canonical_digest(request), request, BackendResponse(text="x"))
    assert cache.get(canonical_digest(request)).text == "x"


# ---------------------------------------------------------------------------
# Rate limiting and retries
# ---------------------------------------------------------------------------


def test_rate_limiter_spaces_calls():
    sleeps = []
    limiter = RateLimiter(2.0, clock=lambda: 0.0, sleeper=sleeps.append)
    for _ in range(3):
        limiter.wait()
    assert sleeps == [0.5, 1.0]


def test_rate_limiter_disabled_at_zero():
    limiter = RateLimiter(0, clock=lambda: 0.0, sleeper=lambda s: pytest.fail("slept"))
    limiter.wait()
    limiter.wait()


def test_rate_limiter_rejects_negative():
    with pytest.raises(ValueError):
        RateLimiter(-1.0)


def test_retries_transient_then_succeeds():
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise RateLimited("busy")
        return BackendResponse(text="ok")

    sleeps = []
    got = call_with_retries(flaky, rng=random.Random(0), sleeper=sleeps.append)
    assert got.text == "ok"
    assert calls["n"] == 3
    assert len(sleeps) == 2
    # jittered exponential backoff: base·2^attempt·(0.5 + U[0,1))
    assert 0.5 <= sleeps[0] < 1.5
    assert 1.0 <= sleeps[1] < 3.0


def test_retries_honour_retry_after_floor():
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] == 1:
            raise RateLimited("busy", retry_after=30.0)
        return BackendResponse(text="ok")

    sleeps = []
    call_with_retries(flaky, rng=random.Random(1), sleeper=sleeps.append)
    assert sleeps[0] >= 30.0


def test_retries_exhaust_and_reraise():
    calls = []

    def always():
        calls.append(1)
        raise GatewayTimeout("down")

    sleeps = []
    with pytest.raises(GatewayTimeout):
        call_with_retries(always, rng=random.Random(2), sleeper=sleeps.append)
    assert len(calls) == RETRY_ATTEMPTS == 5
    assert len(sleeps) == RETRY_ATTEMPTS - 1
    for k, delay in enumerate(sleeps):  # a 1 s base, doubled each time, jittered by 0.5-1.5
        assert RETRY_BASE_DELAY * 2 ** k * 0.5 <= delay < RETRY_BASE_DELAY * 2 ** k * 1.5
    assert RETRY_BASE_DELAY == 1.0


@pytest.mark.parametrize("error", [AuthError("no"), MalformedProviderReply("bad")])
def test_permanent_errors_not_retried(error):
    calls = {"n": 0}

    def broken():
        calls["n"] += 1
        raise error

    with pytest.raises(type(error)):
        call_with_retries(broken, sleeper=lambda s: pytest.fail("slept"))
    assert calls["n"] == 1


# ---------------------------------------------------------------------------
# HTTP dialects
# ---------------------------------------------------------------------------


def test_anthropic_payload_plain_and_thinking():
    dialect = AnthropicDialect()
    plain = dialect.payload(_request(temperature=0.7))
    assert plain["temperature"] == 0.7
    assert plain["messages"] == [{"role": "user", "content": "hello"}]
    assert plain["system"] == "sys"
    assert "thinking" not in plain

    thinking = dialect.payload(_request(thinking=True))
    assert thinking["thinking"] == {
        "type": "enabled",
        "budget_tokens": DEFAULT_THINKING_BUDGET,
    }
    assert "temperature" not in thinking
    budgeted = dialect.payload(_request(thinking=True, thinking_budget=2048))
    assert budgeted["thinking"]["budget_tokens"] == 2048


def test_anthropic_headers_and_parse():
    dialect = AnthropicDialect()
    headers = dialect.headers("sekrit")
    assert headers["x-api-key"] == "sekrit"
    assert headers["anthropic-version"] == "2023-06-01"
    parsed = dialect.parse(ANTHROPIC_BODY, latency_ms=42)
    assert parsed.text == "the answer"
    assert parsed.thinking_text == "mull it over"
    assert parsed.prompt_tokens == 10 and parsed.completion_tokens == 4
    assert parsed.latency_ms == 42
    with pytest.raises(MalformedProviderReply):
        dialect.parse({"unexpected": True}, latency_ms=0)


def test_openai_payload_and_parse():
    dialect = OpenAIDialect()
    assert dialect.headers("sekrit")["Authorization"] == "Bearer sekrit"
    plain = dialect.payload(_request(temperature=0.7))
    assert plain["messages"][0] == {"role": "system", "content": "sys"}
    assert plain["messages"][1] == {"role": "user", "content": "hello"}
    assert "chat_template_kwargs" not in plain

    thinking = dialect.payload(_request(thinking=True, thinking_budget=2048))
    assert thinking["chat_template_kwargs"] == {
        "enable_thinking": True,
        "thinking_budget": 2048,
    }
    parsed = dialect.parse(OPENAI_BODY, latency_ms=7)
    assert parsed.text == "the answer"
    assert parsed.thinking_text == "mull it over"
    with pytest.raises(MalformedProviderReply):
        dialect.parse({"choices": []}, latency_ms=0)


def test_http_backend_rejects_unknown_dialect():
    with pytest.raises(ValueError):
        HttpBackend("http://x", dialect="grpc")


def test_http_backend_requires_api_key(monkeypatch):
    monkeypatch.delenv("SOME_KEY", raising=False)
    with _Provider() as provider:
        backend = _http_backend(provider.url())
        with pytest.raises(AuthError):
            backend.complete(_request())
        backend.close()
    assert provider.requests == []
    assert provider.connections == 0


def test_http_backend_happy_path(monkeypatch):
    """Both dialects send their headers and exactly the bytes of
    ``json.dumps(payload, allow_nan=False)``, to the URL's path and query."""
    monkeypatch.setenv("SOME_KEY", "sekrit")
    request = _request(messages=(("user", "h\u00e9llo \U0001f600"),))
    for dialect, reply in (("anthropic", ANTHROPIC_BODY), ("openai", OPENAI_BODY)):
        with _Provider([(200, json.dumps(reply).encode(), {})]) as provider:
            backend = _http_backend(
                provider.url("/v1/messages?beta=1"), dialect=dialect, timeout_s=9.0
            )
            got = backend.complete(request)
            assert [conn.timeout for conn in backend._open] == [9.0]
            backend.close()
        assert got.text == "the answer"
        assert got.thinking_text == "mull it over"
        [(method, target, headers, body)] = provider.requests
        assert (method, target) == ("POST", "/v1/messages?beta=1")
        assert headers["host"] == provider.url("").removeprefix("http://")
        assert headers["content-type"] == "application/json"
        expected = DIALECTS[dialect]().payload(request)
        assert body == json.dumps(expected, allow_nan=False).encode("utf-8")
        if dialect == "anthropic":
            assert headers["x-api-key"] == "sekrit"
            assert headers["anthropic-version"] == "2023-06-01"
            assert "authorization" not in headers
        else:
            assert headers["authorization"] == "Bearer sekrit"
            assert "x-api-key" not in headers


@pytest.mark.parametrize(
    "status, expected",
    [
        (401, AuthError),
        (403, AuthError),
        (429, RateLimited),
        (408, GatewayTimeout),
        (500, GatewayTimeout),
        (503, GatewayTimeout),
        (418, ProviderHTTPError),
    ],
)
def test_http_backend_status_mapping(monkeypatch, status, expected):
    monkeypatch.setenv("SOME_KEY", "sekrit")
    with _Provider([(status, b"\xffnope", {})]) as provider:
        backend = _http_backend(provider.url())
        with pytest.raises(expected) as info:
            backend.complete(_request())
        backend.close()
    if status == 418:
        assert str(info.value) == "unexpected status 418: \ufffdnope"


def test_http_backend_extracts_retry_after(monkeypatch):
    monkeypatch.setenv("SOME_KEY", "sekrit")
    with _Provider([(429, b"slow down", {"retry-after": "17"})]) as provider:
        backend = _http_backend(provider.url())
        with pytest.raises(RateLimited) as info:
            backend.complete(_request())
        backend.close()
    assert info.value.retry_after == 17.0


def test_http_backend_reads_a_retry_after_date_as_none(monkeypatch):
    monkeypatch.setenv("SOME_KEY", "sekrit")
    date = {"retry-after": "Wed, 21 Oct 2015 07:28:00 GMT"}
    with _Provider([(429, b"slow down", date)]) as provider:
        backend = _http_backend(provider.url())
        with pytest.raises(RateLimited) as info:
            backend.complete(_request())
        backend.close()
    assert info.value.retry_after is None


def test_http_backend_transport_and_body_failures(monkeypatch):
    monkeypatch.setenv("SOME_KEY", "sekrit")
    answer = (200, json.dumps(ANTHROPIC_BODY).encode(), {})
    with _Provider([answer], sleep_s=0.5) as provider:
        backend = _http_backend(provider.url(), timeout_s=0.2)
        with pytest.raises(GatewayTimeout, match="no reply within 0.2s"):
            backend.complete(_request())
        # the connection that timed out is dropped; the next call opens another
        provider.sleep_s = 0.0
        assert backend.complete(_request()).text == "the answer"
        assert provider.connections == 2
        assert len(backend._open) == 1
        backend.close()

    with socket.socket() as unused:
        unused.bind(("127.0.0.1", 0))
        port = unused.getsockname()[1]
    backend = _http_backend(f"http://127.0.0.1:{port}/v1/messages")
    with pytest.raises(GatewayTimeout, match="transport failure"):
        backend.complete(_request())
    assert not backend._open

    with _Provider([(200, b"<html>oops</html>", {})]) as provider:
        backend = _http_backend(provider.url())
        with pytest.raises(MalformedProviderReply):
            backend.complete(_request())
        backend.close()


def test_http_backend_keeps_one_connection_per_thread(monkeypatch):
    monkeypatch.setenv("SOME_KEY", "sekrit")
    with _Provider([(200, json.dumps(ANTHROPIC_BODY).encode(), {})]) as provider:
        backend = _http_backend(provider.url())
        texts = []

        def calls():
            texts.extend(backend.complete(_request()).text for _ in range(5))

        threads = [threading.Thread(target=calls) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(backend._open) == 2
        backend.close()
        assert not backend._open
    assert texts == ["the answer"] * 10
    assert len(provider.requests) == 10
    assert provider.connections == 2


def test_http_backend_resends_once_when_a_kept_connection_was_closed(monkeypatch):
    """A provider that hangs up after each reply, without saying so, costs a
    fresh connection per call and never a failed call (so never a backoff)."""
    monkeypatch.setenv("SOME_KEY", "sekrit")
    answer = (200, json.dumps(ANTHROPIC_BODY).encode(), {})
    with _Provider([answer], close_after_reply=True) as provider:
        backend = _http_backend(provider.url())
        for _ in range(5):
            assert backend.complete(_request()).text == "the answer"
        backend.close()
    assert len(provider.requests) == 5
    assert provider.connections == 5


def test_http_backend_sends_an_http_target_to_its_proxy_by_absolute_url(monkeypatch):
    monkeypatch.setenv("SOME_KEY", "sekrit")
    answer = (200, json.dumps(ANTHROPIC_BODY).encode(), {})
    with _Provider([answer]) as proxy:
        monkeypatch.setenv("http_proxy", proxy.url("").replace("//", "//us%40er:pw@"))
        backend = _http_backend("http://provider.test:8080/v1/messages?beta=1")
        assert backend.complete(_request()).text == "the answer"
        backend.close()
    [(method, target, headers, _)] = proxy.requests
    assert (method, target) == ("POST", "http://provider.test:8080/v1/messages?beta=1")
    assert headers["host"] == "provider.test:8080"
    assert headers["proxy-authorization"] == "Basic " + base64.b64encode(b"us@er:pw").decode()

    # a host in no_proxy is reached directly
    with _Provider([answer]) as provider:
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        backend = _http_backend(provider.url())
        assert backend.complete(_request()).text == "the answer"
        backend.close()
    [(_, target, headers, _)] = provider.requests
    assert target == "/v1/messages"
    assert "proxy-authorization" not in headers


def test_http_backend_tunnels_an_https_target_through_its_proxy(monkeypatch):
    monkeypatch.setenv("SOME_KEY", "sekrit")
    with _Provider() as proxy:
        monkeypatch.setenv("HTTPS_PROXY", proxy.url("").replace("//", "//user:pw@"))
        backend = _http_backend("https://provider.test:8443/v1/messages")
        with pytest.raises(GatewayTimeout, match="transport failure"):
            backend.complete(_request())  # the proxy refuses the tunnel
        assert not backend._open
    [(method, target, headers, _)] = proxy.requests
    assert (method, target) == ("CONNECT", "provider.test:8443")
    assert headers["proxy-authorization"] == "Basic " + base64.b64encode(b"user:pw").decode()


def test_http_backend_rejects_urls_and_proxies_it_cannot_reach(monkeypatch):
    """Both are ``TaskError``s, which ``searchbench run`` reports and exits 2 on."""
    for url in ("ftp://provider.test/v1/messages", "http:///v1/messages"):
        with pytest.raises(GatewayError, match="not an http"):
            HttpBackend(url)
    monkeypatch.setenv("https_proxy", "socks5://127.0.0.1:1080")
    with pytest.raises(GatewayError, match="proxy"):
        HttpBackend("https://provider.test/v1/messages")


# ---------------------------------------------------------------------------
# Test doubles
# ---------------------------------------------------------------------------


def test_mock_backend_scripted_and_callable():
    scripted = MockBackend(["one", "two"])
    texts = [scripted.complete(_request()).text for _ in range(4)]
    assert texts == ["one", "two", "two", "two"]
    assert len(scripted.calls) == 4

    echo = MockBackend(lambda req: req.messages[-1][1].upper())
    assert echo.complete(_request()).text == "HELLO"


def _flat(sample_instances):
    return [inst for group in sample_instances.values() for inst in group]


def test_oracle_answers_rendered_prompts(sample_instances):
    instances = _flat(sample_instances)
    oracle = OracleBackend(instances)
    inst = instances[0]
    bundle = render(inst, PromptMode.COT, default_exemplars(inst.kind, PromptMode.COT))
    request = _request(system_text=bundle.system_text, messages=(("user", bundle.body),))
    reply = oracle.complete(request)
    assert "Here is" in reply.text
    assert oracle.calls == 1


def test_oracle_builds_each_answer_once(sample_instances, monkeypatch):
    built = []

    def counted(payload, solution):
        built.append(solution)
        return canonical_text(payload, solution)

    monkeypatch.setattr("searchbench.gateway.canonical_text", counted)
    instances = _flat(sample_instances)
    oracle = OracleBackend(instances)
    assert len(built) == len(instances)
    for inst in instances:
        bundle = render(inst, PromptMode.AOT, default_exemplars(inst.kind, PromptMode.AOT))
        for _ in range(3):
            reply = oracle.complete(_request(messages=(("user", bundle.body),)))
            assert reply.text == canonical_text(inst.payload, inst.ground_truth)
    assert len(built) == len(instances)


def test_oracle_reads_first_user_message_in_refine_history(sample_instances):
    instances = _flat(sample_instances)
    oracle = OracleBackend(instances)
    inst = instances[0]
    bundle = render(inst, PromptMode.COT, default_exemplars(inst.kind, PromptMode.COT))
    history = (
        ("user", bundle.body),
        ("assistant", "a wrong first attempt"),
        ("user", render_refine("a wrong first attempt")),
    )
    reply = oracle.complete(_request(messages=history))
    assert "Here is" in reply.text


def test_oracle_rejects_unknown_or_markerless_prompts(sample_instances):
    instances = _flat(sample_instances)
    oracle = OracleBackend(instances[:1])
    with pytest.raises(MalformedProviderReply):
        oracle.complete(_request(messages=(("user", "no marker here"),)))
    stranger = instances[-1]
    assert stranger.kind is not instances[0].kind
    bundle = render(
        stranger, PromptMode.DIRECT, default_exemplars(stranger.kind, PromptMode.DIRECT)
    )
    with pytest.raises(MalformedProviderReply):
        oracle.complete(_request(messages=(("user", bundle.body),)))


# ---------------------------------------------------------------------------
# Gateway facade
# ---------------------------------------------------------------------------


def test_gateway_caches_and_counts(tmp_path):
    backend = MockBackend(["fresh"])
    gateway = ModelGateway(backend, cache=ResponseCache(tmp_path / "c.jsonl"))
    request = _request()
    assert gateway.complete(request).text == "fresh"
    assert gateway.complete(request).text == "fresh"
    assert len(backend.calls) == 1
    assert gateway.cache_stats == {"hits": 1, "misses": 1, "entries": 1}


def test_gateway_separates_sample_indices():
    backend = MockBackend(["a", "b"])
    gateway = ModelGateway(backend)
    first = gateway.complete(_request(sample_index=0))
    second = gateway.complete(_request(sample_index=1))
    assert (first.text, second.text) == ("a", "b")
    assert len(backend.calls) == 2


def test_gateway_retries_through_backend():
    calls = {"n": 0}

    class Flaky:
        def complete(self, request):
            calls["n"] += 1
            if calls["n"] < 3:
                raise GatewayTimeout("hiccup")
            return BackendResponse(text="eventually")

    sleeps = []
    gateway = ModelGateway(Flaky(), rng=random.Random(3), sleeper=sleeps.append)
    assert gateway.complete(_request()).text == "eventually"
    assert calls["n"] == 3 and len(sleeps) == 2
    # success is cached; a replay touches neither backend nor sleeper
    assert gateway.complete(_request()).text == "eventually"
    assert calls["n"] == 3


def _start(fn):
    thread = threading.Thread(target=fn, daemon=True)
    thread.start()
    return thread


WAITERS = 4


def _start_waiters(gateway, replies):
    """WAITERS threads asking for the request in flight, each seen blocked."""
    waiters = [
        _start(lambda: replies.append(gateway.complete(_request()).text))
        for _ in range(WAITERS)
    ]
    waiters[-1].join(0.2)
    assert all(waiter.is_alive() for waiter in waiters)
    return waiters


def test_gateway_joins_a_request_already_in_flight():
    entered, release = threading.Event(), threading.Event()

    def script(request):
        entered.set()
        release.wait(5)
        return "shared"

    backend = MockBackend(script)
    gateway = ModelGateway(backend)
    replies = []
    owner = _start(lambda: replies.append(gateway.complete(_request()).text))
    assert entered.wait(5)
    waiters = _start_waiters(gateway, replies)
    release.set()
    for thread in (owner, *waiters):
        thread.join(5)
        assert not thread.is_alive()
    assert replies == ["shared"] * (WAITERS + 1)
    assert len(backend.calls) == 1
    assert gateway.cache_stats == {"hits": WAITERS, "misses": 1, "entries": 1}


def test_gateway_waiter_calls_again_when_the_call_in_flight_raises():
    entered, release = threading.Event(), threading.Event()

    def script(request):
        if entered.is_set():
            return "second"
        entered.set()
        release.wait(5)
        raise MalformedProviderReply("first call fails")

    backend = MockBackend(script)
    gateway = ModelGateway(backend)
    errors, replies = [], []

    def owner_call():
        try:
            gateway.complete(_request())
        except MalformedProviderReply as err:
            errors.append(err)

    owner = _start(owner_call)
    assert entered.wait(5)
    waiters = _start_waiters(gateway, replies)
    release.set()
    for thread in (owner, *waiters):
        thread.join(5)
        assert not thread.is_alive()
    assert len(errors) == 1 and replies == ["second"] * WAITERS
    assert len(backend.calls) == 2  # exactly one waiter called again
    assert gateway.cache_stats == {"hits": WAITERS - 1, "misses": 2, "entries": 1}


@pytest.mark.parametrize("field", ["text", "thinking_text", "provider_meta"])
def test_gateway_answers_a_surrogate_pair_as_a_warm_replay_reads_it(
    tmp_path, sample_instances, field
):
    """JSON reads the escaped lone surrogates of ``"\\ud800\\udfff"`` back as
    one code point, so a miss returns the response as the cache reloads it:
    cold and warm runs see one text and judge it alike.  The cache line keeps
    its bytes, and a response with no surrogate is returned as it came."""
    instance = sample_instances[TaskKind.TRIP_PLANNING][0]
    pair, joined = "\ud800\udfff", "\U000103ff"
    answer = canonical_text(instance.payload, instance.ground_truth)
    sent = BackendResponse(text=answer, completion_tokens=3)
    if field == "provider_meta":
        sent = dataclasses.replace(sent, provider_meta={"stop" + pair: [pair, 1]})
    else:
        sent = dataclasses.replace(sent, **{field: answer + pair})

    class Fixed:
        def __init__(self, response):
            self.response = response

        def complete(self, request):
            return self.response

    path = tmp_path / "cache.jsonl"
    cold = ModelGateway(Fixed(sent), cache=ResponseCache(path)).complete(_request())
    warm_gateway = ModelGateway(MockBackend(), cache=ResponseCache(path))
    warm = warm_gateway.complete(_request())
    assert warm_gateway.cache_stats == {"hits": 1, "misses": 0, "entries": 1}
    assert cold == warm
    assert evaluate(instance, cold.text)[1] == evaluate(instance, warm.text)[1]
    if field == "provider_meta":
        assert cold.provider_meta == {"stop" + joined: [joined, 1]}
    else:
        assert getattr(cold, field) == answer + joined
    record = {"digest": _request().digest, "model": "m-1", "response": dataclasses.asdict(sent)}
    assert path.read_bytes() == (json.dumps(record, sort_keys=True) + "\n").encode("ascii")

    plain = BackendResponse(text=answer + "\u00e9\U0001f600", provider_meta={"k": "v"})
    assert ModelGateway(Fixed(plain)).complete(_request()) is plain


def test_gateway_threads_sharing_digests_call_each_once():
    """More threads than cores ask for a few digests in shuffled orders under
    a 1 µs switch interval: each digest reaches the backend once, and every
    caller gets its own digest's reply."""
    calls, lock = [], threading.Lock()

    class Slow:
        def complete(self, request):
            with lock:
                calls.append(request.model)
            time.sleep(0.001)
            return BackendResponse(text=request.model)

    gateway = ModelGateway(Slow())
    models = [f"m-{i}" for i in range(5)]
    wrong = []

    def worker(seed):
        order = models * 4
        random.Random(seed).shuffle(order)
        for model in order:
            if gateway.complete(_request(model=model)).text != model:
                wrong.append(model)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [_start(lambda seed=seed: worker(seed)) for seed in range(8)]
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert not wrong and sorted(calls) == models
    assert gateway.cache_stats == {"hits": 8 * 20 - 5, "misses": 5, "entries": 5}


def test_requests_and_responses_are_frozen():
    request = _request()
    with pytest.raises(dataclasses.FrozenInstanceError):
        request.model = "other"
    response = BackendResponse(text="x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        response.text = "y"
