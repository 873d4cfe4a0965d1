"""Model backends: HTTP dialects, caching, rate limiting and test doubles.

``ModelGateway`` is the single entry point: it answers requests from an
append-only JSONL cache when it can, and otherwise rate-limits, calls the
backend with jittered-exponential retries, and records the reply.  Requests
are identified by a canonical digest of their full content, so identical
requests are never paid for twice and a warm cache can replay an entire run
without network access.

Backends implement one method, ``complete(request) -> BackendResponse``:

* ``HttpBackend``   -- real providers, in either of two wire dialects.
* ``OracleBackend`` -- answers with the exact solver's solution for the
  instance whose statement appears in the prompt (pipeline self-check).
* ``MockBackend``   -- scripted replies for tests.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Protocol, Sequence

from .answers import canonical_text
from .prompts import TARGET_MARKER
from .tasks import ProblemInstance, TaskError

if TYPE_CHECKING:
    import http.client


class GatewayError(TaskError):
    """Base class for backend/transport failures."""


class AuthError(GatewayError):
    """The provider rejected our credentials; retrying cannot help."""


class RateLimited(GatewayError):
    """The provider asked us to slow down."""

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class GatewayTimeout(GatewayError):
    """The provider did not answer in time (or answered 5xx)."""


class MalformedProviderReply(GatewayError):
    """The provider answered, but not in the shape the dialect promises."""


class ProviderHTTPError(GatewayError):
    """An HTTP status outside the taxonomy above; not retried."""


# ---------------------------------------------------------------------------
# Requests and responses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BackendRequest:
    """One completion request.

    ``messages`` alternates (role, content) pairs, roles "user"/"assistant".
    ``sample_index`` distinguishes otherwise-identical requests so parallel
    samples get distinct cache entries.  ``digest`` is the request's
    ``canonical_digest``, computed once at construction: the cache key and
    the attempt's ``request_digest``.
    """

    model: str
    system_text: str
    messages: tuple[tuple[str, str], ...]
    temperature: float = 0.0
    max_tokens: int = 4096
    thinking: bool = False
    thinking_budget: int | None = None
    sample_index: int = 0
    digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "digest", canonical_digest(self))


@dataclass(frozen=True)
class BackendResponse:
    text: str
    thinking_text: str = ""
    prompt_tokens: int = 0
    completion_tokens: int = 0
    thinking_tokens: int = 0
    latency_ms: int = 0
    provider_meta: Mapping[str, object] = field(default_factory=dict)


_encode_str = json.encoder.encode_basestring_ascii  # json.dumps of one str


def canonical_digest(request: BackendRequest) -> str:
    """Stable content digest of a request (sha256 of its sorted JSON form).

    That form begins ``{"max_tokens":M,"messages":[...]``, nearly all of its
    bytes, and every other key sorts after those two.  So the head is hashed
    once per ``(max_tokens, messages)`` and each request adds its own tail to
    a copy: the units of one (instance, mode) share one head.  Keys carry
    the ``repr`` of their numbers, which tells apart values that compare
    equal but encode differently (``0``, ``0.0``, ``-0.0``, ``False``).
    """
    numbers = (
        request.temperature, request.thinking, request.thinking_budget, request.sample_index
    )
    state = _head_state(repr(request.max_tokens), request.max_tokens, request.messages).copy()
    state.update(_tail(request.model, request.system_text, repr(numbers), numbers))
    return state.hexdigest()


@functools.lru_cache(maxsize=16)
def _head_state(
    key: str, max_tokens: int, messages: tuple[tuple[str, str], ...]
) -> hashlib._Hash:
    """sha256 state after ``{"max_tokens":M,"messages":[...]``, the sorted
    JSON form of a request up to, not including, its ``,"model"`` key;
    ``key`` is ``repr(max_tokens)``.

    A first user message that holds ``TARGET_MARKER`` starts from the state
    after its text up to the marker, the exemplar half that every target of
    one (task, mode) shares.  JSON escapes one code point at a time, so the
    halves escaped apart are the bytes of the whole escaped at once.
    """
    if messages and messages[0][0] == "user":
        text = messages[0][1]
        cut = text.find(TARGET_MARKER)
        if cut >= 0:
            cut += len(TARGET_MARKER)
            state = _prefix_state(key, max_tokens, text[:cut]).copy()
            later = "".join(
                "," + json.dumps(list(m), separators=(",", ":")) for m in messages[1:]
            )
            # the prefix state holds the opening quote of the first message's text
            state.update(f"{_encode_str(text[cut:])[1:]}]{later}]".encode("ascii"))
            return state
    return hashlib.sha256(_head_json(max_tokens, messages)[:-1].encode("utf-8"))


@functools.lru_cache(maxsize=16)
def _prefix_state(key: str, max_tokens: int, prefix: str) -> hashlib._Hash:
    """sha256 state after ``{"max_tokens":M,"messages":[["user","<prefix>``."""
    head = _head_json(max_tokens, (("user", prefix),))
    return hashlib.sha256(head[: -len('"]]}')].encode("ascii"))


def _head_json(max_tokens: int, messages: tuple[tuple[str, str], ...]) -> str:
    return json.dumps(
        {"max_tokens": max_tokens, "messages": [list(m) for m in messages]},
        sort_keys=True,
        separators=(",", ":"),
    )


@functools.lru_cache(maxsize=64)
def _tail(model: str, system_text: str, key: str, numbers: tuple) -> bytes:
    """The sorted JSON form from ``,"model"`` to its end; ``numbers`` are
    temperature, thinking, thinking budget and sample index, and ``key`` is
    their ``repr``."""
    temperature, thinking, thinking_budget, sample_index = numbers
    tail = json.dumps(
        {
            "model": model,
            "system": system_text,
            "temperature": temperature,
            "thinking": thinking,
            "thinking_budget": thinking_budget,
            "sample_index": sample_index,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return b"," + tail[1:].encode("utf-8")


def _response_to_json(response: BackendResponse) -> dict:
    return {
        "text": response.text,
        "thinking_text": response.thinking_text,
        "prompt_tokens": response.prompt_tokens,
        "completion_tokens": response.completion_tokens,
        "thinking_tokens": response.thinking_tokens,
        "latency_ms": response.latency_ms,
        "provider_meta": dict(response.provider_meta),
    }


def _response_from_json(data: dict) -> BackendResponse:
    return BackendResponse(
        text=data["text"],
        thinking_text=data.get("thinking_text", ""),
        prompt_tokens=data.get("prompt_tokens", 0),
        completion_tokens=data.get("completion_tokens", 0),
        thinking_tokens=data.get("thinking_tokens", 0),
        latency_ms=data.get("latency_ms", 0),
        provider_meta=data.get("provider_meta", {}),
    )


_SURROGATE = re.compile("[\ud800-\udfff]")


def _holds_surrogate(response: BackendResponse) -> bool:
    """Whether ``response`` holds a surrogate code point, which JSON may not
    read back as written: an escaped high-low pair decodes as one code point."""
    meta = response.provider_meta
    return any(
        not s.isascii() and _SURROGATE.search(s) is not None
        for s in (
            response.text,
            response.thinking_text,
            json.dumps(meta, ensure_ascii=False) if meta else "",
        )
    )


class Backend(Protocol):
    def complete(self, request: BackendRequest) -> BackendResponse: ...


# ---------------------------------------------------------------------------
# Response cache
# ---------------------------------------------------------------------------


class ResponseCache:
    """Append-only JSONL cache keyed by request digest.

    Writes are serialized through one lock; reads go against the in-memory
    snapshot without locking.  Each response is one line, appended with a
    single write to a file opened for appending, so a killed run loses at
    most the line it was writing.  Corrupt lines (not UTF-8, not JSON, or
    not a record) are skipped on load so a damaged cache degrades to misses,
    never to errors.  A torn last line is ended before the first append, so
    it cannot swallow the next entry.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._entries: dict[str, BackendResponse] = {}
        self.skipped_lines = 0
        self._torn = False  # the file ends inside a line
        self._dir_made = False  # the file's directory exists
        self._encoded_for: BackendResponse | None = None  # the last response put
        self._encoded = ""  # its JSON encoding
        if self._path is not None and self._path.exists():
            with open(self._path, "rb") as fh:
                for line in fh:
                    self._torn = not line.endswith(b"\n")
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line.decode("utf-8"))
                        self._entries[record["digest"]] = _response_from_json(
                            record["response"]
                        )
                    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
                        self.skipped_lines += 1

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, digest: str) -> BackendResponse | None:
        return self._entries.get(digest)

    def put(self, digest: str, request: BackendRequest, response: BackendResponse) -> None:
        """Record ``response``; its line is ``json.dumps(record, sort_keys=True)``
        of ``{"digest", "model", "response"}``, built from parts."""
        with self._lock:
            if digest in self._entries:
                return
            if self._path is not None:
                if response is not self._encoded_for:  # consecutive puts share an answer
                    self._encoded = json.dumps(_response_to_json(response), sort_keys=True)
                    self._encoded_for = response
                line = (
                    f'{{"digest": {_encode_str(digest)}, "model": {_encode_str(request.model)},'
                    f' "response": {self._encoded}}}\n'
                )
                self._append(("\n" + line if self._torn else line).encode("ascii"))
                self._torn = False
            self._entries[digest] = response

    def _append(self, data: bytes) -> None:
        """Write ``data`` at the end of the file; called under the lock."""
        if not self._dir_made:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._dir_made = True
        fd = os.open(self._path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)


# ---------------------------------------------------------------------------
# Rate limiting and retries
# ---------------------------------------------------------------------------


class RateLimiter:
    """Process-wide minimum spacing between calls; clock/sleep injectable."""

    def __init__(
        self,
        requests_per_second: float,
        clock: Callable[[], float] = time.monotonic,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        if requests_per_second < 0:
            raise ValueError("requests_per_second must be >= 0")
        self._interval = 1.0 / requests_per_second if requests_per_second else 0.0
        self._clock = clock
        self._sleeper = sleeper
        self._lock = threading.Lock()
        self._next_slot = 0.0

    def wait(self) -> None:
        if not self._interval:
            return
        with self._lock:
            now = self._clock()
            delay = self._next_slot - now
            self._next_slot = max(now, self._next_slot) + self._interval
        if delay > 0:
            self._sleeper(delay)


RETRY_ATTEMPTS = 5
RETRY_BASE_DELAY = 1.0


def call_with_retries(
    fn: Callable[[], BackendResponse],
    rng: random.Random | None = None,
    sleeper: Callable[[float], None] = time.sleep,
) -> BackendResponse:
    """Retry transient failures with jittered exponential backoff: up to
    ``RETRY_ATTEMPTS`` calls, the k-th wait ``RETRY_BASE_DELAY * 2**k``
    times a jitter in [0.5, 1.5), or the provider's ``retry_after`` if longer.

    Only RateLimited and GatewayTimeout are retried; auth errors and
    malformed replies surface immediately.
    """
    rng = rng or random.Random()
    last: GatewayError | None = None
    for attempt in range(RETRY_ATTEMPTS):
        try:
            return fn()
        except (RateLimited, GatewayTimeout) as err:
            last = err
            if attempt == RETRY_ATTEMPTS - 1:
                break
            delay = RETRY_BASE_DELAY * (2 ** attempt) * (0.5 + rng.random())
            if isinstance(err, RateLimited) and err.retry_after:
                delay = max(delay, err.retry_after)
            sleeper(delay)
    assert last is not None
    raise last


# ---------------------------------------------------------------------------
# HTTP dialects
# ---------------------------------------------------------------------------

DEFAULT_THINKING_BUDGET = 16000


class AnthropicDialect:
    """Messages-style wire format: x-api-key header, content blocks."""

    name = "anthropic"

    def headers(self, api_key: str) -> dict[str, str]:
        return {
            "x-api-key": api_key,
            "anthropic-version": "2023-06-01",
            "content-type": "application/json",
        }

    def payload(self, request: BackendRequest) -> dict:
        doc: dict = {
            "model": request.model,
            "max_tokens": request.max_tokens,
            "messages": [
                {"role": role, "content": content}
                for role, content in request.messages
            ],
        }
        if request.system_text:
            doc["system"] = request.system_text
        if request.thinking:
            doc["thinking"] = {
                "type": "enabled",
                "budget_tokens": request.thinking_budget or DEFAULT_THINKING_BUDGET,
            }
        else:
            doc["temperature"] = request.temperature
        return doc

    def parse(self, data: dict, latency_ms: int) -> BackendResponse:
        try:
            blocks = data["content"]
            text = "".join(b.get("text", "") for b in blocks if b.get("type") == "text")
            thinking = "".join(
                b.get("thinking", "") for b in blocks if b.get("type") == "thinking"
            )
            usage = data.get("usage", {})
            return BackendResponse(
                text=text,
                thinking_text=thinking,
                prompt_tokens=usage.get("input_tokens", 0),
                completion_tokens=usage.get("output_tokens", 0),
                latency_ms=latency_ms,
                provider_meta={"stop_reason": data.get("stop_reason")},
            )
        except (KeyError, TypeError, AttributeError) as err:
            raise MalformedProviderReply(f"unexpected reply shape: {err}") from err


class OpenAIDialect:
    """Chat-completions wire format: Bearer auth, choices list."""

    name = "openai"

    def headers(self, api_key: str) -> dict[str, str]:
        return {
            "Authorization": f"Bearer {api_key}",
            "content-type": "application/json",
        }

    def payload(self, request: BackendRequest) -> dict:
        messages = []
        if request.system_text:
            messages.append({"role": "system", "content": request.system_text})
        messages.extend(
            {"role": role, "content": content} for role, content in request.messages
        )
        doc: dict = {
            "model": request.model,
            "messages": messages,
            "max_tokens": request.max_tokens,
            "temperature": request.temperature,
        }
        if request.thinking:
            kwargs: dict = {"enable_thinking": True}
            if request.thinking_budget:
                kwargs["thinking_budget"] = request.thinking_budget
            doc["chat_template_kwargs"] = kwargs
        return doc

    def parse(self, data: dict, latency_ms: int) -> BackendResponse:
        try:
            message = data["choices"][0]["message"]
            usage = data.get("usage", {})
            return BackendResponse(
                text=message.get("content") or "",
                thinking_text=message.get("reasoning_content") or "",
                prompt_tokens=usage.get("prompt_tokens", 0),
                completion_tokens=usage.get("completion_tokens", 0),
                latency_ms=latency_ms,
                provider_meta={
                    "finish_reason": data["choices"][0].get("finish_reason")
                },
            )
        except (KeyError, IndexError, TypeError, AttributeError) as err:
            raise MalformedProviderReply(f"unexpected reply shape: {err}") from err


DIALECTS = {AnthropicDialect.name: AnthropicDialect, OpenAIDialect.name: OpenAIDialect}


class HttpBackend:
    """A real provider endpoint in one of the known dialects.

    The API key is read from the environment variable named by
    ``api_key_env`` at call time, never stored in configs or caches.

    Each calling thread keeps one keep-alive connection, opened on its first
    call.  A kept connection that the provider closed while it sat idle fails
    with a reset or a broken pipe; the request is then sent once more on a
    fresh one.  ``http_proxy``/``https_proxy``/``no_proxy`` are read once,
    here: an ``http`` target goes to its proxy by absolute URL, an ``https``
    one is tunnelled through it with ``CONNECT``.  Redirects are not followed.
    """

    def __init__(
        self,
        url: str,
        dialect: str = AnthropicDialect.name,
        api_key_env: str = "ANTHROPIC_API_KEY",
        timeout_s: float = 120.0,
    ) -> None:
        if dialect not in DIALECTS:
            raise ValueError(f"unknown dialect {dialect!r}; know {sorted(DIALECTS)}")
        self.url = url
        self.dialect = DIALECTS[dialect]()
        self.api_key_env = api_key_env
        self.timeout_s = timeout_s
        # loaded only once an http model is built; in-process runs skip them
        import http.client  # noqa: F401
        import urllib.parse
        import urllib.request

        target = urllib.parse.urlsplit(url)
        if target.scheme not in ("http", "https") or not target.hostname:
            raise GatewayError(f"url {url!r} is not an http:// or https:// URL")
        netloc = target.netloc.rpartition("@")[2]
        self._address = (target.hostname, target.port)
        self._path = urllib.parse.urlunsplit(("", "", target.path or "/", target.query, ""))
        self._ssl = None
        if target.scheme == "https":
            import ssl

            self._ssl = ssl.create_default_context()
        self._proxy: tuple[str, int | None] | None = None
        self._proxy_auth: dict[str, str] = {}
        proxy = urllib.request.getproxies().get(target.scheme)
        if proxy and not urllib.request.proxy_bypass(netloc):
            via = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if via.scheme != "http" or not via.hostname:
                raise GatewayError(f"{target.scheme} proxy {proxy!r} is not an http:// URL")
            self._proxy = (via.hostname, via.port)
            if via.username is not None:
                import base64

                login = f"{via.username}:{via.password or ''}"
                token = base64.b64encode(urllib.parse.unquote(login).encode()).decode()
                self._proxy_auth = {"Proxy-Authorization": f"Basic {token}"}
            if self._ssl is None:
                self._path = f"http://{netloc}{self._path}"
        self._local = threading.local()  # ``conn``: the calling thread's connection
        self._lock = threading.Lock()
        self._open: set[http.client.HTTPConnection] = set()  # for ``close``

    def close(self) -> None:
        """Close every connection this backend holds, in any thread."""
        with self._lock:
            conns, self._open = self._open, set()
        for conn in conns:
            conn.close()

    def _connect(self) -> http.client.HTTPConnection:
        import http.client  # loaded by ``__init__``; this only binds the name

        host, port = self._proxy or self._address
        if self._ssl is None:
            conn = http.client.HTTPConnection(host, port, timeout=self.timeout_s)
        else:
            conn = http.client.HTTPSConnection(
                host, port, timeout=self.timeout_s, context=self._ssl
            )
            if self._proxy is not None:
                conn.set_tunnel(*self._address, headers=self._proxy_auth)
        with self._lock:
            self._open.add(conn)
        self._local.conn = conn
        return conn

    def _post(
        self, conn: http.client.HTTPConnection, body: bytes, headers: dict[str, str]
    ) -> tuple[int, str | None, bytes]:
        """(status, retry-after header, body) of one POST; a connection that
        raised is closed and dropped."""
        import http.client  # loaded by ``__init__``; this only binds the name

        try:
            conn.request("POST", self._path, body, headers)
            reply = conn.getresponse()
            return reply.status, reply.getheader("retry-after"), reply.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            self._local.conn = None
            with self._lock:
                self._open.discard(conn)
            raise

    def complete(self, request: BackendRequest) -> BackendResponse:
        import http.client  # loaded by ``__init__``; this only binds the name

        api_key = os.environ.get(self.api_key_env, "")
        if not api_key:
            raise AuthError(f"environment variable {self.api_key_env} is not set")
        body = json.dumps(self.dialect.payload(request), allow_nan=False).encode("utf-8")
        headers = self.dialect.headers(api_key)
        if self._ssl is None:
            headers.update(self._proxy_auth)
        started = time.monotonic()
        try:
            conn = getattr(self._local, "conn", None)
            reply = None
            if conn is not None:  # kept alive since an earlier call
                try:
                    reply = self._post(conn, body, headers)
                except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected is a reset
                    pass  # the provider closed it while it sat idle: send once more
            if reply is None:
                reply = self._post(self._connect(), body, headers)
        except TimeoutError as err:
            raise GatewayTimeout(f"no reply within {self.timeout_s}s") from err
        except (OSError, http.client.HTTPException) as err:
            raise GatewayTimeout(f"transport failure: {err}") from err
        status, retry_after_header, content = reply
        latency_ms = int((time.monotonic() - started) * 1000)
        if status in (401, 403):
            raise AuthError(f"provider rejected credentials ({status})")
        if status == 429:
            retry_after = None
            if retry_after_header:
                try:
                    retry_after = float(retry_after_header)
                except ValueError:
                    retry_after = None
            raise RateLimited("provider rate limit (429)", retry_after=retry_after)
        if status >= 500 or status == 408:
            raise GatewayTimeout(f"provider unavailable ({status})")
        if status != 200:
            text = content.decode("utf-8", errors="replace")
            raise ProviderHTTPError(f"unexpected status {status}: {text[:200]}")
        try:
            data = json.loads(content)
        except ValueError as err:
            raise MalformedProviderReply("reply body is not JSON") from err
        return self.dialect.parse(data, latency_ms)


# ---------------------------------------------------------------------------
# Test doubles
# ---------------------------------------------------------------------------


class MockBackend:
    """Scripted backend: pops replies in order, repeating the last one; an
    empty script answers ``""``.

    ``script`` may also be a callable mapping the request to reply text.
    Every request is recorded in ``calls``.
    """

    def __init__(
        self,
        script: Sequence[str] | Callable[[BackendRequest], str] = (),
    ) -> None:
        self._fn = script if callable(script) else None
        self._queue = list(script) if not callable(script) else []
        self.calls: list[BackendRequest] = []
        self._lock = threading.Lock()

    def complete(self, request: BackendRequest) -> BackendResponse:
        with self._lock:
            self.calls.append(request)
            if self._fn is not None:
                text = self._fn(request)
            elif len(self._queue) > 1:
                text = self._queue.pop(0)
            elif self._queue:
                text = self._queue[0]
            else:
                text = ""
        return BackendResponse(
            text=text,
            prompt_tokens=sum(len(c) for _, c in request.messages) // 4,
            completion_tokens=len(text) // 4,
        )


class OracleBackend:
    """Answers any rendered prompt with the registered instance's exact solution.

    Answers are looked up by the statement text that follows the target
    marker in the first user message, so the oracle exercises the same
    prompt → answer → verify path as a real model — with a guaranteed
    correct answer.  Each response is built once, at registration, and each
    distinct first user message is split once.
    """

    def __init__(self, instances: Sequence[ProblemInstance] = ()) -> None:
        self._answers: dict[str, BackendResponse] = {}
        self._by_prompt: dict[str, BackendResponse] = {}  # first user message → answer
        self.calls = 0
        self._lock = threading.Lock()
        for inst in instances:
            self.register(inst)

    def register(self, instance: ProblemInstance) -> None:
        text = canonical_text(instance.payload, instance.ground_truth)
        self._answers[instance.statement] = BackendResponse(
            text=text, completion_tokens=len(text) // 4
        )

    def complete(self, request: BackendRequest) -> BackendResponse:
        with self._lock:
            self.calls += 1
        first_user = next(
            (content for role, content in request.messages if role == "user"), ""
        )
        response = self._by_prompt.get(first_user)
        if response is None:
            if TARGET_MARKER not in first_user:
                raise MalformedProviderReply("prompt has no target-question marker")
            statement = first_user.split(TARGET_MARKER, 1)[1].strip()
            response = self._answers.get(statement)
            if response is None:
                raise MalformedProviderReply("target statement not registered with oracle")
            self._by_prompt[first_user] = response
        return response


# ---------------------------------------------------------------------------
# The gateway facade
# ---------------------------------------------------------------------------


class ModelGateway:
    """Cache → rate limit → retries → backend; safe for concurrent callers."""

    def __init__(
        self,
        backend: Backend,
        cache: ResponseCache | None = None,
        rate_limiter: RateLimiter | None = None,
        rng: random.Random | None = None,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        self.backend = backend
        self.cache = cache if cache is not None else ResponseCache()
        self.rate_limiter = rate_limiter or RateLimiter(0)
        self._rng = rng or random.Random()
        self._sleeper = sleeper
        self._stats_lock = threading.Lock()
        self._landed = threading.Condition(self._stats_lock)  # a call in flight ended
        self._in_flight: set[str] = set()
        self.hits = 0
        self.misses = 0

    def complete(self, request: BackendRequest) -> BackendResponse:
        digest = request.digest
        with self._stats_lock:
            while True:
                cached = self.cache.get(digest)
                if cached is not None:
                    self.hits += 1
                    return cached
                if digest not in self._in_flight:
                    break
                self._landed.wait()  # a hit once the call in flight lands; a miss if it raised
            self._in_flight.add(digest)
            self.misses += 1

        def attempt() -> BackendResponse:
            self.rate_limiter.wait()
            return self.backend.complete(request)

        try:
            response = call_with_retries(attempt, rng=self._rng, sleeper=self._sleeper)
            if _holds_surrogate(response):  # answer with what a warm replay will read
                encoded = json.dumps(_response_to_json(response), sort_keys=True)
                response = _response_from_json(json.loads(encoded))
            self.cache.put(digest, request, response)
        finally:
            with self._stats_lock:
                self._in_flight.remove(digest)
                self._landed.notify_all()
        return response

    @property
    def cache_stats(self) -> dict[str, int]:
        with self._stats_lock:
            return {"hits": self.hits, "misses": self.misses, "entries": len(self.cache)}
