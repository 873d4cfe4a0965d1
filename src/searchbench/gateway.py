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
  instance whose statement the request carries (pipeline self-check).
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
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Protocol, Sequence

from .answers import canonical_text
from .tasks import ProblemInstance, TaskError, read_field


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


#: The longest wait, in seconds, a run takes: a socket timeout, the spacing
#: of a rate limit or a provider's Retry-After.  ``time.sleep`` and socket
#: timeouts overflow a little above 9.2e9 s.
MAX_WAIT_S = 86_400.0


def split_http_url(url: str, what: str = "url") -> urllib.parse.SplitResult:
    """``url`` split, when it has an http or https scheme, a host and a port
    that can be read; otherwise a GatewayError that names it as ``what``."""
    try:
        parts = urllib.parse.urlsplit(url)
        parts.port  # a port that is not a number in [0, 65535] raises ValueError
    except ValueError as err:
        raise GatewayError(f"{what} {url!r} is not a URL: {err}") from err
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise GatewayError(f"{what} {url!r} is not an http:// or https:// URL")
    return parts


# ---------------------------------------------------------------------------
# Requests and responses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BackendRequest:
    """One completion request.

    The first user message is ``head + statement``, the exemplar half that
    every target of one (task, mode) shares and the target's own text.
    ``history`` holds the (role, content) turns after it, as ``ss`` rounds
    grow them; ``messages`` joins them all for backends that send text.
    ``sample_index`` distinguishes otherwise-identical requests so parallel
    samples get distinct cache entries.  ``digest`` is the request's
    ``canonical_digest``, computed once at construction: the cache key and
    the attempt's ``request_digest``.
    """

    model: str
    system_text: str
    head: str
    statement: str
    history: tuple[tuple[str, str], ...] = ()
    temperature: float = 0.0
    max_tokens: int = 4096
    thinking: bool = False
    thinking_budget: int | None = None
    sample_index: int = 0
    digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "digest", canonical_digest(self))

    @property
    def messages(self) -> tuple[tuple[str, str], ...]:
        """Every (role, content) turn, the first user message joined."""
        return (("user", self.head + self.statement),) + self.history


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
    bytes, and every other key sorts after those two.  So the first message
    is hashed once per ``(max_tokens, head, statement)``, from the state
    after its head, which every target of one (task, mode) shares; each
    request adds its own history and tail to a copy.  Keys carry the
    ``repr`` of their numbers, which tells apart values that compare equal
    but encode differently (``0``, ``0.0``, ``-0.0``, ``False``).
    """
    numbers = (
        request.temperature, request.thinking, request.thinking_budget, request.sample_index
    )
    state = _message_state(
        repr(request.max_tokens), request.max_tokens, request.head, request.statement
    ).copy()
    for turn in request.history:  # a tuple encodes as a JSON array
        state.update(b"," + json.dumps(turn, separators=(",", ":")).encode("ascii"))
    state.update(_tail(request.model, request.system_text, repr(numbers), numbers))
    return state.hexdigest()


@functools.lru_cache(maxsize=16)
def _message_state(key: str, max_tokens: int, head: str, statement: str) -> hashlib._Hash:
    """sha256 state after ``{"max_tokens":M,"messages":[["user","<head><statement>"]``;
    ``key`` is ``repr(max_tokens)``.  JSON escapes one code point at a time,
    so the halves escaped apart are the bytes of the whole escaped at once."""
    state = _prefix_state(key, max_tokens, head).copy()
    # the prefix state holds the opening quote of the message's text
    state.update(f"{_encode_str(statement)[1:]}]".encode("ascii"))
    return state


@functools.lru_cache(maxsize=16)
def _prefix_state(key: str, max_tokens: int, head: str) -> hashlib._Hash:
    """sha256 state after ``{"max_tokens":M,"messages":[["user","<head>``."""
    form = json.dumps(
        {"max_tokens": max_tokens, "messages": [["user", head]]},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(form[: -len('"]]}')].encode("ascii"))


@functools.lru_cache(maxsize=64)
def _tail(model: str, system_text: str, key: str, numbers: tuple) -> bytes:
    """The sorted JSON form from the ``]`` that ends its messages to its end;
    ``numbers`` are temperature, thinking, thinking budget and sample index,
    and ``key`` is their ``repr``."""
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
    return b"]," + tail[1:].encode("utf-8")


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
    """Inverse of ``_response_to_json``; a field of another JSON type than it
    was written with is a ValueError (see ``read_field``)."""
    return BackendResponse(  # by position: keywords cost 6,000 cache lines about 2 ms
        read_field(data, "text", str),
        read_field(data, "thinking_text", str, ""),
        read_field(data, "prompt_tokens", int, 0),
        read_field(data, "completion_tokens", int, 0),
        read_field(data, "thinking_tokens", int, 0),
        read_field(data, "latency_ms", int, 0),
        read_field(data, "provider_meta", dict, {}),
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
    most the line it was writing.  Corrupt lines (not UTF-8, not JSON, not
    a record, or a response field of the wrong JSON type) are skipped on
    load so a damaged cache degrades to misses, never to errors.  A torn last line is ended before the first append, so
    it cannot swallow the next entry.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._entries: dict[str, BackendResponse] = {}
        self.skipped_lines = 0
        self._torn = False  # the file ends inside a line
        self._encoded_for: BackendResponse | None = None  # the last response put
        self._encoded = ""  # its JSON encoding
        if self._path is not None and self._path.exists():
            line = b"\n"
            with open(self._path, "rb") as fh:
                for line in fh:
                    if line.isspace():
                        continue
                    try:
                        record = json.loads(line.decode("utf-8"))
                        self._entries[read_field(record, "digest", str)] = _response_from_json(
                            record["response"]
                        )
                    except (KeyError, TypeError, ValueError):  # not UTF-8 or JSON, too
                        self.skipped_lines += 1
            self._torn = not line.endswith(b"\n")

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
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(self._path, flags, 0o666)
        except FileNotFoundError:  # the first line makes the file's directory
            self._path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self._path, flags, 0o666)
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
        if not (requests_per_second == 0 or requests_per_second >= 1 / MAX_WAIT_S):
            raise ValueError(f"requests_per_second must be 0 or >= 1/{MAX_WAIT_S:g}")
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
#: Anthropic's extended thinking takes ``budget_tokens`` of at least this many
MIN_ANTHROPIC_THINKING_BUDGET = 1024


def _usage_count(data: dict, key: str) -> int:
    """A token count of a reply's usage block; a usage block that is not an
    object reads as empty and a value that is not an int as 0, so the reply's
    cache line reads back as written."""
    usage = data.get("usage")
    count = usage.get(key, 0) if isinstance(usage, dict) else 0
    return count if type(count) is int else 0


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
            budget = request.thinking_budget or DEFAULT_THINKING_BUDGET
            # the wire's max_tokens counts thinking too and must exceed its
            # budget, so the answer keeps request.max_tokens of its own
            doc["max_tokens"] += budget
            doc["thinking"] = {"type": "enabled", "budget_tokens": budget}
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
            return BackendResponse(
                text=text,
                thinking_text=thinking,
                prompt_tokens=_usage_count(data, "input_tokens"),
                completion_tokens=_usage_count(data, "output_tokens"),
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
            text = message.get("content") or ""
            thinking = message.get("reasoning_content") or ""
            if not isinstance(text, str) or not isinstance(thinking, str):
                raise TypeError("message content is not a string")
            return BackendResponse(
                text=text,
                thinking_text=thinking,
                prompt_tokens=_usage_count(data, "prompt_tokens"),
                completion_tokens=_usage_count(data, "completion_tokens"),
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
        if not 0 < timeout_s <= MAX_WAIT_S:
            raise ValueError(f"timeout_s must be in (0, {MAX_WAIT_S:g}]")
        self.url = url
        self.dialect = DIALECTS[dialect]()
        self.api_key_env = api_key_env
        self.timeout_s = timeout_s
        # loaded only once an http model is built; in-process runs skip them
        import http.client
        import urllib.request

        target = split_http_url(url)
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
            via = split_http_url(proxy if "://" in proxy else "http://" + proxy,
                                 f"{target.scheme} proxy")
            if via.scheme != "http":
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
        self._http = http.client
        self._open: set = set()  # every HTTPConnection opened, for ``close``

    def close(self) -> None:
        """Close every connection this backend holds, in any thread."""
        with self._lock:
            conns, self._open = self._open, set()
        for conn in conns:
            conn.close()

    def _connect(self):
        """A new HTTPConnection, kept as the calling thread's."""
        host, port = self._proxy or self._address
        if self._ssl is None:
            conn = self._http.HTTPConnection(host, port, timeout=self.timeout_s)
        else:
            conn = self._http.HTTPSConnection(
                host, port, timeout=self.timeout_s, context=self._ssl
            )
            if self._proxy is not None:
                conn.set_tunnel(*self._address, headers=self._proxy_auth)
        with self._lock:
            self._open.add(conn)
        self._local.conn = conn
        return conn

    def _post(self, conn, body: bytes, headers: dict[str, str]) -> tuple[int, str | None, bytes]:
        """(status, retry-after header, body) of one POST on the HTTPConnection
        ``conn``; a connection that raised is closed and dropped."""
        try:
            conn.request("POST", self._path, body, headers)
            reply = conn.getresponse()
            return reply.status, reply.getheader("retry-after"), reply.read()
        except (OSError, self._http.HTTPException):
            conn.close()
            self._local.conn = None
            with self._lock:
                self._open.discard(conn)
            raise

    def complete(self, request: BackendRequest) -> BackendResponse:
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
        except (OSError, self._http.HTTPException) as err:
            raise GatewayTimeout(f"transport failure: {err}") from err
        status, retry_after_header, content = reply
        latency_ms = int((time.monotonic() - started) * 1000)
        if status in (401, 403):
            raise AuthError(f"provider rejected credentials ({status})")
        if status == 429:
            try:
                retry_after = float(retry_after_header)
            except (TypeError, ValueError):  # absent, or an HTTP date
                retry_after = -1.0
            # a delay outside [0, MAX_WAIT_S], nan included, is none to wait for
            raise RateLimited("provider rate limit (429)",
                              retry_after=retry_after if 0 <= retry_after <= MAX_WAIT_S else None)
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

    Answers are looked up by the request's statement, so the oracle
    exercises the same prompt → answer → verify path as a real model — with
    a guaranteed correct answer.  Each response is built once, when the
    oracle is built; after that it keeps no state.
    """

    def __init__(self, instances: Sequence[ProblemInstance] = ()) -> None:
        self._answers: dict[str, BackendResponse] = {}
        for inst in instances:
            text = canonical_text(inst.payload, inst.ground_truth)
            self._answers[inst.statement] = BackendResponse(
                text=text, completion_tokens=len(text) // 4
            )

    def complete(self, request: BackendRequest) -> BackendResponse:
        response = self._answers.get(request.statement)
        if response is None:
            raise MalformedProviderReply("target statement not registered with oracle")
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
