"""A fake model provider that speaks the ``anthropic`` messages dialect.

It listens on loopback in the benchmark's own process.  Each reply waits a
fixed latency and then answers from a table keyed by the target statement:
the first turn of a conversation gets the table's first answer and every
later turn (a refinement) gets its second.

Each reply leaves in one write on a socket with TCP_NODELAY set.  A reply
split over a headers write and a body write stalls about 40 ms per call on
delayed ACKs, which would swamp the latency under test.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

TARGET_MARKER = "### Target Question ###"


class FakeProvider:
    """Serves ``answers[statement] = (first_turn_text, refinement_text)``."""

    def __init__(self, answers: dict[str, tuple[str, str]], latency_s: float,
                 api_key: str) -> None:
        self.answers = answers
        self.latency_s = latency_s
        self.api_key = api_key
        self._lock = threading.Lock()
        self.served = 0
        self.rejected = 0
        provider = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def do_POST(self) -> None:
                body = self.rfile.read(int(self.headers.get("content-length", 0)))
                status, reply = provider.reply(self.headers.get("x-api-key"), body)
                data = json.dumps(reply).encode()
                head = (
                    f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                    "content-type: application/json\r\n"
                    f"content-length: {len(data)}\r\n\r\n"
                ).encode()
                self.wfile.write(head + data)

            def log_message(self, *args) -> None:
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # Join the connection threads on close, after the client has gone.
        self._server.daemon_threads = False
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="fake-provider")

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/messages"

    def reply(self, api_key: str | None, body: bytes) -> tuple[int, dict]:
        time.sleep(self.latency_s)
        try:
            request = json.loads(body)
            messages = request["messages"]
            statement = messages[0]["content"].split(TARGET_MARKER, 1)[1].strip()
            first, refined = self.answers[statement]
        except (ValueError, KeyError, IndexError, TypeError):
            with self._lock:
                self.rejected += 1
            return 400, {"type": "error", "error": {"message": "unknown request"}}
        if api_key != self.api_key:
            with self._lock:
                self.rejected += 1
            return 401, {"type": "error", "error": {"message": "bad api key"}}
        with self._lock:
            self.served += 1
        text = first if len(messages) == 1 else refined
        return 200, {
            "type": "message",
            "role": "assistant",
            "content": [{"type": "text", "text": text}],
            "stop_reason": "end_turn",
            "usage": {"input_tokens": len(body) // 4, "output_tokens": len(text) // 4},
        }

    def __enter__(self) -> "FakeProvider":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()
