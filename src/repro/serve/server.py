"""The advisor daemon: a stdlib ``ThreadingHTTPServer`` over hot caches.

One long-lived process holds everything the batch CLIs rebuild from
scratch on each invocation — the interpreter and imports, the
structural :func:`~repro.analysis.plan_cache` with its bound-plan
re-timings, the batched runtime's structural passes — and answers
queries over plain HTTP/1.1:

* ``POST /advise`` — one :class:`~repro.serve.codec.AdviseQuery` body,
  one canonical answer.  Identical concurrent queries are merged by the
  single-flight registry; distinct concurrent queries coalesce in the
  micro-batcher and execute as lanes of shared lockstep batches.
* ``POST /sweep`` — a sweep request body
  (:data:`~repro.sweep.spec.SWEEP_REQUEST`, the ``repro sweep``
  options), answered as a **chunked NDJSON stream**: one
  ``{"kind": "progress", "done": n, "total": N}`` frame per finished
  work unit, then the full table payload as the final line.
* ``GET /healthz`` — liveness + drain state.
* ``GET /stats`` — serving counters, batching stats, plan-cache state.

Shutdown is graceful: :meth:`AdvisorServer.drain` flips the server into
a draining state (new queries get 503), waits for in-flight queries to
finish, then closes the micro-batcher.  ``repro serve`` wires this to
SIGTERM/SIGINT via :func:`serve_until_signalled`.

Everything here is stdlib-only by design — a client needs nothing but
``urllib`` (see ``repro query``), and the test suite can stand a real
server up on port 0 in-process.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .. import profiling
from ..analysis import plan_cache
from ..errors import ConfigError
from .batcher import DEFAULT_MAX_LANES, DEFAULT_WINDOW_S, MicroBatcher
from .codec import AdviseQuery, dumps_canonical, query_key
from .queries import advise_answer, sweep_answer
from .singleflight import SingleFlight

#: request bodies past this are rejected outright (64 KiB is orders of
#: magnitude beyond any legitimate query)
MAX_BODY_BYTES = 64 * 1024


class AdvisorServer(ThreadingHTTPServer):
    """The serving daemon; one instance owns one batcher + registry."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int] = ("127.0.0.1", 0), *,
                 window_s: float = DEFAULT_WINDOW_S,
                 max_lanes: int = DEFAULT_MAX_LANES,
                 quiet: bool = True):
        super().__init__(address, _Handler)
        self.batcher = MicroBatcher(window_s=window_s, max_lanes=max_lanes)
        self.flights = SingleFlight()
        self.quiet = quiet
        self.started = time.monotonic()
        self._state = threading.Condition()
        self._draining = False
        self._inflight = 0

    # -- addresses -----------------------------------------------------------

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    # -- drain protocol ------------------------------------------------------

    def enter_query(self) -> bool:
        """Admit one query; ``False`` once draining (handler sends 503)."""
        with self._state:
            if self._draining:
                return False
            self._inflight += 1
            return True

    def exit_query(self) -> None:
        with self._state:
            self._inflight -= 1
            self._state.notify_all()

    @property
    def draining(self) -> bool:
        with self._state:
            return self._draining

    def drain(self, timeout: float = 60.0) -> bool:
        """Stop admitting queries, wait out in-flight ones, close the
        batcher.  Returns ``False`` if in-flight work outlived
        ``timeout`` (their daemon threads are then abandoned)."""
        with self._state:
            self._draining = True
            clean = self._state.wait_for(lambda: self._inflight == 0,
                                         timeout=timeout)
        self.batcher.close()
        return clean

    def stats_payload(self) -> dict:
        cache = plan_cache()
        return {
            "uptime_s": round(time.monotonic() - self.started, 3),
            "draining": self.draining,
            "serve": profiling.serve_stats().snapshot(),
            "batching": vars_of(profiling.batching_stats()),
            "plan_cache": {
                "entries": len(cache),
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "insertions": cache.insertions,
            },
        }


def vars_of(stats) -> dict:
    """Public counters of a stats dataclass (JSON-safe)."""
    out = {}
    for key, value in vars(stats).items():
        if key.startswith("_"):
            continue
        if isinstance(value, dict):
            out[key] = {str(k): v for k, v in sorted(value.items())}
        elif isinstance(value, (int, float)):
            out[key] = value
    return out


class _Handler(BaseHTTPRequestHandler):
    """Per-connection handler; ``self.server`` is the AdvisorServer."""

    server: AdvisorServer
    protocol_version = "HTTP/1.1"
    #: the unbuffered handler sends headers and body separately; with
    #: Nagle on, the body waits ~40 ms for the client's delayed ACK
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    def log_message(self, fmt, *args):  # noqa: A002 - stdlib signature
        if not self.server.quiet:
            sys.stderr.write("serve: " + fmt % args + "\n")

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload) -> None:
        self._send(status, dumps_canonical(payload))

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_query_payload(self):
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # the body's extent is unknown: its bytes must not be read
            # as the next request on this keep-alive connection
            self.close_connection = True
            raise ConfigError(
                f"malformed Content-Length header {header!r}; send the "
                "body's size in bytes")
        if length == 0:
            raise ConfigError("request body is empty; send a JSON query")
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # the body stays unread
            raise ConfigError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ConfigError(f"request body is not valid JSON: {exc}")

    # -- chunked streaming (sweep progress) ----------------------------------

    def _write_chunk(self, data: bytes) -> None:
        if not self._streaming:
            # headers go out with the first frame, so a sweep that fails
            # before one (a grid that does not fit) is still a plain 400
            self._streaming = True
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
        self.wfile.write(b"%x\r\n%b\r\n" % (len(data), data))

    def _end_chunked(self) -> None:
        self.wfile.write(b"0\r\n\r\n")

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            self._send_json(200, {"ok": True,
                                  "draining": self.server.draining})
        elif self.path == "/stats":
            self._send_json(200, self.server.stats_payload())
        else:
            self._send_error_json(404, f"no such path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path not in ("/advise", "/sweep"):
            self._send_error_json(404, f"no such path {self.path!r}")
            return
        if not self.server.enter_query():
            self._send_error_json(503, "server is draining")
            return
        try:
            if self.path == "/advise":
                self._handle_advise()
            else:
                self._handle_sweep()
        except ConfigError as exc:
            profiling.serve_stats().record_error()
            self._send_error_json(400, str(exc))
        except BrokenPipeError:
            pass  # client went away mid-answer; nothing to tell it
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            profiling.serve_stats().record_error()
            try:
                self._send_error_json(
                    500, f"{type(exc).__name__}: {exc}")
            except OSError:
                pass
        finally:
            self.server.exit_query()

    def _handle_advise(self) -> None:
        query = AdviseQuery.from_payload(self._read_query_payload())
        batcher = self.server.batcher
        start = time.perf_counter()

        def execute() -> bytes:
            return dumps_canonical(advise_answer(
                query, measure=batcher.measure_hybrid))

        body, _deduped = self.server.flights.do(
            query_key("advise", query), execute)
        profiling.serve_stats().record_query(
            "advise", time.perf_counter() - start)
        self._send(200, body)

    def _handle_sweep(self) -> None:
        payload = self._read_query_payload()
        batcher = self.server.batcher
        start = time.perf_counter()
        self._streaming = False

        def on_progress(done: int, total: int) -> None:
            self._write_chunk(dumps_canonical(
                {"kind": "progress", "done": done, "total": total}))

        try:
            self._write_chunk(dumps_canonical(sweep_answer(
                payload, measure=batcher.measure_hybrid,
                progress=on_progress)))
        except Exception as exc:
            if not self._streaming:
                raise  # nothing sent yet: do_POST answers 400 or 500
            # headers are gone; fail in-band
            profiling.serve_stats().record_error()
            self._write_chunk(dumps_canonical(
                {"kind": "error",
                 "error": f"{type(exc).__name__}: {exc}"}))
        finally:
            if self._streaming:
                self._end_chunked()
        profiling.serve_stats().record_query(
            "sweep", time.perf_counter() - start)


def serve_until_signalled(server: AdvisorServer,
                          out=sys.stdout) -> int:
    """Run ``server`` until SIGTERM/SIGINT, then drain gracefully.

    Prints the ready line (``serving on http://host:port``) once the
    listener is live — tests and the benchmark parse it — and a final
    stats summary after the drain.  Returns a process exit code.
    """
    stop = threading.Event()

    def on_signal(_signum, _frame):
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, on_signal)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve-accept", daemon=True)
    thread.start()
    print(f"serving on {server.url}", file=out, flush=True)
    try:
        stop.wait()
        print("draining...", file=out, flush=True)
        clean = server.drain()
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
        print(profiling.serve_stats().describe(), file=out, flush=True)
        print("drained" if clean else "drain timed out", file=out,
              flush=True)
        return 0 if clean else 1
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
