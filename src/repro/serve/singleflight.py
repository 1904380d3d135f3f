"""Single-flight execution: identical concurrent queries run once.

The advisor's answers are pure functions of the query (same canonical
query → same canonical bytes), so when two clients ask the same
question concurrently there is no reason to execute it twice.  The
registry keys executions by :func:`repro.serve.codec.query_key`; the
first arrival becomes the *leader* and computes, later arrivals become
*followers* that block on the leader's completion and share its answer
bytes (immutable, so sharing is safe).

Only *concurrent* duplicates merge — a query arriving after the leader
finished executes afresh.  That is deliberate: this is deduplication,
not a response cache, so answers always reflect current code and the
registry never needs invalidation.
"""

from __future__ import annotations

import threading

from .. import profiling


class _Flight:
    __slots__ = ("done", "value", "error", "waiters")

    def __init__(self):
        self.done = threading.Event()
        self.value = None
        self.error: BaseException | None = None
        self.waiters = 0


class SingleFlight:
    """Leader/follower dedup of concurrent identical executions."""

    def __init__(self):
        self._lock = threading.Lock()
        self._inflight: dict[str, _Flight] = {}

    def do(self, key: str, fn):
        """Return ``(fn(), deduped)`` — executing ``fn`` at most once
        per concurrent group of equal-``key`` callers.

        The leader (first caller in) runs ``fn`` and publishes the
        result; followers wait and receive the same object with
        ``deduped=True``.  A leader's exception propagates to every
        member of its group — they asked the same question, they get
        the same failure.
        """
        with self._lock:
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = self._inflight[key] = _Flight()
            else:
                flight.waiters += 1
        if not leader:
            flight.done.wait()
            profiling.serve_stats().record_dedup()
            if flight.error is not None:
                raise flight.error
            return flight.value, True
        try:
            flight.value = fn()
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            # unregister before waking followers: a brand-new arrival
            # must start a fresh flight, not join a finished one
            with self._lock:
                del self._inflight[key]
            flight.done.set()
        return flight.value, False

    def waiting(self, key: str) -> int:
        """Followers currently parked on ``key``'s flight (0 if none)."""
        with self._lock:
            flight = self._inflight.get(key)
            return 0 if flight is None else flight.waiters
