"""The continuous micro-batcher: cross-query lockstep measurement.

Handler threads do not measure anything themselves — they submit their
query's measurement requests here and block.  A single dispatcher
thread collects whatever is in flight across *all* concurrent queries
(after a short coalescing window), and executes it as one
:func:`~repro.analysis.measure_hybrid_throughput_batch` call — TP = 1
and TP > 1 lanes alike, there is one harness.  It groups lanes by
:attr:`ExecutablePlan.congruence_key` and advances them through one
vectorized ``PlanBatch`` per group — so two concurrent "best config?"
queries whose grids share structures (they almost always do: the
scheme × layout cross is the same, only batch sizes and clusters
differ) stack into the same ``[N]``-wide NumPy steps, and the serving
layer inherits the 10–25× batched speedups instead of re-deriving them.

A small pool of dispatcher threads (``workers``) runs concurrently:
coalescing amortizes the per-lane Python overhead (plan lookup,
re-timing, result folding) across a batch, while parallel dispatches
keep multiple cores busy — the lockstep stepper's NumPy kernels release
the GIL, so frozen batches genuinely overlap.

Every outcome is exactly what the caller would have computed itself —
the harness is bit-identical to the scalar core per lane (pinned since
PR 7/8) — so coalescing is invisible in answers and only visible in
latency.  That includes failure: when a coalesced call raises, each
submission in it is re-executed on its own and only the one that raises
again fails.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from itertools import groupby

from .. import profiling
from ..analysis.throughput import measure_hybrid_throughput_batch

#: default coalescing window: how long the dispatcher waits after the
#: first pending request for concurrent queries to pile on.  Warm-cache
#: grids execute in single-digit milliseconds, so a couple of
#: milliseconds of gathering buys whole-query coalescing without
#: noticeably moving p50.
DEFAULT_WINDOW_S = 0.002

#: default cap on lanes per dispatch; past this the dispatcher executes
#: what it has and loops (bounds per-dispatch memory and keeps one
#: giant sweep from starving small advise queries for too long)
DEFAULT_MAX_LANES = 512


def default_workers() -> int:
    """Dispatcher pool size: a few threads, bounded by the host."""
    return max(1, min(4, (os.cpu_count() or 2) - 1))


class _Pending:
    """One submission: a request list awaiting its outcome list."""

    __slots__ = ("outcomes", "remaining", "done", "error")

    def __init__(self, n: int):
        self.outcomes: list = [None] * n
        self.remaining = n
        self.done = threading.Event()
        self.error: BaseException | None = None


class MicroBatcher:
    """Continuous micro-batching front end over the batch harness."""

    def __init__(self, window_s: float = DEFAULT_WINDOW_S,
                 max_lanes: int = DEFAULT_MAX_LANES,
                 workers: int | None = None):
        self.window_s = window_s
        self.max_lanes = max_lanes
        self._queue: deque = deque()   # (request, index, pending)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._closed = False
        count = workers if workers is not None else default_workers()
        self._threads = [
            threading.Thread(target=self._loop,
                             name=f"repro-serve-batcher-{i}",
                             daemon=True)
            for i in range(max(1, count))
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ----------------------------------------------------------

    def measure_hybrid(self, requests: list) -> list:
        """Outcomes for ``requests`` (any layouts), in request order."""
        if not requests:
            return []
        pending = _Pending(len(requests))
        with self._work:
            if self._closed:
                raise RuntimeError("micro-batcher is closed (draining)")
            for i, request in enumerate(requests):
                self._queue.append((request, i, pending))
            self._work.notify_all()
        pending.done.wait()
        if pending.error is not None:
            raise pending.error
        return pending.outcomes

    #: the name from when TP = 1 requests had a submit method of their own
    measure_flat = measure_hybrid

    # -- the dispatcher ------------------------------------------------------

    def _loop(self) -> None:
        while True:
            with self._work:
                while not self._queue and not self._closed:
                    self._work.wait()
                if not self._queue and self._closed:
                    return
                # coalescing window: give concurrent queries a moment
                # to add their lanes before the batch freezes
                deadline = time.monotonic() + self.window_s
                while len(self._queue) < self.max_lanes:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or self._closed:
                        break
                    self._work.wait(timeout=remaining)
                depth = len(self._queue)
                items = [self._queue.popleft()
                         for _ in range(min(depth, self.max_lanes))]
            profiling.serve_stats().record_dispatch(len(items), depth)
            # a peer dispatcher may have taken everything meanwhile
            outcomes = self._dispatch(items) if items else []
            # a submission's lanes can land in two dispatchers'
            # batches, so completion accounting takes the lock
            ready = []
            with self._lock:
                for (_request, i, pending), outcome in zip(items, outcomes):
                    pending.outcomes[i] = outcome
                    pending.remaining -= 1
                    if pending.remaining == 0:
                        ready.append(pending)
            for pending in ready:
                pending.done.set()

    def _dispatch(self, items: list) -> list:
        """Outcomes of one coalesced dispatch, aligned with ``items``.

        When the coalesced call raises, each submission's lanes (they
        are contiguous in the queue) are re-executed on their own, so
        one poisoned lane fails one client's query and the others get
        their normal outcomes.  A dispatch holding a single submission
        has no one to isolate it from and fails on the first raise.
        The exception is not swallowed: it is handed to the submission,
        whose ``measure_hybrid`` raises it in the submitting thread.
        """
        try:
            return self._execute([request for request, _i, _p in items])
        except BaseException as error:  # noqa: BLE001 - handed to submitters
            first = items[0][2]
            if all(pending is first for _r, _i, pending in items):
                first.error = error
                return [None] * len(items)
            outcomes: list = []
            for pending, lanes in groupby(items, key=lambda item: item[2]):
                requests = [request for request, _i, _p in lanes]
                try:
                    outcomes += self._execute(requests)
                except BaseException as exc:  # noqa: BLE001
                    pending.error = exc
                    outcomes += [None] * len(requests)
            return outcomes

    def _execute(self, requests: list) -> list:
        return measure_hybrid_throughput_batch(requests)

    # -- lifecycle -----------------------------------------------------------

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def close(self) -> None:
        """Stop accepting work, finish what is queued, join the thread.

        Part of graceful drain: submissions racing past the close gate
        still complete (the dispatcher drains the queue before
        exiting); later submissions raise.
        """
        with self._work:
            self._closed = True
            self._work.notify_all()
        for thread in self._threads:
            thread.join(timeout=60)
        self._threads = []
