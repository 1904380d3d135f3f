"""The seven workloads of the end-to-end benchmark.

Each is one thing a user of this repository actually runs, sized for a
two-core host, and each exists because it stresses the layers under
``src/repro/`` differently (``why`` below; the layer → metric map is in
README.md).  A workload makes its inputs from the seed (orders and
shuffles only — input *sizes* never change, so runs of different seeds
are comparable), runs set-up once, then repeats whole operations until
the time budget is spent, and checks every output against
``golden.json``: this system is a simulator, so a change that claims to
move host time must leave every simulated statistic bit-identical.

Only ``repro``'s command line, its HTTP daemon and its package-level
names (``measure_throughput_batch``, ``measure_hybrid_throughput_batch``,
``synthesize``, ``result_to_record``) are used, so the workloads keep
running when internals are refactored.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import itertools
import json
import os
import random
import resource
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracer import Span, adopt, program_counters

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

#: closed-loop client threads of ``serve_closed`` (`repro query` callers
#: wait for their reply, hence closed loop)
CLIENT_THREADS = 2

#: variables the repo's own harnesses read; a user's shell may set them
SCRUBBED_ENV = ("REPRO_SWEEP_CACHE", "REPRO_SWEEP_WORKERS")

#: the paper's Fig. 9 gains of best Hanayo over Chimera-wave, in percent,
#: for BERT at total batch 8 on (cluster, P)
FIG09_PAPER_GAPS = {
    ("PC", 8): 15.7, ("FC", 8): 30.4, ("TACC", 8): 23.2, ("TC", 8): 29.9,
    ("PC", 4): 8.2, ("FC", 4): 17.1, ("TACC", 4): 24.6, ("TC", 4): 28.0,
}


def child_env() -> dict[str, str]:
    """The environment every program process gets: hermetic, src first."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited
                                    else "")
    return env


def import_repro() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(records: list[dict]) -> str:
    """sha256 over the distinct canonically serialized records, sorted.

    Sorting makes the digest independent of the order the seed put the
    inputs in and of how often an operation repeated; ``repr``-exact
    float serialization makes it bit-strict.
    """
    lines = sorted({json.dumps(r, sort_keys=True, separators=(",", ":"))
                    for r in records})
    return sha256("\n".join(lines).encode())


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty list."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def host_calibration() -> float:
    """Seconds for a fixed pure-Python + NumPy loop: slow host or slow
    program?"""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += (i * i) % 7
    column = np.arange(1 << 18, dtype=np.float64)
    for _ in range(40):
        column = np.sqrt(column * column + 1.0)
    return time.perf_counter() - start


# -- the advise question set (cold_cli and serve_closed share it) ------------

#: 40 distinct advise shapes on 8 devices: (model, cluster, batch, tp,
#: contention) — 24 flat, 8 tensor-parallel, 8 with wire contention
ADVISE_SHAPES = tuple(
    [(m, c, b, 1, False) for m in ("bert", "gpt")
     for c in ("PC", "FC", "TACC", "TC") for b in (8, 16, 32)]
    + [(m, c, 16, 2, False) for m in ("bert", "gpt")
       for c in ("PC", "FC", "TACC", "TC")]
    + [(m, c, 16, 1, True) for m in ("bert", "gpt")
       for c in ("PC", "FC", "TACC", "TC")]
)

#: the four a cold CLI round asks: flat bert/TACC, gpt/PC, --tp 2,
#: --contention
COLD_SHAPES = (("bert", "TACC", 16, 1, False), ("gpt", "PC", 16, 1, False),
               ("bert", "TACC", 16, 2, False), ("bert", "TACC", 16, 1, True))


def shape_id(shape) -> str:
    model, cluster, batch, tp, contention = shape
    return f"{model}/{cluster}/b{batch}/tp{tp}/{'wires' if contention else 'free'}"


def shape_argv(shape) -> list[str]:
    model, cluster, batch, tp, contention = shape
    argv = ["advise", "--json", "--cluster", cluster, "--model", model,
            "-n", "8", "--batch", str(batch)]
    if tp > 1:
        argv += ["--tp", str(tp)]
    if contention:
        argv.append("--contention")
    return argv


def shape_body(shape) -> bytes:
    model, cluster, batch, tp, contention = shape
    payload = {"cluster": cluster, "model": model, "devices": 8,
               "batch": batch, "tp": tp, "contention": contention}
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode() + b"\n"


# -- base --------------------------------------------------------------------


class Workload:
    """One workload: ``setup()`` once, ``run(seconds)``, ``close()``.

    ``run`` fills ``samples`` (seconds per operation), ``rates`` (work
    units per second, one per operation — see ``unit``) and ``ops``
    (operations, the divisor of per-layer numbers).
    """

    name = ""
    why = ""
    unit = ""           # what work_per_s counts
    min_ops = 2         # operations run even when the budget is zero

    def __init__(self, seed: int, tracer, scratch: Path, golden: dict):
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.scratch = scratch
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: list[float] = []
        self.rates: list[float] = []
        self.ops = 0
        self.records: list[dict] = []       # simulated outputs seen
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.extra: dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def peak_rss_kib(self) -> int:
        """Peak resident set of the process(es) running the program."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a mismatch is a failed one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def repeat(self, seconds: float, op) -> None:
        """Whole operations until the budget is spent (at least min_ops)."""
        start = time.perf_counter()
        while (len(self.samples) < self.min_ops
               or time.perf_counter() - start < seconds):
            op()

    # in-process workloads: spans and program counters of the timed part

    def begin_trace(self) -> None:
        if self.tracer is not None:
            self.tracer.install()
            self.tracer.clear()
            self._base = program_counters()

    def end_trace(self) -> None:
        if self.tracer is not None:
            now = program_counters()
            self.counters = {**self.tracer.counters,
                             **{k: now[k] - self._base.get(k, 0)
                                for k in now}}
            self.tracer.uninstall()
            self.spans = self.tracer.export(os.getpid())

    def op_span(self, rid=None):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span("op", rid)


# -- command-line workloads --------------------------------------------------


class CliWorkload(Workload):
    """Operations are ``python -m repro ...`` processes.

    The traced run launches ``child.py`` instead and adopts the spans it
    leaves behind under an ``op`` span covering the whole process.
    """

    def setup(self) -> None:
        self.env = child_env()
        self.modules_loaded = 0
        if self.tracer is not None:
            self.extra["cli.interp_s"] = self.interpreter_start()

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def forget_warmup(self) -> None:
        """Drop what the untimed set-up processes left in the trace."""
        self.spans.clear()
        self.counters.clear()
        self.modules_loaded = 0

    def invoke(self, argv: list[str]):
        """Run one command to completion: ``(wall seconds, process)``."""
        spans_path = self.scratch / "child-spans.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, str(HERE / "child.py"),
                   "--spans", str(spans_path), "--", *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=self.scratch,
                              capture_output=True)
        end = time.perf_counter()
        if self.tracer is not None and spans_path.exists():
            body, child_wall = spans_path.read_text().split("\n")
            spans_path.unlink()
            child = json.loads(body)
            op = len(self.spans)
            self.spans.append(Span("op", start, end, os.getpid(), 0, None, op))
            adopt(self.spans, child["spans"], op)
            # what the process spent outside child.py's body, less a bare
            # interpreter's own start and exit: tearing down the
            # interpreter with the program's modules loaded
            exit_s = max(0.0, (end - start) - float(child_wall)
                         - self.extra["cli.interp_s"])
            self.spans.append(Span("cli.exit", end - exit_s, end,
                                   os.getpid(), 0, op, op))
            for key, value in child["counters"].items():
                self.counters[key] = self.counters.get(key, 0) + value
            self.modules_loaded += child["modules_loaded"]
        return end - start, proc

    def interpreter_start(self) -> float:
        """Median wall of a bare ``python -c pass`` (traced run only)."""
        walls = []
        for _ in range(3):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=self.env,
                           check=True)
            walls.append(time.perf_counter() - start)
        return sorted(walls)[1]

    def finish_cli_trace(self) -> None:
        if self.tracer is not None:
            self.extra["cli.modules_loaded"] = self.modules_loaded / self.ops


class ColdCli(CliWorkload):
    name = "cold_cli"
    why = ("Cold `repro advise --json` processes: the only workload "
           "dominated by interpreter start, imports and first-time plan "
           "construction; bypasses batching and every warm cache.")
    unit = "processes"
    min_ops = 1

    def setup(self) -> None:
        super().setup()
        # one untimed process: byte-compiles src/ in a fresh checkout and
        # pulls the files into the page cache ("cold" means the process)
        self.ask(COLD_SHAPES[0])
        self.forget_warmup()

    def ask(self, shape) -> float:
        wall, proc = self.invoke(shape_argv(shape))
        want = self.golden["advise"][shape_id(shape)]
        ok = proc.returncode == 0 and sha256(proc.stdout) == want
        self.check(ok, f"advise {shape_id(shape)}: exit {proc.returncode}, "
                       f"{proc.stderr[-200:]!r}")
        self.records.append({"shape": shape_id(shape),
                             "answer": sha256(proc.stdout)})
        return wall

    def run(self, seconds: float) -> None:
        def one_round() -> None:
            order = self.rng.sample(COLD_SHAPES, len(COLD_SHAPES))
            wall = sum(self.ask(shape) for shape in order)
            # the user-visible operation is one process
            self.samples.append(wall / len(order))
            self.rates.append(len(order) / wall)
            self.ops += len(order)

        self.records.clear()
        self.repeat(seconds, one_round)
        self.finish_cli_trace()


#: the 944-cell grid of the sweep workloads; the seed only reorders it
SWEEP_GRID = {
    "--schemes": ["gpipe", "dapple", "interleaved", "gems", "chimera",
                  "chimera-wave", "hanayo"],
    "--clusters": ["PC", "FC", "TACC", "TC"],
    "--model": ["bert", "gpt"],
    "--batch": ["8", "16", "32", "64"],
    "--waves": ["1", "2", "4", "8"],
}
SWEEP_LAYOUTS = ["8x1", "4x2", "2x4"]
SWEEP_CELLS = 944


def fig09_gap_mae_pp(rows: list[dict]) -> float:
    """Mean absolute error, in percentage points, of the simulated gain
    of best Hanayo over Chimera-wave against the paper's Fig. 9."""
    best: dict[tuple, float] = {}
    base: dict[tuple, float] = {}
    for row in rows:
        if (row["model"] != "bert-64L" or row["total_batch"] != 8
                or row["oom"]):
            continue
        key = (row["cluster"], row["p"])
        if row["scheme"] == "chimera-wave":
            base[key] = row["seq_per_s"]
        elif row["scheme"] == "hanayo" and row["w"] > 1:
            best[key] = max(best.get(key, 0.0), row["seq_per_s"])
    errors = [abs((best[key] / base[key] - 1.0) * 100.0 - paper)
              for key, paper in FIG09_PAPER_GAPS.items()]
    return sum(errors) / len(errors)


class SweepWorkload(CliWorkload):
    """``python -m repro sweep`` of the 944-cell grid at ``-j 1``."""

    unit = "cells"
    min_ops = 1

    def setup(self) -> None:
        super().setup()
        self.grid_argv = ["sweep"]
        for flag, values in SWEEP_GRID.items():
            self.grid_argv += [flag, *self.rng.sample(values, len(values))]
        self.grid_argv += ["--layouts", ",".join(
            self.rng.sample(SWEEP_LAYOUTS, len(SWEEP_LAYOUTS))), "-j", "1"]

    def sweep(self, cache: Path, expect_cached: int) -> float:
        """One invocation against ``cache``; checks rows and provenance."""
        out = self.scratch / "sweep.json"
        wall, proc = self.invoke(
            [*self.grid_argv, "--cache", str(cache), "--json", str(out)])
        ok, why = proc.returncode == 0, f"exit {proc.returncode}"
        if ok:
            table = json.loads(out.read_text())
            out.unlink()
            rows = [{k: v for k, v in row.items() if k != "cached"}
                    for row in table["rows"]]
            stats = table["stats"]
            found = digest(rows)
            ok = (found == self.golden[self.name]["sim_digest"]
                  and stats["cached"] == expect_cached
                  and stats["computed"] == SWEEP_CELLS - expect_cached)
            why = f"digest {found[:12]}, stats {stats}"
            self.records = rows
            self.extra["fidelity.fig09_gap_mae_pp"] = fig09_gap_mae_pp(rows)
            self.extra["sweep.cache_bytes"] = sum(
                f.stat().st_size for f in cache.iterdir())
        self.check(ok, f"sweep: {why} {proc.stderr[-200:]!r}")
        return wall

    def timed_sweep(self, cache: Path, expect_cached: int) -> None:
        wall = self.sweep(cache, expect_cached)
        self.samples.append(wall)
        self.rates.append(SWEEP_CELLS / wall)
        self.ops += 1


class SweepCold(SweepWorkload):
    name = "sweep_cold"
    why = ("`repro sweep` of a 944-cell grid into an empty cache: plan "
           "construction (schedules, actions) plus result-cache writes; "
           "where a cache-read win bought with a write loss shows.")

    def setup(self) -> None:
        super().setup()
        # untimed small sweep: byte-compile and page-cache warm-up only
        cache = Path(tempfile.mkdtemp(dir=self.scratch))
        _wall, proc = self.invoke(["sweep", "--batch", "16", "--cache",
                                   str(cache), "-j", "1"])
        self.check(proc.returncode == 0,
                   f"warm-up sweep: exit {proc.returncode}")
        shutil.rmtree(cache)
        self.forget_warmup()

    def run(self, seconds: float) -> None:
        def one_sweep() -> None:
            cache = Path(tempfile.mkdtemp(dir=self.scratch))
            try:
                self.timed_sweep(cache, expect_cached=0)
            finally:
                shutil.rmtree(cache)

        self.repeat(seconds, one_sweep)
        self.finish_cli_trace()


class SweepWarm(SweepWorkload):
    name = "sweep_warm"
    why = ("The same sweep against the cache it just filled: imports "
           "plus result-cache reads only, no simulation; the other use "
           "of the sweep.cache layer.")
    min_ops = 2

    def setup(self) -> None:
        super().setup()
        self.cache = Path(tempfile.mkdtemp(dir=self.scratch))
        self.sweep(self.cache, expect_cached=0)     # fills the cache
        self.forget_warmup()

    def run(self, seconds: float) -> None:
        self.repeat(seconds, lambda: self.timed_sweep(
            self.cache, expect_cached=SWEEP_CELLS))
        self.finish_cli_trace()


# -- in-process grid workloads -----------------------------------------------


class GridWorkload(Workload):
    """Repeated passes of one request list through a batch harness."""

    unit = "lanes"

    def requests(self) -> tuple[list, list[dict]]:
        """``(requests, identities)`` aligned index for index."""
        raise NotImplementedError

    def measure(self, requests: list) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        import_repro()
        import repro.analysis
        import repro.sweep

        self.analysis = repro.analysis
        self.to_record = repro.sweep.result_to_record
        requests, identities = self.requests()
        order = self.rng.sample(range(len(requests)), len(requests))
        self.lanes = [requests[i] for i in order]
        self.identities = [identities[i] for i in order]
        self.one_pass()     # builds and caches every plan
        self.one_pass()     # binds cost columns, fills lazy durations
        self.samples.clear()
        self.rates.clear()
        self.ops = 0

    def one_pass(self) -> None:
        with self.op_span():
            start = time.perf_counter()
            outcomes = self.measure(self.lanes)
            wall = time.perf_counter() - start
        self.records = [
            {**identity,
             **({"infeasible": str(out)} if isinstance(out, Exception)
                else self.to_record(out))}
            for identity, out in zip(self.identities, outcomes)
        ]
        found = digest(self.records)
        self.check(found == self.golden[self.name]["sim_digest"],
                   f"{self.name}: digest {found[:12]}")
        self.samples.append(wall)
        self.rates.append(len(self.lanes) / wall)
        self.ops += 1

    def run(self, seconds: float) -> None:
        self.begin_trace()
        self.repeat(seconds, self.one_pass)
        self.end_trace()


class HybridGrid(GridWorkload):
    name = "hybrid_grid"
    why = ("Fig. 11 DPxTP grid (128 lanes) through "
           "measure_hybrid_throughput_batch with plans cached: runtime "
           "does nearly all the work, mostly materializing results.")

    def requests(self):
        from repro.cluster import make_fc, make_pc
        from repro.models import bert_64

        model = bert_64()
        clusters = [factory(size)
                    for size in (16, 24, 32, 48, 64, 96, 128, 192)
                    for factory in (make_fc, make_pc)]
        requests, identities = [], []
        for scheme, w in (("dapple", 1), ("hanayo", 2)):
            for tp, p, d in ((2, 4, 2), (4, 2, 2), (2, 2, 4), (4, 4, 1)):
                for cluster in clusters:
                    requests.append(self.analysis.HybridRequest(
                        scheme=scheme, cluster=cluster, model=model,
                        layout=self.analysis.HybridLayout(tp=tp, p=p, d=d),
                        num_microbatches=32, w=w, microbatch_size=1))
                    identities.append({
                        "cell": [scheme, w, tp, p, d, cluster.name,
                                 cluster.num_devices]})
        return requests, identities

    def measure(self, requests):
        return self.analysis.measure_hybrid_throughput_batch(requests)


class ContentionGrid(GridWorkload):
    name = "contention_grid"
    why = ("256 contention=True lanes through measure_throughput_batch: "
           "most leave lockstep for the time-ordered replay, so a "
           "lockstep-only optimisation must show nothing here.")

    def requests(self):
        from repro.cluster import all_clusters
        from repro.models import bert_64, gpt_128

        requests, identities = [], []
        for scheme, w in (("dapple", 1), ("chimera-wave", 1),
                          ("hanayo", 2), ("hanayo", 4)):
            for cluster in all_clusters(8):
                for model in (bert_64(), gpt_128()):
                    for p, d in ((8, 1), (4, 2)):
                        for size in (1, 2, 4, 8):
                            requests.append(self.analysis.ThroughputRequest(
                                scheme=scheme, cluster=cluster, model=model,
                                p=p, num_microbatches=p, d=d, w=w,
                                microbatch_size=size, contention=True))
                            identities.append({
                                "cell": [scheme, w, cluster.name,
                                         model.name, p, d, size]})
        return requests, identities

    def measure(self, requests):
        return self.analysis.measure_throughput_batch(requests)


# -- the served workload -----------------------------------------------------


class ServeClosed(Workload):
    name = "serve_closed"
    why = ("A `repro serve` daemon, warmed, under a closed loop of 2 "
           "keep-alive clients over 40 advise shapes: codec, "
           "single-flight, batcher window and HTTP on warm analysis.")
    unit = "queries"

    def setup(self) -> None:
        if CLIENT_THREADS > (os.cpu_count() or 1):
            raise SystemExit(
                f"serve_closed drives {CLIENT_THREADS} client threads but "
                f"this host has {os.cpu_count()} CPU(s): the load "
                "generator would starve the daemon; refusing to run")
        self.daemon = self.server = None
        self.lock = threading.Lock()
        if self.tracer is None:
            self.daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0"],
                env=child_env(), cwd=self.scratch, stdout=subprocess.PIPE,
                text=True)
            ready = self.daemon.stdout.readline()
            if not ready.startswith("serving on http://"):
                raise SystemExit(f"daemon did not start: {ready!r}")
            address = ready.split("http://", 1)[1].strip()
        else:
            import_repro()
            self.tracer.install()
            from repro.serve import AdvisorServer

            self.server = AdvisorServer(("127.0.0.1", 0))
            self.accept = threading.Thread(
                target=self.server.serve_forever, daemon=True)
            self.accept.start()
            address = f"127.0.0.1:{self.server.port}"
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        self.bodies = {shape: shape_body(shape) for shape in ADVISE_SHAPES}
        conn = self.connect()
        for shape in ADVISE_SHAPES:     # every shape's plans, once
            self.ask(conn, shape, None)
        conn.close()
        self.records.clear()

    def connect(self) -> http.client.HTTPConnection:
        """A keep-alive connection that sends at once: http.client writes
        headers and body separately, and without TCP_NODELAY the second
        write waits ~40 ms for a delayed ACK — the generator's latency,
        not the daemon's."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def ask(self, conn, shape, rid) -> float:
        """One query on a keep-alive connection; checks the answer bytes."""
        headers = {"Content-Type": "application/json"}
        if rid is not None:
            headers["X-Request-Id"] = rid
        start = time.perf_counter()
        conn.request("POST", "/advise", self.bodies[shape], headers)
        response = conn.getresponse()
        body = response.read()
        wall = time.perf_counter() - start
        want = self.golden["advise"][shape_id(shape)]
        ok = response.status == 200 and sha256(body) == want
        with self.lock:
            self.check(ok, f"served {shape_id(shape)}: HTTP "
                           f"{response.status} {body[:120]!r}")
            self.records.append({"shape": shape_id(shape),
                                 "answer": sha256(body)})
        return wall

    def stats(self) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())["serve"]
        finally:
            conn.close()

    def run(self, seconds: float) -> None:
        pending: list = []
        issued = itertools.count()
        latencies: list[float] = []
        errors: list[BaseException] = []

        def take():
            # whole cycles of the 40 shapes, each freshly shuffled, so
            # every run asks the same mix whatever its seed and length
            with self.lock:
                if not pending:
                    if (latencies and
                            time.perf_counter() - begun >= seconds):
                        return None
                    pending.extend(self.rng.sample(ADVISE_SHAPES,
                                                   len(ADVISE_SHAPES)))
                return next(issued), pending.pop()

        def client() -> None:
            conn = self.connect()
            try:
                while (job := take()) is not None:
                    index, shape = job
                    rid = f"q{index}"
                    with self.op_span(rid):
                        wall = self.ask(conn, shape, rid)
                    with self.lock:
                        latencies.append(wall)
            except BaseException as exc:    # noqa: BLE001 - fail the run
                errors.append(exc)
            finally:
                conn.close()

        before = self.stats()
        if self.tracer is not None:
            self.tracer.clear()
            self._base = program_counters()
        threads = [threading.Thread(target=client)
                   for _ in range(CLIENT_THREADS)]
        begun = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        section = time.perf_counter() - begun
        if errors:
            raise errors[0]
        after = self.stats()
        self.samples = latencies
        self.ops = len(latencies)
        self.rates = [self.ops / section]   # completed / closed-loop wall
        dispatches = after["dispatches"] - before["dispatches"]
        lanes = sum(int(n) * (count - before["dispatch_occupancy"].get(n, 0))
                    for n, count in after["dispatch_occupancy"].items())
        self.extra.update({
            "serve.latency_p90_ms": percentile(latencies, 0.90) * 1e3,
            "serve.latency_p99_ms": percentile(latencies, 0.99) * 1e3,
            "serve.dispatches": dispatches / self.ops,
            "serve.lanes_per_dispatch": lanes / max(1, dispatches),
            "serve.dedup_hits":
                (after["dedup_hits"] - before["dedup_hits"]) / self.ops,
            "serve.errors": (after["errors"] - before["errors"]) / self.ops,
        })
        self.check(after["errors"] == before["errors"],
                   f"daemon counted {after['errors']} errors")
        if self.tracer is not None:
            self.end_trace()
            self.link_requests()

    def link_requests(self) -> None:
        """Hang each handler span under the client ``op`` span that sent
        it (they share the request id), so an op's self time is what
        the request spent outside the handler: HTTP, sockets, threads."""
        ops = {span.rid: i for i, span in enumerate(self.spans)
               if span.name == "op"}
        overhead = []
        for i, span in enumerate(self.spans):
            if span.name == "serve.handle" and span.rid in ops:
                op = self.spans[ops[span.rid]]
                self.spans[i] = span._replace(parent=ops[span.rid])
                overhead.append((op.end - op.start) - (span.end - span.start))
        if overhead:
            self.extra["serve.http_overhead_ms"] = \
                percentile(overhead, 0.50) * 1e3

    def peak_rss_kib(self) -> int:
        if self.daemon is None:
            return super().peak_rss_kib()
        status = Path(f"/proc/{self.daemon.pid}/status").read_text()
        return int(status.split("VmHWM:")[1].split()[0])

    def close(self) -> None:
        if self.daemon is not None:
            try:
                self.daemon.send_signal(signal.SIGTERM)
                self.daemon.communicate(timeout=90)
            finally:
                if self.daemon.poll() is None:
                    self.daemon.kill()
                    self.daemon.wait()
            self.check(self.daemon.returncode == 0,
                       f"daemon drain exit code {self.daemon.returncode}")
        elif self.server is not None:
            self.server.drain(timeout=60)
            self.server.shutdown()
            self.accept.join(timeout=10)
            self.server.server_close()


# -- schedule synthesis ------------------------------------------------------

#: the two pinned searches of benchmarks/bench_synthesis.py:
#: name -> (scheme, P, B, W, start ordering, SearchConfig fields)
SEARCHES = {
    "rediscovery_hanayo": ("hanayo", 4, 4, 2, "gpipe", dict(
        rounds=60, samples_per_round=32, beam_width=6, patience=16,
        max_shift=6)),
    "beat_families": ("chimera", 4, 6, 1, None, dict(
        rounds=150, samples_per_round=64, beam_width=8, patience=30,
        max_shift=8)),
}
#: SearchConfig seeds whose results golden.json pins; the run's seed
#: orders the searches — throughput differs by ~10 % between search
#: seeds, so they are part of the fixed input, not of the noise
SEARCH_SEEDS = (0, 1)


class SynthSearch(Workload):
    name = "synth_search"
    why = ("The pinned schedule searches via repro.synthesis.synthesize: "
           "scalar singleton runs over shared retime buffers plus small "
           "lean batches; guards runtime changes aimed at the grids.")
    unit = "candidates"
    min_ops = 1     # cycles of all four searches

    def setup(self) -> None:
        import_repro()
        import repro.synthesis
        from repro.config import CostConfig, PipelineConfig
        from repro.runtime import AbstractCosts
        from repro.schedules import build_schedule

        self.synthesis = repro.synthesis
        costs = CostConfig(t_f=1.0, t_b=2.0, t_c=0.25)
        self.problems = {}
        for name, (scheme, p, b, w, start, fields) in SEARCHES.items():
            schedule = build_schedule(PipelineConfig(
                scheme=scheme, num_devices=p, num_microbatches=b,
                num_waves=w), costs)
            oracle = AbstractCosts(costs, p, schedule.num_stages)
            self.problems[name] = (schedule, oracle, start, fields)
        # a two-round search: lazy imports and NumPy first-use costs
        schedule, oracle, start, fields = self.problems["rediscovery_hanayo"]
        self.synthesis.synthesize(
            schedule, oracle,
            self.synthesis.SearchConfig(**{**fields, "rounds": 2}),
            start=start)

    def search(self, name: str, seed: int) -> tuple[float, int]:
        schedule, oracle, start, fields = self.problems[name]
        config = self.synthesis.SearchConfig(seed=seed, **fields)
        begun = time.perf_counter()
        result = self.synthesis.synthesize(schedule, oracle, config,
                                           start=start)
        wall = time.perf_counter() - begun
        found = {"search": f"{name}/{seed}",
                 "best_makespan": result.best.makespan,
                 "evaluated": result.evaluated,
                 "plan_key": result.plan_key}
        self.records.append(found)
        want = self.golden["synth_search"]["searches"][found["search"]]
        self.check(found == {"search": found["search"], **want},
                   f"search {found} != golden {want}")
        return wall, result.evaluated

    def run(self, seconds: float) -> None:
        cycle = [(name, seed) for name in SEARCHES for seed in SEARCH_SEEDS]

        def one_cycle() -> None:
            self.records.clear()
            wall = candidates = 0
            with self.op_span():
                for name, seed in self.rng.sample(cycle, len(cycle)):
                    took, evaluated = self.search(name, seed)
                    wall += took
                    candidates += evaluated
            self.samples.append(wall)
            self.rates.append(candidates / wall)
            self.ops += 1

        self.begin_trace()
        self.repeat(seconds, one_cycle)
        self.end_trace()


WORKLOADS = {cls.name: cls for cls in (
    ColdCli, SweepCold, SweepWarm, HybridGrid, ContentionGrid, ServeClosed,
    SynthSearch)}
