"""The serving layer: codec, micro-batcher, single-flight, HTTP daemon.

The load-bearing guarantees under test:

* **parity** — a served ``/advise`` answer is byte-identical to the
  batch path (``advise_answer`` + canonical serialization, what
  ``repro advise --json`` prints) for every query shape in the grid,
  including TP > 1 hybrid and capacity-pruned cells;
* **single-flight** — two identical concurrent queries execute once
  and both get the answer;
* **micro-batching** — concurrent submissions coalesce into one batch
  harness call, outcomes routed back in submission order;
* **streaming** — sweep answers arrive as chunked NDJSON with monotone
  progress frames and a final table equal to the engine's;
* **drain** — SIGTERM on a real ``repro serve`` subprocess answers
  everything in flight and exits 0;
* **thread safety** — the plan cache and result cache survive
  concurrent hammering with their counter invariants intact.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import profiling
from repro.errors import ConfigError
from repro.serve import AdviseQuery, dumps_canonical, query_key
from repro.serve.batcher import MicroBatcher
from repro.serve.codec import CODEC_VERSION
from repro.serve.queries import advise_answer, format_advise, sweep_answer
from repro.serve.server import AdvisorServer
from repro.serve.singleflight import SingleFlight
from repro.sweep.spec import SWEEP_REQUEST, SweepSpec, decode_request


def advise_query(cluster, model, devices, batch, **extra) -> AdviseQuery:
    """An advise query through the one decode the CLI and server use."""
    return AdviseQuery.from_payload(dict(
        cluster=cluster, model=model, devices=devices, batch=batch, **extra))

# ---------------------------------------------------------------------------
# codec


class TestCodec:
    def test_canonical_bytes_are_stable(self):
        a = dumps_canonical({"b": 1, "a": [2, {"z": None, "y": "ü"}]})
        b = dumps_canonical({"a": [2, {"y": "ü", "z": None}], "b": 1})
        assert a == b
        assert a.endswith(b"\n")
        assert b" " not in a

    def test_advise_normalization_merges_equivalent_queries(self):
        q1 = advise_query("fc", "bert", 8, 16, dp=[2, 1, 2])
        q2 = advise_query("FC", "bert", 8, 16, dp=(1, 2))
        assert q1 == q2
        assert q1.dp == (1, 2)
        assert query_key("advise", q1) == query_key("advise", q2)

    def test_round_trip_through_payload(self):
        q = advise_query("TACC", "gpt", 16, 32, tp=2, dp=[1],
                             top=3, capacity_gib=40)
        assert AdviseQuery.from_payload(q.to_payload()) == q
        s = decode_request(
            {"schemes": ["gpipe", "hanayo"], "cluster": "pc",
             "models": ["bert", "tiny"], "devices": 8, "batches": [8, 16],
             "tp": [2, 1], "layouts": [[4, 2]]}, SWEEP_REQUEST)
        assert decode_request(s, SWEEP_REQUEST) == s
        assert s["cluster"] == ("PC",) and s["layouts"] == ((4, 2),)

    @pytest.mark.parametrize("payload, fragment", [
        ({}, "missing required field"),
        ({"cluster": "FC", "model": "bert", "devices": 8, "batch": 16,
          "bogus": 1}, "unknown query field"),
        ({"cluster": "XX", "model": "bert", "devices": 8, "batch": 16},
         "unknown cluster"),
        ({"cluster": "FC", "model": "resnet", "devices": 8, "batch": 16},
         "unknown model"),
        ({"cluster": "FC", "model": "bert", "devices": 8, "batch": True},
         "'batch' must be a positive integer, got True"),
        ({"cluster": "FC", "model": "bert", "devices": 8, "batch": 16,
          "tp": 3}, "must divide"),
        ({"cluster": "FC", "model": "bert", "devices": 8, "batch": 16,
          "dp": [0]}, "positive integers"),
        ({"cluster": "FC", "model": "bert", "devices": 8, "batch": 16,
          "capacity_gib": -1}, "positive number"),
        ({"cluster": "FC", "model": "bert", "devices": "8", "batch": 16},
         "'devices' must be a positive integer, got '8'"),
    ])
    def test_bad_advise_payloads_name_the_field(self, payload, fragment):
        with pytest.raises(ConfigError, match=fragment):
            AdviseQuery.from_payload(payload)

    def test_bad_sweep_payloads(self):
        good = {"schemes": ["gpipe"], "cluster": "FC",
                "models": ["bert"], "devices": 8, "batches": [16]}
        with pytest.raises(ConfigError, match="schemes"):
            SweepSpec.from_payload({**good, "schemes": ["nope"]})
        with pytest.raises(ConfigError, match="layout"):
            SweepSpec.from_payload({**good, "layouts": [[4]]})
        with pytest.raises(ConfigError, match="devices"):
            SweepSpec.from_payload({**good, "devices": 1})

    def test_distinct_queries_hash_apart(self):
        q1 = advise_query("FC", "bert", 8, 16)
        q2 = advise_query("FC", "bert", 8, 32)
        assert query_key("advise", q1) != query_key("advise", q2)
        assert q1.capacity_bytes is None
        assert advise_query("FC", "bert", 8, 16,
                                capacity_gib=2).capacity_bytes == 2**31


# ---------------------------------------------------------------------------
# the micro-batcher


def _fake_outcomes(requests):
    # identity-preserving fake harness: outcome i names request i
    return [("out", id(r)) for r in requests]


class TestMicroBatcher:
    HARNESS = "repro.serve.batcher.measure_hybrid_throughput_batch"

    def test_concurrent_submissions_coalesce(self, monkeypatch):
        calls = []

        def record(requests):
            calls.append(len(requests))
            return _fake_outcomes(requests)

        monkeypatch.setattr(self.HARNESS, record)
        batcher = MicroBatcher(window_s=0.25)
        results = {}

        def submit(name):
            reqs = [object(), object()]
            results[name] = (reqs, batcher.measure_hybrid(reqs))

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        batcher.close()
        # all six lanes executed; the coalescing window merged the
        # concurrent submissions into (almost always one) shared call
        assert sum(calls) == 6
        assert len(calls) <= 2
        for reqs, outcomes in results.values():
            assert outcomes == [("out", id(r)) for r in reqs]

    def test_both_submit_names_share_one_harness_call(self, monkeypatch):
        """``measure_flat`` is ``measure_hybrid``: lanes submitted under
        either name coalesce into the same dispatch.  The window only
        closes early once ``max_lanes`` are queued, so the one 3-lane
        call is deterministic."""
        seen = []
        monkeypatch.setattr(
            self.HARNESS,
            lambda rs: seen.append(len(rs)) or _fake_outcomes(rs))
        assert MicroBatcher.measure_flat is MicroBatcher.measure_hybrid
        batcher = MicroBatcher(window_s=30, max_lanes=3, workers=1)
        flat, hybrid = [object()], [object(), object()]
        out = {}
        t1 = threading.Thread(
            target=lambda: out.setdefault("f", batcher.measure_flat(flat)))
        t2 = threading.Thread(
            target=lambda: out.setdefault(
                "h", batcher.measure_hybrid(hybrid)))
        t1.start(); t2.start(); t1.join(30); t2.join(30)
        batcher.close()
        assert seen == [3]
        assert out["f"] == _fake_outcomes(flat)
        assert out["h"] == _fake_outcomes(hybrid)

    def test_error_fails_only_the_culprit_submission(self, monkeypatch):
        """A poisoned lane fails its own submission; a concurrent good
        one coalesced into the same dispatch gets its normal outcomes
        (the dispatch is re-executed per submission)."""
        poison = object()
        calls = []

        def harness(requests):
            calls.append(len(requests))
            if poison in requests:
                raise RuntimeError("harness exploded")
            return _fake_outcomes(requests)

        monkeypatch.setattr(self.HARNESS, harness)
        batcher = MicroBatcher(window_s=30, max_lanes=3, workers=1)
        good = [object(), object()]
        got = {}

        def submit(name, requests):
            try:
                got[name] = batcher.measure_hybrid(requests)
            except RuntimeError as exc:
                got[name] = str(exc)

        threads = [threading.Thread(target=submit, args=("good", good)),
                   threading.Thread(target=submit, args=("bad", [poison]))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        batcher.close()
        assert got == {"good": _fake_outcomes(good),
                       "bad": "harness exploded"}
        # one coalesced attempt, then one call per submission
        assert calls[0] == 3 and sorted(calls[1:]) == [1, 2]

    def test_lone_failing_submission_runs_once(self, monkeypatch):
        """A dispatch holding one submission has nothing to isolate it
        from: it costs exactly one harness call, and the caller gets the
        original exception object."""
        boom = RuntimeError("harness exploded")
        calls = []

        def harness(requests):
            calls.append(len(requests))
            raise boom

        monkeypatch.setattr(self.HARNESS, harness)
        batcher = MicroBatcher(window_s=0.01, workers=1)
        with pytest.raises(RuntimeError) as info:
            batcher.measure_hybrid([object(), object()])
        batcher.close()
        assert info.value is boom
        assert calls == [2]

    def test_closed_batcher_rejects_submissions(self):
        batcher = MicroBatcher(window_s=0.01)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.measure_hybrid([object()])


# ---------------------------------------------------------------------------
# single-flight


class TestSingleFlight:
    def test_concurrent_identical_calls_execute_once(self):
        flights = SingleFlight()
        started, release = threading.Event(), threading.Event()
        calls = []

        def compute():
            calls.append(1)
            started.set()
            release.wait(timeout=10)
            return b"answer"

        results = []

        def run():
            results.append(flights.do("k", compute))

        leader = threading.Thread(target=run)
        leader.start()
        assert started.wait(timeout=10)
        follower = threading.Thread(target=run)
        follower.start()
        # wait until the follower has joined the flight — the leader is
        # gated on `release`, so the flight cannot complete early
        deadline = time.monotonic() + 10
        while flights.waiting("k") == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert flights.waiting("k") == 1
        release.set()
        leader.join(timeout=10)
        follower.join(timeout=10)
        assert len(calls) == 1
        assert sorted(deduped for _v, deduped in results) == [False, True]
        assert {value for value, _d in results} == {b"answer"}

    def test_sequential_calls_do_not_dedup(self):
        flights = SingleFlight()
        calls = []
        for _ in range(2):
            value, deduped = flights.do("k", lambda: calls.append(1))
            assert not deduped
        assert len(calls) == 2

    def test_leader_error_propagates_to_followers(self):
        flights = SingleFlight()
        started, release = threading.Event(), threading.Event()

        def explode():
            started.set()
            release.wait(timeout=10)
            raise ValueError("bad question")

        failures = []

        def run():
            try:
                flights.do("k", explode)
            except ValueError as exc:
                failures.append(str(exc))

        threads = [threading.Thread(target=run) for _ in range(2)]
        threads[0].start()
        assert started.wait(timeout=10)
        threads[1].start()
        deadline = time.monotonic() + 10
        while flights.waiting("k") == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert failures == ["bad question"] * 2


# ---------------------------------------------------------------------------
# the HTTP server (in-process, real sockets on port 0)


@pytest.fixture(scope="module")
def server():
    srv = AdvisorServer(("127.0.0.1", 0))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.drain(timeout=30)
    srv.shutdown()
    thread.join(timeout=10)
    srv.server_close()


def _post(url: str, payload, timeout: float = 300.0):
    request = urllib.request.Request(
        url, data=dumps_canonical(payload),
        headers={"Content-Type": "application/json"}, method="POST")
    return urllib.request.urlopen(request, timeout=timeout)


#: the served≡batch parity grid: every query shape the issue calls out
#: — flat, restricted DP, TP > 1 hybrid, and capacity-pruned cells
PARITY_QUERIES = [
    pytest.param(dict(cluster="FC", model="bert", devices=8, batch=8,
                      top=5), id="flat"),
    pytest.param(dict(cluster="PC", model="bert", devices=4, batch=8,
                      dp=[1]), id="dp-restricted"),
    pytest.param(dict(cluster="TACC", model="bert", devices=8, batch=16,
                      tp=2), id="hybrid-tp2"),
    pytest.param(dict(cluster="FC", model="bert", devices=8, batch=8,
                      capacity_gib=0.05), id="capacity-pruned"),
]


class TestServedParity:
    @pytest.mark.parametrize("kwargs", PARITY_QUERIES)
    def test_served_advise_equals_batch_bytes(self, server, kwargs):
        query = AdviseQuery.from_payload(kwargs)
        with _post(server.url + "/advise", query.to_payload()) as resp:
            served = resp.read()
        assert served == dumps_canonical(advise_answer(query))
        payload = json.loads(served)
        assert payload["kind"] == "advise"
        assert payload["version"] == CODEC_VERSION
        assert payload["rows"], "parity grid queries must have answers"

    def test_capacity_pruning_actually_prunes(self, server):
        query = advise_query("FC", "bert", 8, 8, capacity_gib=0.05)
        with _post(server.url + "/advise", query.to_payload()) as resp:
            payload = json.loads(resp.read())
        assert all(row["oom"] for row in payload["rows"])

    def test_served_answer_matches_cli_json(self, server):
        query = advise_query("FC", "bert", 8, 8, top=5)
        with _post(server.url + "/advise", query.to_payload()) as resp:
            served = resp.read()
        cli = subprocess.run(
            [sys.executable, "-m", "repro", "advise", "--cluster", "FC",
             "-n", "8", "--batch", "8", "--top", "5", "--json"],
            env={**os.environ,
                 "PYTHONPATH": os.path.join(os.getcwd(), "src")},
            capture_output=True, check=True)
        assert cli.stdout == served

    def test_tp1_and_tp2_queries_share_one_dispatch(self, capsysbinary):
        """Two concurrent queries, ``--tp 1`` and ``--tp 2``, coalesce
        into one harness call, and each answer stays byte-equal to
        ``repro advise --json``.  The window only closes early once
        every lane of both queries is queued, so the single dispatch is
        deterministic."""
        from repro.cli import main as cli_main
        from repro.serve.queries import advise_requests

        queries = {tp: advise_query("TACC", "bert", 8, 16, tp=tp)
                   for tp in (1, 2)}
        # advise_requests returns (spec, points): one lane per point
        lanes = sum(len(points) for _spec, points in
                    map(advise_requests, queries.values()))
        srv = AdvisorServer(("127.0.0.1", 0), window_s=60,
                            max_lanes=lanes)
        dispatched = []
        real = srv.batcher._execute
        srv.batcher._execute = lambda requests: dispatched.append(
            sorted({r.layout.tp for r in requests})) or real(requests)
        accept = threading.Thread(target=srv.serve_forever, daemon=True)
        accept.start()
        answers = {}

        def ask(tp):
            with _post(srv.url + "/advise",
                       queries[tp].to_payload()) as resp:
                answers[tp] = resp.read()

        try:
            clients = [threading.Thread(target=ask, args=(tp,))
                       for tp in queries]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=120)
        finally:
            srv.drain(timeout=30)
            srv.shutdown()
            accept.join(timeout=10)
            srv.server_close()
        assert dispatched == [[1, 2]]
        for tp in queries:
            assert cli_main(["advise", "--cluster", "TACC", "-n", "8",
                             "--batch", "16", "--tp", str(tp),
                             "--json"]) == 0
            assert capsysbinary.readouterr().out == answers[tp]

    def test_format_advise_renders_the_cli_table(self):
        query = advise_query("FC", "bert", 8, 8, top=5)
        text = format_advise(advise_answer(query))
        assert "seq/s" in text and "hanayo" in text
        assert "bert on cluster FC (8 devices), batch 8" in text

    def test_bad_query_is_a_400_naming_the_field(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(server.url + "/advise", {"cluster": "FC"})
        assert info.value.code == 400
        assert "model" in json.loads(info.value.read())["error"]

    def test_unknown_path_is_a_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(server.url + "/nope", {})
        assert info.value.code == 404

    @staticmethod
    def _raw_post(server, headers: bytes, body: bytes) -> bytes:
        """Send one raw POST on a fresh connection; read until EOF."""
        import socket

        with socket.create_connection(server.server_address[:2],
                                      timeout=10) as sock:
            sock.sendall(b"POST /advise HTTP/1.1\r\nHost: test\r\n"
                         + headers + b"\r\n" + body)
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        return raw

    def test_malformed_content_length_is_a_400_naming_the_header(
            self, server):
        raw = self._raw_post(server, b"Content-Length: abc\r\n", b"{}")
        assert re.findall(rb"HTTP/1\.1 (\d{3}) ", raw) == [b"400"]
        error = json.loads(raw.split(b"\r\n\r\n", 1)[1])["error"]
        assert "Content-Length" in error and "'abc'" in error

    def test_oversized_body_closes_the_connection(self, server):
        """The unread body must not be parsed as a second request on
        the keep-alive connection: one response, then EOF."""
        from repro.serve.server import MAX_BODY_BYTES

        raw = self._raw_post(
            server, b"Content-Length: %d\r\n" % (MAX_BODY_BYTES + 1),
            b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
        assert re.findall(rb"HTTP/1\.1 (\d{3}) ", raw) == [b"400"]
        assert b"exceeds" in raw

    def test_healthz_and_stats(self, server):
        with urllib.request.urlopen(server.url + "/healthz",
                                    timeout=10) as resp:
            health = json.loads(resp.read())
        assert health == {"ok": True, "draining": False}
        with urllib.request.urlopen(server.url + "/stats",
                                    timeout=10) as resp:
            stats = json.loads(resp.read())
        assert stats["serve"]["queries"] >= 1
        assert stats["plan_cache"]["entries"] >= 1
        assert "occupancy" in stats["batching"]


    def test_accepted_sockets_disable_nagle(self, server, monkeypatch):
        """Headers and body are two sends on a keep-alive socket; with
        Nagle on, the body waits out the client's delayed ACK."""
        import socket

        from repro.serve.server import _Handler

        seen = []
        real = _Handler.do_GET

        def spying(handler):
            seen.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))
            real(handler)

        monkeypatch.setattr(_Handler, "do_GET", spying)
        with urllib.request.urlopen(server.url + "/healthz",
                                    timeout=10) as resp:
            resp.read()
        assert seen and all(seen)

    def test_warm_queries_bind_and_retime_nothing(self, monkeypatch):
        """A repeated query must meet the cluster instance its plans
        are already bound to: no re-time and no retained binding per
        query (``Topology`` hashes by identity)."""
        from repro.actions import ExecutablePlan
        from repro.analysis import plan_cache

        retimes = []
        real = ExecutablePlan.retime

        def counting(plan, *args, **kwargs):
            retimes.append(plan.name)
            return real(plan, *args, **kwargs)

        monkeypatch.setattr(ExecutablePlan, "retime", counting)
        query = advise_query("FC", "tiny", 4, 8)

        def bindings():
            return {key: len(entry.bindings)
                    for key, entry in plan_cache()._store.items()}

        first = dumps_canonical(advise_answer(query))
        warm_retimes, warm_bindings = len(retimes), bindings()
        assert any(warm_bindings.values())
        for _ in range(200):
            assert dumps_canonical(advise_answer(query)) == first
        assert len(retimes) == warm_retimes
        assert bindings() == warm_bindings


#: advise queries covering every lowering axis: flat, TP > 1, a DP
#: filter, wire contention, OOM + statically pruned cells, and a batch
#: no layout can split
ADVISE_SWEEP_QUERIES = [
    pytest.param(dict(cluster="FC", model="bert", devices=8, batch=8,
                      top=5), id="flat"),
    pytest.param(dict(cluster="TACC", model="bert", devices=8, batch=16,
                      tp=2), id="tp2"),
    pytest.param(dict(cluster="PC", model="gpt", devices=8, batch=16,
                      dp=[2]), id="dp-filter"),
    pytest.param(dict(cluster="TACC", model="tiny", devices=8, batch=16,
                      contention=True), id="contention"),
    pytest.param(dict(cluster="FC", model="bert", devices=8, batch=8,
                      top=20, capacity_gib=10), id="oom-and-pruned"),
    pytest.param(dict(cluster="FC", model="tiny", devices=8, batch=3,
                      dp=[2]), id="unsplittable"),
]


class TestAdviseIsARankedSweep:
    """An advise answer is the engine's table for the lowered spec,
    ranked and truncated, measured in a single ``measure`` call."""

    @pytest.mark.parametrize("kwargs", ADVISE_SWEEP_QUERIES)
    def test_rows_are_the_ranked_sweep_table(self, kwargs):
        from repro.serve.queries import advise_requests
        from repro.sweep.engine import (
            measure_hybrid_throughput_batch,
            run_sweep,
        )

        query = AdviseQuery.from_payload(kwargs)
        spec, points = advise_requests(query)
        calls = []

        def measure(requests):
            calls.append(len(requests))
            return measure_hybrid_throughput_batch(requests)

        answer = advise_answer(query, measure=measure)
        assert calls == [len(points)]
        table = run_sweep(spec)
        want = sorted(
            ({"scheme": r.scheme, "p": r.p, "d": r.d, "tp": r.tp,
              "w": r.w, "seq_per_s": r.seq_per_s, "oom": r.oom,
              "statically_pruned": r.statically_pruned}
             for r in table.rows),
            key=lambda r: (
                -(r["seq_per_s"] if r["seq_per_s"] is not None
                  else float("-inf")),
                r["scheme"], r["p"], r["d"], r["tp"], r["w"]))
        assert answer["rows"] == want[: query.top]
        assert answer["considered"] == len(table.rows)

    def test_grid_covers_every_case(self):
        def answer(name):
            [param] = [p for p in ADVISE_SWEEP_QUERIES if p.id == name]
            return advise_answer(AdviseQuery.from_payload(param.values[0]))

        rows = answer("oom-and-pruned")["rows"]
        assert any(r["oom"] and not r["statically_pruned"] for r in rows)
        assert any(r["statically_pruned"] for r in rows)
        assert answer("unsplittable")["considered"] == 0
        assert {r["tp"] for r in answer("tp2")["rows"]} == {2}
        assert {r["d"] for r in answer("dp-filter")["rows"]} == {2}


#: a served sweep with a TP axis: its (P, D, TP) layouts are derived
#: exactly as ``repro sweep --tp 1 2`` derives them
TP_SWEEP = {"schemes": ["gpipe", "hanayo"], "cluster": "TACC",
            "models": ["bert"], "devices": 8, "batches": [16],
            "tp": [1, 2]}


class TestServedSweep:
    def test_stream_frames_and_final_table_parity(self, server):
        payload = {"schemes": ["gpipe", "hanayo"], "cluster": "TACC",
                   "models": ["bert"], "devices": 8, "batches": [16]}
        frames = []
        with _post(server.url + "/sweep", payload) as resp:
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            for line in resp:
                frames.append(json.loads(line))
        progress = [f for f in frames if f["kind"] == "progress"]
        assert progress, "sweeps must stream progress"
        dones = [f["done"] for f in progress]
        assert dones == sorted(dones)
        assert progress[-1]["done"] == progress[-1]["total"]
        # the frames are run_sweep's own progress calls, one per unit
        from repro.sweep.engine import run_sweep
        calls = []
        run_sweep(SweepSpec.from_payload(payload),
                  progress=lambda done, total: calls.append(
                      {"kind": "progress", "done": done, "total": total}))
        assert progress == calls
        final = frames[-1]
        assert final["kind"] == "sweep"
        # the answer echoes the request normalized, defaults filled in
        assert final["query"] == json.loads(dumps_canonical(
            decode_request(payload, SWEEP_REQUEST)))
        assert final["query"]["waves"] == [1, 2, 4, 8]
        assert dumps_canonical(final) == dumps_canonical(
            sweep_answer(payload))

    def test_served_sweep_equals_engine_table(self, server):
        from repro.sweep.engine import run_sweep

        payload = {"schemes": ["hanayo"], "cluster": "TACC",
                   "models": ["bert"], "devices": 8, "batches": [16]}
        with _post(server.url + "/sweep", payload) as resp:
            final = json.loads(resp.read().splitlines()[-1])
        table = run_sweep(SweepSpec.from_payload(payload))
        assert final["result"] == json.loads(table.to_json())

    def test_served_sweep_equals_cli_table(self, server, tmp_path, capsys):
        from repro.cli import main as cli_main

        with _post(server.url + "/sweep", TP_SWEEP) as resp:
            final = json.loads(resp.read().splitlines()[-1])
        out = tmp_path / "table.json"
        assert cli_main(["sweep", "--schemes", "gpipe", "hanayo",
                         "--clusters", "TACC", "--model", "bert", "-n", "8",
                         "--batch", "16", "--tp", "1", "2",
                         "--json", str(out)]) == 0
        assert final["result"] == json.loads(out.read_text())
        assert {row["tp"] for row in final["result"]["rows"]} == {1, 2}

    def test_oversized_layout_is_a_400_and_exit_2(self, server, capsys):
        from repro.cli import main as cli_main

        with pytest.raises(urllib.error.HTTPError) as info:
            _post(server.url + "/sweep", {**TP_SWEEP, "layouts": [[16, 1]]})
        assert info.value.code == 400
        assert "'layouts'" in json.loads(info.value.read())["error"]
        assert cli_main(["sweep", "--clusters", "TACC", "-n", "8",
                         "--layouts", "16x1"]) == 2
        assert "'layouts'" in capsys.readouterr().err


class TestSingleFlightOverHTTP:
    def test_identical_concurrent_queries_execute_once(self, server,
                                                       monkeypatch):
        import repro.serve.server as server_mod

        real = server_mod.advise_answer
        calls = []
        started, release = threading.Event(), threading.Event()

        def gated(query, **kwargs):
            calls.append(1)
            started.set()
            release.wait(timeout=30)
            return real(query, **kwargs)

        monkeypatch.setattr(server_mod, "advise_answer", gated)
        before = profiling.serve_stats().dedup_hits
        query = advise_query("FC", "bert", 8, 8, top=4)
        answers = []

        def ask():
            with _post(server.url + "/advise", query.to_payload()) as r:
                answers.append(r.read())

        key = query_key("advise", query)
        leader = threading.Thread(target=ask)
        leader.start()
        assert started.wait(timeout=30)
        follower = threading.Thread(target=ask)
        follower.start()
        # park until the follower joins the in-flight group; the leader
        # is gated on `release`, so the flight cannot complete early
        deadline = time.monotonic() + 30
        while (server.flights.waiting(key) == 0
               and time.monotonic() < deadline):
            time.sleep(0.002)
        assert server.flights.waiting(key) == 1
        release.set()
        leader.join(timeout=60)
        follower.join(timeout=60)
        assert len(calls) == 1, "one execution serves both queries"
        assert len(answers) == 2
        assert answers[0] == answers[1]
        assert profiling.serve_stats().dedup_hits == before + 1


class TestDrain:
    def test_draining_server_rejects_with_503(self):
        srv = AdvisorServer(("127.0.0.1", 0))
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            assert srv.drain(timeout=10)
            query = advise_query("FC", "bert", 8, 8)
            with pytest.raises(urllib.error.HTTPError) as info:
                _post(srv.url + "/advise", query.to_payload(), timeout=10)
            assert info.value.code == 503
        finally:
            srv.shutdown()
            thread.join(timeout=10)
            srv.server_close()

    def test_sigterm_drains_the_daemon(self, tmp_path):
        env = {**os.environ,
               "PYTHONPATH": os.path.join(os.getcwd(), "src")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            ready = proc.stdout.readline()
            match = re.match(r"serving on (http://[\d.]+:\d+)", ready)
            assert match, f"no ready line, got {ready!r}"
            url = match.group(1)
            query = advise_query("FC", "bert", 8, 8, top=3)
            with _post(url + "/advise", query.to_payload(),
                       timeout=120) as resp:
                assert json.loads(resp.read())["rows"]
            proc.send_signal(signal.SIGTERM)
            stdout, _stderr = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert "drained" in stdout
            assert "serve: 1 queries" in stdout
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)


# ---------------------------------------------------------------------------
# cache thread safety (satellite of the serving work: both caches are
# now hit from many handler threads at once)


class TestCacheThreadSafety:
    def test_plan_cache_concurrent_hammering(self):
        """Plan keys are ``(shape, size binding)``: three bindings per
        shape, so the shape level is hammered too — looked up on a plan miss,
        registered on a shape miss, alive only through its entries."""
        from repro.analysis.plans import PlanCache, PlanEntry, PlanShape

        cache = PlanCache(maxsize=16)
        errors = []

        def worker(seed: int) -> None:
            try:
                for i in range(300):
                    n = (seed * 7 + i) % 48
                    key = (f"s{n // 3}", f"m{n % 3}")
                    if cache.get(key) is None:
                        shape = cache.get_shape(key[:-1]) or cache.put_shape(
                            key[:-1], PlanShape(None, None, None))
                        cache.put(key, PlanEntry(None, None, None, shape))
            except Exception as exc:  # noqa: BLE001 - fail the test
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 16
        # every get bumped exactly one counter...
        assert cache.hits + cache.misses == 8 * 300
        # ...a shape is looked up exactly once per plan miss...
        assert cache.shape_hits + cache.shape_misses == cache.misses
        # ...the insertion ledger balances at quiescence...
        assert cache.insertions == len(cache) + cache.evictions
        # ...and the shapes alive are exactly those of retained entries
        held = {id(entry.shape) for entry in cache._store.values()}
        assert len(cache._shapes) <= len(held) <= len(cache)

    def test_shape_lives_exactly_as_long_as_its_entries(self):
        from repro.analysis.plans import PlanCache, PlanEntry, PlanShape

        cache = PlanCache(maxsize=2)

        def add(shape_key, model):
            shape = cache.get_shape(shape_key) or cache.put_shape(
                shape_key, PlanShape(None, None, None))
            cache.put((*shape_key, model), PlanEntry(None, None, None, shape))

        add(("a",), "bert")
        add(("a",), "gpt")
        assert (len(cache), len(cache._shapes)) == (2, 1)
        assert (cache.shape_hits, cache.shape_misses) == (1, 1)
        add(("b",), "bert")             # evicts (a, bert): a still held
        assert cache.get_shape(("a",)) is not None
        add(("c",), "bert")             # evicts (a, gpt): a's last entry
        assert cache.get_shape(("a",)) is None
        assert (len(cache), len(cache._shapes)) == (2, 2)
        for n in range(50):             # bounded: shapes never outnumber
            add((f"s{n}",), "bert")     # the entries that hold them
            assert len(cache._shapes) <= len(cache) == 2
        assert cache.insertions == len(cache) + cache.evictions
        cache.clear()
        assert (len(cache._shapes), cache.shape_hits,
                cache.shape_misses) == (0, 0, 0)

    def test_bound_plan_retimes_once_under_contention(self):
        from repro.analysis.plans import PlanEntry

        class FakePlan:
            def __init__(self):
                self.retimes = 0

            def retime(self, oracles):
                self.retimes += 1
                time.sleep(0.005)  # widen the race window
                return [("bound", oracle) for oracle in oracles]

        plan = FakePlan()
        entry = PlanEntry(schedule=None, program=None, plan=plan)
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(
                entry.bound_plans(["oracle-key"], [lambda: "oracle"])))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert plan.retimes == 1
        assert results == [[("bound", "oracle")]] * 8

    def test_result_cache_concurrent_readers_and_writers(self, tmp_path):
        from repro.sweep.cache import ResultCache

        cache = ResultCache(tmp_path)
        errors = []

        def worker(seed: int) -> None:
            try:
                for i in range(60):
                    key = "a" * 60 + f"{(seed + i) % 10:04x}"
                    record = cache.get(key)
                    if record is not None:
                        assert record["value"] == key
                    cache.put(key, {"value": key})
            except Exception as exc:  # noqa: BLE001 - fail the test
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.hits + cache.misses == 6 * 60
        assert cache.writes == 6 * 60
        # every record is intact (no torn writes)
        for s in range(10):
            key = "a" * 60 + f"{s:04x}"
            assert cache.get(key) == {"value": key}
        # no temp files left behind
        assert not [p for p in os.listdir(tmp_path)
                    if p.startswith(".tmp-")]
