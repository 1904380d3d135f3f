"""Schedule synthesis: reorder identity, legality, search, replay.

The load-bearing pins, in dependency order:

* **Reorder identity** — recompiling a program from its own ordering
  reproduces the action lists exactly, across every family and both
  compile-pass settings.  This is what makes the searcher's compile
  path and the schedule compiler the same function of an ordering.
* **Legality negatives** — hand-built illegal orderings produce their
  *specific* structured violation (dep inversion, cross-device cycle
  with a concrete witness, capacity, collective order), and the
  deadlock-classified ones deadlock both event cores with a wait-cycle
  report instead of hanging.
* **Search determinism and the rediscovery demo** — the same seed
  yields the same best ordering, provenance and plan key; from a
  GPipe-disciplined start on Hanayo's placement the search finds a
  strictly better schedule than the start.  The two headline searches
  pin their whole trajectory (candidates evaluated, illegal, plan key),
  so any legality verdict that moves shows even where no best
  makespan changes.
* **Replayable serialization** — payload -> JSON -> replay round-trips
  scores bit-identically and fails loudly on a plan-key mismatch.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.actions import (
    compile_program,
    ordering_entries,
    reorder_program,
    with_gradient_sync,
)
from repro.actions.ops import CollectiveOp
from repro.actions.resources import StageResources
from repro.actions.lowering import ExecutablePlan
from repro.config import CostConfig, PipelineConfig, RunConfig
from repro.errors import (
    OutOfMemoryError,
    SchedulingError,
    SynthesisError,
    ValidationError,
)
from repro.runtime import (
    AbstractCosts,
    execute_program,
    simulate,
    simulate_ordering,
)
from repro.schedules import build_schedule
from repro.synthesis import (
    DEADLOCK_KINDS,
    LegalityChecker,
    MUTATION_KINDS,
    OOM_KINDS,
    ScheduleOrdering,
    SearchConfig,
    SynthesisContext,
    check_ordering,
    gpipe_like_ordering,
    is_legal,
    load_schedule,
    payload_for,
    propose_mutation,
    replay_payload,
    save_schedule,
    synthesize,
    synthesize_families,
)
from repro.types import OpKind

from conftest import ALL_SCHEMES, make_config, scheme_id
from support.events_ref import execute_program_reference

COMM = CostConfig(t_f=1.0, t_b=2.0, t_c=0.25)
#: the seeded searches benchmarks/e2e pins bit for bit
GOLDEN_SEARCHES = json.loads(
    (Path(__file__).resolve().parents[1]
     / "benchmarks" / "e2e" / "golden.json").read_text()
)["synth_search"]["searches"]


def build(scheme, p=4, b=4, prefetch=True, batching=True, resources=None,
          **kw):
    cfg = make_config(scheme, p, b, **kw)
    sched = build_schedule(cfg, COMM)
    oracle = AbstractCosts(COMM, p, sched.num_stages)
    program = compile_program(
        sched, prefetch=prefetch, batch_cross_comm=batching,
        boundary_bytes=lambda tag: oracle.tensor_nbytes(tag.stage),
        resources=resources,
    )
    return cfg, sched, oracle, program


def gpipe_p2(prefetch=True, **kw):
    return build("gpipe", p=2, b=2, prefetch=prefetch,
                 batching=prefetch, **kw)


@pytest.mark.parametrize("prefetch", [True, False], ids=["pf", "nopf"])
@pytest.mark.parametrize("param", ALL_SCHEMES, ids=scheme_id)
class TestReorderIdentity:
    def test_identity_reorder_reproduces_actions(self, param, prefetch):
        scheme, kw = param
        _, _, _, program = build(scheme, prefetch=prefetch,
                                 batching=prefetch, **kw)
        rebuilt = reorder_program(program, ordering_entries(program))
        assert rebuilt.actions == program.actions

    def test_identity_reorder_preserves_plan_key(self, param, prefetch):
        scheme, kw = param
        _, _, _, program = build(scheme, prefetch=prefetch,
                                 batching=prefetch, **kw)
        rebuilt = reorder_program(program, ordering_entries(program))
        assert (ExecutablePlan.lower(rebuilt).plan_key
                == ExecutablePlan.lower(program).plan_key)

    def test_own_ordering_is_legal(self, param, prefetch):
        scheme, kw = param
        _, _, _, program = build(scheme, prefetch=prefetch,
                                 batching=prefetch, **kw)
        assert is_legal(program, ScheduleOrdering.from_program(program))


class TestReorderIdentityWithCollectives:
    def test_grad_sync_program_round_trips(self):
        _, _, _, program = build("dapple")
        annotated = with_gradient_sync(
            program, {d: (d, d + 4) for d in range(4)},
            {s: 64.0 for s in range(4)})
        rebuilt = reorder_program(annotated, ordering_entries(annotated))
        assert rebuilt.actions == annotated.actions

    def test_blocking_collective_program_is_not_reorderable(self):
        from repro.actions import with_tp_sync

        _, _, _, program = build("gpipe")
        glued = with_tp_sync(program, {d: (d, d + 4) for d in range(4)},
                             64.0, 2.0)
        with pytest.raises(ValidationError, match="not +reorderable"):
            ordering_entries(glued)


class TestReorderValidation:
    def test_wrong_device_set_rejected(self):
        _, _, _, program = gpipe_p2()
        orders = ordering_entries(program)
        del orders[1]
        with pytest.raises(ValidationError, match="covers devices"):
            reorder_program(program, orders)

    def test_non_permutation_rejected(self):
        _, _, _, program = gpipe_p2()
        orders = ordering_entries(program)
        orders[0] = orders[0][:-1]  # drop one entry
        with pytest.raises(ValidationError, match="not a permutation"):
            reorder_program(program, orders)


class TestLegalityNegative:
    """Each illegal ordering yields its specific structured violation."""

    def test_device_set_violation(self):
        _, _, _, program = gpipe_p2()
        orders = ordering_entries(program)
        del orders[1]
        (v,) = check_ordering(program,
                              ScheduleOrdering.from_orders(program, orders))
        assert v.kind == "device-set"
        assert v.device == -1

    def test_missing_and_extra_op(self):
        _, _, _, program = gpipe_p2()
        ordering = ScheduleOrdering.from_program(program)
        entries = list(ordering.entries(0))
        entries[1] = entries[0]  # duplicate: one missing, one extra
        bad = ordering.replace_entries(0, entries)
        kinds = {v.kind for v in check_ordering(program, bad)}
        assert kinds == {"missing-op", "extra-op"}

    def test_dep_inversion(self):
        _, _, _, program = gpipe_p2()
        ordering = ScheduleOrdering.from_program(program)
        entries = list(ordering.entries(0))
        bw = next(e for e in entries if e[0] is OpKind.BACKWARD)
        entries.remove(bw)
        entries.insert(0, bw)
        violations = check_ordering(
            program, ordering.replace_entries(0, entries))
        assert violations
        v = violations[0]
        assert v.kind == "dep-inversion"
        assert v.kind in DEADLOCK_KINDS
        assert v.device == 0
        assert bw in v.subject

    def test_cross_device_cycle_with_witness(self):
        # d0: F0 B0 F1 B1 and d1: F0 F1 B1 B0 has no local inversion
        # but deadlocks: B0@d0 needs B0@d1, queued behind B1@d1, whose
        # F1@d1 needs F1@d0, queued behind B0@d0.
        _, _, _, program = gpipe_p2()
        F, B = OpKind.FORWARD, OpKind.BACKWARD
        bad = ScheduleOrdering.from_orders(program, {
            0: [(F, 0, 0), (B, 0, 0), (F, 1, 0), (B, 1, 0)],
            1: [(F, 0, 1), (F, 1, 1), (B, 1, 1), (B, 0, 1)],
        })
        (v,) = check_ordering(program, bad)
        assert v.kind == "cross-device-cycle"
        assert v.kind in DEADLOCK_KINDS
        assert "->" in v.message  # concrete witness path
        assert len(v.subject) >= 2
        # the witness is a genuine cycle: each hop is an order or
        # dataflow edge, and it closes
        assert set(v.subject) <= set(program.ops)

    def test_capacity_violation_names_the_allocation(self):
        res = StageResources(weight_bytes=(0.0, 0.0),
                             activation_bytes=(100.0, 100.0))
        _, _, _, program = gpipe_p2(resources=res)
        # all-forwards-first doubles the watermark: 2 live activations
        bad = gpipe_like_ordering(program)
        violations = check_ordering(program, bad, capacity_bytes=150)
        assert violations
        v = violations[0]
        assert v.kind == "capacity"
        assert v.kind in OOM_KINDS
        assert "watermark" in v.message
        # 1F1B order keeps one activation live per device: fits
        F, B = OpKind.FORWARD, OpKind.BACKWARD
        good = ScheduleOrdering.from_orders(program, {
            0: [(F, 0, 0), (B, 0, 0), (F, 1, 0), (B, 1, 0)],
            1: [(F, 0, 1), (B, 0, 1), (F, 1, 1), (B, 1, 1)],
        })
        assert not check_ordering(program, good, capacity_bytes=150)

    def test_static_residency_violation(self):
        res = StageResources(weight_bytes=(400.0, 400.0),
                             activation_bytes=(1.0, 1.0))
        _, _, _, program = gpipe_p2(resources=res)
        ordering = ScheduleOrdering.from_program(program)
        violations = check_ordering(program, ordering, capacity_bytes=300)
        assert {v.kind for v in violations} == {"capacity"}
        assert any("static residency" in v.message for v in violations)

    def test_collective_order_violation(self):
        _, _, _, program = build("dapple")
        annotated = with_gradient_sync(
            program, {d: (d, d + 4) for d in range(4)},
            {s: 64.0 for s in range(4)})
        ordering = ScheduleOrdering.from_program(annotated)
        entries = list(ordering.entries(0))
        coll = next(e for e in entries if not isinstance(e, tuple))
        entries.remove(coll)
        entries.insert(0, coll)  # posted before any backward
        bad = ordering.replace_entries(0, entries)
        violations = check_ordering(annotated, bad)
        assert violations
        v = violations[0]
        assert v.kind == "collective-order"
        assert v.kind not in DEADLOCK_KINDS | OOM_KINDS
        assert "finalizes its gradient" in v.message
        # ...and a misplaced bucket still *replays* (collectives never
        # block) — the violation is semantic, not a deadlock
        oracle = AbstractCosts(COMM, 4, 4)
        result = simulate_ordering(annotated, bad.to_orders(), oracle)
        assert result.makespan > 0

    def test_capacity_needs_resources(self):
        _, _, _, program = gpipe_p2()
        with pytest.raises(SchedulingError, match="resource-annotated"):
            LegalityChecker(program, capacity_bytes=100)

    def test_frontier_needs_resources(self):
        _, _, _, program = gpipe_p2()
        ordering = ScheduleOrdering.from_program(program).with_frontier(1)
        with pytest.raises(SchedulingError, match="recompute frontier"):
            check_ordering(program, ordering)


@pytest.mark.parametrize("prefetch", [True, False], ids=["pf", "nopf"])
class TestDeadlockReport:
    """Illegal-by-deadlock orderings fail loudly in both event cores,
    with a wait-cycle explanation — they must never hang."""

    def bad_program(self, prefetch):
        _, _, oracle, program = gpipe_p2(prefetch=prefetch)
        F, B = OpKind.FORWARD, OpKind.BACKWARD
        orders = {
            0: [(F, 0, 0), (B, 0, 0), (F, 1, 0), (B, 1, 0)],
            1: [(F, 0, 1), (F, 1, 1), (B, 1, 1), (B, 0, 1)],
        }
        return reorder_program(program, orders), oracle

    def test_lowered_core_reports_wait_cycle(self, prefetch):
        bad, oracle = self.bad_program(prefetch)
        with pytest.raises(SchedulingError) as err:
            execute_program(bad, oracle)
        assert "simulation deadlock" in str(err.value)
        assert "wait cycle" in str(err.value)
        assert "waits on" in str(err.value)

    def test_reference_core_raises_too(self, prefetch):
        bad, oracle = self.bad_program(prefetch)
        with pytest.raises(SchedulingError, match="deadlock"):
            execute_program_reference(bad, oracle)

    def test_contention_driver_reports_wait_cycle(self, prefetch):
        bad, oracle = self.bad_program(prefetch)
        run = RunConfig(prefetch=prefetch, batch_cross_comm=prefetch,
                        contention=True)
        with pytest.raises(SchedulingError, match="wait cycle"):
            execute_program(bad, oracle, run)

    def test_dep_inversion_reports_self_wait(self, prefetch):
        _, _, oracle, program = gpipe_p2(prefetch=True)
        ordering = ScheduleOrdering.from_program(program)
        entries = list(ordering.entries(0))
        bw = next(e for e in entries if e[0] is OpKind.BACKWARD)
        entries.remove(bw)
        entries.insert(0, bw)
        bad = reorder_program(
            program, ordering.replace_entries(0, entries).to_orders())
        with pytest.raises(SchedulingError, match="waits on d0"):
            execute_program(bad, oracle)


class TestVerdictMatchesReplay:
    """Legality verdict == replay behaviour, on targeted cases (the
    fuzz harness covers the breadth)."""

    def test_capacity_verdict_iff_oom(self):
        res = StageResources(weight_bytes=(0.0, 0.0),
                             activation_bytes=(100.0, 100.0))
        _, _, oracle, program = gpipe_p2(resources=res)
        bad = gpipe_like_ordering(program)
        assert {v.kind for v in
                check_ordering(program, bad, capacity_bytes=150)} \
            == {"capacity"}
        with pytest.raises(OutOfMemoryError):
            simulate_ordering(program, bad.to_orders(), oracle,
                              capacity_bytes=150)
        F, B = OpKind.FORWARD, OpKind.BACKWARD
        good = ScheduleOrdering.from_orders(program, {
            0: [(F, 0, 0), (B, 0, 0), (F, 1, 0), (B, 1, 0)],
            1: [(F, 0, 1), (B, 0, 1), (F, 1, 1), (B, 1, 1)],
        })
        assert not check_ordering(program, good, capacity_bytes=150)
        result = simulate_ordering(program, good.to_orders(), oracle,
                                   capacity_bytes=150)
        assert result.makespan > 0


class TestSearch:
    CONF = SearchConfig(seed=0, rounds=25, samples_per_round=16,
                        beam_width=4, patience=8, max_shift=4)

    def test_deterministic_same_seed(self):
        cfg = make_config("hanayo", 2, 4, num_waves=2)
        sched = build_schedule(cfg, COMM)
        oracle = AbstractCosts(COMM, 2, sched.num_stages)
        a = synthesize(sched, oracle, self.CONF, start="gpipe")
        b = synthesize(sched, oracle, self.CONF, start="gpipe")
        assert a.best.ordering == b.best.ordering
        assert a.best.makespan == b.best.makespan
        assert a.plan_key == b.plan_key
        assert ([s.mutation for s in a.best.provenance]
                == [s.mutation for s in b.best.provenance])

    def test_rediscovers_better_than_wave_start(self):
        """From a GPipe-disciplined start on Hanayo's placement, the
        search strictly beats the start — and here even the compiled
        hanayo-w2 family schedule (17.25 at this shape)."""
        cfg = make_config("hanayo", 2, 4, num_waves=2)
        sched = build_schedule(cfg, COMM)
        oracle = AbstractCosts(COMM, 2, sched.num_stages)
        compiled_makespan = simulate(sched, oracle).makespan
        conf = SearchConfig(seed=0, rounds=40, samples_per_round=24,
                            beam_width=4, patience=12, max_shift=6)
        res = synthesize(sched, oracle, conf, start="gpipe")
        assert res.improved
        assert res.best.makespan < res.start.makespan
        assert res.best.makespan <= compiled_makespan
        # provenance replays: applying the mutation path to the start
        # reproduces the best ordering exactly
        ordering = res.start.ordering
        for step in res.best.provenance:
            ordering = step.mutation.apply(ordering)
        assert ordering == res.best.ordering

    def test_never_worse_than_start(self):
        for scheme, kw in (("gpipe", {}), ("chimera", {}),
                           ("dapple", {})):
            cfg = make_config(scheme, 2, 4, **kw)
            sched = build_schedule(cfg, COMM)
            oracle = AbstractCosts(COMM, 2, sched.num_stages)
            res = synthesize(sched, oracle, self.CONF)
            assert res.best.makespan <= res.start.makespan

    def test_families_accepts_cost_factory(self):
        schedules = {}
        for scheme, kw in (("gpipe", {}), ("hanayo", {"num_waves": 2})):
            cfg = make_config(scheme, 2, 4, **kw)
            schedules[scheme] = build_schedule(cfg, COMM)
        results = synthesize_families(
            schedules,
            lambda s: AbstractCosts(COMM, 2, s.num_stages),
            SearchConfig(seed=0, rounds=5, samples_per_round=8,
                         beam_width=2, patience=3),
        )
        assert set(results) == set(schedules)
        for label, res in results.items():
            assert res.name == label
            assert res.best.feasible

    def test_illegal_start_raises(self):
        _, sched, oracle, program = gpipe_p2()
        ordering = ScheduleOrdering.from_program(program)
        entries = list(ordering.entries(0))
        bw = next(e for e in entries if e[0] is OpKind.BACKWARD)
        entries.remove(bw)
        entries.insert(0, bw)
        bad = ordering.replace_entries(0, entries)
        with pytest.raises(SynthesisError, match="dep-inversion"):
            synthesize(sched, oracle, self.CONF, start=bad)

    def test_capacity_cap_respected(self):
        res = StageResources(weight_bytes=(0.0, 0.0),
                             activation_bytes=(100.0, 100.0))
        cfg = make_config("gpipe", 2, 2)
        sched = build_schedule(cfg, COMM)
        oracle = AbstractCosts(COMM, 2, sched.num_stages)
        result = synthesize(sched, oracle, self.CONF, resources=res,
                            capacity_bytes=150)
        ctx = SynthesisContext(sched, oracle, resources=res,
                               capacity_bytes=150)
        assert ctx.evaluate(result.best.ordering) is not None


@pytest.mark.parametrize("seed", [0, 1])
class TestHeadlineSearches:
    """The two pinned searches at search seeds 0 and 1, against the
    compiled families and the e2e goldens (best makespan, candidates
    evaluated, plan key), plus each search's illegal count."""

    #: candidates each pinned search finds illegal
    ILLEGAL = {"rediscovery_hanayo/0": 567, "rediscovery_hanayo/1": 542,
               "beat_families/0": 1938, "beat_families/1": 1438}

    @staticmethod
    def _problem(scheme, b, **kw):
        sched = build_schedule(make_config(scheme, 4, b, **kw), COMM)
        return sched, AbstractCosts(COMM, 4, sched.num_stages)

    def _beat_families(self, seed):
        sched, oracle = self._problem("chimera", 6)
        conf = SearchConfig(seed=seed, rounds=150, samples_per_round=64,
                            beam_width=8, patience=30, max_shift=8)
        return synthesize(sched, oracle, conf)

    def _assert_trajectory(self, res, name):
        golden = GOLDEN_SEARCHES[name]
        assert (res.best.makespan, res.evaluated, res.plan_key) == (
            golden["best_makespan"], golden["evaluated"], golden["plan_key"])
        assert res.illegal == self.ILLEGAL[name]

    def test_rediscovers_compiled_hanayo(self, seed):
        """From a GPipe-disciplined start on Hanayo-2's placement at
        P = 4, B = 4 the search finds wave-style interleaving: at seed 0
        exactly as fast as the hand-designed hanayo-w2 schedule."""
        sched, oracle = self._problem("hanayo", 4, num_waves=2)
        conf = SearchConfig(seed=seed, rounds=60, samples_per_round=32,
                            beam_width=6, patience=16, max_shift=6)
        res = synthesize(sched, oracle, conf, start="gpipe")
        assert simulate(sched, oracle).makespan == 22.0
        assert res.best.makespan == {0: 22.0, 1: 22.5}[seed]
        self._assert_trajectory(res, f"rediscovery_hanayo/{seed}")

    def test_beats_every_compiled_family(self, seed):
        """Searching Chimera's placement at P = 4, B = 6, t_c = 0.25
        finds an ordering faster than every compiled family there (the
        best of which is hanayo-w2)."""
        compiled = {}
        for scheme, kw in ALL_SCHEMES:
            sched, oracle = self._problem(scheme, 6, **kw)
            compiled[scheme_id((scheme, kw))] = \
                simulate(sched, oracle).makespan
        assert min(compiled, key=compiled.get) == "hanayo-w2"
        assert compiled["hanayo-w2"] == 26.0
        res = self._beat_families(seed)
        assert res.best.makespan == {0: 22.25, 1: 23.75}[seed]
        assert res.best.makespan < min(compiled.values())
        self._assert_trajectory(res, f"beat_families/{seed}")

    def test_discarded_candidates_build_no_witness(self, seed, monkeypatch):
        """A mutated candidate's wait cycle is reported with the path
        the repair found, so the search never builds a key-space
        ``residual_cycle`` witness for a candidate it then discards."""
        from repro.synthesis import legality

        def no_witness(*args, **kwargs):
            raise AssertionError("residual_cycle called by the search")

        monkeypatch.setattr(legality, "residual_cycle", no_witness)
        self._assert_trajectory(self._beat_families(seed),
                                f"beat_families/{seed}")


class TestProposalStream:
    """A seeded walk of proposals over every operator family, pinned.

    The headline searches draw only swaps and shifts (their programs
    carry no collectives and no resources), so this walk — over a
    program with gradient-sync buckets, resources and a movable
    recompute frontier — is what pins ``reorder-collective`` and
    ``move-recompute`` draws, and every operator's index semantics.
    """

    #: digest of 300 ``(payload, frontier, decoded orders)`` draws
    DIGEST = ("66a6d7fa0ee468d883fc7a6ae517d358"
              "0eb08c6a03b127247f6cf1496fde270e")

    @staticmethod
    def _canon(entry):
        if isinstance(entry, CollectiveOp):
            return ("coll", entry.stage, entry.replica)
        return (entry[0].value, entry[1], entry[2])

    def test_walk_digest(self):
        from random import Random

        res = StageResources(weight_bytes=(0.0,) * 4,
                             activation_bytes=(100.0,) * 4,
                             boundary_bytes=10.0)
        _, _, _, program = build("dapple", batching=False, resources=res)
        program = with_gradient_sync(
            program, {d: (d, d + 4) for d in range(4)},
            {s: 64.0 for s in range(4)})
        rng = Random(2024)
        ordering = ScheduleOrdering.from_program(program, 4)
        digest = hashlib.sha256()
        kinds = set()
        for _ in range(300):
            mutation, ordering = propose_mutation(rng, program, ordering,
                                                  max_shift=4)
            kinds.add(mutation.kind)
            orders = ordering.to_orders()
            digest.update(repr((
                sorted(mutation.payload().items()),
                ordering.recompute_frontier,
                [(d, [self._canon(e) for e in orders[d]])
                 for d in sorted(orders)],
            )).encode())
        assert kinds == set(MUTATION_KINDS)
        assert digest.hexdigest() == self.DIGEST


class TestEntryIds:
    """A candidate's compute ids are the lowered plan's compute index."""

    @pytest.mark.parametrize("param", ALL_SCHEMES, ids=scheme_id)
    def test_ids_index_the_plans_computes(self, param):
        scheme, kw = param
        _, _, _, program = build(scheme, **kw)
        comp_keys = ExecutablePlan.lower(program).comp_keys
        ordering = ScheduleOrdering.from_program(program)
        for device, ids in zip(ordering.devices, ordering.seqs):
            assert [comp_keys[i] for i in ids] == list(
                ordering.entries(device))

    def test_foreign_entry_raises(self):
        _, _, _, program = gpipe_p2()
        foreign = (OpKind.FORWARD, 7, 0)
        with pytest.raises(SynthesisError, match=r"F\(m7,s0\)"):
            ScheduleOrdering.from_orders(program, {0: [foreign], 1: []})
        ordering = ScheduleOrdering.from_program(program)
        with pytest.raises(SynthesisError, match="not an ordering entry"):
            ordering.replace_entries(0, [foreign])


class TestSerialization:
    def _search(self, tmp_path):
        cfg = make_config("hanayo", 2, 4, num_waves=2)
        sched = build_schedule(cfg, COMM)
        oracle = AbstractCosts(COMM, 2, sched.num_stages)
        conf = SearchConfig(seed=3, rounds=20, samples_per_round=12,
                            beam_width=3, patience=8)
        res = synthesize(sched, oracle, conf, start="gpipe")
        payload = payload_for(res, cfg, COMM)
        path = save_schedule(tmp_path / "best.json", payload)
        return res, payload, path

    def test_round_trip_replays_consistently(self, tmp_path):
        res, payload, path = self._search(tmp_path)
        report = replay_payload(load_schedule(path))
        assert report.consistent
        assert report.makespan == res.best.makespan
        assert report.bubble_ratio == res.best.bubble_ratio
        assert report.plan_key == res.plan_key

    def test_payload_carries_provenance(self, tmp_path):
        res, payload, path = self._search(tmp_path)
        assert payload["seed"] == 3
        assert len(payload["provenance"]) == len(res.best.provenance)
        for raw, step in zip(payload["provenance"], res.best.provenance):
            assert raw["mutation"] == step.mutation.payload()

    def test_plan_key_mismatch_fails_loudly(self, tmp_path):
        _, payload, path = self._search(tmp_path)
        data = json.loads(path.read_text())
        data["plan_key"] = "0" * 64
        with pytest.raises(SynthesisError, match="plan key mismatch"):
            replay_payload(data)

    def test_unknown_format_rejected(self, tmp_path):
        _, payload, _ = self._search(tmp_path)
        payload = dict(payload, format=99)
        with pytest.raises(SynthesisError, match="format"):
            replay_payload(payload)

    def test_tampered_ordering_detected(self, tmp_path):
        """Editing the serialized ordering either breaks legality or
        changes the plan key — it can never silently replay."""
        _, payload, path = self._search(tmp_path)
        data = json.loads(path.read_text())
        entries = data["orders"]["0"]
        entries[0], entries[-1] = entries[-1], entries[0]
        with pytest.raises(SynthesisError):
            replay_payload(data)

    def test_infeasible_best_not_serializable(self):
        import dataclasses as dc

        cfg = make_config("gpipe", 2, 2)
        sched = build_schedule(cfg, COMM)
        oracle = AbstractCosts(COMM, 2, sched.num_stages)
        res = synthesize(sched, oracle,
                         SearchConfig(seed=0, rounds=2,
                                      samples_per_round=4, beam_width=2,
                                      patience=2))
        broken = dc.replace(
            res, best=dc.replace(res.best, makespan=float("inf")))
        with pytest.raises(SynthesisError, match="infeasible"):
            payload_for(broken, cfg, COMM)


class TestCli:
    def test_synthesize_command_and_replay(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "schedule.json"
        rc = main([
            "synthesize", "--scheme", "hanayo", "-w", "2", "-p", "2",
            "-b", "4", "--t-c", "0.25", "--start", "gpipe",
            "--rounds", "20", "--samples", "12", "--beam", "3",
            "--patience", "8", "--provenance", "-o", str(out),
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "synthesize[hanayo-w2]" in printed
        assert out.exists()
        rc = main(["synthesize", "--replay", str(out)])
        assert rc == 0
        assert "consistent" in capsys.readouterr().out

    def test_all_families_table(self, capsys):
        from repro.cli import main

        rc = main([
            "synthesize", "--all-families", "-p", "2", "-b", "4",
            "--t-c", "0.25", "--rounds", "5", "--samples", "8",
            "--beam", "2", "--patience", "3",
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "winner:" in printed
        assert "hanayo-w2" in printed


class TestValidationWitness:
    def test_check_executable_reports_concrete_cycle(self):
        from repro.schedules.validation import residual_cycle

        out = {"a": ["b"], "b": ["c"], "c": ["a"], "d": []}
        indeg = {"a": 1, "b": 1, "c": 1, "d": 0}
        cycle = residual_cycle(out, indeg)
        assert sorted(cycle) == ["a", "b", "c"]
        # consecutive hops are edges, and the cycle closes
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            assert y in out[x]

    def test_residual_cycle_empty_when_acyclic(self):
        from repro.schedules.validation import residual_cycle

        assert residual_cycle({"a": ["b"], "b": []},
                              {"a": 0, "b": 0}) == []
