"""Every executor agrees with every other on one generated corpus.

The corpus is :func:`support.oracle.cases`, derandomized so two runs
draw the same examples and scaled by ``REPRO_SYNTH_FUZZ_N`` (CI runs
120); each case runs through
:func:`support.oracle.assert_executors_agree`, which also checks that
every capped lane ends as its capacity mode says (refused, aborted
mid-run, or fit).  The ``@example`` cases pin boundaries a random draw
reaches rarely; :data:`PINNED` names one case per cell of the family ×
flag matrices (core, random costs, mid-run OOM, capacity alone,
lanewise, contention, ties, collectives, hybrid TP), each its own
test, so a failure names its cell.  A drawn mode the drawn stage bytes
leave no room for is rejected; a pinned one fails.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import HealthCheck, example, given, reject, settings

from conftest import ALL_SCHEMES, scheme_id
from support.oracle import (N, ROUTES, Case, Lane, Unplaceable,
                            assert_executors_agree, cases)

#: four genuinely different cost tables (asymmetric, comm-dominated,
#: comm-free), so lockstep masking cannot hide behind equal lanes
VARIED = tuple(Lane(("config",) + c) for c in (
    (1.0, 2.0, 0.25), (1.3, 2.1, 0.1), (0.7, 1.9, 0.5), (1.0, 1.0, 0.0)))
#: one byte under each of four devices' own peaks (stage bytes of
#: ``resources=12`` put all of them above static residency)
UNDER_EACH_DEVICE = tuple(("under", d) for d in range(4))


def cell(preset, mult=1, mb=1):
    return Lane(("cell", preset, mult, 16, mb))


def _ties(seed: int) -> tuple[Lane, ...]:
    """Eight seeded cost tables, every other one on round numbers so
    wire grants tie across devices."""
    rng, lanes = Random(seed), []
    for k in range(8):
        lanes.append(Lane(("config", rng.uniform(0.5, 2.0),
                           rng.uniform(1.0, 3.0), rng.uniform(0.05, 1.5))
                          if k % 2 else
                          ("config", 1.0, rng.choice((1.0, 2.0)),
                           rng.choice((0.25, 0.5, 1.0)))))
    return tuple(lanes)


def _pinned():
    flags = [(pf, batch, f"{'batch' if batch else 'nobatch'}-"
              f"{'pf' if pf else 'nopf'}")
             for batch in (True, False) for pf in (True, False)]
    for i, (scheme, kw) in enumerate(ALL_SCHEMES):
        name, w = scheme_id((scheme, kw)), kw.get("num_waves", 1)
        for pf, batch, tag in flags:
            for contention in (False, True):
                yield (f"core-{name}-{tag}-"
                       f"{'timeord' if contention else 'greedy'}",
                       Case(scheme, 4, 4, (VARIED[0],), w=w, prefetch=pf,
                            batching=batch, contention=contention,
                            resources=0))
            # zero-time pairs, ties and blocked devices, eight lanes wide
            yield (f"random-costs-{name}-{tag}",
                   Case(scheme, 4, 4, tuple(Lane(("random", s, True))
                                            for s in range(8)),
                        w=w, prefetch=pf, batching=batch, contention=True,
                        resources=i))
            # mid-run aborts: which device violates first, at what
            # watermark; one byte under each device's own peak makes
            # every higher-peaked device a candidate violator too
            yield (f"random-oom-{name}-{tag}",
                   Case(scheme, 4, 8, tuple(
                       Lane(("random", 2, True), cap) for cap in
                       (0.2, 0.5, 0.8, "fit") + UNDER_EACH_DEVICE),
                        w=w, prefetch=pf, batching=batch, contention=True,
                        resources=12))
        for pf in (True, False):
            tag = f"{name}-{'pf' if pf else 'nopf'}"
            yield (f"lanewise-{tag}",
                   Case(scheme, 4, 4, VARIED, w=w, prefetch=pf))
            yield (f"alone-{tag}",
                   Case(scheme, 4, 4, (VARIED[i % 4],), w=w, prefetch=pf))
            yield (f"contention-narrow-{tag}",
                   Case(scheme, 4, 4, VARIED, w=w, prefetch=pf,
                        contention=True))
            yield (f"contention-driver-{tag}",
                   Case(scheme, 4, 4, VARIED * 2, w=w, prefetch=pf,
                        contention=True))
            yield (f"contention-ties-{tag}",
                   Case(scheme, 4, 4, _ties(2 * sum(map(ord, scheme)) + pf),
                        w=w, prefetch=pf, contention=True))
    mixed = tuple(Lane(c.costs, cap) for c, cap in
                  zip(VARIED, ("fit", 0.8, "fit", 0.8)))
    yield "capacity-mixed", Case("dapple", 4, 4, mixed, resources=0)
    yield "capacity-uncapped-ride-along", Case(
        "dapple", 4, 4, tuple(Lane(c.costs, cap) for c, cap in
                              zip(VARIED, ("none", "static") * 2)),
        resources=0)
    # static refusal, mid-run abort, a fit and no cap, one lane alone
    for scheme, w in (("dapple", 1), ("hanayo", 2)):
        for k, lane in enumerate(VARIED):
            for cap in ("one", "under", "fit", "none"):
                yield f"capacity-alone-{scheme}-w{w}-{k}-{cap}", Case(
                    scheme, 4, 4, (Lane(lane.costs, cap),), w=w,
                    resources=0)
    for preset in ("FC", "TACC", "PC"):
        sizes = (cell(preset, 1, mb=2), cell(preset, 2, mb=2))
        yield f"dp-rings-{preset}", Case("hanayo", 4, 4, sizes,
                                         layout=(1, 2))
        yield f"dp-rings-alone-{preset}", Case("hanayo", 4, 4, sizes[:1],
                                               layout=(1, 2))
        yield f"dp-rings-contention-{preset}", Case(
            "hanayo", 4, 4, sizes, contention=True, layout=(1, 2))
        # wave interleaving whose wire grants leave structural order
        yield f"dp-rings-waves-contention-{preset}", Case(
            "hanayo", 4, 4, sizes, w=2, contention=True, layout=(1, 2))
    for n in (1, 5):
        yield f"ragged-N{n}", Case("interleaved", 4, 4,
                                   (VARIED * 2)[:n], w=2)
    yield "contention-batched-p2p-dapple", Case(
        "dapple", 4, 4, VARIED * 2, batching=True, contention=True)
    yield "contention-recompute-mixed-hanayo-w2", Case(
        "hanayo", 4, 4, tuple(Lane(c.costs, recompute=k == 5)
                              for k, c in enumerate(VARIED * 2)),
        w=2, contention=True, resources=0)
    oom = tuple(Lane(c.costs, cap) for c, cap in
                zip(VARIED, ("static", 0.8, "none", "fit")))
    yield "contention-oom-narrow-hanayo-w2", Case(
        "hanayo", 4, 4, oom, w=2, contention=True, resources=0)
    # mixed verdicts in one contention batch (static refusal, mid-run
    # abort, fits) over recompute-toggled congruent programs; a full
    # recompute here peaks at static residency, so no mid-run lane
    yield "contention-oom-driver-hanayo-w2", Case(
        "hanayo", 4, 4, tuple(Lane(lane.costs, lane.cap,
                                   k >= 4 and lane.cap != 0.8)
                              for k, lane in enumerate(oom * 2)),
        w=2, contention=True, resources=0)
    yield "contention-oom-recompute-dapple", Case(
        "dapple", 4, 8, tuple(Lane(VARIED[k % 4].costs, cap, k >= 4)
                              for k, cap in enumerate(
                                  ("static", 0.5, "none", "fit") * 2)),
        contention=True, resources=0)
    yield "contention-zero-time-hanayo-w2", Case(
        "hanayo", 4, 4, VARIED[:3] + (Lane(("random", 1, True)),), w=2,
        contention=True)
    yield "congruent-recompute-toggle", Case(
        "dapple", 4, 4, tuple(Lane(c.costs, recompute=k % 2 == 1)
                              for k, c in enumerate(VARIED)), resources=0)
    yield "congruent-mem-verdicts", Case(
        "dapple", 4, 4, (Lane(VARIED[0].costs, "fit"),
                         Lane(VARIED[1].costs, 0.8, True)), resources=0)
    for tp in (2, 4):
        for d in (1, 2):
            yield f"hybrid-tp{tp}-dp{d}", Case(
                "dapple", 2, 4, (cell("FC"), cell("FC", 2)), layout=(tp, d))
    for d in (1, 2):
        yield f"hybrid-alone-dp{d}", Case("dapple", 2, 4, (cell("FC"),),
                                          layout=(2, d))
    for scheme in ("gpipe", "hanayo", "chimera-wave"):
        for contention in (False, True):
            yield (f"dp-tp-{scheme}-{'timeord' if contention else 'greedy'}",
                   Case(scheme, 2, 4, (cell("FC"),), contention=contention,
                        layout=(2, 2)))


PINNED = dict(_pinned())


@pytest.mark.parametrize("case", PINNED.values(), ids=PINNED.keys())
def test_pinned_case_agrees(case):
    assert_executors_agree(case)


def test_executors_agree_and_every_route_is_reached():
    seen: set[str] = set()

    @settings(max_examples=6 * N, derandomize=True, database=None,
              deadline=None, suppress_health_check=list(HealthCheck))
    @given(case=cases())
    # hanayo-w2 DP rings on shared-link clusters: wire grants reorder
    # against structural order, so the contention driver splits
    @example(Case("hanayo", 4, 4, w=2, contention=True, layout=(1, 2),
                  lanes=tuple(cell(preset, mult) for mult in (1, 2)
                              for preset in ("FC", "TACC", "PC", "TC"))))
    # one zero-time lane among wire-contending ones leaves the driver
    @example(Case("hanayo", 4, 4, w=2, contention=True,
                  lanes=(Lane(("random", 1, True)),) + VARIED + VARIED[:3]))
    # a structural deadlock, wide enough for the contention driver
    @example(Case("gpipe", 4, 4, resources=0, contention=True,
                  deadlock=True, lanes=VARIED * 2))
    def agree(case):
        try:
            seen.update(assert_executors_agree(case))
        except Unplaceable:
            reject()  # the drawn stage bytes leave the mode no room

    agree()
    assert ROUTES <= seen, sorted(ROUTES - seen)
