"""One sweep request, one decode: argv, the served body and the library.

``repro sweep`` / ``repro query sweep`` options and the served
``/sweep`` body are rows of one table (``repro.sweep.spec.SWEEP_REQUEST``)
and reach the grid through one decoder (``SweepSpec.from_payload``).
The generative test sends each request — valid or not — down all three
roads and demands one outcome: an equal grid, or the same
``ConfigError``.
"""

from __future__ import annotations

import json
import re
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import make_parser, request_payload
from repro.errors import ConfigError
from repro.serve import queries
from repro.sweep.spec import SWEEP_REQUEST, SweepSpec
from repro.sweep.table import SweepTable

ROWS = {row.name: row for row in SWEEP_REQUEST}


def argv_for(request: dict) -> list[str]:
    """The ``repro sweep`` command line spelling ``request``."""
    argv = ["sweep"]
    for name, value in request.items():
        row = ROWS[name]
        flag = row.flags[-1]
        if value is None or value is False:
            continue
        if row.type is bool:
            argv.append(flag)
        elif row.type is tuple:
            argv += [flag, ",".join("x".join(map(str, layout))
                                    for layout in value)]
        elif isinstance(value, list):
            argv += [flag, *map(str, value)]
        else:
            argv += [flag, str(value)]
    return argv


def via_cli(request: dict) -> SweepSpec:
    args = make_parser().parse_args(argv_for(request))
    return SweepSpec.from_payload(request_payload(args, SWEEP_REQUEST))


def via_server(request: dict) -> SweepSpec:
    """``sweep_answer`` on the wire form, stopped before measuring."""
    grids = []
    with mock.patch.object(queries, "run_sweep",
                           lambda spec, **_: grids.append(spec)
                           or SweepTable()):
        queries.sweep_answer(json.loads(json.dumps(request)))
    return grids[0]


def outcome(road, request: dict):
    try:
        spec = road(request)
    except ConfigError as exc:
        return "error", str(exc)
    return "grid", (spec, spec.expand())


def lists(values, max_size=3):
    return st.lists(st.sampled_from(values), min_size=1, max_size=max_size)


def layouts(ps, ds, tps):
    return st.lists(st.tuples(st.sampled_from(ps), st.sampled_from(ds),
                              st.sampled_from(tps)).map(
        lambda t: [t[0], t[1], *t[2]]), min_size=1, max_size=2)


#: per field: (valid values, values the decoder refuses)
FIELDS = {
    "schemes": (lists(["gpipe", "dapple", "hanayo", "chimera", "Hanayo"],
                      max_size=2), st.just(["warp-drive"])),
    "cluster": (lists(["FC", "TACC", "pc"], max_size=2) | st.just("TC"),
                st.just(["XX"])),
    "models": (lists(["bert", "gpt", "tiny"], max_size=2),
               st.just(["resnet"])),
    "devices": (st.sampled_from([4, 8, 16]), st.sampled_from([0, 2])),
    "batches": (lists([4, 8, 16]), lists([-1, 0])),
    "layouts": (st.none() | layouts([2, 4, 8], [1, 2], [(), (1,), (2,)]),
                layouts([0, 32], [1], [(), (4,)])),
    "dp": (st.none() | lists([1, 2, 4]), lists([0, 64])),
    "tp": (lists([1, 2]), lists([0, 64])),
    "waves": (lists([1, 2, 4, 8]), st.just([0])),
    "target_microbatches": (st.none() | st.sampled_from([2, 4]),
                            st.sampled_from([-1, 0])),
    "overlap": (st.sampled_from(["simulated", "model", "Model"]),
                st.just("guess")),
    "capacity_gib": (st.none() | st.sampled_from([0.5, 40]),
                     st.sampled_from([-1.0, 0.0])),
    "contention": (st.booleans(), st.booleans()),
}


@st.composite
def requests(draw) -> dict:
    """A request: required fields plus a random subset of the optional
    ones, each now and then drawn from the values the decoder refuses
    (about a quarter of the examples decode to a grid)."""
    optional = draw(st.sets(st.sampled_from(
        [row.name for row in SWEEP_REQUEST if not row.required])))
    request = {}
    for row in SWEEP_REQUEST:
        if row.required or row.name in optional:
            good, bad = FIELDS[row.name]
            request[row.name] = draw(
                bad if draw(st.integers(0, 15)) == 0 else good)
    return request


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(requests())
def test_argv_wire_and_library_decode_alike(request):
    direct = outcome(SweepSpec.from_payload, request)
    assert outcome(via_cli, request) == direct
    assert outcome(via_server, request) == direct
    kind, detail = direct
    if kind == "error":
        # every refusal names one field of the request
        named = re.search(r"'(\w+)'", detail)
        assert named and named.group(1) in ROWS or re.search(
            r"unknown (\w+) ", detail), detail


@pytest.mark.parametrize("extra, field", [
    (["--dp", "0"], "dp"),
    (["--tp", "0", "2"], "tp"),
    (["--dp", "16"], "dp"),
    (["--tp", "16"], "tp"),
    (["-n", "2"], "devices"),
    (["--layouts", "16x1"], "layouts"),
    (["--layouts", "4x1x4"], "layouts"),     # TACC nodes hold 3 GPUs
    (["--clusters", "XX"], "cluster"),
    (["--overlap", "guess"], "overlap"),
])
def test_bad_grids_name_their_field(extra, field):
    args = make_parser().parse_args(["sweep", "--clusters", "TACC", *extra])
    with pytest.raises(ConfigError, match=rf"'{field}'|unknown {field} "):
        SweepSpec.from_payload(request_payload(args, SWEEP_REQUEST))


def test_tp_axis_derives_triples_on_every_road():
    request = {"schemes": ["hanayo"], "cluster": "TACC",
               "models": ["bert"], "devices": 8, "batches": [16],
               "tp": [1, 2]}
    spec = SweepSpec.from_payload(request)
    assert spec.layouts == ((8, 1, 1), (4, 2, 1), (4, 1, 2), (2, 2, 2))
    assert {p.tp for p in spec.expand()} == {1, 2}
    assert via_cli({**request, "cluster": ["TACC"]}) == spec
    assert via_server(request) == spec


def test_payload_defaults_are_the_cli_defaults():
    required = {row.name: row.default for row in SWEEP_REQUEST
                if row.required}
    assert SweepSpec.from_payload(required) == via_cli({})
