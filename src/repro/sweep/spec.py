"""Declarative sweep specifications, and the one sweep request.

A :class:`SweepSpec` names a full cartesian grid of throughput
measurements — schemes × clusters × models × (P, D) layouts × total
batch sizes, with the wave dimension searched automatically for Hanayo
— and :meth:`SweepSpec.expand` lowers it to concrete
:class:`SweepPoint`\\ s, one per ``measure_throughput`` invocation.

The expansion owns the Sec. 5.3 **fairness rule**: every grid cell must
process exactly the same number of sequences so throughputs are
comparable.  :func:`split_batch` therefore rejects layouts whose
data-parallel degree does not divide the total batch, and rebalances
the micro-batch count to an exact divisor of the per-pipeline batch
instead of silently dropping remainder sequences.

A sweep *request* — the ``repro sweep`` and ``repro query sweep``
options and the served ``/sweep`` body — is described once, by the
:data:`SWEEP_REQUEST` table of :class:`RequestField` rows (advise's
:data:`ADVISE_REQUEST` shares its rows).  :func:`decode_request` is the
strict decode over such a table, and :meth:`SweepSpec.from_payload`
lowers a sweep request to its grid, so the CLI and the server expand
the same cells.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..analysis.result import OVERLAP_MODES
from ..config import KNOWN_CLUSTERS, KNOWN_SCHEMES
from ..errors import ConfigError
from ..models.spec import ModelSpec
from ..models.zoo import MODELS

if TYPE_CHECKING:
    from ..cluster.presets import Cluster

#: wave counts the paper explores (H-2 / H-4 / H-8 in Fig. 9)
DEFAULT_WAVES = (1, 2, 4, 8)

#: schemes that run micro-batches in two directions and therefore need
#: an even micro-batch count
BIDIRECTIONAL_SCHEMES = ("chimera", "chimera-wave", "gems")

#: the configuration-search scheme set (paper Sec. 5.3): what advise
#: ranks, and what a sweep compares unless told otherwise
SEARCH_SCHEMES = ("gpipe", "dapple", "chimera-wave", "hanayo")


def layouts_for(devices: int, min_pipeline: int = 4) -> tuple[tuple[int, int], ...]:
    """(P, D) combinations the paper searches at a device count."""
    opts = []
    p = devices
    while p >= min_pipeline:
        opts.append((p, devices // p))
        p //= 2
    return tuple(opts)


def feasible_waves(model: ModelSpec, p: int,
                   waves: tuple[int, ...] = DEFAULT_WAVES) -> list[int]:
    """Wave counts with at least one layer per stage.

    >>> from repro.models import bert_64
    >>> feasible_waves(bert_64(), 8)     # W=8 would need 128 stages
    [1, 2, 4]
    """
    total_layers = model.num_layers + 2  # embedding + head
    return [w for w in waves if 2 * w * p <= total_layers]


def split_batch(total_batch: int, d: int, p: int, scheme: str,
                target_microbatches: int | None = None) -> tuple[int, int] | None:
    """(num_microbatches, microbatch_size) for one pipeline shard.

    Enforces the Sec. 5.3 fairness rule: a cell is only valid when its
    ``D`` pipelines can each process exactly ``total_batch / D``
    sequences, split into micro-batches with **no remainder** — so
    every searched cell does identical work and throughputs compare.

    Returns ``None`` when the layout cannot host the batch fairly:
    ``D`` does not divide the total batch, there are fewer sequences
    than pipelines, or a bidirectional scheme cannot get an even
    micro-batch count.

    The micro-batch count ``b`` is the largest divisor of the
    per-pipeline batch that does not exceed the target (``P`` by
    default, the paper's ``B = P`` regime), rather than a blunt
    ``min(per_pipeline, target)`` that could drop sequences:

    >>> split_batch(16, 2, 4, "dapple")      # 8 per pipeline, B = P
    (4, 2)
    >>> split_batch(48, 2, 4, "dapple", target_microbatches=16)
    (12, 2)
    >>> split_batch(1, 2, 4, "dapple") is None   # fewer seqs than shards
    True
    >>> split_batch(10, 4, 4, "dapple") is None  # 4 does not divide 10
    True
    >>> split_batch(6, 2, 4, "chimera") is None  # odd per-pipeline batch
    True
    >>> split_batch(12, 2, 4, "chimera")         # even split exists
    (2, 3)
    """
    if d < 1 or total_batch < d or total_batch % d:
        return None
    per_pipeline = total_batch // d
    target = target_microbatches if target_microbatches else p
    need_even = scheme in BIDIRECTIONAL_SCHEMES
    for b in range(min(per_pipeline, target), 0, -1):
        if per_pipeline % b:
            continue
        if need_even and b % 2:
            continue
        return b, per_pipeline // b
    return None


# -- the request table ---------------------------------------------------------


def parse_layouts(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse ``"8x1,4x1x2"`` into ``((8, 1), (4, 1, 2))``: a third
    component pins a cell's TP degree, exempt from the ``tp`` cross."""
    layouts = []
    for token in text.split(","):
        parts = token.lower().strip().split("x")
        if (len(parts) not in (2, 3)
                or not all(t.strip().isdigit() for t in parts)):
            raise ConfigError(
                f"bad layout {token!r}; expected PxD pairs like 8x1,4x2 "
                "(or PxDxTP triples)"
            )
        layouts.append(tuple(int(t) for t in parts))
    return tuple(layouts)


@dataclass(frozen=True)
class RequestField:
    """One field of a request: its wire name (also the CLI's ``dest``),
    its CLI flags, and the values it takes.

    ``type`` is the element type: ``int``, ``float``, ``str``, ``bool``,
    or ``tuple`` for one ``[P, D]`` / ``[P, D, TP]`` layout (``PxD`` or
    ``PxDxTP`` on the command line).  ``many`` makes the field a
    non-empty list of elements, and a bare element reads as a list of
    one.  ``default`` is the CLI's default and, unless ``required``,
    the payload's; ``null`` is accepted only where the default is
    ``None``.  Numbers, layout entries included, must be positive, and
    ``choices`` match case-insensitively.
    """

    name: str
    flags: tuple[str, ...]
    type: type
    default: object = None
    many: bool = False
    required: bool = False
    choices: tuple[str, ...] | None = None
    help: str | None = None

    def check(self, value, label: str):
        """``value`` normalized — lists become tuples, names their
        canonical spelling, numbers of a float field floats — or a
        :class:`ConfigError` naming ``label``."""
        if value is None and self.default is None:
            return None
        if isinstance(value, str) and self.type is tuple:
            value = parse_layouts(value)
        items = (value if self.many and isinstance(value, (list, tuple))
                 else (value,))
        types = {float: (int, float), tuple: (list, tuple)}.get(
            self.type, self.type)
        if not items or any(isinstance(v, bool) is not (self.type is bool)
                            or not isinstance(v, types) for v in items):
            raise ConfigError(
                f"{label} must be {self._expected()}, got {value!r}")
        items = tuple(self._element(v, label, value) for v in items)
        return items if self.many else items[0]

    def _element(self, item, label: str, value):
        if self.choices is not None:
            names = {choice.lower(): choice for choice in self.choices}
            if item.lower() not in names:
                raise ConfigError(
                    f"unknown {self.name.removesuffix('s')} {item!r} in "
                    f"{label}; expected one of {list(self.choices)}")
            return names[item.lower()]
        if self.type is tuple:
            if len(item) not in (2, 3) or any(
                    isinstance(v, bool) or not isinstance(v, int) or v < 1
                    for v in item):
                raise ConfigError(
                    f"bad layout {list(item)!r} in {label}; want [P, D] "
                    "or [P, D, TP] of positive integers")
            return tuple(item)
        if self.type in (int, float) and item <= 0:
            raise ConfigError(
                f"{label} must be {self._expected()}, got {value!r}")
        return float(item) if self.type is float else item

    def _expected(self) -> str:
        noun = {str: "name", bool: "boolean", tuple: "layout",
                float: "positive number", int: "positive integer"}[self.type]
        return f"a non-empty list of {noun}s" if self.many else f"a {noun}"


#: a sweep request: the ``repro sweep`` / ``repro query sweep`` options
#: and the served ``/sweep`` body, one row per field
SWEEP_REQUEST = (
    RequestField("schemes", ("--schemes",), str, SEARCH_SCHEMES, many=True,
                 required=True, choices=KNOWN_SCHEMES,
                 help="pipeline schemes to compare"),
    RequestField("cluster", ("--clusters",), str, ("TACC",), many=True,
                 required=True, choices=KNOWN_CLUSTERS,
                 help="cluster presets to evaluate on"),
    RequestField("models", ("--model",), str, ("bert",), many=True,
                 required=True, choices=tuple(MODELS),
                 help="models to evaluate"),
    RequestField("devices", ("-n", "--devices"), int, 8, required=True,
                 help="devices in each cluster"),
    RequestField("batches", ("--batch",), int, (16,), many=True,
                 required=True, help="total batch size(s) to sweep"),
    RequestField("layouts", ("--layouts",), tuple, many=True,
                 help="PxD pairs like 8x1,4x2, or PxDxTP triples; each "
                      "must fit the cluster (default: every P >= 4 split "
                      "of -n)"),
    RequestField("dp", ("--dp",), int, many=True,
                 help="data-parallel widths to sweep (derives P from -n; "
                      "overridden by --layouts)"),
    RequestField("tp", ("--tp",), int, (1,), many=True,
                 help="tensor-parallel degrees (TP > 1 runs the hybrid "
                      "harness); crossed with explicit PxD layouts"),
    RequestField("waves", ("--waves",), int, DEFAULT_WAVES, many=True,
                 help="wave counts searched for hanayo"),
    RequestField("target_microbatches", ("--target-microbatches",), int,
                 help="preferred micro-batch count per pipeline (default: P)"),
    RequestField("overlap", ("--overlap",), str, "simulated",
                 choices=OVERLAP_MODES,
                 help="gradient-sync accounting: event-core measured "
                      "overlap (default) or the analytic closed form"),
    RequestField("capacity_gib", ("--capacity-gib",), float,
                 help="override per-device memory for OOM verdicts "
                      "(what-if smaller/larger cards)"),
    RequestField("contention", ("--contention",), bool, False,
                 help="serialize transfers sharing a device pair "
                      "(contended lanes still batch via the contention "
                      "driver)"),
)

_ROW = {row.name: row for row in SWEEP_REQUEST}

#: an advise request (``repro advise``, ``repro query advise``, the
#: served ``/advise`` body): one value of the sweep's grid fields, plus
#: what advise adds — the ``dp`` filter and ``top``
ADVISE_REQUEST = (
    replace(_ROW["cluster"], flags=("--cluster",), default="TACC",
            many=False, help="cluster preset"),
    replace(_ROW["models"], name="model", flags=("--model",),
            default="bert", many=False, help="model"),
    _ROW["devices"],
    replace(_ROW["batches"], name="batch", default=16, many=False,
            help="total batch size"),
    replace(_ROW["tp"], default=1, many=False,
            help="tensor-parallel degree (hybrid layouts)"),
    replace(_ROW["dp"], help="restrict the data-parallel widths searched"),
    RequestField("top", ("--top",), int, 10,
                 help="rows of the ranking to return"),
    _ROW["capacity_gib"],
    _ROW["contention"],
)


def decode_request(payload, fields: tuple[RequestField, ...]) -> dict:
    """The strict decode of a request payload over its field table.

    Unknown fields, missing required fields, wrong types (``bool`` as
    a number included) and out-of-range values are each a
    :class:`ConfigError` naming the field.  Returns every field by wire
    name, normalized, with defaults filled in.
    """
    if not isinstance(payload, dict):
        raise ConfigError(
            f"query must be a JSON object, got {type(payload).__name__}")
    names = [row.name for row in fields]
    extra = sorted(set(payload) - set(names))
    if extra:
        raise ConfigError(
            f"unknown query field(s) {extra}; expected a subset of "
            f"{sorted(names)}")
    decoded = {}
    for row in fields:
        if row.name in payload:
            value = payload[row.name]
        elif row.required:
            raise ConfigError(
                f"query is missing required field {row.name!r}")
        else:
            value = row.default
        decoded[row.name] = row.check(value, f"query field {row.name!r}")
    return decoded


def _fits(cluster: Cluster, p: int, d: int, tp: int) -> bool:
    return tp * p * d <= cluster.num_devices and tp <= cluster.gpus_per_node


@dataclass(frozen=True)
class SweepPoint:
    """One concrete measurement: a cell of the expanded sweep grid.

    ``cluster_index`` / ``model_index`` refer back into the owning
    spec's tuples, keeping points small and hashable.
    """

    scheme: str
    cluster_index: int
    model_index: int
    p: int
    d: int
    w: int
    num_microbatches: int
    microbatch_size: int
    total_batch: int
    tp: int = 1


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid of throughput measurements.

    Attributes
    ----------
    schemes:
        Pipeline schemes to evaluate (see ``repro.config.KNOWN_SCHEMES``).
    clusters:
        :class:`~repro.cluster.presets.Cluster` objects to evaluate on.
    models:
        :class:`~repro.models.spec.ModelSpec` objects to evaluate.
    layouts:
        ``(P, D)`` pairs — pipeline depth × data-parallel width — or
        ``(P, D, TP)`` triples that pin a cell to one tensor-parallel
        degree.  Pairs are crossed with every ``tensor_parallel``
        degree; triples are not (:meth:`from_payload`'s ``dp``/``tp``
        layout derivation uses triples so each degree gets exactly the
        pipeline depth that fills the cluster).
    total_batches:
        Total sequences per iteration for the whole job; each layout
        splits a total batch per the Sec. 5.3 fairness rule.
    waves:
        Wave counts searched for Hanayo (other schemes run ``W = 1``).
    tensor_parallel:
        Tensor-parallel degrees to cross with every layout (default:
        TP = 1 only).  Cells with TP > 1 run through the hybrid
        harness; layouts whose ``TP * P * D`` exceeds a cluster, or
        whose TP degree exceeds the node size, are skipped (or raise,
        per ``skip_oversized``).
    target_microbatches:
        Preferred micro-batch count per pipeline (default: ``P``).
    overlap / enforce_memory / capacity_bytes:
        Forwarded to ``measure_throughput``.  ``overlap`` selects how
        gradient-sync time is charged: ``"simulated"`` (measured from
        compiled collectives by the event core) or ``"model"`` (the
        analytic closed-form fallback).  ``capacity_bytes`` overrides
        each cluster device's memory for capacity what-ifs (the
        ``repro sweep --capacity-gib`` knob); ``None`` uses the
        device's own capacity.
    contention:
        Arbitrate shared links during simulation (the ``repro sweep
        --contention`` knob).  Contended cells still batch, through the
        runtime's wire-exact contention driver.
    skip_oversized:
        When true (the default), layouts that do not fit a cluster are
        silently dropped — useful for one spec spanning clusters of
        different sizes.  When false, :meth:`expand` raises
        :class:`~repro.errors.ConfigError` instead.

    >>> from repro.cluster import make_fc
    >>> from repro.models import tiny_model
    >>> spec = SweepSpec(schemes=("gpipe", "hanayo"),
    ...                  clusters=(make_fc(4),),
    ...                  models=(tiny_model(num_layers=16),),
    ...                  layouts=((4, 1),), total_batches=(8,),
    ...                  waves=(1, 2))
    >>> points = spec.expand()
    >>> [(pt.scheme, pt.w) for pt in points]   # waves searched for Hanayo
    [('gpipe', 1), ('hanayo', 1), ('hanayo', 2)]
    >>> points[0].num_microbatches, points[0].microbatch_size
    (4, 2)
    """

    schemes: tuple[str, ...]
    clusters: tuple[Cluster, ...]
    models: tuple[ModelSpec, ...]
    layouts: tuple[tuple[int, int], ...]
    total_batches: tuple[int, ...]
    waves: tuple[int, ...] = DEFAULT_WAVES
    tensor_parallel: tuple[int, ...] = (1,)
    target_microbatches: int | None = None
    overlap: str = "simulated"
    enforce_memory: bool = True
    capacity_bytes: int | None = None
    contention: bool = False
    skip_oversized: bool = True

    def __post_init__(self) -> None:
        for name in ("clusters", "models"):
            if not getattr(self, name):
                raise ConfigError(f"sweep spec has empty {name}")
        # the request table's rows bound the grid axes they fill
        for attr, row in (("schemes", "schemes"), ("layouts", "layouts"),
                          ("total_batches", "batches"), ("waves", "waves"),
                          ("tensor_parallel", "tp"),
                          ("target_microbatches", "target_microbatches"),
                          ("overlap", "overlap")):
            object.__setattr__(self, attr, _ROW[row].check(
                getattr(self, attr), f"sweep spec {attr}"))
        if self.capacity_bytes is not None and self.capacity_bytes < 1:
            raise ConfigError("capacity_bytes must be >= 1 (or None)")

    @classmethod
    def from_payload(cls, payload) -> "SweepSpec":
        """The grid a sweep request (:data:`SWEEP_REQUEST`) asks for: the
        one decode behind ``repro sweep``, ``repro query sweep`` and the
        served ``/sweep``.

        Layouts default to every ``P >= 4`` split of ``devices``.  With
        ``dp``, or a TP degree above 1, each DP width (every width that
        default yields, when ``dp`` is omitted) is paired per TP degree
        with the deepest pipeline that exactly fills the cluster — ``(P,
        D, TP)`` triples, so a depth derived for one degree is not
        re-crossed with the others.  Explicit ``layouts`` must each fit
        every cluster.

        >>> spec = SweepSpec.from_payload({
        ...     "schemes": ["hanayo"], "cluster": "tacc", "models": ["bert"],
        ...     "devices": 8, "batches": [16], "tp": [1, 2]})
        >>> spec.layouts
        ((8, 1, 1), (4, 2, 1), (4, 1, 2), (2, 2, 2))
        """
        from ..cluster.presets import get_cluster

        request = decode_request(payload, SWEEP_REQUEST)
        devices = request["devices"]
        dps, tps = request["dp"], tuple(dict.fromkeys(request["tp"]))
        clusters = tuple(get_cluster(name, devices)
                         for name in request["cluster"])
        layouts = request["layouts"]
        if layouts is not None:
            for layout in layouts:
                p, d, tp = (*layout, 1)[:3]
                for cluster in clusters:
                    if not _fits(cluster, p, d, tp):
                        raise ConfigError(
                            f"query field 'layouts': layout "
                            f"{'x'.join(map(str, layout))} exceeds cluster "
                            f"{cluster.name} ({cluster.num_devices} "
                            f"devices, {cluster.gpus_per_node} per node)")
        else:
            layouts = layouts_for(devices)
            hybrid = any(t > 1 for t in tps)
            if dps or hybrid:
                widths = dps or tuple(dict.fromkeys(d for _p, d in layouts))
                layouts = tuple(sorted(
                    {(devices // (d * t), d, t) for d in widths for t in tps
                     if devices % (d * t) == 0
                     and devices // (d * t) >= 2},
                    reverse=True,
                ))
            if not layouts:
                field = "dp" if dps else "tp" if hybrid else "devices"
                raise ConfigError(
                    f"query field {field!r}: no (P, D) layout fits "
                    f"{devices} devices with dp {list(dps or ())} and tp "
                    f"{list(tps)}")
        capacity = request["capacity_gib"]
        return cls(
            schemes=request["schemes"],
            clusters=clusters,
            models=tuple(MODELS[name]() for name in request["models"]),
            layouts=layouts,
            total_batches=request["batches"],
            waves=request["waves"],
            tensor_parallel=tps,
            target_microbatches=request["target_microbatches"],
            overlap=request["overlap"],
            capacity_bytes=(None if capacity is None
                            else int(capacity * 2**30)),
            contention=request["contention"],
        )

    def expand(self) -> list[SweepPoint]:
        """Lower the grid to feasible :class:`SweepPoint` s, in a
        deterministic order (clusters, models, schemes, batches,
        layouts, TP degrees, waves — slowest to fastest)."""
        points: list[SweepPoint] = []
        for ci, cluster in enumerate(self.clusters):
            for mi, model in enumerate(self.models):
                for scheme in self.schemes:
                    for total_batch in self.total_batches:
                        for layout in self.layouts:
                            p, d = layout[0], layout[1]
                            tp_options = (
                                (layout[2],) if len(layout) == 3
                                else self.tensor_parallel
                            )
                            for tp in tp_options:
                                points.extend(self._expand_cell(
                                    ci, cluster, mi, model, scheme,
                                    total_batch, p, d, tp,
                                ))
        return points

    def _expand_cell(self, ci, cluster, mi, model, scheme,
                     total_batch, p, d, tp) -> list[SweepPoint]:
        if not _fits(cluster, p, d, tp):
            if self.skip_oversized or tp > 1:
                # TP degrees are a crossed axis: a degree that does not
                # fit one layout may fit the next, so oversized hybrid
                # cells are always dropped rather than fatal.
                return []
            raise ConfigError(
                f"layout ({p},{d}) exceeds cluster {cluster.name}"
            )
        shape = split_batch(total_batch, d, p, scheme,
                            self.target_microbatches)
        if shape is None:
            return []
        b, mb_size = shape
        wave_options = (feasible_waves(model, p, self.waves)
                        if scheme == "hanayo" else [1])
        return [
            SweepPoint(
                scheme=scheme, cluster_index=ci, model_index=mi,
                p=p, d=d, w=w, num_microbatches=b,
                microbatch_size=mb_size, total_batch=total_batch,
                tp=tp,
            )
            for w in wave_options
        ]

    def describe(self) -> str:
        return (f"sweep[{'/'.join(self.schemes)} on "
                f"{'/'.join(c.name for c in self.clusters)} x "
                f"{'/'.join(m.name for m in self.models)}; "
                f"{len(self.layouts)} layouts, "
                f"batches {'/'.join(map(str, self.total_batches))}]")
