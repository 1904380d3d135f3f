"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``gallery``   render a scheme's schedule as an ASCII Gantt chart
``simulate``  simulate a configuration and print bubble/makespan stats
``advise``    search (scheme, P, D, W) for a model on a cluster
``serve``     long-lived advisor daemon over hot caches (repro.serve)
``query``     client for a running ``repro serve`` daemon
``sweep``     parallel, cached multi-scheme grid sweep (repro.sweep)
``trace``     export a simulated schedule as a Chrome/Perfetto trace
``train``     run a real (NumPy) pipeline training step and verify it
"""

from __future__ import annotations

import argparse
import sys

from .config import KNOWN_CLUSTERS, CostConfig, PipelineConfig
from .errors import ConfigError, ReproError
from .models.zoo import MODELS
from .sweep.spec import ADVISE_REQUEST, SWEEP_REQUEST, decode_request


def _add_request_args(p: argparse.ArgumentParser, fields) -> None:
    """One option per row of a request table (``repro.sweep.spec``)."""
    for row in fields:
        if row.type is bool:
            p.add_argument(*row.flags, dest=row.name, action="store_true",
                           help=row.help)
            continue
        # choices and bounds are the decoder's to check, so a bad value
        # is the same ConfigError from argv as from a served payload
        p.add_argument(
            *row.flags, dest=row.name, default=row.default,
            type=str if row.type is tuple else row.type,
            nargs="+" if row.many and row.type is not tuple else None,
            metavar="{%s}" % ",".join(row.choices) if row.choices else None,
            help=row.help)


def request_payload(args, fields) -> dict:
    """The request payload a parsed command line spells."""
    return {row.name: getattr(args, row.name) for row in fields}


def _add_shape_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", default="hanayo",
                   help="pipeline scheme (default: hanayo)")
    p.add_argument("-p", "--devices", type=int, default=4)
    p.add_argument("-b", "--microbatches", type=int, default=4)
    p.add_argument("-w", "--waves", type=int, default=1)
    p.add_argument("--t-c", type=float, default=0.0,
                   help="abstract P2P cost (T_F units)")


def _build(args, run=None) -> tuple:
    from . import profiling
    from .runtime import AbstractCosts, simulate
    from .schedules import build_schedule
    cfg = PipelineConfig(
        scheme=args.scheme, num_devices=args.devices,
        num_microbatches=args.microbatches, num_waves=args.waves,
    )
    costs = CostConfig(t_c=args.t_c)
    with profiling.phase("build"):
        sched = build_schedule(cfg, costs)
    oracle = AbstractCosts(costs, cfg.num_devices, sched.num_stages)
    return cfg, sched, simulate(sched, oracle, run)


def cmd_gallery(args) -> int:
    from .runtime import bubble_stats
    from .viz import render_gantt
    _, sched, res = _build(args)
    stats = bubble_stats(res.timeline)
    print(sched.describe())
    print(f"makespan={res.makespan:.2f}  "
          f"bubble={stats.bubble_ratio * 100:.1f}%")
    print(render_gantt(res.timeline, width=args.width))
    return 0


def cmd_simulate(args) -> int:
    from .analysis import format_table
    from .runtime import bubble_stats
    _, sched, res = _build(args)
    stats = bubble_stats(res.timeline)
    rows = [[d, f"{stats.busy[d]:.2f}", f"{stats.idle[d]:.2f}",
             f"{stats.per_device_ratio[d] * 100:.1f}%"]
            for d in sorted(stats.busy)]
    print(format_table(
        ["device", "busy", "idle", "bubble"],
        rows,
        title=(f"{sched.describe()}  makespan={res.makespan:.2f}  "
               f"aggregate bubble={stats.bubble_ratio * 100:.1f}%"),
    ))
    return 0


def cmd_trace(args) -> int:
    from . import profiling
    from .config import RunConfig

    run = RunConfig(prefetch=not args.no_prefetch,
                    contention=args.contention)
    if args.profile:
        # collect the build / lower / simulate split of this one cell
        profiling.batching_stats().reset()
        with profiling.profiled() as prof:
            with profiling.cell(_trace_label(args)):
                rc = _trace_body(args, run)
        print(prof.format())
        print(profiling.batching_stats().describe())
        return rc
    return _trace_body(args, run)


def _trace_label(args) -> str:
    where = args.cluster if args.cluster else "abstract"
    return (f"{args.scheme}/{where} P{args.devices} B{args.microbatches}"
            + (f" D{args.dp}" if args.dp > 1 else "")
            + (f" TP{args.tp}" if args.tp > 1 else ""))


def _trace_body(args, run) -> int:
    from .viz.trace import write_sim_trace
    if args.cluster:
        # Concrete triple: scheme on a modeled cluster running a model.
        # Comm time comes from the cluster topology, so the abstract
        # --t-c knob does not apply (mirrors `repro advise`/`sweep`).
        if args.t_c:
            print("note: --t-c is ignored with --cluster "
                  "(topology provides transfer times)", file=sys.stderr)
        from .analysis import HybridLayout, build_hybrid_simulation
        from .cluster import get_cluster
        from .runtime import simulate_program

        model = MODELS[args.model]()
        cluster = get_cluster(args.cluster,
                              args.devices * args.dp * args.tp)
        layout = HybridLayout(tp=args.tp, p=args.devices, d=args.dp)
        # One build path with the throughput harness: DP gradient rings
        # and TP boundary all-reduces are compiled into the program, so
        # the trace shows the collective lanes the figures measure.
        cell = build_hybrid_simulation(
            args.scheme, cluster, model, layout,
            num_microbatches=args.microbatches, w=args.waves, run=run,
        )
        capacity = (int(args.capacity_gib * 2**30)
                    if args.capacity_gib is not None else None)
        res = simulate_program(cell.program, cell.oracle, run,
                               schedule=cell.schedule, plan=cell.plan,
                               capacity_bytes=capacity)
        unit = 1e6  # concrete costs are in seconds
        what = f"{args.scheme}/{cluster.name}/{model.name}"
        if args.dp > 1 or args.tp > 1:
            what += f" ({layout.describe()})"
    else:
        if args.capacity_gib is not None:
            print("note: --capacity-gib needs --cluster (abstract costs "
                  "carry no bytes); ignored", file=sys.stderr)
        if args.dp > 1 or args.tp > 1:
            print("note: --dp/--tp need --cluster (collective rings "
                  "route over a topology); ignored", file=sys.stderr)
        _, sched, res = _build(args, run)
        unit = 1000.0
        what = f"{args.scheme} (abstract costs)"
    write_sim_trace(res, args.output, time_unit_us=unit)
    spans = sum(len(s) for s in res.timeline.spans.values())
    extra = ""
    if res.memory is not None:
        extra = f", peak mem {res.memory.highest_peak / 2**30:.1f} GiB"
    if res.collectives:
        extra += f", {len(res.collectives)} collectives"
    print(f"wrote {args.output} for {what} "
          f"({spans} compute spans, {len(res.comm)} transfers{extra}); "
          "open it at https://ui.perfetto.dev")
    return 0


def cmd_advise(args) -> int:
    # the server's own decode, expansion and folding: `repro advise
    # --json` and a served /advise answer are the same bytes
    from .serve.codec import AdviseQuery, dumps_canonical
    from .serve.queries import advise_answer, format_advise

    payload = advise_answer(AdviseQuery.from_payload(
        request_payload(args, ADVISE_REQUEST)))
    if args.json:
        sys.stdout.buffer.write(dumps_canonical(payload))
        sys.stdout.buffer.flush()
    else:
        print(format_advise(payload))
    return 0


def cmd_serve(args) -> int:
    from . import profiling
    from .serve.server import AdvisorServer, serve_until_signalled

    server = AdvisorServer(
        (args.host, args.port),
        window_s=args.window_ms / 1e3,
        max_lanes=args.max_lanes,
        quiet=not args.verbose,
    )
    rc = serve_until_signalled(server)
    if args.profile:
        from .analysis import plan_cache
        print(profiling.batching_stats().describe())
        print(plan_cache().describe())
    return rc


def cmd_query(args) -> int:
    import json as _json
    from urllib.error import HTTPError, URLError
    from urllib.request import Request, urlopen

    from .serve.codec import dumps_canonical

    base = args.server.rstrip("/")
    if not base.startswith("http"):
        base = "http://" + base
    fields = SWEEP_REQUEST if args.kind == "sweep" else ADVISE_REQUEST
    # decoded here too, so a bad request fails before it is sent
    query = decode_request(request_payload(args, fields), fields)
    request = Request(
        f"{base}/{args.kind}", data=dumps_canonical(query),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urlopen(request, timeout=args.timeout) as response:
            if args.kind == "sweep":
                # NDJSON stream: progress frames, then the final table
                final = None
                for line in response:
                    frame = _json.loads(line)
                    if frame.get("kind") == "progress":
                        print(f"progress: {frame['done']}/{frame['total']}",
                              file=sys.stderr, flush=True)
                    elif frame.get("kind") == "error":
                        print(f"error: {frame['error']}", file=sys.stderr)
                        return 2
                    else:
                        final = line
                if final is None:
                    print("error: stream ended without an answer",
                          file=sys.stderr)
                    return 2
                sys.stdout.buffer.write(final)
            else:
                sys.stdout.buffer.write(response.read())
            sys.stdout.buffer.flush()
    except HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace").strip()
        print(f"error: server said {exc.code}: {detail}", file=sys.stderr)
        return 2
    except URLError as exc:
        print(f"error: cannot reach {base}: {exc.reason}", file=sys.stderr)
        return 2
    return 0


def cmd_sweep(args) -> int:
    from .sweep.cache import ResultCache
    from .sweep.engine import run_sweep
    from .sweep.spec import SweepSpec

    spec = SweepSpec.from_payload(request_payload(args, SWEEP_REQUEST))
    cache = ResultCache(args.cache) if args.cache else None
    prof = None
    if args.profile:
        from . import profiling
        workers = args.workers
        if workers and workers > 1:
            print("note: --profile evaluates inline (phase timings are "
                  "collected in-process); ignoring -j", file=sys.stderr)
            workers = 1
        profiling.batching_stats().reset()
        with profiling.profiled() as prof:
            table = run_sweep(spec, cache=cache, workers=workers)
    else:
        table = run_sweep(spec, cache=cache, workers=args.workers)
    if args.csv:
        table.to_csv(args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        table.to_json(args.json)
        print(f"wrote {args.json}")
    print(table.format(title=spec.describe(), top=args.top))
    print(table.stats.describe())
    if prof is not None:
        from . import profiling
        from .analysis import plan_cache
        print(prof.format())
        print(plan_cache().describe())
        print(profiling.batching_stats().describe())
    if not table.rows:
        print("no feasible cells: every combination was rejected at "
              "expansion or measurement (check --batch divisibility, "
              "--layouts, and scheme shape constraints)",
              file=sys.stderr)
    return 0


#: (scheme, waves) candidates for ``synthesize --all-families``; shapes
#: a family cannot take (odd P for chimera, odd B for gems, ...) are
#: skipped at build time.
_SYNTH_FAMILIES = (
    ("gpipe", 1), ("dapple", 1), ("interleaved", 2), ("gems", 1),
    ("chimera", 1), ("chimera-wave", 2), ("hanayo", 1), ("hanayo", 2),
    ("async-1f1b", 1),
)


def cmd_synthesize(args) -> int:
    from .analysis import format_table
    from .runtime import AbstractCosts
    from .schedules import build_schedule
    from .synthesis import (
        SearchConfig,
        load_schedule,
        payload_for,
        replay_payload,
        save_schedule,
        synthesize,
        synthesize_families,
    )

    if args.replay:
        report = replay_payload(load_schedule(args.replay))
        print(report.describe())
        return 0 if report.consistent else 1

    sconf = SearchConfig(
        seed=args.seed, rounds=args.rounds,
        samples_per_round=args.samples, beam_width=args.beam,
        patience=args.patience, max_shift=args.max_shift,
    )
    cost = CostConfig(t_c=args.t_c)
    start = None if args.start == "program" else args.start

    def emit(result, config) -> None:
        if args.provenance:
            for step in result.best.provenance:
                print(f"  round {step.round:3d}  "
                      f"{step.mutation.describe():40s} "
                      f"-> {step.makespan:.3f}")
        if args.output:
            payload = payload_for(result, config, cost)
            save_schedule(args.output, payload)
            print(f"wrote {args.output} "
                  f"(plan {result.plan_key[:12]}…, seed {args.seed})")

    if args.all_families:
        built = {}
        for scheme, waves in _SYNTH_FAMILIES:
            try:
                cfg = PipelineConfig(
                    scheme=scheme, num_devices=args.devices,
                    num_microbatches=args.microbatches, num_waves=waves,
                )
                label = scheme + (f"-w{waves}" if waves > 1 else "")
                built[label] = (cfg, build_schedule(cfg, cost))
            except ConfigError:
                continue
        results = synthesize_families(
            {label: sched for label, (_, sched) in built.items()},
            lambda sched: AbstractCosts(cost, args.devices,
                                        sched.num_stages),
            sconf, start=start,
        )
        rows = [
            [label, f"{r.start.makespan:.2f}", f"{r.best.makespan:.2f}",
             f"{r.best.bubble_ratio * 100:.1f}%",
             len(r.best.provenance)]
            for label, r in sorted(results.items(),
                                   key=lambda kv: kv[1].best.makespan)
        ]
        print(format_table(
            ["family", "start", "best", "bubble", "mutations"], rows,
            title=(f"synthesize P={args.devices} B={args.microbatches} "
                   f"t_c={args.t_c} seed={args.seed}"),
        ))
        winner = min(results, key=lambda k: results[k].best.makespan)
        baseline = min(r.start.makespan for r in results.values())
        best = results[winner]
        print(f"winner: {winner} at {best.best.makespan:.2f} "
              f"(best compiled family: {baseline:.2f})")
        emit(best, built[winner][0])
        return 0

    cfg = PipelineConfig(
        scheme=args.scheme, num_devices=args.devices,
        num_microbatches=args.microbatches, num_waves=args.waves,
    )
    sched = build_schedule(cfg, cost)
    oracle = AbstractCosts(cost, cfg.num_devices, sched.num_stages)
    result = synthesize(sched, oracle, sconf, start=start)
    print(result.describe())
    emit(result, cfg)
    return 0


def cmd_train(args) -> int:
    import numpy as np

    from .engine import PipelineTrainer, make_batch, sequential_step
    from .models import tiny_model

    spec = tiny_model(num_layers=max(args.devices * 2 * args.waves, 4),
                      hidden=16, heads=2, seq_len=6, vocab=32)
    cfg = PipelineConfig(scheme=args.scheme, num_devices=args.devices,
                         num_microbatches=args.microbatches,
                         num_waves=args.waves)
    trainer = PipelineTrainer(spec, cfg, seed=0)
    inputs, targets = make_batch(spec, args.microbatches, seed=1)
    res = trainer.train_step(inputs, targets)
    ref = sequential_step(spec, trainer.schedule.num_stages, inputs,
                          targets, seed=0)
    worst = max(float(np.max(np.abs(res.grads[k] - ref.grads[k])))
                for k in ref.grads)
    print(f"pipeline loss {res.loss:.6f} / sequential {ref.loss:.6f} / "
          f"max grad diff {worst:.2e} / {res.messages_sent} messages")
    return 0 if worst < 1e-9 else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hanayo (SC '23) wave pipeline parallelism, reproduced",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gallery", help="ASCII Gantt of a schedule")
    _add_shape_args(g)
    g.add_argument("--width", type=int, default=100)
    g.set_defaults(fn=cmd_gallery)

    s = sub.add_parser("simulate", help="per-device bubble stats")
    _add_shape_args(s)
    s.set_defaults(fn=cmd_simulate)

    t = sub.add_parser("trace", help="export a Chrome/Perfetto trace")
    _add_shape_args(t)
    t.add_argument("-o", "--output", default="pipeline_trace.json")
    t.add_argument("--cluster", default=None, choices=KNOWN_CLUSTERS,
                   help="simulate on a modeled cluster (concrete costs)")
    t.add_argument("--model", default="bert",
                   choices=list(MODELS),
                   help="model for --cluster runs")
    t.add_argument("--no-prefetch", action="store_true",
                   help="blocking receives (ablate Sec. 4.2 overlap)")
    t.add_argument("--contention", action="store_true",
                   help="serialize transfers sharing a device pair")
    t.add_argument("--capacity-gib", type=float, default=None,
                   help="abort the run at the first allocation past "
                        "this per-device capacity (needs --cluster)")
    t.add_argument("--dp", type=int, default=1,
                   help="data-parallel width: compile gradient-sync "
                        "rings into the traced program (needs --cluster)")
    t.add_argument("--tp", type=int, default=1,
                   help="tensor-parallel degree: compile TP boundary "
                        "all-reduces into the traced program "
                        "(needs --cluster)")
    t.add_argument("--profile", action="store_true",
                   help="print the build / lower / simulate phase-"
                        "timing breakdown of the traced cell")
    t.set_defaults(fn=cmd_trace)

    a = sub.add_parser("advise", help="configuration search")
    _add_request_args(a, ADVISE_REQUEST)
    a.add_argument("--json", action="store_true",
                   help="emit the canonical JSON answer (byte-identical "
                        "to a served /advise answer of the same query)")
    a.set_defaults(fn=cmd_advise)

    sv = sub.add_parser(
        "serve", help="long-lived advisor daemon over hot caches")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8642,
                    help="listen port (0 picks a free one)")
    sv.add_argument("--window-ms", type=float, default=2.0,
                    help="micro-batch coalescing window")
    sv.add_argument("--max-lanes", type=int, default=512,
                    help="measurement lanes per micro-batch dispatch")
    sv.add_argument("--profile", action="store_true",
                    help="print batching + plan-cache stats at drain")
    sv.add_argument("--verbose", action="store_true",
                    help="log each HTTP request to stderr")
    sv.set_defaults(fn=cmd_serve)

    q = sub.add_parser(
        "query", help="query a running `repro serve` daemon")
    kinds = q.add_subparsers(dest="kind", required=True)
    for kind, fields, what in (
            ("advise", ADVISE_REQUEST, "one ranking"),
            ("sweep", SWEEP_REQUEST, "a full grid, streamed")):
        qk = kinds.add_parser(kind, help=what)
        _add_request_args(qk, fields)
        qk.add_argument("--server", default="127.0.0.1:8642",
                        help="host:port of the daemon")
        qk.add_argument("--timeout", type=float, default=120.0,
                        help="per-request socket timeout in seconds")
        qk.set_defaults(fn=cmd_query)

    sw = sub.add_parser(
        "sweep", help="parallel, cached multi-scheme grid sweep")
    _add_request_args(sw, SWEEP_REQUEST)
    sw.add_argument("-j", "--workers", type=int, default=1,
                    help="worker processes for uncached cells")
    sw.add_argument("--cache", default=None,
                    help="result-cache directory (reused across runs)")
    sw.add_argument("--csv", default=None, help="write results as CSV")
    sw.add_argument("--json", default=None, help="write results as JSON")
    sw.add_argument("--top", type=int, default=None,
                    help="print only the best N cells")
    sw.add_argument("--profile", action="store_true",
                    help="print a per-cell build / lower / simulate "
                         "phase-timing breakdown plus plan-cache stats "
                         "(forces inline evaluation)")
    sw.set_defaults(fn=cmd_sweep)

    sy = sub.add_parser(
        "synthesize",
        help="search for a faster legal ordering of a schedule")
    _add_shape_args(sy)
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--rounds", type=int, default=150)
    sy.add_argument("--samples", type=int, default=64,
                    help="mutation samples per round")
    sy.add_argument("--beam", type=int, default=8,
                    help="beam width (survivors per round)")
    sy.add_argument("--patience", type=int, default=30,
                    help="stop after this many stale rounds")
    sy.add_argument("--max-shift", type=int, default=8,
                    help="largest single-entry / wave shift sampled")
    sy.add_argument("--start", default="program",
                    choices=["program", "gpipe"],
                    help="initial ordering: the compiled program's own "
                         "(default) or all-forwards-then-all-backwards")
    sy.add_argument("--all-families", action="store_true",
                    help="search every family at this shape and rank "
                         "the results")
    sy.add_argument("--provenance", action="store_true",
                    help="print the winning mutation path")
    sy.add_argument("-o", "--output", default=None,
                    help="write the best schedule as replayable JSON")
    sy.add_argument("--replay", default=None, metavar="PATH",
                    help="re-simulate a saved schedule instead of "
                         "searching (exit 1 if its scores drifted)")
    sy.set_defaults(fn=cmd_synthesize)

    tr = sub.add_parser("train", help="real NumPy pipeline step + verify")
    _add_shape_args(tr)
    tr.set_defaults(fn=cmd_train)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
