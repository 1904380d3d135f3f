"""repro — a full reproduction of *Hanayo: Harnessing Wave-like Pipeline
Parallelism for Enhanced Large Model Training Efficiency* (SC '23).

Layers of the library, bottom-up:

* :mod:`repro.models` / :mod:`repro.cluster` — model specs, cost models
  and the four evaluation clusters.
* :mod:`repro.schedules` — schedule generators for GPipe, DAPPLE/1F1B,
  interleaved 1F1B, GEMS, Chimera (+ the wave transform), Hanayo, and
  PipeDream-style async.
* :mod:`repro.actions` — the action-list runtime: compiler, static
  validation (incl. rendezvous deadlock checking), interpreter.
* :mod:`repro.runtime` — discrete-event simulation, memory tracking,
  metrics.
* :mod:`repro.engine` — a real NumPy training engine (thread workers,
  P2P channels) that executes the same action lists.
* :mod:`repro.analysis` — the paper's analytic models, config search,
  and scaling harnesses.
* :mod:`repro.sweep` — the parallel, cached sweep engine that fans the
  search grids of Figs. 9–12 out over worker processes.

Quickstart (a runnable doctest; ``python -m pytest --doctest-modules
src/repro/__init__.py`` checks it):

    >>> from repro import PipelineConfig, build_schedule, simulate
    >>> from repro.config import CostConfig
    >>> from repro.runtime import AbstractCosts, bubble_stats
    >>> cfg = PipelineConfig("hanayo", num_devices=8, num_microbatches=8,
    ...                      num_waves=2)
    >>> sched = build_schedule(cfg)          # 2 waves x 8 devices x 2 dirs
    >>> sched.num_stages
    32
    >>> res = simulate(sched, AbstractCosts(CostConfig(), 8,
    ...                                     sched.num_stages))
    >>> res.makespan                         # T_F units, T_B = 2 T_F
    31.5
    >>> round(bubble_stats(res.timeline).bubble_ratio, 3)
    0.238
"""

from ._lazy import lazy_exports

__version__ = "1.1.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "analysis": ("measure_throughput",),
    "config": ("CostConfig", "PipelineConfig", "RunConfig"),
    "errors": ("ReproError",),
    "runtime": ("simulate",),
    "schedules": ("build_schedule",),
    "sweep": ("ResultCache", "SweepSpec", "SweepTable", "run_sweep"),
})
__all__.append("__version__")
