"""Pipeline schedule generators and the schedule IR."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "async_1f1b": ("async_1f1b_schedule", "max_staleness", "weight_versions"),
    "base": ("Schedule",),
    "chimera": ("chimera_schedule",),
    "dapple": ("dapple_schedule",),
    "factory": ("build_schedule",),
    "gems": ("gems_schedule",),
    "gpipe": ("gpipe_schedule",),
    "greedy": (
        "GreedyPolicy", "fifo_priority", "greedy_order", "wave_priority",
    ),
    "hanayo": ("hanayo_open_cap", "hanayo_schedule"),
    "interleaved": ("interleaved_schedule",),
    "placement": (
        "CyclicPlacement", "LinearPlacement", "MirrorPlacement",
        "SnakePlacement", "StagePlacement",
    ),
    "transform": ("chimera_to_wave", "chimera_wave_schedule"),
    "validation": (
        "check_completeness", "check_executable", "check_placement",
        "validate",
    ),
})
