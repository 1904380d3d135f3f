"""Text visualisation of schedules."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "gantt": ("render_gantt", "render_order"),
    "trace": (
        "sim_to_chrome_trace", "timeline_to_chrome_trace",
        "write_chrome_trace", "write_sim_trace",
    ),
})
