"""Discrete-event runtime: cost oracles, simulator, memory, metrics."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "batched": ("BatchResult", "PlanBatch", "execute_batch", "execute_many"),
    "costs": (
        "AbstractCosts", "ClusterCosts", "ConcreteCosts", "CostOracle",
    ),
    "events": (
        "CollectiveEvent", "CommEvent", "EventResult", "MemoryEvent",
        "execute_plan", "execute_program",
    ),
    "memory": (
        "MemoryStats", "memory_stats", "memory_stats_from_result",
        "static_memory",
    ),
    "metrics": (
        "BubbleStats", "bubble_stats", "compute_time_lower_bound", "kind_time",
        "steady_state_bubble_ratio",
    ),
    "simulator": (
        "SimResult", "TrainingSimResult", "sim_result_from_events", "simulate",
        "simulate_ordering", "simulate_program", "simulate_training",
    ),
})
