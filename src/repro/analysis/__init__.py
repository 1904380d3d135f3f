"""Analytic models, search, scaling, and reporting."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bubbles": (
        "chimera_bubble_ratio", "dapple_bubble_ratio", "gems_bubble_ratio",
        "gpipe_bubble_ratio", "hanayo_bubble_ratio",
        "hanayo_bubble_ratio_simplified", "interleaved_bubble_ratio",
        "theoretical_bubble_ratio",
    ),
    "hybrid": ("hybrid_search",),
    "memory_model": (
        "activation_balance_note", "activation_units", "weight_units",
    ),
    "perf_model": (
        "SchemeProfile", "chimera_k", "compare_schemes", "cross_comm_messages",
        "scheme_profile",
    ),
    "plans": ("PlanCache", "PlanEntry", "plan_cache"),
    "report": ("format_table", "percent", "ratio_vs"),
    "result": ("OVERLAP_MODES", "ThroughputResult"),
    "scaling": (
        "ScalingPoint", "layouts_for", "parallel_efficiency", "speedup",
        "strong_scaling", "weak_scaling",
    ),
    "search": (
        "DEFAULT_WAVES", "best_throughput", "feasible_waves", "search_grid",
        "split_batch",
    ),
    "throughput": (
        "ANALYTIC_DP_OVERLAP", "HybridCell", "HybridLayout",
        "HybridRequest", "ThroughputRequest", "apply_tensor_parallel",
        "build_hybrid_simulation",
        "compile_cluster_program", "dp_allreduce_seconds", "dp_rank_groups",
        "measure_hybrid_throughput", "measure_hybrid_throughput_batch",
        "measure_throughput", "measure_throughput_batch", "plan_key",
        "stage_grad_bytes", "tp_allreduce_seconds", "tp_rank_groups",
    ),
    "zones": (
        "ZoneBreakdown", "classify_idle", "zone_a_size", "zone_b_size",
        "zone_c_sizes",
    ),
})
