"""Action lists: IR, compiler, interpreter, and static validation."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "collectives": (
        "collectives_in", "ring_pairs", "ring_step_count",
        "with_gradient_sync", "with_tp_sync",
    ),
    "compiler": (
        "batch_opposing", "comm_actions", "compile_schedule", "count_messages",
        "hoist_recvs",
    ),
    "interpreter": ("Executor", "Interpreter"),
    "lowering": ("ExecutablePlan",),
    "ops": (
        "Action", "BatchedP2P", "CollectiveKind", "CollectiveOp", "CommKind",
        "ComputeBackward", "ComputeForward", "Flush", "OptimizerStep", "Recv",
        "Send", "Tag",
    ),
    "program": ("Dependency", "Program", "compile_program", "compute_key"),
    "reorder": (
        "OrderEntry", "Reorderer", "ordering_entries", "reorder_program",
    ),
    "resources": ("StageResources",),
    "validate": ("check_deadlock_free", "check_matching", "validate_actions"),
})
