"""Real NumPy execution engine: layers, channels, workers, trainer."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "channels": ("PeerNetwork", "batch_isend_irecv"),
    "dataparallel": (
        "DPStepResult", "DataParallelPipelines", "allreduce_average",
        "ring_allreduce",
    ),
    "executor": ("EngineExecutor",),
    "layers": (
        "Embedding", "Gelu", "Head", "Layer", "LayerNorm", "Linear",
        "MultiHeadAttention", "TransformerBlock", "instantiate_layer",
    ),
    "module": ("StageModule", "build_stages"),
    "optimizer": ("Adam", "Optimizer", "SGD"),
    "reference": ("ReferenceResult", "sequential_step", "sequential_step_on"),
    "trainer": ("PipelineTrainer", "StepResult", "make_batch"),
})
