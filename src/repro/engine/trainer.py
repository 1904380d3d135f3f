"""End-to-end pipeline training on thread workers.

``PipelineTrainer`` is the library's "it actually runs" proof: it takes
any :class:`~repro.config.PipelineConfig`, compiles the schedule **once**
into the execution IR (:class:`~repro.actions.Program`), spins up one
thread per (simulated) device, executes a real NumPy training step
through the interpreter, and exposes losses and gradients.  The
gradient-equivalence tests run every scheme through this path and
compare against :mod:`repro.engine.reference`; the program-parity suite
feeds the *same* :attr:`PipelineTrainer.program` object to the
event-driven simulator and asserts both consumers execute the identical
action sequence.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..actions.interpreter import Interpreter
from ..actions.lowering import ExecutablePlan
from ..actions.program import Program, compile_program
from ..config import PipelineConfig
from ..errors import EngineError
from ..models.spec import ModelSpec
from ..schedules.base import Schedule
from ..schedules.factory import build_schedule
from .channels import PeerNetwork
from .executor import EngineExecutor
from .module import StageModule, build_stages
from .optimizer import Optimizer


@dataclass
class StepResult:
    """Outcome of one synchronous training iteration."""

    loss: float
    per_microbatch_loss: dict[int, float]
    #: parameter-name -> gradient, summed across replicas
    grads: dict[str, np.ndarray]
    messages_sent: int


class PipelineTrainer:
    """Owns the model chunks, the network, and the worker programs."""

    def __init__(
        self,
        spec: ModelSpec,
        config: PipelineConfig,
        seed: int = 0,
        timeout_s: float = 30.0,
        prefetch: bool = True,
        batch_cross_comm: bool = True,
        recompute: bool = False,
    ):
        self.spec = spec
        self.config = config
        self._prefetch = prefetch
        self._batch_cross_comm = batch_cross_comm
        self.schedule: Schedule = build_schedule(config)
        self.program: Program = self._compile(self.schedule)
        #: the lowered form of :attr:`program`; the worker threads
        #: execute its *decoded* action lists, so the order the engine
        #: runs is — by round-trip — the order the simulator's lowered
        #: plan executes (pinned by the program-parity suite)
        self.plan: ExecutablePlan = ExecutablePlan.lower(self.program)
        self._worker_actions: dict[int, list] = self.plan.decode()
        #: per-worker executed action order of the latest train_step —
        #: the engine half of the program-parity witness
        self.action_trace: dict[int, list] = {}
        num_replicas = self.schedule.placement.num_replicas
        # Replicas start from identical weights (same seed), as Chimera's
        # bidirectional model copies do.
        self.replica_stages: list[list[StageModule]] = [
            build_stages(spec, self.schedule.num_stages, seed=seed,
                         recompute=recompute)
            for _ in range(num_replicas)
        ]
        self.network = PeerNetwork(config.num_devices, timeout_s=timeout_s)
        self.timeout_s = timeout_s

    def _compile(self, schedule: Schedule) -> Program:
        program = compile_program(
            schedule, prefetch=self._prefetch,
            batch_cross_comm=self._batch_cross_comm, add_step=False,
            # float64 boundary activations of shape (mb, seq, hidden)
            boundary_bytes=(self.config.microbatch_size * self.spec.seq_len
                            * self.spec.hidden * 8.0),
        )
        program.validate()
        return program

    def use_schedule(self, schedule: Schedule) -> None:
        """Adopt a hand-built schedule by recompiling the program IR.

        The schedule must share the trainer's shape — the stage modules
        and data routing were sized by the constructor — so mismatches
        are rejected here rather than surfacing as opaque worker
        failures (or a silently wrong 1/B loss scale) mid-step.
        """
        mismatches = [
            f"{name}: {got} != {want}"
            for name, got, want in (
                ("num_devices", schedule.num_devices,
                 self.schedule.num_devices),
                ("num_stages", schedule.num_stages,
                 self.schedule.num_stages),
                ("num_microbatches", schedule.num_microbatches,
                 self.schedule.num_microbatches),
                ("num_replicas", schedule.placement.num_replicas,
                 self.schedule.placement.num_replicas),
            )
            if got != want
        ]
        if mismatches:
            raise EngineError(
                f"schedule {schedule.name!r} does not match the trainer's "
                f"shape: {'; '.join(mismatches)}"
            )
        self.schedule = schedule
        self.program = self._compile(schedule)
        self.plan = ExecutablePlan.lower(self.program)
        self._worker_actions = self.plan.decode()

    @property
    def actions(self) -> dict[int, list]:
        """The per-worker action lists the workers execute.

        These are the *plan-decoded* lists — value-identical to
        ``program.actions`` by the lowering round-trip — so the IR
        remains the single truth while the engine consumes the lowered
        order.
        """
        return self._worker_actions

    # -- assembly ---------------------------------------------------------

    def _device_chunks(self, device: int) -> dict[int, StageModule]:
        chunks: dict[int, StageModule] = {}
        for stage, replica in self.schedule.placement.stages_on(device):
            chunk = self.schedule.placement.chunk_of(stage, replica)
            chunks[chunk] = self.replica_stages[replica][stage]
        return chunks

    def _route_microbatch_data(
        self, data: dict[int, np.ndarray], stage: int
    ) -> dict[int, dict[int, np.ndarray]]:
        """Split per-micro-batch arrays to the devices owning ``stage``."""
        routed: dict[int, dict[int, np.ndarray]] = {}
        for m, array in data.items():
            replica = self.schedule.replica_of(m)
            device = self.schedule.placement.device_of(stage, replica)
            routed.setdefault(device, {})[m] = array
        return routed

    # -- the step ----------------------------------------------------------

    def train_step(
        self,
        inputs: dict[int, np.ndarray],
        targets: dict[int, np.ndarray],
        optimizer: Optimizer | None = None,
    ) -> StepResult:
        """Run one iteration; optionally apply ``optimizer`` afterwards.

        ``inputs``/``targets`` map micro-batch index to arrays of shape
        ``(microbatch_size, seq_len)``.  The optimizer, if given, must
        be bound to ``self.parameter_stages()`` (replica 0); replica
        gradients are reduced into replica 0 before stepping — the
        fused equivalent of Chimera's post-iteration all-reduce.
        """
        b = self.config.num_microbatches
        if set(inputs) != set(range(b)) or set(targets) != set(range(b)):
            raise EngineError(
                f"need inputs/targets for micro-batches 0..{b - 1}"
            )
        last = self.schedule.num_stages - 1
        routed_inputs = self._route_microbatch_data(inputs, 0)
        routed_targets = self._route_microbatch_data(targets, last)

        executors: dict[int, EngineExecutor] = {}
        for device in range(self.config.num_devices):
            executors[device] = EngineExecutor(
                device=device,
                program=self.program,
                stages=self._device_chunks(device),
                network=self.network,
                microbatch_inputs=routed_inputs.get(device, {}),
                microbatch_targets=routed_targets.get(device, {}),
            )

        errors: dict[int, BaseException] = {}
        interpreters: dict[int, Interpreter] = {
            d: Interpreter(d, executors[d])
            for d in range(self.config.num_devices)
        }

        def worker(device: int) -> None:
            try:
                # the plan-decoded lists: value-identical to
                # program.actions (round-trip pinned), so the engine
                # consumes the same lowered order the simulator times
                interpreters[device].run(self._worker_actions[device])
            except BaseException as exc:  # propagated to the caller
                errors[device] = exc

        threads = [
            threading.Thread(target=worker, args=(d,), name=f"worker-{d}")
            for d in range(self.config.num_devices)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=self.timeout_s * 4)
        hung = [t.name for t in threads if t.is_alive()]
        if hung:
            raise EngineError(f"workers hung past timeout: {hung}")
        if errors:
            device, exc = sorted(errors.items())[0]
            raise EngineError(f"worker {device} failed: {exc!r}") from exc
        self.network.drain_check()
        self.action_trace = {
            d: interp.trace for d, interp in interpreters.items()
        }

        losses: dict[int, float] = {}
        for ex in executors.values():
            losses.update(ex.losses)
        if set(losses) != set(range(b)):
            raise EngineError(
                f"losses missing for micro-batches "
                f"{sorted(set(range(b)) - set(losses))}"
            )
        grads = self._reduced_grads()
        if optimizer is not None:
            optimizer.step()
        return StepResult(
            loss=float(np.mean([losses[m] for m in range(b)])),
            per_microbatch_loss=losses,
            grads=grads,
            messages_sent=self.network.sent_messages,
        )

    # -- parameters & gradients --------------------------------------------

    def parameter_stages(self) -> list[StageModule]:
        """Replica-0 stages: the canonical parameter set."""
        return self.replica_stages[0]

    def zero_grad(self) -> None:
        for stages in self.replica_stages:
            for stage in stages:
                stage.zero_grad()

    def _reduced_grads(self) -> dict[str, np.ndarray]:
        """Replica-summed gradients, accumulated into replica 0."""
        if len(self.replica_stages) > 1:
            for replica in self.replica_stages[1:]:
                for s0, sr in zip(self.replica_stages[0], replica):
                    g0, gr = s0.named_grads(), sr.named_grads()
                    for name in g0:
                        g0[name] += gr[name]
        out: dict[str, np.ndarray] = {}
        for stage in self.replica_stages[0]:
            out.update(stage.named_grads())
        return out


def make_batch(
    spec: ModelSpec,
    num_microbatches: int,
    microbatch_size: int = 1,
    seed: int = 1234,
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Synthetic language-modeling micro-batches (ids and shifted targets)."""
    rng = np.random.default_rng(seed)
    inputs, targets = {}, {}
    for m in range(num_microbatches):
        ids = rng.integers(0, spec.vocab,
                           size=(microbatch_size, spec.seq_len))
        inputs[m] = ids
        targets[m] = np.roll(ids, -1, axis=-1)
    return inputs, targets
