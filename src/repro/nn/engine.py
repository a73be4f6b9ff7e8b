"""Graph-plan execution engine for the ``repro.nn`` autograd substrate.

Every model in this repository bottoms out in the reverse-mode autograd
of :mod:`repro.nn.tensor`.  The original implementation was deliberately
eager: each op allocated a fresh ``Tensor``, captured a backward closure,
and every ``backward()`` re-derived a topological order.  This module is
the remedy — *record once, plan, then execute* — in four layers:

1. **Kernel registry** (:data:`KERNELS`).  Every primitive op is a named
   :class:`OpKernel` holding one pure ``forward(meta, arrays, out=None)``
   and one ``vjp(meta, grad, arrays, out, saved)`` — one kernel per op,
   with no mode that selects another.  The eager dispatcher in
   :mod:`repro.nn.tensor` calls the forward without ``out``; the planned
   executor below calls the *same function* with an arena buffer, so
   eager and planned execution are the same numerics by construction,
   not by a promise kept between two bodies.  The slower oracles a
   kernel is checked against (``np.add.at`` scatters, ``einsum`` conv
   backward, the K-conv composition of a bank) live in
   ``tests/kernel_oracles.py``, not here.

2. **Fusion by construction.**  A fused op is a kernel a layer calls:
   ``F.linear`` records one ``linear`` node for ``x @ w + b``,
   ``F.conv_bank`` one ``multi_conv1d`` for a bank of causal
   convolutions over one input (TEL's capture and denoise groups,
   MTGNN's inception), ``F.scaled_masked_softmax`` one node for CAU's
   attention logits.  Nothing is rewritten while a forward is
   recorded, so a recorded forward, a ``no_grad`` forward and an
   ``inference_mode`` forward run the same kernels and give the same
   bits.

3. **Plan compile + replay** (:class:`CompiledLoss`).  Tracing one
   forward marks a tape's extent — the creation indices (``_seq``) it
   spans, no nodes; the plan is the loss root's ancestors sorted by
   ``_seq``, which *is* a topological order (parents are always created
   before children), so the op schedule is derived once per compile
   rather than re-sorted on every ``backward()``.  An
   :class:`ExecutionPlan` owns that schedule — one :class:`_Step` per
   op, carrying its slots, its meta, its forward and its VJP — bound to
   concrete leaves, and replays forward + backward as a flat loop over
   arrays with step-reused gradient references: no ``Tensor`` objects,
   no closures, no per-step garbage.  There is one forward loop and one
   backward loop, each step is one call with no variant to choose;
   while a kernel profiler is installed the same loops report each step
   to a per-replay observer, so a kernel profile is a measurement of
   the loop production runs.

4. **Memory planning** (:mod:`repro.nn.passes`).  Binding a plan runs
   liveness analysis over the schedule and assigns the outputs of
   ``arena`` kernels to a preallocated pool of reusable float64 buffers
   — the ``out`` each step's forward is handed — so steady-state replay
   allocates ≈ nothing for the outputs it manages.  float64 is the
   engine's one dtype: leaf tensors, plans, training and serving all
   compute in it.

Replay assumes the traced structure is *static*: same batch arrays, same
index/mask constants, same control flow.  Ops whose recorded constants
depend on tensor *values* (dropout masks, Huber's quadratic/linear
split) call :func:`mark_dynamic` during tracing, and the compiled loss
transparently falls back to eager execution.  Trainers key one
``CompiledLoss`` per training batch, which makes the assumption hold by
construction; ``load_state_dict`` is safe because plans re-read
``parameter.data`` on every run.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..obs.profiling import INSTALLED as _PROFILER
from ..obs.profiling import estimate_cost
from ..obs.tracing import span as _obs_span
from . import passes as _passes
# Importing the package fills KERNELS; the names are re-exported here
# (``tensor.py`` dispatches through ``engine.KERNELS``).
from .kernels.registry import KERNELS, OpKernel, register_kernel

__all__ = [
    "OpKernel",
    "KERNELS",
    "register_kernel",
    "DTYPE",
    "trace",
    "mark_dynamic",
    "PlanError",
    "ExecutionPlan",
    "CompiledLoss",
    "compile_plan",
    "inference_mode",
    "stats_snapshot",
    "reset_stats",
    "kernel_profiler",
    "set_kernel_profiler",
]


#: The engine's one dtype: leaf tensors, plan buffers and gradients.
DTYPE = np.dtype(np.float64)


# ======================================================================
# stats
# ======================================================================
_STATS: Dict[str, int] = {}
_STATS_LOCK = threading.Lock()


def _bump(key: str, amount: int = 1) -> None:
    # Gateway pump threads and trainer threads bump concurrently;
    # dict read-modify-write is not atomic, so serialise under a lock.
    with _STATS_LOCK:
        _STATS[key] = _STATS.get(key, 0) + amount


def stats_snapshot() -> Dict[str, int]:
    """Copy of the engine counters (plans built, replays, arena, ...).

    Thread-safe (taken under the same lock ``_bump`` holds).  Whether
    profiling is on is :func:`kernel_profiler`'s answer, not a counter.
    """
    with _STATS_LOCK:
        return dict(_STATS)


def reset_stats() -> None:
    """Zero all engine counters (thread-safe)."""
    with _STATS_LOCK:
        _STATS.clear()


# ======================================================================
# kernel profiling hook (the slot lives in repro.obs.profiling)
# ======================================================================
def kernel_profiler():
    """The installed per-kernel profiler, or ``None`` when disabled."""
    return _PROFILER[0]


def set_kernel_profiler(profiler) -> None:
    """Install a :class:`repro.obs.profiling.KernelProfiler` (or ``None``).

    While installed, every ``ExecutionPlan.forward``/``backward`` replay
    reports each step to an observer that attributes wall time and
    estimated FLOPs/bytes to its :class:`OpKernel`; when ``None`` (the
    default) the same loops run with no observer, at the cost of one
    ``is None`` test per step.  Prefer the
    :func:`repro.obs.profiling.profile_kernels` context manager, which
    restores the previous profiler on exit.
    """
    _PROFILER[0] = profiler


@contextmanager
def inference_mode():
    """``no_grad`` plus engine accounting for serving-style forwards."""
    from .tensor import no_grad

    _bump("inference_forwards")
    with no_grad():
        yield


# ======================================================================
# tracing
# ======================================================================
class Tape:
    """The extent of one traced forward pass — where it opened and closed
    — plus its dynamic flag; it holds no node.

    Every tensor carries a creation index (``_seq``), so the ops a trace
    recorded are exactly the nodes created between :attr:`start` and
    :attr:`stop`; :func:`compile_plan` recovers them from the loss root's
    ancestors.  Holding no tensor, the tape keeps nothing alive that the
    loss does not.
    """

    __slots__ = ("start", "stop", "dynamic", "reasons")

    def __init__(self, start: int) -> None:
        self.start = start
        #: Set when the ``trace()`` block exits (``None`` while open).
        self.stop: Optional[int] = None
        self.dynamic = False
        self.reasons: List[str] = []

    def recorded(self, node) -> bool:
        """Whether ``node`` was created while this trace was open."""
        return self.start <= node._seq and (
            self.stop is None or node._seq < self.stop)


_TAPES: List[Tape] = []


def mark_dynamic(reason: str) -> None:
    """Flag the active trace as not replay-safe (value-dependent
    constants such as dropout masks or Huber's branch mask)."""
    if _TAPES:
        tape = _TAPES[-1]
        tape.dynamic = True
        if reason not in tape.reasons:
            tape.reasons.append(reason)


@contextmanager
def trace():
    """Trace the block: the ops created in it are what a plan may replay."""
    from .tensor import next_seq

    tape = Tape(next_seq())
    _TAPES.append(tape)
    try:
        yield tape
    finally:
        _TAPES.pop()
        tape.stop = next_seq()


# ======================================================================
# plans
# ======================================================================
class PlanError(RuntimeError):
    """The traced graph cannot be compiled into a static plan."""


class _Step:
    """One scheduled op: slot-indexed inputs/output, its recorded meta
    and its kernel's one forward and one VJP."""

    __slots__ = ("op", "ins", "out", "meta", "forward", "vjp")

    def __init__(self, op: str, ins: Tuple[int, ...], out: int,
                 meta: Optional[dict] = None) -> None:
        self.op = op
        self.ins = ins
        self.out = out
        self.meta = meta
        kernel = KERNELS[op]
        self.forward = kernel.forward
        self.vjp = kernel.vjp


def compile_plan(root, tape: Tape) -> "ExecutionPlan":
    """Compile a traced scalar loss into an :class:`ExecutionPlan`.

    Lowering order: dead-node pruning (:mod:`repro.nn.passes`) →
    slot/schedule construction → plan binding, where binding runs
    liveness analysis and arena planning.

    Raises :class:`PlanError` when the graph is not statically
    replayable (dynamic ops, ancestors created outside the trace, or a
    non-scalar root).
    """
    if tape.dynamic:
        raise PlanError("dynamic trace: " + ", ".join(tape.reasons))
    if root.data.size != 1:
        raise PlanError("plans require a scalar loss root")
    leaves, op_nodes = _passes.prune_dead_nodes(root)
    # ``op_nodes`` is sorted by ``_seq``: its ends bound every op.
    if op_nodes and not (tape.recorded(op_nodes[0])
                         and tape.recorded(op_nodes[-1])):
        raise PlanError("loss depends on an op recorded outside the trace")
    slot_of: Dict[int, int] = {id(node): i for i, node in enumerate(leaves)}
    steps: List[_Step] = []
    for node in op_nodes:
        if node._op is None:
            raise PlanError(
                f"node {node!r} has no registry op; only registry "
                "kernels are replayable"
            )
        ins = tuple(slot_of[id(p)] for p in node._parents)
        slot_of[id(node)] = len(leaves) + len(steps)
        steps.append(_Step(node._op, ins, slot_of[id(node)], node._meta))
    _bump("plans_compiled")
    return ExecutionPlan(
        steps, leaves, root_slot=slot_of[id(root)],
        slot_shapes=tuple(n.data.shape for n in leaves + op_nodes),
    )


class _ReplayObserver:
    """Clock and cost attribution for one profiled replay phase.

    :class:`ExecutionPlan` builds one per ``forward()`` / ``backward()``
    call while a kernel profiler is installed and reports every
    executed step to it.  Timing is boundary to boundary: one clock read
    per step, each step's elapsed spanning everything since the previous
    boundary (kernel, gradient accumulation, skipped dead-gradient
    steps, this observer's own work), so the per-kernel rows account
    for the replay wall time structurally.  Every measurement lands in
    the installed profiler, the one record of kernel timings.
    """

    __slots__ = ("_plan", "_phase", "_profiler", "_clock", "_costs",
                 "_start", "_boundary")

    def __init__(self, plan: "ExecutionPlan", profiler, phase: str) -> None:
        self._plan = plan
        self._phase = phase
        self._profiler = profiler
        self._clock = profiler.clock
        self._costs = plan._costs[phase]
        self._start = self._boundary = self._clock()

    def step(self, i: int) -> None:
        """Record step ``i`` as finished now."""
        plan = self._plan
        step = plan.steps[i]
        cost = self._costs[i]
        if cost is None:
            # Static shapes: estimated once per plan step, then cached.
            shapes = plan.slot_shapes
            cost = self._costs[i] = estimate_cost(
                step.op, tuple(shapes[j] for j in step.ins),
                shapes[step.out], step.meta, phase=self._phase,
            )
        now = self._clock()
        elapsed = now - self._boundary
        self._boundary = now
        self._profiler.record(step.op, self._phase, elapsed, cost[0], cost[1])

    def close(self) -> None:
        """Account the phase's wall time (a replay counts once, on its
        forward)."""
        self._profiler.record_replay(self._clock() - self._start,
                                     int(self._phase == "forward"))


class ExecutionPlan:
    """An op schedule over value slots, bound to leaves and buffers.

    Slots ``0 .. len(leaves) - 1`` hold the leaves, each step writes the
    next one; ``steps`` is in creation order, which *is* a topological
    order, so nothing is re-sorted per ``backward()``.  ``forward()``
    then ``backward()`` replay one training step as flat loops over
    numpy arrays.  Parameter leaves are re-read through their ``Tensor``
    (``load_state_dict`` replaces ``.data``), constants are captured
    array references, and per-slot gradient references are reused
    across steps.

    Binding runs liveness + arena planning (:mod:`repro.nn.passes`):
    arena-managed steps write into preallocated float64 buffers
    (materialised lazily on the first replay, then reused forever), so
    steady-state replay allocates nothing for the outputs the plan
    manages.  Binding also calls each kernel's ``bind`` hook, so
    plan-static memos (the scatter CSR matrices) are built here, not in
    a timed replay.  A step that raises releases the plan's activations
    before the exception propagates.
    """

    __slots__ = ("steps", "num_slots", "root_slot", "slot_shapes",
                 "needs_grad", "memory_plan",
                 "_params", "_consts", "_values",
                 "_saved", "_grads", "_unbroadcast", "_seed",
                 "_arena", "_outs", "_costs")

    def __init__(self, steps: List[_Step], leaves: List, root_slot: int,
                 slot_shapes: Tuple[tuple, ...]) -> None:
        from .tensor import unbroadcast

        self.steps = steps
        self.num_slots = len(slot_shapes)
        self.root_slot = root_slot
        self.slot_shapes = slot_shapes
        self._unbroadcast = unbroadcast
        self._params = [(slot, leaf) for slot, leaf in enumerate(leaves)
                        if leaf.requires_grad]
        self._consts = [(slot, leaf.data) for slot, leaf in enumerate(leaves)
                        if not leaf.requires_grad]
        needs = [False] * self.num_slots
        for slot, _ in self._params:
            needs[slot] = True
        for step in steps:
            needs[step.out] = any(needs[i] for i in step.ins)
        self.needs_grad = tuple(needs)
        self._values: List[Optional[np.ndarray]] = [None] * self.num_slots
        for slot, data in self._consts:
            self._values[slot] = data
        self._saved: List[object] = [None] * len(steps)
        self._grads: List[Optional[np.ndarray]] = [None] * self.num_slots
        self._seed = np.ones(slot_shapes[root_slot], dtype=DTYPE)
        for step in steps:
            bind = KERNELS[step.op].bind
            if bind is not None:
                bind(step.meta, tuple(slot_shapes[j] for j in step.ins),
                     slot_shapes[step.out], needs[step.out])
        self.memory_plan = _passes.plan_memory(self, KERNELS)
        # Arena buffers and, per step, the one it writes (``None`` for
        # unmanaged steps); both filled on the first replay.
        self._arena: Optional[List[np.ndarray]] = None
        self._outs: Optional[List[Optional[np.ndarray]]] = None
        _bump("arena_planned_bytes", self.memory_plan.arena_bytes)
        # profiling plane: the static per-step cost estimates, written
        # only by a replay observer.
        self._costs: Dict[str, List[Optional[Tuple[float, float]]]] = {
            phase: [None] * len(steps)
            for phase in ("forward", "backward")
        }

    # ------------------------------------------------------------------
    def check_bindings(self) -> bool:
        """Whether the bound leaves still match the recorded shapes."""
        shapes = self.slot_shapes
        for slot, param in self._params:
            if param.data.shape != shapes[slot]:
                return False
        for slot, data in self._consts:
            if data.shape != shapes[slot]:
                return False
        return True

    # ------------------------------------------------------------------
    def _materialize_arena(self) -> List[Optional[np.ndarray]]:
        """Allocate the arena (once, on first replay); returns the
        per-step output buffers."""
        plan = self.memory_plan
        arena = self._arena = [np.empty(shape, dtype=DTYPE)
                               for shape in plan.buffer_shapes]
        self._outs = [arena[buf] if buf >= 0 else None
                      for buf in plan.step_buffer]
        _bump("arena_buffers_allocated", len(arena))
        _bump("arena_bytes_allocated", plan.arena_bytes)
        return self._outs

    def _observer(self, phase: str) -> Optional[_ReplayObserver]:
        """A replay observer while a kernel profiler is installed."""
        profiler = _PROFILER[0]
        if profiler is None:
            return None
        return _ReplayObserver(self, profiler, phase)

    def forward(self) -> float:
        """Replay the forward schedule; returns the scalar loss.

        Every step calls its kernel's one forward; arena-managed steps
        hand it the preallocated buffer the memory plan assigned, the
        rest ``None`` (the kernel allocates, as under eager dispatch).
        """
        values = self._values
        saved = self._saved
        outs = self._outs
        if outs is None:
            outs = self._materialize_arena()
        for slot, param in self._params:
            values[slot] = param.data
        observer = self._observer("forward")
        try:
            for i, step in enumerate(self.steps):
                arrays = tuple(values[j] for j in step.ins)
                values[step.out], saved[i] = step.forward(
                    step.meta, arrays, outs[i])
                if observer is not None:
                    observer.step(i)
        except BaseException:
            self._release()
            raise
        finally:
            if observer is not None:
                observer.close()
        return float(values[self.root_slot])

    def backward(self) -> None:
        """Replay the VJP schedule over per-slot gradient references.

        Accumulation mirrors the eager walk exactly — gradients are
        passed by reference and combined with out-of-place additions in
        the same order — so planned and eager parameter gradients are
        bit-for-bit identical.  An observed step's measurement covers
        its VJP call *plus* the unbroadcast/accumulate work its
        gradients trigger — the true cost of executing that op's
        backward.
        """
        values = self._values
        grads = self._grads
        needs = self.needs_grad
        shapes = self.slot_shapes
        unbroadcast = self._unbroadcast
        for i in range(self.num_slots):
            grads[i] = None
        grads[self.root_slot] = self._seed
        steps = self.steps
        saved = self._saved
        observer = self._observer("backward")
        try:
            for i in range(len(steps) - 1, -1, -1):
                step = steps[i]
                grad = grads[step.out]
                if grad is None:
                    continue
                grads[step.out] = None
                arrays = tuple(values[j] for j in step.ins)
                pgrads = step.vjp(step.meta, grad, arrays, values[step.out],
                                  saved[i])
                for j, pgrad in zip(step.ins, pgrads):
                    if pgrad is None or not needs[j]:
                        continue
                    pgrad = unbroadcast(
                        np.asarray(pgrad, dtype=DTYPE), shapes[j]
                    )
                    if grads[j] is None:
                        grads[j] = pgrad
                    else:
                        grads[j] = grads[j] + pgrad
                if observer is not None:
                    observer.step(i)
            for slot, param in self._params:
                pgrad = grads[slot]
                grads[slot] = None
                if pgrad is None:
                    continue
                if param.grad is None:
                    param.grad = pgrad.copy()
                else:
                    param.grad = param.grad + pgrad
        finally:
            if observer is not None:
                observer.close()
            self._release()

    def _release(self) -> None:
        """Drop activations / saved forward buffers after a step.

        Trainers hold one plan per train batch for their lifetime;
        without this, every *cold* plan would pin a full set of
        activations between steps — also when a kernel raised
        mid-replay.  Constant leaf bindings are kept — they are
        references to long-lived batch arrays, not copies.  Arena
        buffers are *not* released: they live in ``self._arena`` for the
        plan's lifetime (that is the fixed preallocated footprint); only
        unmanaged outputs, saved tensors, and gradients are dropped here.
        """
        values = self._values
        grads = self._grads
        for step in self.steps:
            values[step.out] = None
            grads[step.out] = None
        for slot, _ in self._params:
            values[slot] = None
            grads[slot] = None
        saved = self._saved
        for i in range(len(saved)):
            saved[i] = None


# ======================================================================
# compiled losses
# ======================================================================
class CompiledLoss:
    """Trace-once / replay-many wrapper around a scalar loss closure.

    ``fn`` must build the loss from stable inputs (same batch arrays,
    same masks) on every call; parameters may change freely.  The first
    ``run()`` traces eagerly and compiles a plan; later runs replay it.
    If the trace is dynamic (dropout, value-dependent constants) or
    compilation fails, every run transparently falls back to eager
    execution — correctness never depends on replayability.

    After ``run()``, ``param.grad`` is populated exactly as
    ``loss.backward()`` would have (accumulating into pre-existing
    gradients), and the scalar loss value is returned.
    """

    __slots__ = ("_fn", "_plan", "_dynamic", "_reason")

    def __init__(self, fn: Callable[[], object]) -> None:
        self._fn = fn
        self._plan: Optional[ExecutionPlan] = None
        self._dynamic = False
        self._reason = ""

    @property
    def fallback_reason(self) -> str:
        """Why the loss is running eagerly ('' when planned)."""
        return self._reason

    def _eager(self) -> float:
        loss = self._fn()
        loss.backward()
        return float(loss.data)

    def run(self) -> float:
        """Execute one step; returns the loss, populates ``.grad``."""
        if self._dynamic:
            _bump("compiled_eager_steps")
            with _obs_span("engine.step"):
                return self._eager()
        plan = self._plan
        if plan is not None:
            if plan.check_bindings():
                with _obs_span("engine.step"):
                    loss = plan.forward()
                    plan.backward()
                _bump("plan_replays")
                return loss
            # Shapes moved under us: retrace next run.
            self._plan = None
            _bump("plan_rebinds")
        with _obs_span("engine.step"):
            with _obs_span("engine.compile"):
                with trace() as tape:
                    loss = self._fn()
                try:
                    self._plan = compile_plan(loss, tape)
                except PlanError as error:
                    self._dynamic = True
                    self._reason = str(error)
                    _bump("plan_fallbacks")
            loss.backward()
        return float(loss.data)
