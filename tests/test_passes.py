"""Property tests for the plan-compiler pass pipeline and backends.

Pins down the three contracts ``repro.nn.passes`` makes:

* **arena replay is bitwise-neutral** — a planned float64 replay whose
  trace contains common (duplicated) subexpressions, each executed into
  its own arena buffer, returns the exact bits of the eager walk, loss
  and gradients, for every kernel family — profiled or not;
* **liveness never aliases two simultaneously-live slots** — randomized
  plan shapes, with an independent interval-overlap check per arena
  buffer;
* **the arena reaches steady state** — the first replay materialises
  the buffers, further replays allocate nothing for managed outputs.

Plus the one dtype: leaf tensors, plan buffers, gradients, loaded
checkpoints and published versions are all float64.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from helpers import forall

from repro.deploy.model_server import ModelRegistry
from repro.nn import engine
from repro.nn import functional as F
from repro.nn import passes
from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.obs import KernelProfiler, profile_kernels

pytestmark = pytest.mark.engine


def _observed(replay: int):
    """Profile every other replay: one plan, observer on and off."""
    return profile_kernels() if replay % 2 == 0 else nullcontext()


# ----------------------------------------------------------------------
# arena replay is bitwise-identical to eager, per kernel family
# ----------------------------------------------------------------------
def _builders():
    """One ``(loss_fn, params)`` factory per kernel family.

    Each closure rebuilds the identical graph from *stable* leaves on
    every call (the ``CompiledLoss`` contract) and contains common
    (duplicated) subexpressions: same-shaped outputs with overlapping
    lifetimes, which is what makes the arena recycle buffers.
    """
    rng = np.random.default_rng(17)
    x = rng.normal(size=(4, 6, 3))
    m = rng.normal(size=(5, 4))
    mask = F.causal_mask(6)
    index = rng.integers(0, 5, size=9)

    def linear():
        xs = Tensor(m)
        w = Parameter(rng.normal(size=(4, 3)), name="w")
        b = Parameter(rng.normal(size=3), name="b")
        return lambda: (F.linear(xs, w, b) + F.linear(xs, w, b)
                        + (xs @ w + b)).sum(), [w, b]

    def linear_act():
        xs = Tensor(m)
        w = Parameter(rng.normal(size=(4, 3)), name="w")
        b = Parameter(rng.normal(size=3), name="b")

        def fn():
            h = (F.relu(F.linear(xs, w, b)) + F.relu(F.linear(xs, w, b))
                 + F.tanh(F.linear(xs, w, b)) + F.sigmoid(xs @ w + b))
            return (h * h).sum()

        return fn, [w, b]

    def elementwise():
        xs = Tensor(m)
        w = Parameter(rng.normal(size=(4, 3)), name="w")

        def fn():
            h = xs @ w
            e = F.exp(h * Tensor(0.1)) + F.exp(h * Tensor(0.1))
            s = (F.sqrt(F.absolute(h) + Tensor(1.0))
                 + F.sqrt(F.absolute(h) + Tensor(1.0)))
            return (e * s).sum()

        return fn, [w]

    def conv():
        xs = Tensor(x)
        w = Parameter(rng.normal(size=(3, 3, 2)), name="cw")
        b = Parameter(rng.normal(size=2), name="cb")
        return (lambda: ((F.conv1d(xs, w, b) + F.conv1d(xs, w, b)) ** 2.0)
                .sum()), [w, b]

    def conv_bank():
        xs = Tensor(x)
        w1 = Parameter(rng.normal(size=(1, 3, 2)), name="w1")
        w2 = Parameter(rng.normal(size=(4, 3, 2)), name="w2")
        b1 = Parameter(rng.normal(size=2), name="b1")
        b2 = Parameter(rng.normal(size=2), name="b2")

        def bank():
            return F.conv_bank(xs, [w1, w2], [b1, b2])

        return lambda: (bank() + bank()).sum(), [w1, w2, b1, b2]

    def softmax_family():
        xs = Tensor(x)
        w = Parameter(rng.normal(size=(3, 6)), name="w")

        def fn():
            scores = xs @ w  # (4, 6, 6)
            att = (F.scaled_masked_softmax(scores, 0.5, mask)
                   + F.scaled_masked_softmax(scores, 0.5, mask)
                   + F.masked_softmax(scores * Tensor(0.5), mask))
            return (att * att).sum()

        return fn, [w]

    def graph_ops():
        h = Parameter(rng.normal(size=(5, 3)), name="h")

        def seg():
            return F.segment_sum(F.gather_rows(h, index), index, 5)

        return lambda: ((seg() + seg()) ** 2.0).sum(), [h]

    def mul_sum():
        a = Parameter(rng.normal(size=(4, 5)), name="a")
        b = Parameter(rng.normal(size=(4, 5)), name="b")
        return lambda: (a * b).sum() + (a * b).sum(), [a, b]

    return [(f.__name__, f) for f in [
        linear, linear_act, elementwise, conv, conv_bank,
        softmax_family, graph_ops, mul_sum,
    ]]


@pytest.mark.parametrize("family,make", _builders(), ids=lambda v: v
                         if isinstance(v, str) else "")
def test_cse_arena_replay_bitwise_equals_eager(family, make):
    """Graphs with common subexpressions (cse), replayed in the arena."""
    loss_fn, params = make()

    # Eager reference bits (the same kernels, no plan).
    eager = loss_fn()
    eager.backward()
    ref_loss = float(eager.data)
    ref_grads = [p.grad.copy() for p in params]

    compiled = engine.CompiledLoss(loss_fn)
    for replay in range(5):
        for p in params:
            p.zero_grad()
        with _observed(replay):
            value = compiled.run()
        assert compiled.fallback_reason == "", compiled.fallback_reason
        assert value == ref_loss, f"{family}: loss bits differ at {replay}"
        for p, ref in zip(params, ref_grads):
            assert np.array_equal(p.grad, ref), (
                f"{family}: grad bits differ at replay {replay}"
            )
    plan = compiled._plan
    assert plan is not None
    assert max(plan.memory_plan.step_buffer) >= 0, (
        f"{family}: arena never engaged")


# ----------------------------------------------------------------------
# liveness: no two simultaneously-live slots share an arena buffer
# ----------------------------------------------------------------------
class _RandomStructure:
    """A randomly wired schedule quacking like ``ExecutionPlan`` for the
    static passes (steps / num_slots / slot_shapes / root_slot)."""

    UNARY = ("exp", "tanh", "relu", "abs", "sqrt", "log", "sigmoid")
    BINARY = ("add", "mul", "div")
    VIEW = ("reshape", "transpose")

    def __init__(self, rng: np.random.Generator) -> None:
        num_leaves = int(rng.integers(1, 4))
        num_steps = int(rng.integers(1, 30))
        shapes = [(4,), (2, 3), (3, 2), (8,)]
        self.slot_shapes = [shapes[int(rng.integers(0, len(shapes)))]
                            for _ in range(num_leaves)]
        self.steps = []
        for _ in range(num_steps):
            live = num_leaves + len(self.steps)
            kind = rng.random()
            if kind < 0.2:
                op = self.VIEW[int(rng.integers(0, len(self.VIEW)))]
                ins = (int(rng.integers(0, live)),)
            elif kind < 0.6:
                op = self.UNARY[int(rng.integers(0, len(self.UNARY)))]
                ins = (int(rng.integers(0, live)),)
            else:
                op = self.BINARY[int(rng.integers(0, len(self.BINARY)))]
                ins = (int(rng.integers(0, live)),
                       int(rng.integers(0, live)))
            out = live
            self.steps.append(engine._Step(op, ins, out))
            if op in self.VIEW:
                self.slot_shapes.append(self.slot_shapes[ins[0]])
            else:
                self.slot_shapes.append(
                    shapes[int(rng.integers(0, len(shapes)))])
        self.num_slots = num_leaves + num_steps
        self.root_slot = self.steps[-1].out
        self.slot_shapes = tuple(self.slot_shapes)

    def __repr__(self) -> str:
        ops = [(s.op, s.ins, s.out) for s in self.steps]
        return f"_RandomStructure(root={self.root_slot}, steps={ops})"


def _naive_storage_last_read(structure):
    """Independent recomputation of each base slot's last read time.

    Deliberately written as a per-slot scan (not the planner's single
    forward walk) so a planner bug cannot hide in shared code.
    """
    steps = structure.steps
    horizon = len(steps)

    base = {}

    def resolve(slot):
        while slot in base:
            slot = base[slot]
        return slot

    for step in steps:
        if step.op in passes.VIEW_OPS:
            base[step.out] = resolve(step.ins[0])

    last = {}
    for b in range(structure.num_slots):
        if resolve(b) != b:
            continue
        reads = [-1]
        for i, step in enumerate(steps):
            if any(resolve(j) == b for j in step.ins) or resolve(step.out) == b:
                reads.append(i)
            uses = engine.KERNELS[step.op].vjp_uses
            if "inputs" in uses and any(resolve(j) == b for j in step.ins):
                reads.append(horizon + 1)
            if "output" in uses and resolve(step.out) == b:
                reads.append(horizon + 1)
        if resolve(structure.root_slot) == b:
            reads.append(horizon)
        last[b] = max(reads)
    return resolve, last


def test_liveness_never_overlaps_buffer_occupants():
    def prop(structure):
        plan = passes.plan_memory(structure, engine.KERNELS)
        resolve, naive_last = _naive_storage_last_read(structure)
        for i, step in enumerate(structure.steps):
            buf = plan.step_buffer[i]
            if step.op in passes.VIEW_OPS:
                assert buf == -1, f"view step {i} got a buffer"
                continue
            if buf >= 0:
                assert plan.buffer_shapes[buf] == \
                    structure.slot_shapes[step.out]
        for buf, occupants in enumerate(plan.buffer_occupancy):
            ordered = sorted(occupants, key=lambda o: o[1])
            for (si, di, _ei), (sj, dj, _ej) in zip(ordered, ordered[1:]):
                true_end = naive_last[resolve(structure.steps[si].out)]
                assert true_end < dj, (
                    f"buffer {buf}: step {si} storage live through "
                    f"{true_end} but step {sj} overwrites it at {dj}"
                )

    forall(_RandomStructure, prop, trials=150,
           name="arena liveness non-overlap")


def test_view_lifetimes_extend_their_base_buffer():
    """A reshape read late in the schedule must pin the base buffer."""
    rng = np.random.default_rng(0)

    def prop(seed):
        case_rng = np.random.default_rng(seed)
        structure = _RandomStructure(case_rng)
        plan = passes.plan_memory(structure, engine.KERNELS)
        resolve, naive_last = _naive_storage_last_read(structure)
        # The planner's recorded end for every occupant covers the
        # independently computed last read (views included).
        for buf, occupants in enumerate(plan.buffer_occupancy):
            for (si, _di, ei) in occupants:
                base = resolve(structure.steps[si].out)
                assert ei >= naive_last[base], (
                    f"step {si}: planner end {ei} < true last read "
                    f"{naive_last[base]}"
                )

    forall(lambda r: int(r.integers(0, 2**31)), prop, trials=100,
           name="view lifetime union")
    del rng


# ----------------------------------------------------------------------
# arena steady state: zero allocations per replay after materialisation
# ----------------------------------------------------------------------
def _check_arena_steady_state(profiled: bool):
    profiler = KernelProfiler()
    observed = (lambda: profile_kernels(profiler)) if profiled else nullcontext
    rng = np.random.default_rng(5)
    xs = Tensor(rng.normal(size=(8, 6)))
    w = Parameter(rng.normal(size=(6, 4)), name="w")
    target = Tensor(rng.normal(size=(8, 4)))

    def loss_fn():
        diff = F.tanh(xs @ w) - target
        return (diff * diff).mean()

    compiled = engine.CompiledLoss(loss_fn)
    w.zero_grad()
    compiled.run()   # trace
    w.zero_grad()
    with observed():
        compiled.run()   # first replay materialises the arena
    plan = compiled._plan
    assert plan is not None
    assert plan._arena is not None
    assert len(plan._arena) == plan.memory_plan.num_buffers
    before = engine.stats_snapshot()
    buffer_ids = [id(buf) for buf in plan._arena]
    with observed():
        for _ in range(5):
            w.zero_grad()
            compiled.run()
    after = engine.stats_snapshot()
    assert after["arena_buffers_allocated"] == \
        before["arena_buffers_allocated"]
    assert after["arena_bytes_allocated"] == before["arena_bytes_allocated"]
    # Same physical buffers across replays, not equal-sized reallocations.
    assert [id(buf) for buf in plan._arena] == buffer_ids
    assert profiler.replays == (6 if profiled else 0)


def test_arena_allocates_once_then_never_again():
    """The profile measures the loop that runs: a plan first replayed
    under ``profile_kernels()`` materialises and keeps the same arena."""
    _check_arena_steady_state(profiled=False)
    _check_arena_steady_state(profiled=True)


# ----------------------------------------------------------------------
# one dtype
# ----------------------------------------------------------------------
class _TwoLayer(Module):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(9)
        self.fc1 = Linear(6, 8, rng=rng)
        self.fc2 = Linear(8, 3, rng=rng)

    def forward(self, x):
        return self.fc2(F.tanh(self.fc1(x)))


class TestOneDtype:
    def test_leaf_tensors_are_float64(self):
        for data in ([1, 2, 3], np.arange(3, dtype=np.int32),
                     np.ones(3, dtype=np.float32)):
            assert Tensor(data).data.dtype == np.float64
        assert Parameter(np.ones(3, dtype=np.float32),
                         name="p").data.dtype == np.float64

    def test_plans_replay_in_float64(self):
        """float32 inputs are widened at the leaf, so the plan, its
        arena, the loss and the gradients are float64 — and replay is
        bitwise the eager walk."""
        rng = np.random.default_rng(3)
        xs = Tensor(rng.normal(size=(6, 4)).astype(np.float32))
        w = Parameter(rng.normal(size=(4, 3)).astype(np.float32), name="w")

        def loss_fn():
            h = F.tanh(xs @ w) + F.tanh(xs @ w)
            return (h * h).mean()

        eager = loss_fn()
        eager.backward()
        ref_loss, ref_grad = float(eager.data), w.grad.copy()
        compiled = engine.CompiledLoss(loss_fn)
        for replay in range(5):
            w.zero_grad()
            with _observed(replay):
                assert compiled.run() == ref_loss
            assert np.array_equal(w.grad, ref_grad)
        plan = compiled._plan
        assert plan is not None and plan._arena
        assert all(buf.dtype == np.float64 for buf in plan._arena)
        assert w.grad.dtype == np.float64
        assert plan.memory_plan.arena_bytes == 8 * sum(
            int(np.prod(shape)) for shape in plan.memory_plan.buffer_shapes)

    def test_load_state_dict_casts_to_float64(self):
        reference = _TwoLayer()
        narrow = {name: value.astype(np.float32)
                  for name, value in reference.state_dict().items()}
        model = _TwoLayer()
        model.load_state_dict(narrow)
        for name, param in model.named_parameters():
            assert param.data.dtype == np.float64
            assert param.data is not narrow[name]
            np.testing.assert_array_equal(param.data, narrow[name])

    def test_registry_publishes_and_loads_one_float64_state(self):
        registry = ModelRegistry()
        source = _TwoLayer()
        version = registry.publish(source, trained_at_month=12)
        serving = _TwoLayer()
        for param in serving.parameters():
            param.data = np.zeros_like(param.data)
        record = registry.load_into(serving)
        assert record is version and record.version == 1
        for name, param in serving.named_parameters():
            assert version.state[name].dtype == np.float64
            np.testing.assert_array_equal(param.data, version.state[name])
            assert param.data is not version.state[name]
