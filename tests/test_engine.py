"""Gradient correctness, equivalence and stats tests for the engine.

Four layers of guarantees, strongest first:

* every fused kernel's VJP matches central differences across random
  shapes (``forall`` harness; ``-m engine`` selects this suite);
* kernels match their oracles' gradients (``tests/kernel_oracles.py``);
* one composition per model: a recorded forward, a ``no_grad`` forward
  and an ``inference_mode`` forward give the same bits, for every
  neural method — nothing is rewritten while recording;
* compiled-plan replay is **bit-for-bit** identical to the eager graph
  walk, and the engine tracks the oracle kernels to <= 1e-12 over whole
  training trajectories (Trainer and ParallelTrainer).
"""

import gc
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import check_gradients, forall, numerical_gradient
from kernel_oracles import use_oracles

from repro.baselines.registry import create_model
from repro.core import Gaia, GaiaConfig
from repro.data import MarketplaceConfig, build_dataset, build_marketplace
from repro.nn import engine
from repro.nn import functional as F
from repro.nn.kernels.conv import _padded_cols
from repro.nn.kernels.gather import _bind_scatter, _scatter_rows
from repro.nn.layers import Conv1d, Linear, conv_bank
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor, _apply_op, no_grad
from repro.obs import profile_kernels
from repro.training import TrainConfig, Trainer
from repro.training.parallel import ParallelTrainer
from repro.training.trainer import masked_loss

pytestmark = pytest.mark.engine


@pytest.fixture(scope="module")
def dataset():
    market = build_marketplace(MarketplaceConfig(num_shops=36, seed=11))
    return build_dataset(market, train_fraction=0.6, val_fraction=0.2)


def small_gaia(dataset, seed=0, **overrides):
    config = GaiaConfig(
        input_window=dataset.input_window,
        horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim,
        static_dim=dataset.static_dim,
        channels=8,
        num_scales=2,
        num_layers=1,
        **overrides,
    )
    return Gaia(config, seed=seed)


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


# ----------------------------------------------------------------------
# fused kernels vs central differences
# ----------------------------------------------------------------------
class TestFusedKernelGradients:
    """Central-difference checks for every fused kernel, random shapes."""

    def test_linear_fusion_gradcheck(self):
        def prop(case):
            b, t, c_in, c_out = case
            rng = np.random.default_rng(b * 100 + t)
            x = leaf(rng, b, t, c_in)
            w = leaf(rng, c_in, c_out)
            bias = leaf(rng, c_out)
            assert F.linear(x, w, bias)._op == "linear"
            check_gradients(
                lambda ts: (F.linear(ts[0], ts[1], ts[2]) ** 2.0).sum(),
                [x, w, bias],
            )

        forall(
            lambda rng: (int(rng.integers(1, 4)), int(rng.integers(1, 5)),
                         int(rng.integers(1, 5)), int(rng.integers(1, 5))),
            prop, trials=12, name="linear gradients",
        )

    def test_conv_bank_gradcheck(self):
        rng = np.random.default_rng(7)
        x = leaf(rng, 2, 6, 3)
        ws = [leaf(rng, w, 3, 2) for w in (1, 2, 4)]
        bs = [leaf(rng, 2) for _ in range(3)]
        assert F.conv_bank(x, ws, bs)._op == "multi_conv1d"

        def build(ts):
            xs, w1, w2, w3, b1, b2, b3 = ts
            out = F.conv_bank(xs, [w1, w2, w3], [b1, b2, b3])
            return (out * out).sum()

        check_gradients(build, [x, *ws, *bs], atol=1e-4)

    def test_scaled_masked_softmax_fusion_gradcheck(self):
        rng = np.random.default_rng(5)
        mask = F.causal_mask(4)
        scores = leaf(rng, 3, 4, 4)
        fused = F.scaled_masked_softmax(scores, 0.5, mask)
        assert fused._op == "scaled_masked_softmax"
        check_gradients(
            lambda ts: (F.scaled_masked_softmax(ts[0], 0.5, mask) ** 2.0).sum(),
            [scores], atol=1e-4,
        )

    def test_conv1d_fused_kernel_gradcheck(self):
        def prop(case):
            width, padding = case
            rng = np.random.default_rng(width * 17)
            x = leaf(rng, 2, 6, 3)
            w = leaf(rng, width, 3, 2)
            b = leaf(rng, 2)
            check_gradients(
                lambda ts: (F.conv1d(ts[0], ts[1], ts[2], padding=padding)
                            ** 2.0).sum(),
                [x, w, b], atol=1e-4,
            )

        forall(
            lambda rng: (int(rng.integers(1, 5)),
                         str(rng.choice(["causal", "same", "valid"]))),
            prop, trials=8, name="fused conv1d gradients",
        )

    def test_graph_primitive_fused_vjps(self):
        rng = np.random.default_rng(13)
        index = rng.integers(0, 5, size=11)
        h = leaf(rng, 5, 3)
        check_gradients(
            lambda ts: (F.segment_sum(F.gather_rows(ts[0], index), index, 5)
                        ** 2.0).sum(),
            [h],
        )

    def test_segment_softmax_gradcheck(self):
        rng = np.random.default_rng(21)
        ids = np.sort(rng.integers(0, 4, size=9))
        scores = leaf(rng, 9)
        check_gradients(
            lambda ts: (F.segment_softmax(ts[0], ids, 4) ** 2.0).sum(),
            [scores],
        )


# ----------------------------------------------------------------------
# fused vs reference kernels
# ----------------------------------------------------------------------
class TestFusedMatchesReference:
    def _grads(self, build):
        loss, leaves = build()
        loss.backward()
        return loss.item(), [leaf.grad.copy() for leaf in leaves]

    @pytest.mark.parametrize("width", [1, 3, 6])
    def test_conv1d_modes_agree(self, width):
        """The conv1d kernel against its oracle, through the dispatcher."""
        def build():
            rng = np.random.default_rng(width)
            x = leaf(rng, 3, 7, 4)
            w = leaf(rng, width, 4, 2)
            b = leaf(rng, 2)
            return (F.conv1d(x, w, b) ** 2.0).sum(), [x, w, b]

        fused_loss, fused_grads = self._grads(build)
        with use_oracles():
            ref_loss, ref_grads = self._grads(build)
        assert fused_loss == pytest.approx(ref_loss, rel=1e-12)
        for fg, rg in zip(fused_grads, ref_grads):
            np.testing.assert_allclose(fg, rg, rtol=1e-10, atol=1e-12)

    def test_scatter_add_bit_identical_to_add_at(self):
        def prop(case):
            rng = np.random.default_rng(case)
            rows = int(rng.integers(1, 8))
            index = rng.integers(-rows, rows, size=int(rng.integers(0, 30)))
            values = rng.normal(size=(index.size, 3, 2))
            reference = np.zeros((rows, 3, 2))
            np.add.at(reference, index, values)
            # No memo (eager): bincount.  Bound into a plan: the
            # memoised CSR product, on every replay.
            meta = {}
            assert np.array_equal(
                reference, _scatter_rows(index, values, rows, meta))
            assert meta == {}, "an eager scatter kept a memo"
            _bind_scatter(meta, index, rows, values.shape)
            assert ("_scatter" in meta) == (index.size > 0)
            for replay in range(2):
                fast = _scatter_rows(index, values, rows, meta)
                assert np.array_equal(reference, fast), (
                    f"scatter mismatch on replay {replay}")

        forall(lambda rng: int(rng.integers(0, 10000)), prop, trials=50,
               name="bincount / CSR scatter == add.at")

    def test_width_one_bank_skips_the_columns_with_the_same_bits(self):
        """ITA-GCN's s/d-term bank: at ``wmax == 1`` the input's own
        ``(B * T, C)`` view is the GEMM operand the zero-pad + im2col
        copy would have laid out, so forward and VJP keep their bits."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 6, 3))
        ws = [rng.normal(size=(1, 3, 2)) for _ in range(2)]
        meta = {"num_scales": 2, "bias": False}
        out, saved = engine.KERNELS["multi_conv1d"].forward(meta, (x, *ws))
        assert saved is None
        cols = _padded_cols(x, 1, 0, 0).reshape(30, 3)
        block = np.concatenate([w[0] for w in ws], axis=1)
        assert np.array_equal(out, (cols @ block).reshape(5, 6, 4))
        grad = rng.normal(size=out.shape)
        g_x, g_w0, g_w1 = engine.KERNELS["multi_conv1d"].vjp(
            meta, grad, (x, *ws), out, None)
        g_block = np.ascontiguousarray((grad.reshape(30, 4).T @ cols).T)
        assert np.array_equal(g_w0[0], g_block[:, :2])
        assert np.array_equal(g_w1[0], g_block[:, 2:])
        assert g_x.shape == x.shape


# ----------------------------------------------------------------------
# compiled plans
# ----------------------------------------------------------------------
class TestCompiledLoss:
    def _quadratic(self, rng):
        x = Tensor(rng.normal(size=(6, 4)))
        w = Parameter(rng.normal(size=(4, 3)), name="net.weight")
        b = Parameter(np.zeros(3), name="net.bias")
        target = rng.normal(size=(6, 3))

        def loss_fn():
            diff = x @ w + b - Tensor(target)
            return (diff * diff).mean()

        return loss_fn, [w, b]

    def test_replay_matches_eager_backward_bitwise(self):
        rng = np.random.default_rng(0)
        loss_fn, params = self._quadratic(rng)
        compiled = engine.CompiledLoss(loss_fn)
        for step in range(4):
            for p in params:
                p.zero_grad()
            compiled_loss = compiled.run()
            compiled_grads = [p.grad.copy() for p in params]
            for p in params:
                p.zero_grad()
            eager = loss_fn()
            eager.backward()
            assert compiled_loss == eager.item()
            for cg, p in zip(compiled_grads, params):
                assert np.array_equal(cg, p.grad), f"step {step} grads differ"
            # Move the parameters so every replay sees fresh values.
            for p in params:
                p.data = p.data - 0.05 * p.grad

    def test_plan_reads_reloaded_parameter_arrays(self):
        rng = np.random.default_rng(1)
        loss_fn, params = self._quadratic(rng)
        compiled = engine.CompiledLoss(loss_fn)
        first = compiled.run()
        # Replace the underlying arrays (load_state_dict semantics).
        params[0].data = params[0].data * 0.0
        params[1].data = params[1].data * 0.0
        for p in params:
            p.zero_grad()
        replay = compiled.run()
        assert replay != first
        eager = loss_fn()
        assert replay == eager.item()

    def test_dynamic_graph_falls_back(self):
        rng = np.random.default_rng(2)
        w = Parameter(rng.normal(size=(4, 2)), name="net.weight")
        x = rng.normal(size=(5, 4))
        gen = np.random.default_rng(3)

        def loss_fn():
            h = F.dropout(Tensor(x) @ w, rate=0.5, rng=gen)
            return (h * h).mean()

        compiled = engine.CompiledLoss(loss_fn)
        values = {compiled.run() for _ in range(4)}
        assert compiled.fallback_reason.startswith("dynamic trace")
        assert len(values) > 1  # fresh dropout masks each step, not replays

    def test_rebind_on_shape_change(self):
        holder = {"x": np.ones((3, 2))}
        w = Parameter(np.ones((2, 1)), name="net.weight")

        def loss_fn():
            out = Tensor(holder["x"]) @ w
            return (out * out).mean()

        compiled = engine.CompiledLoss(loss_fn)
        first = compiled.run()
        assert first == pytest.approx(4.0)
        holder["x"] = np.ones((5, 2))
        w.zero_grad()
        assert compiled.run() == pytest.approx(4.0)


    @pytest.mark.parametrize("phase", ["forward", "backward"])
    def test_raising_kernel_releases_plan_and_closes_profile(self, phase):
        """A kernel that raises mid-replay (a conv step's ``MemoryError``
        is the realistic one) must not leave the plan pinning a set of
        activations, nor profile rows without their replay time."""
        tanh = engine.KERNELS["tanh"]
        calls = {"forward": 0, "backward": 0}

        def trip(which):
            calls[which] += 1
            if which == phase and calls[which] == 2:  # 1 = the trace
                raise MemoryError("saved buffer")

        def flaky_fw(meta, arrays, out=None):
            trip("forward")
            return tanh.forward(meta, arrays, out)

        def flaky_bw(meta, grad, arrays, out, saved):
            trip("backward")
            return tanh.vjp(meta, grad, arrays, out, saved)

        def build(op):
            rng = np.random.default_rng(7)
            x = Tensor(rng.normal(size=(6, 4)))
            w = Parameter(rng.normal(size=(4, 3)), name="net.weight")
            b = Parameter(np.zeros(3), name="net.bias")

            def loss_fn():
                h = _apply_op(op, (x @ w + b,))
                return (h * h).mean()

            return engine.CompiledLoss(loss_fn), [w, b]

        registry = dict(engine.KERNELS)
        engine.register_kernel("flaky_tanh", flaky_fw, flaky_bw,
                               vjp_uses=tanh.vjp_uses)
        try:
            flaky, params = build("flaky_tanh")
            twin, twin_params = build("tanh")
            flaky.run()
            twin.run()
            for p in params + twin_params:
                p.zero_grad()
            with profile_kernels() as profiler:
                with pytest.raises(MemoryError):
                    flaky.run()
            plan = flaky._plan
            assert plan is not None
            assert all(plan._values[step.out] is None
                       for step in plan.steps)
            assert all(entry is None for entry in plan._saved)
            assert all(grad is None for grad in plan._grads)
            assert all(p.grad is None for p in params)
            report = profiler.report()
            assert report["kernels"], "the steps before the failure ran"
            assert 0.0 < report["total_seconds"] <= report["replay_seconds"]
            assert report["coverage"] <= 1.0
            assert flaky.run() == twin.run()
            for p, q in zip(params, twin_params):
                assert np.array_equal(p.grad, q.grad)
        finally:
            del engine.KERNELS["flaky_tanh"]
        assert engine.KERNELS == registry


class TestTraceKeepsNothingDead:
    """A trace records no node: it holds exactly what the loss holds."""

    def _held_bytes(self, forward):
        """Bytes still allocated after ``forward()`` while its result is
        alive (tracemalloc, after a collection)."""
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = forward()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        del result
        return held

    def test_traced_gaia_forward_holds_what_an_untraced_one_holds(
            self, dataset):
        model = create_model("Gaia", dataset, seed=0, channels=8)
        batch = dataset.train[0]
        active = dataset.active_mask(batch, "train")

        def loss():
            return masked_loss(model, dataset.graph, batch, active)

        def traced():
            with engine.trace() as tape:
                value = loss()
            return value, tape

        loss()  # warm the graph's lazily built indices
        untraced_bytes = self._held_bytes(loss)
        traced_bytes = self._held_bytes(traced)
        assert untraced_bytes > 0
        assert abs(traced_bytes - untraced_bytes) <= 0.01 * untraced_bytes, (
            traced_bytes, untraced_bytes)

    def test_an_op_outside_the_trace_raises_plan_error(self):
        rng = np.random.default_rng(1)
        w = Parameter(rng.normal(size=(3, 2)), name="net.weight")
        x = Tensor(rng.normal(size=(4, 3)))
        early = F.tanh(x @ w)             # recorded before the trace
        with engine.trace() as tape:
            loss = (early * early).sum()
        with pytest.raises(engine.PlanError, match="outside the trace"):
            engine.compile_plan(loss, tape)
        with engine.trace() as tape:
            pass
        late = (F.tanh(x @ w) ** 2.0).sum()  # recorded after it closed
        with pytest.raises(engine.PlanError, match="outside the trace"):
            engine.compile_plan(late, tape)
        with engine.trace() as tape:
            inside = (F.tanh(x @ w) ** 2.0).sum()
        assert engine.compile_plan(inside, tape).steps

    def test_replayed_scatter_memos_are_o_of_the_index(self, dataset):
        """After two replays of a compiled Gaia loss, no array reachable
        from a scatter step's ``meta`` is larger than its index (or the
        ``rows + 1`` offsets of the CSR memo the plan's binding built):
        nothing ``E * d``."""
        model = small_gaia(dataset)
        trainer = Trainer(model, dataset, TrainConfig(
            epochs=3, min_epochs=3, patience=3))
        trainer.fit()  # the trace, then two replays
        (compiled,) = trainer._compiled.values()
        plan = compiled._plan
        assert plan is not None
        memos = 0
        for step in plan.steps:
            meta = step.meta or {}
            index = meta.get("index", meta.get("ids"))
            if not isinstance(index, np.ndarray) or index.dtype == np.bool_:
                continue
            rows = meta.get("num_segments") or meta["in_shape"][0]
            bound = max(index.size, rows + 1)
            arrays = list(_reachable_arrays(meta))
            assert max(a.size for a in arrays) <= bound, (
                step.op, [a.shape for a in arrays], index.size, rows)
            memos += meta.get("_scatter") is not None
        assert memos >= 3, "no scatter memo was kept: the check is vacuous"


    def test_scipy_is_imported_when_a_plan_is_bound(self):
        """``scipy.sparse`` (≈180 ms) is imported by binding a plan that
        keeps a scatter memo — not by ``import repro``, not by an eager
        forward + backward, and so never inside a timed replay."""
        src = str(Path(engine.__file__).resolve().parents[2])
        result = subprocess.run(
            [sys.executable, "-c", _SCIPY_PROBE],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [
            "import", "False", "eager", "False", "bound", "True", "planned",
        ], result.stdout


_SCIPY_PROBE = """
import sys
import repro
print("import", "scipy.sparse" in sys.modules)
from repro.core import Gaia, GaiaConfig
from repro.data import MarketplaceConfig, build_dataset, build_marketplace
from repro.nn import engine
from repro.training.trainer import masked_mse

dataset = build_dataset(build_marketplace(MarketplaceConfig(
    num_shops=20, seed=11)), train_fraction=0.6, val_fraction=0.2)
model = Gaia(GaiaConfig(
    input_window=dataset.input_window, horizon=dataset.horizon,
    temporal_dim=dataset.temporal_dim, static_dim=dataset.static_dim,
    channels=8, num_scales=2, num_layers=1), seed=0)
loss_fn = lambda: masked_mse(model, dataset, dataset.train[0], "train")[0]
loss_fn().backward()
print("eager", "scipy.sparse" in sys.modules)
compiled = engine.CompiledLoss(loss_fn)
compiled.run()
print("bound", "scipy.sparse" in sys.modules)
print("planned" if compiled.fallback_reason == "" else "eager-fallback")
"""


def _reachable_arrays(value, seen=None):
    """Every ndarray reachable from ``value`` through containers and
    object attributes (a memo of any type is found)."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _reachable_arrays(item, seen)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _reachable_arrays(item, seen)
    elif hasattr(value, "__dict__"):
        yield from _reachable_arrays(vars(value), seen)


# ----------------------------------------------------------------------
# end-to-end trajectory equivalence (the PR-2 property: planned == eager)
# ----------------------------------------------------------------------
#: Every neural row of Table I / II (``baselines/registry.py``): each is
#: trained through planned replays, so each is an input of the gates.
NEURAL_METHODS = ("LogTrans", "GAT", "GraphSage", "Geniepath", "STGCN",
                  "GMAN", "MTGNN", "Gaia", "Gaia w/o ITA", "Gaia w/o FFL",
                  "Gaia w/o TEL")
#: ... except MTGNN, whose value-dependent top-k adjacency mask makes
#: the trace dynamic: it must say so and run eagerly instead.
FALLBACKS = {"MTGNN": "mtgnn top-k adjacency mask"}


class TestOneComposition:
    """A model computes one way: the forward a training trace records,
    the ``no_grad`` forward of validation and the ``inference_mode``
    forward of serving run the same kernels and give the same bits."""

    @pytest.mark.parametrize("method", NEURAL_METHODS)
    def test_recorded_no_grad_and_inference_forwards_are_bitwise_equal(
            self, dataset, method):
        model = create_model(method, dataset, seed=0, channels=8)
        batch, graph = dataset.train[0], dataset.graph
        with engine.trace():
            recorded = model(batch, graph)
        assert recorded.requires_grad and recorded._op is not None
        with no_grad():
            validation = model(batch, graph)
        with engine.inference_mode():
            serving = model(batch, graph)
        assert np.array_equal(recorded.data, validation.data)
        assert np.array_equal(recorded.data, serving.data)

    def test_nothing_is_rewritten_while_recording(self):
        """A concat of convolutions records a concat of convolutions and
        an affine map spelled ``x @ w + b`` records a matmul and an add:
        the fused kernels are reached by calling them, never by
        matching what was recorded."""
        rng = np.random.default_rng(9)
        x = leaf(rng, 2, 5, 3)
        convs = [Conv1d(3, 2, width=w, rng=rng, padding="causal")
                 for w in (2, 4)]
        joined = F.concat([conv(x) for conv in convs], axis=-1)
        assert joined._op == "concat"
        assert [p._op for p in joined._parents] == ["conv1d", "conv1d"]
        w = leaf(rng, 3, 2)
        b = leaf(rng, 2)
        affine = x @ w + b
        assert affine._op == "add" and affine._parents[0]._op == "matmul"
        bank = conv_bank(x, convs)
        assert bank._op == "multi_conv1d"
        assert np.allclose(bank.data, joined.data, rtol=1e-12, atol=1e-12)
        same = Conv1d(3, 2, width=3, rng=rng, padding="same")
        with pytest.raises(ValueError, match="causal"):
            conv_bank(x, [same])   # a bank is causal: it would shift "same"


class TestTrainerEquivalence:
    EPOCHS = 6

    def _fit(self, dataset, use_engine, parallel=False, method=None):
        """Train ``method`` (default: the small Gaia); returns the
        history, the final weights and the trainer."""
        if method is None:
            model = small_gaia(dataset)
        else:
            model = create_model(method, dataset, seed=0, channels=8)
        config = TrainConfig(epochs=self.EPOCHS, min_epochs=self.EPOCHS,
                             patience=self.EPOCHS, use_engine=use_engine)
        if parallel:
            trainer = ParallelTrainer(model, dataset, config, n_shards=2)
        else:
            trainer = Trainer(model, dataset, config)
        history = trainer.fit()
        return history, model.state_dict(), trainer

    def _fit_planned(self, dataset, method):
        """The engine-path fit, checked to have run the way the registry
        says: planned replays, or the documented eager fallback."""
        history, state, trainer = self._fit(dataset, use_engine=True,
                                            method=method)
        (compiled,) = trainer._compiled.values()
        if method in FALLBACKS:
            assert FALLBACKS[method] in compiled.fallback_reason
            assert compiled._plan is None
        else:
            assert compiled.fallback_reason == "", compiled.fallback_reason
            assert compiled._plan is not None
        return history, state

    @pytest.mark.parametrize("method", NEURAL_METHODS)
    def test_planned_trainer_is_bitwise_eager_fused(self, dataset, method):
        planned, planned_state = self._fit_planned(dataset, method)
        unplanned, unplanned_state, _ = self._fit(
            dataset, use_engine=False, method=method)
        assert planned.train_loss == unplanned.train_loss
        assert planned.val_loss == unplanned.val_loss
        for name, value in planned_state.items():
            assert np.array_equal(value, unplanned_state[name]), name

    @pytest.mark.parametrize("method", NEURAL_METHODS)
    def test_engine_matches_eager_path_to_1e12(self, dataset, method):
        planned, planned_state = self._fit_planned(dataset, method)
        with use_oracles():
            eager, eager_state, _ = self._fit(dataset, use_engine=False,
                                              method=method)
        drift = max(
            abs(a - b) for a, b in zip(planned.train_loss, eager.train_loss)
        )
        assert drift <= 1e-12, f"loss trajectory drift {drift}"
        for name, value in planned_state.items():
            np.testing.assert_allclose(
                value, eager_state[name], atol=1e-10,
                err_msg=f"parameter {name} drifted",
            )

    def test_parallel_trainer_matches_eager_path_to_1e12(self, dataset):
        planned, _, _ = self._fit(dataset, use_engine=True, parallel=True)
        with use_oracles():
            eager, _, _ = self._fit(dataset, use_engine=False, parallel=True)
        drift = max(
            abs(a - b) for a, b in zip(planned.train_loss, eager.train_loss)
        )
        assert drift <= 1e-12, f"parallel loss trajectory drift {drift}"

    def test_dropout_model_still_trains_via_fallback(self, dataset):
        model = small_gaia(dataset, dropout=0.3)
        config = TrainConfig(epochs=2, min_epochs=2, patience=2,
                             use_engine=True)
        history = Trainer(model, dataset, config).fit()
        assert len(history.train_loss) == 2
        assert np.isfinite(history.train_loss).all()


class TestStatsThreadSafety:
    """Gateway pumps and trainers may run on worker threads, so the
    engine stats counters must not lose increments under contention."""

    def test_concurrent_bumps_never_lose_increments(self):
        engine.reset_stats()
        threads, per_thread = 8, 2000
        key = "test_concurrent_bumps"
        # Force frequent preemption so torn read-modify-write sequences
        # actually interleave if the counter update is unguarded.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def worker():
                for _ in range(per_thread):
                    engine._bump(key)

            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
        finally:
            sys.setswitchinterval(previous)
        assert engine.stats_snapshot()[key] == threads * per_thread
        engine.reset_stats()
        assert key not in engine.stats_snapshot()


class TestFusedRegressions:
    """Crash repros from review: fused kernels must cover every input
    pattern the seed autograd supported."""

    def test_mul_backward_with_doubly_broadcast_operands(self):
        # (3,1) x (4,): both operands broadcast; the folded row-dot
        # shortcut must not fire when the partner is itself broadcast.
        a = Tensor(np.ones((3, 1)), requires_grad=True)
        b = Tensor(np.arange(4.0), requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, b.data.sum())
        assert np.allclose(b.grad, 3.0)

    def test_getitem_negative_integer_indices(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        x[np.array([-1, 2, -1])].sum().backward()
        assert np.allclose(x.grad, [0.0, 0.0, 1.0, 0.0, 2.0])

    def test_gather_rows_negative_indices(self):
        h = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        F.gather_rows(h, np.array([-1, 0])).sum().backward()
        assert np.allclose(h.grad, [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
