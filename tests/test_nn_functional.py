"""Tests for differentiable ops (repro.nn.functional)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from helpers import check_gradients

rng = np.random.default_rng(7)


class TestPointwise:
    @pytest.mark.parametrize("op,ref", [
        (F.exp, np.exp),
        (F.tanh, np.tanh),
        (F.relu, lambda x: np.maximum(x, 0)),
        (F.absolute, np.abs),
    ])
    def test_forward_matches_numpy(self, op, ref):
        x = rng.normal(size=(3, 4))
        assert np.allclose(op(Tensor(x)).data, ref(x))

    def test_sigmoid_range_and_stability(self):
        x = Tensor(np.array([-1000.0, 0.0, 1000.0]))
        y = F.sigmoid(x).data
        assert np.all((y >= 0) & (y <= 1))
        assert y[0] == pytest.approx(0.0)
        assert y[1] == pytest.approx(0.5)
        assert y[2] == pytest.approx(1.0)

    def test_log_gradient(self):
        x = Tensor(np.abs(rng.normal(size=(4,))) + 0.5, requires_grad=True)
        check_gradients(lambda ts: F.log(ts[0]).sum(), [x])

    def test_sqrt_gradient(self):
        x = Tensor(np.abs(rng.normal(size=(4,))) + 0.5, requires_grad=True)
        check_gradients(lambda ts: F.sqrt(ts[0]).sum(), [x])

    def test_exp_gradient(self):
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        check_gradients(lambda ts: F.exp(ts[0]).sum(), [x])

    def test_tanh_gradient(self):
        x = Tensor(rng.normal(size=(5,)), requires_grad=True)
        check_gradients(lambda ts: (F.tanh(ts[0]) ** 2.0).sum(), [x])

    def test_sigmoid_gradient(self):
        x = Tensor(rng.normal(size=(5,)), requires_grad=True)
        check_gradients(lambda ts: (F.sigmoid(ts[0]) ** 2.0).sum(), [x])

    def test_leaky_relu_negative_slope(self):
        x = Tensor(np.array([-2.0, 3.0]))
        y = F.leaky_relu(x, negative_slope=0.1)
        assert np.allclose(y.data, [-0.2, 3.0])


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(rng.normal(size=(4, 6)))
        y = F.softmax(x)
        assert np.allclose(y.data.sum(axis=-1), 1.0)

    def test_shift_invariance(self):
        x = rng.normal(size=(3, 5))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        assert np.allclose(a, b)

    def test_gradient(self):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        check_gradients(lambda ts: (F.softmax(ts[0]) ** 2.0).sum(), [x])

    def test_masked_softmax_zeroes_future(self):
        t = 5
        x = Tensor(rng.normal(size=(2, t, t)))
        y = F.masked_softmax(x, F.causal_mask(t)).data
        upper = np.triu_indices(t, k=1)
        assert np.allclose(y[:, upper[0], upper[1]], 0.0)
        assert np.allclose(y.sum(axis=-1), 1.0)

    def test_masked_softmax_fully_masked_row_is_zero(self):
        mask = np.full((2, 2), -np.inf)
        y = F.masked_softmax(Tensor(np.ones((2, 2))), mask).data
        assert np.allclose(y, 0.0)

    def test_masked_softmax_gradient(self):
        x = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
        mask = F.causal_mask(4)
        check_gradients(lambda ts: (F.masked_softmax(ts[0], mask) ** 2.0).sum(), [x])

    def test_causal_mask_structure(self):
        m = F.causal_mask(4)
        assert m[0, 0] == 0 and m[3, 0] == 0
        assert np.isneginf(m[0, 1]) and np.isneginf(m[2, 3])

    def test_log_sparse_mask_offsets(self):
        m = F.log_sparse_mask(9)
        # Position 8 attends to 8, 7, 6, 4, 0 (offsets 0,1,2,4,8).
        allowed = np.flatnonzero(np.isfinite(m[8]))
        assert list(allowed) == [0, 4, 6, 7, 8]
        # Strictly causal.
        assert np.all(~np.isfinite(m[np.triu_indices(9, k=1)]))


class TestStructure:
    def test_concat_gradient(self):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        check_gradients(lambda ts: (F.concat(ts, axis=-1) ** 2.0).sum(), [a, b])

    def test_stack_gradient(self):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        check_gradients(lambda ts: (F.stack(ts, axis=0) ** 2.0).sum(), [a, b])

    def test_pad_time_shapes_and_gradient(self):
        x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        y = F.pad_time(x, 2, 1)
        assert y.shape == (2, 7, 3)
        assert np.allclose(y.data[:, :2, :], 0.0)
        check_gradients(lambda ts: (F.pad_time(ts[0], 2, 1) ** 2.0).sum(), [x])

    def test_pad_time_zero_is_identity(self):
        x = Tensor(rng.normal(size=(1, 3, 2)))
        assert F.pad_time(x, 0, 0) is x


class TestConv1d:
    def test_output_shape_causal(self):
        x = Tensor(rng.normal(size=(2, 10, 3)))
        w = Tensor(rng.normal(size=(4, 3, 5)))
        assert F.conv1d(x, w, padding="causal").shape == (2, 10, 5)

    def test_output_shape_same_and_valid(self):
        x = Tensor(rng.normal(size=(2, 10, 3)))
        w = Tensor(rng.normal(size=(3, 3, 5)))
        assert F.conv1d(x, w, padding="same").shape == (2, 10, 5)
        assert F.conv1d(x, w, padding="valid").shape == (2, 8, 5)

    def test_causality_no_future_leakage(self):
        """Perturbing the input at time t must not change outputs < t."""
        x = rng.normal(size=(1, 8, 2))
        w = Tensor(rng.normal(size=(3, 2, 2)))
        base = F.conv1d(Tensor(x), w, padding="causal").data
        x2 = x.copy()
        x2[0, 5, :] += 10.0
        out2 = F.conv1d(Tensor(x2), w, padding="causal").data
        assert np.allclose(base[0, :5], out2[0, :5])
        assert not np.allclose(base[0, 5:], out2[0, 5:])

    def test_width1_equals_linear(self):
        x = rng.normal(size=(2, 6, 3))
        w = rng.normal(size=(1, 3, 4))
        out = F.conv1d(Tensor(x), Tensor(w), padding="causal").data
        assert np.allclose(out, x @ w[0])

    def test_gradients(self):
        x = Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        check_gradients(
            lambda ts: (F.conv1d(ts[0], ts[1], ts[2], padding="causal") ** 2.0).sum(),
            [x, w, b],
        )

    def test_gradients_same_padding(self):
        x = Tensor(rng.normal(size=(1, 5, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2, 3)), requires_grad=True)
        check_gradients(
            lambda ts: (F.conv1d(ts[0], ts[1], padding="same") ** 2.0).sum(), [x, w]
        )

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 5, 2)))
        w = Tensor(np.zeros((3, 4, 3)))
        with pytest.raises(ValueError):
            F.conv1d(x, w)

    def test_bad_padding_raises(self):
        x = Tensor(np.zeros((1, 5, 2)))
        w = Tensor(np.zeros((3, 2, 3)))
        with pytest.raises(ValueError):
            F.conv1d(x, w, padding="reflect")

    def test_requires_3d_input(self):
        with pytest.raises(ValueError):
            F.conv1d(Tensor(np.zeros((5, 2))), Tensor(np.zeros((3, 2, 3))))


class TestGraphPrimitives:
    def test_gather_rows_forward(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        idx = np.array([2, 0, 2])
        assert np.allclose(F.gather_rows(x, idx).data, x.data[idx])

    def test_gather_rows_gradient_scatter_adds(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        idx = np.array([1, 1, 0])
        F.gather_rows(x, idx).sum().backward()
        assert np.allclose(x.grad, [[1, 1], [2, 2], [0, 0]])

    def test_segment_sum_forward(self):
        x = Tensor(np.ones((5, 2)))
        seg = np.array([0, 0, 1, 2, 2])
        out = F.segment_sum(x, seg, 3).data
        assert np.allclose(out, [[2, 2], [1, 1], [2, 2]])

    def test_segment_sum_empty_segment(self):
        x = Tensor(np.ones((2, 1)))
        out = F.segment_sum(x, np.array([0, 2]), 4).data
        assert np.allclose(out[:, 0], [1, 0, 1, 0])

    def test_segment_sum_gradient(self):
        x = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        seg = np.array([0, 1, 1, 2, 0])
        check_gradients(lambda ts: (F.segment_sum(ts[0], seg, 3) ** 2.0).sum(), [x])

    def test_segment_softmax_normalises_per_segment(self):
        scores = Tensor(rng.normal(size=(7,)))
        seg = np.array([0, 0, 0, 1, 1, 2, 2])
        alpha = F.segment_softmax(scores, seg, 3).data
        for k in range(3):
            assert alpha[seg == k].sum() == pytest.approx(1.0)

    def test_segment_softmax_gradient(self):
        scores = Tensor(rng.normal(size=(6,)), requires_grad=True)
        seg = np.array([0, 0, 1, 1, 1, 2])
        check_gradients(
            lambda ts: (F.segment_softmax(ts[0], seg, 3) ** 2.0).sum(), [scores],
            atol=1e-4,
        )

    def test_segment_softmax_large_scores_stable(self):
        scores = Tensor(np.array([1000.0, 1001.0, -1000.0]))
        alpha = F.segment_softmax(scores, np.array([0, 0, 1]), 2).data
        assert np.all(np.isfinite(alpha))
        assert alpha[:2].sum() == pytest.approx(1.0)


class TestGatingAndLosses:
    def test_glu_halves_channels(self):
        x = Tensor(rng.normal(size=(2, 3, 8)))
        assert F.glu(x).shape == (2, 3, 4)

    def test_glu_odd_raises(self):
        with pytest.raises(ValueError):
            F.glu(Tensor(np.zeros((2, 3))))

    def test_glu_gradient(self):
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        check_gradients(lambda ts: (F.glu(ts[0]) ** 2.0).sum(), [x])

    def test_mse_loss_value(self):
        pred = Tensor(np.array([1.0, 2.0]))
        assert F.mse_loss(pred, np.array([0.0, 0.0])).item() == pytest.approx(2.5)

    def test_mae_loss_value(self):
        pred = Tensor(np.array([1.0, -3.0]))
        assert F.mae_loss(pred, np.zeros(2)).item() == pytest.approx(2.0)

    def test_huber_between_mse_and_mae(self):
        pred = Tensor(np.array([0.5, 5.0]))
        target = np.zeros(2)
        huber = F.huber_loss(pred, target, delta=1.0).item()
        assert 0 < huber < F.mse_loss(pred, target).item()

    def test_huber_gradient(self):
        x = Tensor(np.array([0.3, -4.0, 1.5]), requires_grad=True)
        check_gradients(lambda ts: F.huber_loss(ts[0], np.zeros(3), delta=1.0), [x])

    def test_dropout_eval_identity(self):
        x = Tensor(rng.normal(size=(10,)))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_dropout_preserves_expectation(self):
        x = Tensor(np.ones((20000,)))
        out = F.dropout(x, 0.3, np.random.default_rng(0), training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)


@given(st.integers(2, 8))
@settings(max_examples=10, deadline=None)
def test_property_masked_softmax_probability_simplex(t):
    x = Tensor(np.random.default_rng(t).normal(size=(2, t, t)) * 5)
    y = F.masked_softmax(x, F.causal_mask(t)).data
    assert np.all(y >= 0)
    assert np.allclose(y.sum(axis=-1), 1.0)


@given(st.integers(1, 5), st.integers(1, 6))
@settings(max_examples=15, deadline=None)
def test_property_segment_sum_total_preserved(segments, per):
    """Total mass is invariant under segment grouping."""
    n = segments * per
    x = np.random.default_rng(n).normal(size=(n, 2))
    seg = np.repeat(np.arange(segments), per)
    out = F.segment_sum(Tensor(x), seg, segments).data
    assert np.allclose(out.sum(axis=0), x.sum(axis=0))


class TestNumericalSafety:
    """Regression tests for the numerics bugfix sweep (log clamp,
    softmax max-subtraction / non-finite guards)."""

    def test_log_guards_zero_and_negative_inputs(self):
        x = Tensor(np.array([0.0, -1.0, 1.0]), requires_grad=True)
        y = F.log(x)
        assert np.all(np.isfinite(y.data)), "log must not emit nan/-inf"
        assert y.data[2] == pytest.approx(0.0)
        assert y.data[0] == pytest.approx(np.log(1e-12))
        y.sum().backward()
        assert np.all(np.isfinite(x.grad)), "log gradient must stay finite"

    def test_log_exact_on_positive_inputs(self):
        x = np.abs(rng.normal(size=(8,))) + 0.1
        assert np.array_equal(F.log(Tensor(x)).data, np.log(x))

    def test_softmax_handles_huge_logits(self):
        x = Tensor(np.array([[1e6, 1e6 + 1.0], [0.0, 1000.0]]))
        y = F.softmax(x).data
        assert np.all(np.isfinite(y))
        assert np.allclose(y.sum(axis=-1), 1.0)

    def test_softmax_all_minus_inf_row_is_finite(self):
        x = Tensor(np.array([[-np.inf, -np.inf], [0.0, 1.0]]))
        y = F.softmax(x).data
        assert np.all(np.isfinite(y[1]))
        assert not np.any(np.isnan(y[0])), "fully-masked row must not be nan"

    def test_masked_softmax_large_logits_from_scaled_path(self):
        mask = F.causal_mask(3)
        scores = Tensor(rng.normal(size=(2, 3, 3)) * 1e5, requires_grad=True)
        y = F.masked_softmax(scores * Tensor(1.0 / np.sqrt(8.0)), mask)
        assert np.all(np.isfinite(y.data))
        # Masked (future) positions must receive exactly zero probability.
        future = ~np.isfinite(mask)
        assert np.all(y.data[:, future] == 0.0)
        assert np.allclose(y.data.sum(axis=-1), 1.0)
        (y ** 2.0).sum().backward()
        assert np.all(np.isfinite(scores.grad))

    # The suppressed segment's own (discarded) denominator gradient is
    # 0/0; only the normal segment's gradient is asserted finite.
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_segment_softmax_suppressed_segment_is_zero_not_nan(self):
        """A segment whose scores are all ``-inf`` (every incoming edge
        masked) sits beside a normal one: its weights are 0, not the
        0/0 = nan of an unguarded denominator."""
        normal = np.array([0.3, -1.2, 2.0])
        seg = np.array([0, 0, 0, 1, 1])

        def alpha(live):
            scores = F.concat([live, Tensor(np.full(2, -np.inf))], axis=0)
            return F.segment_softmax(scores, seg, 2)

        live = Tensor(normal, requires_grad=True)
        out = alpha(live)
        (out ** 2.0).sum().backward()
        assert np.all(np.isfinite(out.data)), out.data
        assert np.all(out.data[3:] == 0.0)
        assert np.all(np.isfinite(live.grad))
        # Same bits as the historical ``+ 1e-300`` guard.
        ex = np.exp(normal - normal.max())
        assert np.array_equal(out.data[:3], ex / (ex.sum() + 1e-300))
        check_gradients(lambda ts: (alpha(ts[0]) ** 2.0).sum(), [live])
