"""Tests for optimizers and the Module system."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import Linear, Sequential
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, clip_grad_norm
from repro.nn.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(3)


def quadratic_loss(param: Parameter) -> Tensor:
    return ((param - 3.0) ** 2.0).sum()


class TestSGD:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(4))
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        assert np.allclose(p.data, 3.0, atol=1e-3)

    def test_momentum_accelerates(self):
        def run(momentum):
            p = Parameter(np.zeros(1))
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(50):
                opt.zero_grad()
                quadratic_loss(p).backward()
                opt.step()
            return abs(p.data[0] - 3.0)

        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks(self):
        p = Parameter(np.ones((2, 2)) * 10.0, name="net.weight")
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        (p * 0.0).sum().backward()
        opt.step()
        assert np.all(p.data < 10.0)

    def test_weight_decay_skips_bias_and_norm_params(self):
        weight = Parameter(np.ones((2, 2)) * 10.0, name="net.weight")
        bias = Parameter(np.ones(2) * 10.0, name="net.bias")
        gain = Parameter(np.ones(2) * 10.0, name="norm.gain")
        opt = SGD([weight, bias, gain], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        ((weight * 0.0).sum() + (bias * 0.0).sum() + (gain * 0.0).sum()).backward()
        opt.step()
        assert np.all(weight.data < 10.0)
        assert np.all(bias.data == 10.0)
        assert np.all(gain.data == 10.0)

    def test_decay_exempt_override(self):
        # ndim-1 params are exempt by default but can be forced to decay.
        p = Parameter(np.ones(1) * 10.0, decay_exempt=False)
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        (p * 0.0).sum().backward()
        opt.step()
        assert p.data[0] < 10.0

    def test_requires_parameters(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.0)

    def test_skips_parameters_without_grad(self):
        p = Parameter(np.ones(1))
        opt = SGD([p], lr=0.1)
        opt.step()  # no grad -> no change, no crash
        assert p.data[0] == 1.0


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(4))
        opt = Adam([p], lr=0.3)
        for _ in range(150):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        assert np.allclose(p.data, 3.0, atol=1e-2)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], betas=(1.0, 0.9))

    def test_bias_correction_first_step(self):
        # First Adam step should be ~lr in the gradient direction.
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=0.1)
        opt.zero_grad()
        (p * 5.0).sum().backward()
        opt.step()
        assert p.data[0] == pytest.approx(-0.1, rel=1e-3)

    def test_weight_decay_decoupled(self):
        p = Parameter(np.ones((1, 1)) * 4.0, name="net.weight")
        opt = Adam([p], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        (p * 0.0).sum().backward()
        opt.step()
        # Pure decay: p -= lr * wd * p.
        assert p.data[0, 0] == pytest.approx(4.0 - 0.1 * 0.5 * 4.0)

    def test_weight_decay_skips_exempt(self):
        bias = Parameter(np.ones(1) * 4.0, name="net.bias")
        opt = Adam([bias], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        (bias * 0.0).sum().backward()
        opt.step()
        assert bias.data[0] == pytest.approx(4.0)

    def test_bias_correction_per_parameter(self):
        # b joins two steps late; its first update must still be ~lr,
        # i.e. its bias correction uses its own step count, not the
        # optimizer's global one.
        a = Parameter(np.zeros(1))
        b = Parameter(np.zeros(1))
        opt = Adam([a, b], lr=0.1)
        for _ in range(2):
            opt.zero_grad()
            (a * 5.0).sum().backward()
            opt.step()
        opt.zero_grad()
        (b * 5.0).sum().backward()
        opt.step()
        assert b.data[0] == pytest.approx(-0.1, rel=1e-3)


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = Parameter(np.zeros(3))
        p.grad = np.array([0.1, 0.1, 0.1])
        norm = clip_grad_norm([p], max_norm=10.0)
        assert norm == pytest.approx(np.sqrt(0.03))
        assert np.allclose(p.grad, 0.1)

    def test_clips_above_threshold(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([30.0, 40.0])  # norm 50
        clip_grad_norm([p], max_norm=5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(5.0)

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([], max_norm=0.0)


class TestModuleSystem:
    def test_named_parameters_nested(self, rng):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc1 = Linear(2, 3, rng)
                self.stack = [Linear(3, 3, rng), Linear(3, 1, rng)]
                self.table = {"extra": Linear(1, 1, rng)}

        net = Net()
        names = dict(net.named_parameters())
        assert "fc1.weight" in names
        assert "stack.0.weight" in names
        assert "stack.1.bias" in names
        assert "table.extra.weight" in names

    def test_num_parameters(self, rng):
        net = Linear(4, 3, rng)
        assert net.num_parameters() == 4 * 3 + 3

    def test_train_eval_propagates(self, rng):
        net = Sequential(Linear(2, 2, rng), Linear(2, 2, rng))
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_state_dict_roundtrip(self, rng):
        a = Linear(3, 2, rng)
        b = Linear(3, 2, np.random.default_rng(99))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.weight.data, b.weight.data)

    def test_state_dict_is_a_copy(self, rng):
        a = Linear(2, 2, rng)
        state = a.state_dict()
        state["weight"][:] = 0.0
        assert not np.allclose(a.weight.data, 0.0)

    def test_load_state_dict_strict(self, rng):
        a = Linear(3, 2, rng)
        with pytest.raises(KeyError):
            a.load_state_dict({})
        bad = a.state_dict()
        bad["weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            a.load_state_dict(bad)

    def test_failed_load_leaves_every_parameter_untouched(self, rng):
        net = Sequential(Linear(3, 2, rng), Linear(2, 2, rng))
        before = net.state_dict()
        state = {name: value + 1.0 for name, value in before.items()}
        last = list(state)[-1]          # every earlier name loads cleanly
        state[last] = np.zeros(state[last].shape + (2,))
        with pytest.raises(ValueError, match=f"shape mismatch for {last}"):
            net.load_state_dict(state)
        after = net.state_dict()
        assert list(after) == list(before)
        for name in before:
            np.testing.assert_array_equal(after[name], before[name])

    def test_zero_grad_clears_all(self, rng):
        net = Linear(2, 2, rng)
        out = net(Tensor(rng.normal(size=(3, 2))))
        (out * out).sum().backward()
        assert net.weight.grad is not None
        net.zero_grad()
        assert net.weight.grad is None

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)
