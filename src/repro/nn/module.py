"""Module / Parameter abstractions, mirroring the familiar torch layout.

A :class:`Module` owns :class:`Parameter` leaves and child modules, and can
enumerate them recursively for the optimizer, state saving and parameter
counting.  Training / evaluation mode is propagated to children (dropout
layers consult it).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from . import engine
from .tensor import Tensor

__all__ = ["Parameter", "Module"]


#: name suffixes that mark a parameter as a bias / normalisation term.
_NO_DECAY_SUFFIXES = ("bias", "gain", "shift")


class Parameter(Tensor):
    """A trainable :class:`Tensor` (always ``requires_grad=True``).

    ``decay_exempt`` marks parameters that weight decay must skip —
    biases and normalisation gains/shifts, which regularising toward
    zero only distorts (it skews the small-graph baselines; see the
    optimizers).  The default heuristic follows the familiar torch
    convention: vectors and scalars (``ndim <= 1``) plus anything whose
    name ends in ``bias`` / ``gain`` / ``shift`` are exempt; pass
    ``decay_exempt`` explicitly to override.
    """

    def __init__(self, data, name: str = "",
                 decay_exempt: bool | None = None) -> None:
        super().__init__(data, requires_grad=True, name=name)
        if decay_exempt is None:
            leaf = name.rsplit(".", 1)[-1]
            decay_exempt = self.data.ndim <= 1 or leaf in _NO_DECAY_SUFFIXES
        self.decay_exempt = bool(decay_exempt)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; discovery is by attribute scan, so no registration calls
    are needed.  ``__call__`` forwards to ``forward``.
    """

    #: How many ``src -> dst`` steps upstream of a row ``forward(batch,
    #: graph)`` reads to produce that row's output, when the model can
    #: also be run on just those rows (``forward(batch, graph, trim)``).
    #: ``None`` declares nothing: the model reads the whole graph it is
    #: given, and a serving layer hands it whole ego-subgraphs.
    receptive_depth = None

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` for all trainable leaves."""
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}" if prefix else attr
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{name}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Parameter):
                        yield f"{name}.{key}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{key}.")

    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters as a list."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()
            elif isinstance(value, dict):
                for item in value.values():
                    if isinstance(item, Module):
                        yield from item.modules()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.data.size for p in self.parameters())

    # ------------------------------------------------------------------
    # train / eval / grads
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        """Set this module and all children to training mode."""
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Set this module and all children to evaluation mode."""
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        """Clear accumulated gradients on every parameter."""
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy all parameter arrays keyed by dotted names."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load arrays produced by :meth:`state_dict` (strict matching).

        Values are cast to float64, the engine's one dtype.  Every name
        and shape is checked before anything is assigned: a load that
        raises leaves the module exactly as it was.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            shape = np.shape(state[name])
            if shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, got {shape}"
                )
        for name, param in own.items():
            param.data = np.array(state[name], dtype=engine.DTYPE)

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        """Compute the module output; subclasses must override."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
