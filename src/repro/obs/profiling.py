"""Per-kernel engine profiling: counts, time, estimated FLOPs and bytes.

The execution engine replays a compiled plan as a flat loop over
:class:`~repro.nn.engine.OpKernel` calls — exactly the granularity a
kernel cost model needs.  Installing a :class:`KernelProfiler`
(:func:`profile_kernels`, or :func:`repro.nn.engine.set_kernel_profiler`
directly) makes every ``ExecutionPlan.forward`` / ``backward`` replay
report each executed step to an observer that times it and attributes
an analytic FLOP/byte estimate from the plan's static shapes
(:func:`estimate_cost`; computed once per plan step and cached).  The
observed loops are the loops that always run — same kernels, same arena
buffers — so a profile measures production replay.

Two views of the data exist:

* per-plan — :meth:`repro.nn.engine.CompiledLoss.profile_report`
  reports one compiled loss's kernels with wall-clock coverage (the
  fraction of measured replay time the kernel timings account for);
* global — the installed profiler aggregates across every plan that
  replayed while it was active (:meth:`KernelProfiler.report`), which
  is what the top-k kernel table in ``examples/observability.py``
  prints and what ``benchmarks/test_obs_overhead.py`` checks covers
  at least 95% of replay wall time.

When no profiler is installed the replay loops run with no observer:
the only cost is one ``is None`` test per step.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import clock as _clock

__all__ = ["estimate_cost", "KernelProfiler", "profile_kernels"]


def _size(shape: Sequence[int]) -> int:
    n = 1
    for dim in shape:
        n *= int(dim)
    return n


def estimate_cost(op: str, in_shapes: Sequence[Sequence[int]],
                  out_shape: Sequence[int],
                  meta: Optional[dict] = None,
                  phase: str = "forward") -> Tuple[float, float]:
    """Analytic ``(flops, bytes)`` estimate for one kernel call.

    FLOPs follow the textbook formulas (``2*M*N*K`` for GEMM-shaped
    ops, ``2 * out * width * c_in`` for convolutions, a few ops per
    element for the pointwise/softmax families, zero for pure data
    movement); bytes is the traffic of reading every input and writing
    the output at 8 bytes (one float64) per element.
    ``phase="backward"`` doubles both — the VJP of each op runs the
    mirrored computation over gradients of the same shapes.  Estimates
    are *model* numbers for ranking kernels, not measurements.
    """
    meta = meta or {}
    out = _size(out_shape)
    in_total = sum(_size(s) for s in in_shapes)
    bytes_moved = 8.0 * (in_total + out)
    if op in ("matmul", "linear", "linear_relu", "linear_tanh",
              "linear_sigmoid"):
        k = int(in_shapes[0][-1]) if in_shapes and len(in_shapes[0]) else 1
        flops = 2.0 * out * k
        if op != "matmul":
            flops += out  # bias add (+ the activation is ~1 op/element)
    elif op == "conv1d":
        w_shape = in_shapes[1] if len(in_shapes) > 1 else (1, 1, 1)
        flops = 2.0 * out * int(w_shape[0]) * int(w_shape[1])
    elif op == "multi_conv1d":
        num_scales = int(meta.get("num_scales", 1))
        widths = [int(s[0]) for s in in_shapes[1:1 + num_scales]]
        c_in = int(in_shapes[0][-1]) if in_shapes else 1
        flops = 2.0 * out * (max(widths) if widths else 1) * c_in
    elif op == "mul_sum":
        flops = 2.0 * in_total / 2.0  # one multiply + one add per element
    elif op in ("softmax", "masked_softmax", "scaled_masked_softmax"):
        flops = 5.0 * out
    elif op in ("sum", "segment_sum", "segment_max_gather"):
        flops = float(in_total)
    elif op in ("add", "mul", "div", "power", "exp", "log", "sqrt", "abs",
                "relu", "leaky_relu", "sigmoid", "tanh"):
        flops = float(out)
    elif op in ("reshape", "transpose", "getitem", "gather_rows", "concat",
                "stack", "pad_time"):
        flops = 0.0
    else:
        flops = float(out)
    if phase == "backward":
        return 2.0 * flops, 2.0 * bytes_moved
    return flops, bytes_moved


class KernelProfiler:
    """Accumulator of per-kernel call counts, time, FLOPs and bytes.

    ``clock`` is the timing source the engine's replay observer
    reads — injectable so profile reports are deterministic under a
    :class:`~repro.obs.clock.FakeClock` (each reading must advance the
    fake clock; see :meth:`FakeClock.tick <repro.obs.clock.FakeClock.tick>`).
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock = clock or _clock.now
        #: ``(op, phase) -> [calls, seconds, flops, bytes]``
        self.stats: Dict[Tuple[str, str], List[float]] = {}
        self.replays = 0
        self.replay_seconds = 0.0

    def record(self, op: str, phase: str, seconds: float,
               flops: float, bytes_moved: float) -> None:
        """Fold one timed kernel call into the accumulator."""
        row = self.stats.get((op, phase))
        if row is None:
            row = self.stats[(op, phase)] = [0.0, 0.0, 0.0, 0.0]
        row[0] += 1.0
        row[1] += seconds
        row[2] += flops
        row[3] += bytes_moved

    def record_replay(self, seconds: float, count: int = 1) -> None:
        """Account replay wall time (the coverage denominator).

        The engine counts a replay once per forward pass
        (``count=1``) and folds the matching backward pass's wall time
        in with ``count=0``.
        """
        self.replays += count
        self.replay_seconds += seconds

    def reset(self) -> None:
        """Zero the accumulator."""
        self.stats = {}
        self.replays = 0
        self.replay_seconds = 0.0

    def report(self, top: Optional[int] = None) -> Dict[str, object]:
        """Serialisable profile: kernels by cumulative time, plus totals.

        ``coverage`` is the fraction of measured replay wall time the
        per-kernel timings account for (1.0 when no wall time was
        recorded yet).
        """
        rows = [
            {
                "op": op,
                "phase": phase,
                "calls": int(stats[0]),
                "seconds": stats[1],
                "flops": stats[2],
                "bytes": stats[3],
            }
            for (op, phase), stats in self.stats.items()
        ]
        rows.sort(key=lambda row: (-row["seconds"], row["op"], row["phase"]))
        if top is not None:
            rows = rows[:top]
        kernel_seconds = sum(stats[1] for stats in self.stats.values())
        return {
            "kernels": rows,
            "total_calls": int(sum(s[0] for s in self.stats.values())),
            "total_seconds": kernel_seconds,
            "total_flops": sum(s[2] for s in self.stats.values()),
            "total_bytes": sum(s[3] for s in self.stats.values()),
            "replays": self.replays,
            "replay_seconds": self.replay_seconds,
            "coverage": (kernel_seconds / self.replay_seconds
                         if self.replay_seconds > 0 else 1.0),
        }


@contextmanager
def profile_kernels(
    profiler: Optional[KernelProfiler] = None,
) -> Iterator[KernelProfiler]:
    """Install a :class:`KernelProfiler` into the engine for a block.

    Every plan replay inside the block is observed (globally into the
    yielded profiler, and per-plan for
    :meth:`~repro.nn.engine.CompiledLoss.profile_report`); the previous
    profiler — usually none — is restored on exit.
    """
    from ..nn import engine

    prof = profiler or KernelProfiler()
    previous = engine.kernel_profiler()
    engine.set_kernel_profiler(prof)
    try:
        yield prof
    finally:
        engine.set_kernel_profiler(previous)
