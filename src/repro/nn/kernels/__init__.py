"""The engine's kernels, by family.

Each family module defines its kernels' bodies and registers them into
:data:`~repro.nn.kernels.registry.KERNELS` at import; importing this
package fills the table.  Every kernel has exactly one optimized
forward, ``forward(meta, arrays, out=None) -> (out, saved)``, shared by
the eager dispatcher (``out=None``) and the planned replay (``out`` =
its arena buffer) — see :class:`~repro.nn.kernels.registry.OpKernel` for
the contract and "Adding a fused kernel" in ``docs/ARCHITECTURE.md`` for
the recipe.  ``tests/test_kernels.py`` checks the contract for every
registered name.
"""

# Importing a family module registers its kernels.
from . import conv, elementwise, gather, linear, shape, softmax  # noqa: F401
