"""Plan-level passes: prune → liveness → arena plan.

The engine's compiler (:func:`repro.nn.engine.compile_plan`) prunes the
traced graph through this module before it builds the schedule, and
:class:`~repro.nn.engine.ExecutionPlan` plans its own memory with it at
bind time.  A pass only decides *which buffer* a step's one forward is
handed (``forward(meta, arrays, out)``); there is no kernel variant
to pick, so planned float64 replay stays bitwise-identical to the
eager walk:

1. **Dead-node pruning** (:func:`prune_dead_nodes`): walk the loss
   root's ancestors and order them by creation index.  The trace
   records no nodes, so nodes the root does not depend on were never
   held and there is nothing else to drop.

2. **Liveness + arena planning** (:func:`plan_memory`): compute the
   last use of every value slot over the linear schedule — including
   backward reads, via the per-kernel :attr:`OpKernel.vjp_uses
   <repro.nn.engine.OpKernel>` contract — and assign output buffers
   from a reusable arena pool so steady-state replay allocates
   nothing for the outputs it manages.  View-producing kernels
   (:data:`VIEW_OPS`) alias their input's storage, so their base
   buffer's lifetime is the union over all views.

The result is a :class:`MemoryPlan` consumed by
:class:`repro.nn.engine.ExecutionPlan`; see ``docs/ARCHITECTURE.md``
("Pass pipeline") for the ordering/equivalence contract and
``tests/test_passes.py`` for the property tests that pin it down.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

__all__ = [
    "VIEW_OPS",
    "MemoryPlan",
    "prune_dead_nodes",
    "plan_memory",
]


#: Kernels whose output is (or may be) a numpy *view* of their first
#: input.  A view's storage is its input's storage, so the arena must
#: never hand the underlying buffer to another step while any view of
#: it is still live.  ``getitem`` with a fancy index actually copies,
#: but classifying every ``getitem`` as a view only over-extends a
#: lifetime — safe, never corrupting.
VIEW_OPS = frozenset({"reshape", "transpose", "getitem"})


def _nbytes(shape: tuple) -> int:
    """Bytes of one float64 buffer of ``shape``."""
    return int(np.prod(shape, dtype=np.int64)) * 8


def prune_dead_nodes(root) -> Tuple[List, List]:
    """Dead-node pruning: keep only ancestors of the loss root.

    Returns ``(leaves, op_nodes)``: the root's ancestors without parents,
    in discovery order, and those with parents, sorted by creation index
    ``_seq`` — a topological order by construction (parents are created
    before children), so nothing is re-sorted per replay.  Nodes the
    root does not depend on are never visited.
    """
    seen = set()
    leaves: List = []
    op_nodes: List = []
    stack = [root]
    while stack:
        node = stack.pop()
        key = id(node)
        if key in seen:
            continue
        seen.add(key)
        if node._parents:
            op_nodes.append(node)
            stack.extend(node._parents)
        else:
            leaves.append(node)
    op_nodes.sort(key=lambda node: node._seq)
    return leaves, op_nodes


class MemoryPlan:
    """Arena memory plan for one bound :class:`ExecutionPlan`.

    Produced by :func:`plan_memory`; the plan turns it into one output
    buffer per step when it materialises the arena.  ``step_buffer[i]
    >= 0`` names the arena buffer handed to the step's forward as
    ``out`` (``-1`` = unmanaged: a view-producing kernel or one not
    flagged ``arena`` — the step is called with ``out=None`` and
    allocates its output as under eager dispatch).
    """

    __slots__ = ("step_buffer", "buffer_shapes", "arena_bytes",
                 "buffer_occupancy")

    def __init__(self, step_buffer: List[int],
                 buffer_shapes: List[tuple],
                 buffer_occupancy: List[List[Tuple[int, int, int]]]) -> None:
        self.step_buffer = step_buffer
        self.buffer_shapes = buffer_shapes
        self.arena_bytes = sum(_nbytes(shape) for shape in buffer_shapes)
        self.buffer_occupancy = buffer_occupancy

    @property
    def num_buffers(self) -> int:
        """Number of distinct arena buffers the plan preallocates."""
        return len(self.buffer_shapes)


def plan_memory(structure, kernel_table: Dict) -> MemoryPlan:
    """Liveness analysis + arena buffer assignment over one plan.

    ``structure`` is an :class:`~repro.nn.engine.ExecutionPlan` or
    anything else with ``steps / num_slots / slot_shapes / root_slot``.

    Walks the schedule once to find each value slot's last use —
    forward reads at consumer steps, the root read at schedule end, and
    backward reads per the producing/consuming kernels'
    ``vjp_uses`` contracts — then linear-scans the managed steps,
    recycling exactly-matching ``shape`` buffers (all float64) whose
    occupants' lifetimes have ended.  A buffer last read at step ``t``
    only re-enters the pool at step ``t + 1``, so an output buffer can
    never alias any input of the step writing it.

    View outputs (:data:`VIEW_OPS`) alias an earlier slot's storage;
    their reads extend that base slot's lifetime transitively.  Steps
    whose kernel is not flagged ``arena`` stay unmanaged
    (``step_buffer`` ``-1``).
    """
    steps = structure.steps
    num_steps = len(steps)
    num_slots = structure.num_slots
    # -1 sentinel times: S = root read boundary, S + 1 = backward.
    root_read = num_steps
    backward = num_steps + 1

    base = list(range(num_slots))

    def resolve(slot: int) -> int:
        while base[slot] != slot:
            slot = base[slot]
        return slot

    for step in steps:
        if step.op in VIEW_OPS:
            base[step.out] = resolve(step.ins[0])

    last_use = [-1] * num_slots

    def touch(slot: int, t: int) -> None:
        b = resolve(slot)
        if t > last_use[b]:
            last_use[b] = t

    for i, step in enumerate(steps):
        for j in step.ins:
            touch(j, i)
        touch(step.out, i)
    touch(structure.root_slot, root_read)

    for step in steps:
        uses = kernel_table[step.op].vjp_uses
        if "inputs" in uses:
            for j in step.ins:
                touch(j, backward)
        if "output" in uses:
            touch(step.out, backward)

    step_buffer = [-1] * num_steps
    buffer_shapes: List[tuple] = []
    occupancy: List[List[Tuple[int, int, int]]] = []
    free: Dict[tuple, List[int]] = {}
    releases: Dict[int, List[int]] = {}
    for i, step in enumerate(steps):
        for buf in releases.pop(i, ()):
            free.setdefault(buffer_shapes[buf], []).append(buf)
        if step.op in VIEW_OPS or not kernel_table[step.op].arena:
            continue
        shape = structure.slot_shapes[step.out]
        pool = free.get(shape)
        if pool:
            buf = pool.pop()
        else:
            buf = len(buffer_shapes)
            buffer_shapes.append(shape)
            occupancy.append([])
        step_buffer[i] = buf
        end = last_use[resolve(step.out)]
        occupancy[buf].append((i, i, end))
        if end <= root_read:
            # Free strictly after the last read so this buffer can never
            # become the output of the step that still reads it.
            releases.setdefault(end + 1, []).append(buf)
    return MemoryPlan(
        step_buffer=step_buffer,
        buffer_shapes=buffer_shapes,
        buffer_occupancy=occupancy,
    )
