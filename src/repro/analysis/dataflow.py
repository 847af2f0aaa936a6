"""A small monotone dataflow framework over :mod:`repro.analysis.cfg`.

An :class:`Analysis` supplies a direction, a boundary state, a join,
a per-node transfer function, and (optionally) an edge refinement that
sharpens the state along a guard edge — returning None marks the edge
infeasible, which is how semantic unreachability is discovered.

:func:`solve` runs the standard worklist iteration to the least fixed
point.  States must be immutable values with structural equality
(frozensets, tuples, dicts compared by ``==``); termination is the
analysis author's obligation (finite lattice, monotone transfer).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Generic, Optional, Sequence, TypeVar

from repro.analysis.cfg import CFG, Edge, Node

State = TypeVar("State")

FORWARD = "forward"
BACKWARD = "backward"


class Analysis(Generic[State]):
    """One dataflow problem; subclass and override."""

    #: FORWARD analyses propagate entry -> exit, BACKWARD the reverse.
    direction = FORWARD

    def boundary(self, cfg: CFG) -> State:
        """The state at the start node (entry or exit by direction)."""
        raise NotImplementedError

    def join(self, states: Sequence[State]) -> State:
        """Combine the states meeting at a node."""
        raise NotImplementedError

    def transfer(self, node: Node, state: State) -> State:
        """The state after ``node``, in the analysis direction."""
        raise NotImplementedError

    def refine(self, edge: Edge, state: State) -> Optional[State]:
        """Sharpen ``state`` along ``edge``; None means infeasible.

        Called with the source node's output state (in the analysis
        direction); the default keeps it unchanged.
        """
        return state


@dataclass
class DataflowResult(Generic[State]):
    """Fixed-point states, keyed by node index.

    ``inputs[n]``/``outputs[n]`` are the states at node ``n``'s input
    and output *in the analysis direction* — for a backward analysis,
    the input is the state after the node in execution order.  A node
    absent from ``inputs`` was never reached (semantically dead code
    for a forward analysis).
    """

    inputs: Dict[int, State]
    outputs: Dict[int, State]

    def reachable(self, index: int) -> bool:
        return index in self.inputs


def solve(cfg: CFG, analysis: Analysis[State]) -> DataflowResult[State]:
    """Worklist iteration to the least fixed point."""
    forward = analysis.direction == FORWARD
    start = cfg.entry if forward else cfg.exit
    inputs: Dict[int, State] = {start: analysis.boundary(cfg)}
    outputs: Dict[int, State] = {}
    worklist = deque([start])
    queued = {start}
    while worklist:
        index = worklist.popleft()
        queued.discard(index)
        state = analysis.transfer(cfg.nodes[index], inputs[index])
        if index in outputs and outputs[index] == state:
            continue
        outputs[index] = state
        edges = cfg.successors(index) if forward \
            else cfg.predecessors(index)
        for edge in edges:
            target = edge.dst if forward else edge.src
            refined = analysis.refine(edge, state)
            if refined is None:
                continue
            if target not in inputs:
                inputs[target] = refined
            else:
                joined = analysis.join([inputs[target], refined])
                if joined == inputs[target]:
                    continue
                inputs[target] = joined
            if target not in queued:
                worklist.append(target)
                queued.add(target)
    return DataflowResult(inputs, outputs)
