"""Binary decision diagrams.

:class:`repro.bdd.mtbdd.Mtbdd` manages *multi-terminal* BDDs whose
leaves are arbitrary hashable values.  The symbolic automata in
:mod:`repro.automata.symbolic` (and the tree automata in
:mod:`repro.treemso.automata`) store one MTBDD per state, with target
states (or sets of states during determinisation) as leaves.  This is
the representation that made Mona practical (paper §6).

The manager hash-conses nodes, so structural equality of diagrams is
pointer equality of node indices, and memoised operations are cheap.
"""

from repro.bdd.mtbdd import Mtbdd

__all__ = ["Mtbdd"]
