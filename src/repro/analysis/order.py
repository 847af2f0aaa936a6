"""The BDD track order of a subgoal's kept program variables.

Each kept program variable becomes one second-order track, and the
compiler allocates BDD levels in the order the layout registers them
(:meth:`repro.symbolic.layout.TrackLayout.register`).  The order only
renames BDD levels, so it cannot change a verdict.  Tracks are
registered in the schema's declaration order: a dependency-affinity
order, measured against it over the corpus, never did less BDD work
(``docs/ARCHITECTURE.md`` §11).
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

from repro.stores.schema import Schema


def choose_order(schema: Schema,
                 keep: Optional[FrozenSet[str]]) -> Tuple[str, ...]:
    """The track order of the kept variables (None keeps all of
    them): the schema's declaration order."""
    return tuple(name for name in schema.all_vars()
                 if keep is None or name in keep)
