"""Cone of influence: which variables can affect a subgoal's verdict.

A pointer variable whose value cannot reach any obligation — through
assignments, dereferences, heap writes or control flow — contributes
a full automaton track for nothing; the verifier drops it and assumes
it nil initially.  The answer is the kept-track set of the one
backward relevance pass in :mod:`repro.analysis.slice`, run with
statement dropping off: with slicing on, the verifier takes the
tracks from :func:`repro.analysis.slice.slice_statements` instead,
and this entry point serves ``--no-slice``.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Sequence

from repro.analysis.slice import relevance
from repro.stores.schema import Schema


def cone_of_influence(statements: Sequence[object],
                      seeds: Iterable[str],
                      schema: Schema,
                      assume_seeds: Iterable[str] = ()
                      ) -> FrozenSet[str]:
    """The variables that can influence the seeds through the
    (loop-free) statements; always includes the data variables.

    ``seeds`` are read from the store *after* the statements (check
    obligations) and flow backward through kills; ``assume_seeds`` are
    read from the *initial* store (assume obligations) and are kept
    unconditionally — an assignment in the statements must not hide
    them."""
    return relevance(statements, seeds, assume_seeds, schema,
                     drop=False).tracks
