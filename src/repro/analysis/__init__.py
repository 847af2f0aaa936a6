"""Static analysis front-end: CFGs, dataflow, lints, slicing.

The package serves three consumers: the ``repro lint`` CLI subcommand
(:func:`lint_source` / :func:`lint_program`); the verifier's subgoal
preparation — one backward relevance pass that both slices statements
and keeps tracks (:func:`slice_statements`; with slicing off,
:func:`cone_of_influence`), and the kept tracks' order
(:func:`choose_order`, declaration order); and the verdict cache,
which keys subgoals by the content fingerprints of
:mod:`repro.analysis.fingerprint`.
"""

from repro.analysis.cfg import CFG, Edge, Node, from_program, \
    from_statements
from repro.analysis.coi import cone_of_influence
from repro.analysis.dataflow import Analysis, DataflowResult, solve
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.fingerprint import (CACHE_SCHEMA_VERSION,
                                        canonical_schema,
                                        canonical_statements,
                                        code_fingerprint,
                                        subgoal_fingerprint)
from repro.analysis.lints import lint_program, lint_source
from repro.analysis.order import choose_order
from repro.analysis.slice import (SliceResult, dropped_statements,
                                  guard_vars, slice_statements,
                                  statement_count)

__all__ = [
    "Analysis",
    "CACHE_SCHEMA_VERSION",
    "CFG",
    "DataflowResult",
    "Diagnostic",
    "Edge",
    "Node",
    "Severity",
    "SliceResult",
    "canonical_schema",
    "canonical_statements",
    "choose_order",
    "code_fingerprint",
    "cone_of_influence",
    "dropped_statements",
    "from_program",
    "from_statements",
    "guard_vars",
    "lint_program",
    "lint_source",
    "slice_statements",
    "solve",
    "statement_count",
    "subgoal_fingerprint",
]
