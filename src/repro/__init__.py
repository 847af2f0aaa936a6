"""Automatic verification of pointer programs using monadic
second-order logic — a full reproduction of Jensen, Jørgensen,
Klarlund & Schwartzbach (PLDI 1997).

The package verifies annotated programs in a while-fragment of Pascal
over linear linked lists.  Assertions are written in a decidable
*store logic* (pointer equality, nil and garbage tests, regular
routing relations); Hoare triples over loop-free code are decided
completely by reduction to monadic second-order logic on finite
strings, compiled to automata with BDD-encoded transitions (the Mona
technique).  Failures come back as shortest concrete counterexample
stores with a simulated failure trace.

Quickstart::

    from repro import verify_source, format_result

    result = verify_source(open("reverse.pas").read())
    print(format_result(result))
    if not result.valid:
        print(result.counterexample.render())

Layer map (bottom-up): :mod:`repro.bdd` (MTBDDs),
:mod:`repro.automata` (explicit + symbolic automata),
:mod:`repro.mso` (M2L-Str and its compiler), :mod:`repro.stores`
(concrete stores and the string encoding), :mod:`repro.pascal`
(front end), :mod:`repro.analysis` (CFGs, dataflow, lints, the
relevance pass behind slicing and the cone of influence),
:mod:`repro.storelogic` (the assertion logic),
:mod:`repro.symbolic` (transduction engine), :mod:`repro.exec`
(concrete interpreter), :mod:`repro.verify` (the Hoare engine), and
:mod:`repro.programs` (the paper's example corpus).
"""

from repro.analysis import (Diagnostic, Severity, cone_of_influence,
                            lint_program, lint_source)
from repro.errors import (ExecutionError, ParseError, ReproError,
                          StoreError, TranslationError, TypeError_,
                          VerificationError)
from repro.pascal import check_program, parse_program
from repro.storelogic import check_formula, eval_formula, parse_formula
from repro.stores import (Store, decode_store, encode_store, render_store,
                          render_symbols)
from repro.verify import (Counterexample, VerificationResult, Verifier,
                          format_result, verify_program, verify_source)
from repro.verify.report import (format_json, format_table,
                                 format_table_row, format_timing_tree)

__version__ = "1.0.0"

__all__ = [
    "Counterexample", "Diagnostic", "ExecutionError", "ParseError",
    "ReproError", "Severity", "Store", "StoreError", "TranslationError",
    "TypeError_", "VerificationError", "VerificationResult", "Verifier",
    "check_formula", "check_program", "cone_of_influence",
    "decode_store", "encode_store", "eval_formula", "format_json",
    "format_result", "format_table", "format_table_row",
    "format_timing_tree", "lint_program", "lint_source",
    "parse_formula", "parse_program", "render_store", "render_symbols",
    "verify_program", "verify_source",
]
