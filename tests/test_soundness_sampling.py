"""Soundness sampling: verified programs never fail concretely.

The headline guarantee of the system: if a program verifies, then from
*every* well-formed initial store satisfying its precondition (with
enough free memory), execution is error-free and ends well-formed with
the postcondition true.  We sample that universal statement: for each
verified bundled program, generate random stores, keep those whose
precondition holds, run the interpreter, and check everything the
verifier promised.

This closes the loop between the symbolic and concrete layers across
*loops*, which the per-statement differential tests cannot reach.
"""

import random
import zlib

import pytest

from repro.errors import ExecutionError
from repro.exec.interpreter import Interpreter, OutOfMemory
from repro.pascal import check_program, parse_program
from repro.programs import ALL_PROGRAMS
from repro.storelogic import check_formula, parse_formula
from repro.storelogic.eval import eval_formula
from repro.stores.model import Store

from util import random_store

VERIFIED = ["reverse", "rotate", "insert", "delete", "search", "zip",
            "searchwf", "swapfix", "triple", "append", "split", "copy"]

#: How many candidate stores to draw per program.
CANDIDATES = 60


def _formula(program, annotation):
    if annotation is None:
        return None
    return check_formula(parse_formula(annotation.text), program.schema)


def _baseline_stores(schema):
    """Deterministic stores that satisfy most preconditions: every
    variable nil except the first data variable, in a few sizes."""
    first = next(iter(schema.data_vars))
    for variants, garbage in ([], 2), (["red"], 2), (["blue"], 1), \
            (["red", "blue", "red"], 3):
        store = Store(schema)
        store.make_list(first, list(variants))
        for _ in range(garbage):
            store.add_garbage()
        yield store


@pytest.mark.parametrize("name", VERIFIED)
def test_verified_program_never_fails_concretely(name):
    program = check_program(parse_program(ALL_PROGRAMS[name]))
    pre = _formula(program, program.pre)
    post = _formula(program, program.post)
    interpreter = Interpreter(program)
    # crc32, not hash(): string hashing is salted per process, and a
    # failing sample must be reproducible from its seed.
    rng = random.Random(zlib.crc32(name.encode()))
    admitted = 0
    candidates = list(_baseline_stores(program.schema))
    candidates += [random_store(program.schema, rng, max_len=4,
                                max_garbage=3)
                   for _ in range(CANDIDATES)]
    for store in candidates:
        if pre is not None and not eval_formula(pre, store):
            continue
        admitted += 1
        working = store.clone()
        try:
            interpreter.run(working)
        except OutOfMemory:
            continue  # excused by the alloc assumption
        except ExecutionError as exc:
            pytest.fail(f"{name}: runtime error from a store "
                        f"satisfying the precondition: {exc}")
        violations = working.violations()
        assert not violations, (name, violations)
        if post is not None:
            assert eval_formula(post, working), \
                f"{name}: postcondition failed concretely"
    assert admitted >= 3, \
        f"{name}: only {admitted} sampled stores satisfied the pre"


@pytest.mark.parametrize("name", ["fumble", "swap"])
def test_faulty_program_fails_on_its_counterexample_only(name):
    """The counterexample store fails; but plenty of other stores run
    fine (the bug is subtle, which is the paper's point)."""
    program = check_program(parse_program(ALL_PROGRAMS[name]))
    pre = _formula(program, program.pre)
    interpreter = Interpreter(program)
    rng = random.Random(4242)
    outcomes = {"ok": 0, "bad": 0}
    for _ in range(CANDIDATES):
        store = random_store(program.schema, rng, max_len=3)
        if pre is not None and not eval_formula(pre, store):
            continue
        working = store.clone()
        try:
            interpreter.run(working)
            if working.is_well_formed():
                outcomes["ok"] += 1
            else:
                outcomes["bad"] += 1
        except ExecutionError:
            outcomes["bad"] += 1
    assert outcomes["bad"] > 0, f"{name} never misbehaved in sampling"
