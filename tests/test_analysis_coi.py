"""Tests for the cone-of-influence pass and its use by the verifier."""

from repro.analysis.coi import cone_of_influence
from repro.analysis.slice import guard_vars, slice_statements
from repro.pascal import check_program, parse_program
from repro.programs import ALL_PROGRAMS
from repro.verify.engine import Verifier


def typed(name):
    return check_program(parse_program(ALL_PROGRAMS[name]))


def subgoal_layouts(name):
    """description -> kept variable names, per subgoal."""
    verifier = Verifier(typed(name))
    schema = verifier.program.schema
    return {subgoal.description:
            verifier._plan_subgoal(subgoal, verifier.reduce,
                                   verifier.slice)
                    .layout(schema).var_names()
            for subgoal in verifier.collect_subgoals()}


class TestConeOfInfluence:
    def test_guard_vars(self):
        program = typed("search")
        loop = program.body[1]
        assert guard_vars(loop.cond) == frozenset({"p"})

    def test_data_vars_always_kept(self):
        program = typed("reverse")
        keep = cone_of_influence((), frozenset(), program.schema)
        assert keep == frozenset({"x", "y"})

    def test_swap_body_needs_only_x(self):
        # p is assigned before every read, so only the data variable
        # feeds the (empty) obligations.
        program = typed("swap")
        keep = cone_of_influence(tuple(program.body), frozenset(),
                                 program.schema)
        assert keep == frozenset({"x"})

    def test_assignment_chain_is_followed(self):
        # In reverse's loop body, the seed x is reached through the
        # intermediate p := x^.next; x := p chain.
        program = typed("reverse")
        body = program.body[0].body
        keep = cone_of_influence(body, frozenset({"x"}),
                                 program.schema)
        assert keep == frozenset({"x", "y"})

    def test_dereference_base_always_relevant(self):
        # Even with no seeds, v := base^.next keeps base: the
        # dereference can fail and the error outcome is checked.
        program = typed("append")
        loop = program.body[1]
        keep = cone_of_influence(loop.body, frozenset(),
                                 program.schema)
        assert "p" in keep

    def test_assume_seeds_survive_kills(self):
        # p is assigned before every read in swap's body, so the
        # backward pass alone would drop it — but an assume formula
        # reads it from the *initial* store, so its track stays.
        program = typed("swap")
        keep = cone_of_influence(tuple(program.body), frozenset(),
                                 program.schema,
                                 assume_seeds=frozenset({"p"}))
        assert keep == frozenset({"x", "p"})

    def test_dispose_keeps_everything(self):
        # delete frees cells; a dangling pointer is only caught by the
        # dropped variable's own well-formedness conjunct.
        program = typed("delete")
        keep = cone_of_influence(tuple(program.body), frozenset(),
                                 program.schema)
        assert keep == frozenset(program.schema.all_vars())


class TestVerifierLayouts:
    def test_reverse_drops_p_in_every_subgoal(self):
        for description, kept in subgoal_layouts("reverse").items():
            assert kept == ["x", "y"], description

    def test_delete_keeps_everything(self):
        for description, kept in subgoal_layouts("delete").items():
            assert kept == ["x", "p", "q"], description

    def test_zip_drops_per_subgoal(self):
        layouts = subgoal_layouts("zip")
        entry = layouts["loop entry (line 13)"]
        assert entry == ["x", "y", "z"]  # p assigned, t dead here
        post = layouts["postcondition"]
        assert post == ["x", "y", "z", "p"]  # invariant mentions p
        preservation = layouts["invariant preservation (line 13)"]
        assert preservation == ["x", "y", "z", "p"]  # t still dropped

    def test_plan_keeps_the_relevance_pass_tracks(self):
        # Slicing on: the slice's own tracks.  Slicing off: the cone
        # of the whole statement list.  Reduction off: every track.
        for name in sorted(ALL_PROGRAMS):
            verifier = Verifier(typed(name))
            schema = verifier.program.schema
            for subgoal in verifier.collect_subgoals():
                assume = frozenset().union(
                    *(item.vars for item in subgoal.assume))
                check = frozenset().union(
                    *(item.vars for item in subgoal.check))
                label = (name, subgoal.description)
                sliced = verifier._plan_subgoal(subgoal, True, True)
                assert sliced.keep == slice_statements(
                    subgoal.statements, check, schema, assume).tracks, \
                    label
                unsliced = verifier._plan_subgoal(subgoal, True, False)
                assert unsliced.statements == tuple(subgoal.statements)
                assert unsliced.keep == cone_of_influence(
                    subgoal.statements, check, schema, assume), label
                full = verifier._plan_subgoal(subgoal, False, True)
                assert full.keep is None, label

    def test_no_reduce_keeps_everything(self):
        verifier = Verifier(typed("reverse"), reduce=False)
        schema = verifier.program.schema
        for subgoal in verifier.collect_subgoals():
            plan = verifier._plan_subgoal(subgoal, False, False)
            layout = plan.layout(schema)
            assert layout.var_names() == ["x", "y", "p"]
            assert layout.dropped_vars() == []
