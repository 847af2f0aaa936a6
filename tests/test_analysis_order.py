"""Tests for the BDD track order of a subgoal's kept variables."""

import pytest

from repro.analysis import choose_order
from repro.pascal import check_program, parse_program
from repro.programs import ALL_PROGRAMS
from repro.verify.engine import Verifier

HEADER = """\
program t;
type
  Color = (red, blue);
  List = ^Item;
  Item = record case tag: Color of red, blue: (next: List) end;
{pointer} var q: List;
{data} var y, x: List;
{pointer} var p: List;
begin
  p := nil
end.
"""


@pytest.fixture(scope="module")
def schema():
    return check_program(parse_program(HEADER)).schema


class TestChooseOrder:
    def test_data_then_pointer_variables_in_declaration_order(
            self, schema):
        assert choose_order(schema, None) == ("y", "x", "q", "p")

    def test_keep_set_filters(self, schema):
        assert choose_order(schema, frozenset({"p", "x"})) == ("x", "p")

    def test_order_ignores_the_keep_sets_iteration_order(self, schema):
        keep = frozenset({"p", "q", "x", "y"})
        assert choose_order(schema, keep) == choose_order(schema, None)

    def test_empty_keep_set_keeps_no_track(self, schema):
        assert choose_order(schema, frozenset()) == ()


@pytest.mark.parametrize("flags", [{}, {"slice": False},
                                   {"reduce": False}],
                         ids=["default", "no-slice", "no-reduce"])
def test_order_is_the_layouts_registration_order(flags):
    # The layout registers exactly the plan's kept variables in the
    # order the run report gives.
    for name, source in sorted(ALL_PROGRAMS.items()):
        program = check_program(parse_program(source))
        verifier = Verifier(program, **flags)
        schema = program.schema
        for subgoal in verifier.collect_subgoals():
            label = (name, subgoal.description)
            plan = verifier._plan_subgoal(subgoal, verifier.reduce,
                                          verifier.slice)
            order = choose_order(schema, plan.keep)
            assert list(order) == plan.layout(schema).var_names(), \
                label
