"""The store alphabet as M2L tracks.

A position of the encoded store string carries a label (``nil``,
``lim``, ``garb``, or a record ``(T:v)``) and a variable bitmap.  In
the logic this becomes one free second-order variable — one automaton
*track* — per label and per program variable: position ``p`` has label
``l`` iff ``p`` belongs to the label's set.

:class:`TrackLayout` owns these variables, converts between
:class:`Symbol` strings and automaton words, and registers the tracks
with a compiler in a deterministic order (labels first, then program
variables) so BDD variable orders are reproducible.

A layout may be *reduced* to a subset of the program variables
(cone-of-influence reduction, :mod:`repro.analysis.coi`): variables
outside the subset get no track at all, shrinking every automaton's
alphabet.  Data variables are never dropped — their segments carry the
string's structure — so only pointer variables can be reduced away.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.errors import StoreError
from repro.mso.ast import Var
from repro.mso.compile import Compiler
from repro.stores.encode import (LABEL_GARB, LABEL_LIM, LABEL_NIL, Label,
                                 Symbol, record_label)
from repro.stores.schema import Schema


class TrackLayout:
    """Second-order track variables for one program's store alphabet.

    Args:
        schema: the program's store schema.
        variables: the program variables to keep a track for (default:
            all of them).  Data variables are always kept regardless of
            this argument.  Tracks are registered in the schema's
            declaration order (:mod:`repro.analysis.order`).
    """

    def __init__(self, schema: Schema,
                 variables: Optional[Iterable[str]] = None) -> None:
        self.schema = schema
        self.labels: List[Label] = [LABEL_NIL, LABEL_LIM, LABEL_GARB]
        self.labels += [record_label(type_name, variant)
                        for type_name, variant in schema.variant_labels()]
        self.label_vars: Dict[Label, Var] = {
            label: Var.second(_label_name(label)) for label in self.labels}
        if variables is None:
            kept = list(schema.all_vars())
        else:
            keep = set(variables) | set(schema.data_vars)
            kept = [name for name in schema.all_vars() if name in keep]
        self.var_vars: Dict[str, Var] = {
            name: Var.second(f"${name}") for name in kept}

    # ------------------------------------------------------------------

    def var_names(self) -> List[str]:
        """The program variables this layout keeps a track for."""
        return list(self.var_vars)

    def dropped_vars(self) -> List[str]:
        """The program variables reduced away (no track)."""
        return [name for name in self.schema.all_vars()
                if name not in self.var_vars]

    def free_vars(self) -> List[Var]:
        """All track variables, in canonical order."""
        return list(self.label_vars.values()) + list(self.var_vars.values())

    def register(self, compiler: Compiler) -> None:
        """Allocate this layout's tracks first in the given compiler."""
        for var in self.free_vars():
            compiler.track(var)

    def record_labels(self) -> List[Label]:
        """All record-cell labels."""
        return self.labels[3:]

    def labels_with_field(self, field: Optional[str] = None) -> List[Label]:
        """Record labels whose variant has a pointer field.

        With ``field`` given, only labels whose field has that name.
        """
        result = []
        for label in self.record_labels():
            info = self.schema.record(label[1]).field_of(label[2])
            if info is not None and (field is None or info.name == field):
                result.append(label)
        return result

    def labels_without_field(self) -> List[Label]:
        """Record labels whose variant has no pointer field."""
        with_field = set(self.labels_with_field())
        return [label for label in self.record_labels()
                if label not in with_field]

    def labels_of_type(self, record_name: str) -> List[Label]:
        """Record labels of the given record type."""
        return [label for label in self.record_labels()
                if label[1] == record_name]

    # ------------------------------------------------------------------
    # Words <-> symbol strings
    # ------------------------------------------------------------------

    def symbols_to_word(self, symbols: Sequence[Symbol],
                        tracks: Mapping[Var, int]) -> List[Dict[int, bool]]:
        """Encode a symbol string as an automaton word."""
        word = []
        for symbol in symbols:
            assignment: Dict[int, bool] = {}
            for label, var in self.label_vars.items():
                assignment[tracks[var]] = (symbol.label == label)
            for name, var in self.var_vars.items():
                assignment[tracks[var]] = (name in symbol.bitmap)
            word.append(assignment)
        return word

    def word_to_symbols(self, word: Sequence[Mapping[int, bool]],
                        tracks: Mapping[Var, int]) -> List[Symbol]:
        """Decode an automaton word into a symbol string.

        Tracks missing from a symbol's assignment are don't-cares and
        read as False.  Raises StoreError when a position does not
        carry exactly one label.
        """
        symbols = []
        for index, assignment in enumerate(word):
            found = [label for label, var in self.label_vars.items()
                     if assignment.get(tracks[var], False)]
            if len(found) != 1:
                raise StoreError(
                    f"position {index} carries {len(found)} labels")
            bitmap = frozenset(
                name for name, var in self.var_vars.items()
                if assignment.get(tracks[var], False))
            symbols.append(Symbol(found[0], bitmap))
        return symbols


def _label_name(label: Label) -> str:
    if label[0] == "rec":
        return f"L({label[1]}:{label[2]})"
    return f"L{label[0]}"
