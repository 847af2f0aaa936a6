"""The paper's example programs (§2, §4, §5), as annotated sources.

Each program uses the paper's list type::

    Color = (red, blue);
    List  = ^Item;
    Item  = record case tag: Color of red, blue: (next: List) end;

Notes on fidelity (details in EXPERIMENTS.md):

* routing relations are written with ``next*`` / ``next+`` as in the
  paper; variant tests use the pointer-type spelling ``(List:red)?``;
* ``delete``'s body is reconstructed from the paper's (OCR-damaged)
  listing; the head-deletion branch additionally clears ``p``, without
  which the paper's own well-formedness requirement cannot hold (the
  disposed head would leave ``p`` dangling when ``p = x``);
* ``delete``'s "exactly one cell freed" postcondition additionally
  assumes a garbage-free initial store, which the paper leaves
  implicit;
* ``fumble`` is ``reverse`` with its second and third loop statements
  swapped, and ``swap`` dereferences nil on singleton lists — both are
  the paper's intended failures; ``swap_fixed`` adds the precondition
  ``x^.next <> nil`` under which ``swap`` verifies (§5).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ReproError

LIST_TYPES = """\
type
  Color = (red, blue);
  List = ^Item;
  Item = record case tag: Color of red, blue: (next: List) end;
"""

#: §5 — in-situ list reversal; the default invariant suffices.
REVERSE = f"""\
program reverse;
{LIST_TYPES}
{{data}} var x, y: List;
{{pointer}} var p: List;
begin
  {{y = nil}}
  while x <> nil do begin
    p := x^.next;
    x^.next := y;
    y := x;
    x := p
  end
  {{x = nil}}
end.
"""

#: §5 — cyclic rotation of x, where p points to the last element.
ROTATE = f"""\
program rotate;
{LIST_TYPES}
{{data}} var x: List;
{{pointer}} var p: List;
begin
  {{x<next*>p & (x <> nil => p^.next = nil)}}
  if x <> nil then begin
    p^.next := x;
    x := x^.next;
    p := p^.next;
    p^.next := nil
  end
  {{x<next*>p & (x <> nil => p^.next = nil)}}
end.
"""

#: §5 — insert a red node after position p (at the front when p=nil).
INSERT = f"""\
program insert;
{LIST_TYPES}
{{data}} var x: List;
{{pointer}} var p, q: List;
begin
  {{x<next*>p & (x = nil <=> p = nil)}}
  if p <> nil then begin
    q := p^.next;
    new(p^.next, red);
    p := p^.next;
    p^.next := q
  end else begin
    q := x;
    new(x, red);
    p := x;
    p^.next := q
  end
  {{x<next*>p & p <> nil & <(List:red)?>p}}
end.
"""

#: §5 — delete the node after p (the head when p is last); frees
#: exactly one cell when the list was nonempty.
DELETE = f"""\
program delete;
{LIST_TYPES}
{{data}} var x: List;
{{pointer}} var p, q: List;
begin
  {{x<next*>p & (x = nil <=> p = nil) & ~(ex g: <garb?>g)}}
  if p <> nil then begin
    if p^.next = nil then begin
      q := x^.next;
      if x^.tag = red then dispose(x, red) else dispose(x, blue);
      x := q;
      p := nil
    end else begin
      q := p^.next^.next;
      if p^.next^.tag = red then dispose(p^.next, red)
      else dispose(p^.next, blue);
      p^.next := q
    end
  end
  {{(x = nil & p = nil & ~(ex g: <garb?>g))
    | (ex g: <garb?>g & (all r: <garb?>r => r = g))}}
end.
"""

#: §5 — find the first blue node; the rich invariant verifies the
#: full behavioural specification, not just well-formedness.
SEARCH = f"""\
program search;
{LIST_TYPES}
{{data}} var x: List;
{{pointer}} var p: List;
begin
  p := x;
  while p <> nil and p^.tag <> blue do
    {{x<next*>p & (all q: (x<next*>q & q<next+>p) => <(List:red)?>q)}}
    p := p^.next
  {{x<next*>p & (p = nil | <(List:blue)?>p)
    & (all q: (x<next*>q & q<next+>p) => <(List:red)?>q)}}
end.
"""

#: §5 — like SEARCH but with no invariant: only well-formedness (the
#: system default) is verified.  Used by the ablation benchmark.
SEARCH_DEFAULT_INVARIANT = f"""\
program searchwf;
{LIST_TYPES}
{{data}} var x: List;
{{pointer}} var p: List;
begin
  p := x;
  while p <> nil and p^.tag <> blue do
    p := p^.next
end.
"""

#: §5 — zip two lists by strict shuffle, appending the longer tail.
ZIP = f"""\
program zip;
{LIST_TYPES}
{{data}} var x, y, z: List;
{{pointer}} var p, t: List;
begin
  {{z = nil}}
  if x = nil then begin t := x; x := y; y := t end;
  p := nil;
  while x <> nil do
    {{(x = nil => y = nil) & z<next*>p & (z <> nil => p^.next = nil)}}
    begin
      if z = nil then begin
        z := x;
        p := x
      end else begin
        p^.next := x;
        p := p^.next
      end;
      x := x^.next;
      p^.next := nil;
      if y <> nil then begin t := x; x := y; y := t end
    end
  {{x = nil & y = nil}}
end.
"""

#: §5 — the reverse program with lines 2 and 3 of the loop swapped: a
#: "likely mistake" that creates a cycle.  Fails verification with a
#: one-cell counterexample.
FUMBLE = f"""\
program fumble;
{LIST_TYPES}
{{data}} var x, y: List;
{{pointer}} var p: List;
begin
  {{y = nil}}
  while x <> nil do begin
    p := x^.next;
    y := x;
    x^.next := y;
    x := p
  end
  {{x = nil}}
end.
"""

#: §5 — swap the first two list elements; dereferences nil on a
#: singleton list.  Fails with the length-one counterexample.
SWAP = f"""\
program swap;
{LIST_TYPES}
{{data}} var x: List;
{{pointer}} var p: List;
begin
  if x <> nil then begin
    p := x;
    x := x^.next;
    p^.next := x^.next;
    x^.next := p
  end
end.
"""

#: §5 — swap with the precondition that excludes the singleton case;
#: verifies.
SWAP_FIXED = f"""\
program swapfix;
{LIST_TYPES}
{{data}} var x: List;
{{pointer}} var p: List;
begin
  {{x^.next <> nil}}
  if x <> nil then begin
    p := x;
    x := x^.next;
    p^.next := x^.next;
    x^.next := p
  end
end.
"""

#: §4 — the worked loop-free triple (new/initialise/link at the end
#: of a list).
TRIPLE = f"""\
program triple;
{LIST_TYPES}
{{data}} var x: List;
{{pointer}} var p, q: List;
begin
  {{x<next*>p & p^.next = nil}}
  new(q, blue);
  q^.next := nil;
  p^.next := q
  {{x<next*>q & q^.next = nil & p <> q}}
end.
"""

#: Extended corpus (ours): classic list algorithms beyond the paper's
#: six, written and annotated in the same style.

#: Destructively append list y to list x; y releases ownership.
APPEND = f"""\
program append;
{LIST_TYPES}
{{data}} var x, y: List;
{{pointer}} var p: List;
begin
  {{x <> nil}}
  p := x;
  while p^.next <> nil do
    {{x<next*>p & p <> nil}}
    p := p^.next;
  p^.next := y;
  y := nil
  {{y = nil & x<next*>p & p <> nil}}
end.
"""

#: Destructively partition x by colour: reds onto y, blues onto z.
SPLIT = f"""\
program split;
{LIST_TYPES}
{{data}} var x, y, z: List;
{{pointer}} var p: List;
begin
  {{y = nil & z = nil}}
  while x <> nil do
    {{(all c: (y<next*>c & c <> nil) => <(List:red)?>c)
      & (all c: (z<next*>c & c <> nil) => <(List:blue)?>c)}}
    begin
    p := x;
    x := x^.next;
    if p^.tag = red then begin p^.next := y; y := p end
    else begin p^.next := z; z := p end
  end
  {{x = nil
    & (all c: (y<next*>c & c <> nil) => <(List:red)?>c)
    & (all c: (z<next*>c & c <> nil) => <(List:blue)?>c)}}
end.
"""

#: Copy the shape of x into a fresh list y (colour-preserving code;
#: the logic cannot relate the two lists pointwise, so the verified
#: contract is memory safety plus the tail discipline).
COPY = f"""\
program copy;
{LIST_TYPES}
{{data}} var x, y: List;
{{pointer}} var p, q: List;
begin
  {{y = nil & q = nil}}
  p := x;
  while p <> nil do
    {{x<next*>p & y<next*>q & (y = nil <=> q = nil)
      & (q <> nil => q^.next = nil)
      & (y = nil => p = x) & (x = nil => y = nil)}}
    begin
    if y = nil then begin
      if p^.tag = red then new(y, red) else new(y, blue);
      q := y
    end else begin
      if p^.tag = red then new(q^.next, red)
      else new(q^.next, blue);
      q := q^.next
    end;
    q^.next := nil;
    p := p^.next
  end
  {{p = nil & (x = nil <=> y = nil)
    & (q <> nil => q^.next = nil)}}
end.
"""

#: Walk to the last element with a trailing cursor, then clear it.
#: No annotations: only well-formedness (the system default) is
#: verified.  The trailing cursor ``t`` feeds no obligation, so every
#: subgoal's slice drops its copies — the showcase program for the
#: statement-level backward slice (``repro analyze scan``).
SCAN = f"""\
program scan;
{LIST_TYPES}
{{data}} var x: List;
{{pointer}} var p, t: List;
begin
  t := x;
  p := x;
  while p <> nil do begin
    t := p;
    p := p^.next
  end;
  t := nil
end.
"""

#: Programs the paper reports in the §6 statistics table.
TABLE_PROGRAMS: Dict[str, str] = {
    "reverse": REVERSE,
    "rotate": ROTATE,
    "insert": INSERT,
    "delete": DELETE,
    "search": SEARCH,
    "zip": ZIP,
}

#: The extended corpus (ours, not in the paper).
EXTENDED_PROGRAMS: Dict[str, str] = {
    "append": APPEND,
    "split": SPLIT,
    "copy": COPY,
    "scan": SCAN,
}

#: All named example programs.
ALL_PROGRAMS: Dict[str, str] = {
    **TABLE_PROGRAMS,
    "searchwf": SEARCH_DEFAULT_INVARIANT,
    "fumble": FUMBLE,
    "swap": SWAP,
    "swapfix": SWAP_FIXED,
    "triple": TRIPLE,
    **EXTENDED_PROGRAMS,
}

#: Programs the paper shows failing, with their §5 counterexamples.
FAULTY_PROGRAMS: Dict[str, str] = {
    "fumble": FUMBLE,
    "swap": SWAP,
}


def load_source(name_or_path: str) -> str:
    """Resolve a bundled program name or a filesystem path to source.

    A path that cannot be read raises :class:`ReproError`, so every
    subcommand reports it as a front-end error (exit 2).
    """
    if name_or_path in ALL_PROGRAMS:
        return ALL_PROGRAMS[name_or_path]
    try:
        with open(name_or_path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ReproError(f"cannot read {name_or_path}: {reason}") \
            from exc
