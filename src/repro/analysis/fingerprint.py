"""Content-addressed fingerprints of (sliced subgoal, obligation) pairs.

The verdict cache (:mod:`repro.verify.cache`) must key a subgoal by
*what is decided*, not where it sits in the source: editing an
unrelated part of a program — or just reflowing it so line numbers
shift — must still hit the cache for every subgoal whose sliced
statements and obligations are unchanged.  The canonical form
therefore contains no line or column information:

* the **schema** — enums, record types with their variants and
  pointer fields, and the data/pointer variable declarations in
  order (the string encoding depends on declaration order, so order
  is significant);
* the **statements**, serialised recursively from the typed IR's own
  line-free syntax (the engine hashes the originals — the slice and
  cone are deterministic functions of them, and the counterexample
  simulation reads the originals directly);
* the **obligations** — each assume/check item's canonical key: the
  pretty-printed assertion formula (re-parseable, line-free) or the
  guard condition text, never the display name (which embeds line
  numbers);
* the **engine options** that change anything the cached result
  records (reduction, slicing, simulation, tracing) — a hit must be
  byte-for-byte the result the engine would have recomputed;
* the **code fingerprint** — a digest over every source file of the
  ``repro`` package, so any engine change invalidates the whole store
  rather than serving results computed by different code.
"""

from __future__ import annotations

import hashlib
import os
from typing import Iterable, List, Sequence

from repro.pascal.typed import (TAssertStmt, TAssign, TDispose, TIf,
                                TNew, TWhile)
from repro.stores.schema import Schema

#: Bump when the cached value format or this canonicalization changes.
CACHE_SCHEMA_VERSION = 3

_code_digest: List[str] = []


def canonical_schema(schema: Schema) -> str:
    """A line-free, order-preserving rendering of the schema."""
    parts = []
    for name, constants in schema.enums.items():
        parts.append(f"enum {name}=({','.join(constants)})")
    for record in schema.records.values():
        variants = []
        for variant, info in record.variants.items():
            field = "" if info is None else f"^{info.name}:{info.target}"
            variants.append(f"{variant}{field}")
        parts.append(f"record {record.name}"
                     f"[{record.tag_field}:{record.tag_type}]"
                     f"({';'.join(variants)})")
    for name, target in schema.data_vars.items():
        parts.append(f"data {name}:{target}")
    for name, target in schema.pointer_vars.items():
        parts.append(f"ptr {name}:{target}")
    return "\n".join(parts)


def canonical_statements(statements: Sequence[object]) -> str:
    """Line-free serialization of a (loop-free or full) statement
    sequence, recursing into conditionals and loops."""
    return ";".join(_statement(statement) for statement in statements)


def _statement(statement: object) -> str:
    if isinstance(statement, TIf):
        return (f"if {statement.cond} then "
                f"[{canonical_statements(statement.then_body)}] else "
                f"[{canonical_statements(statement.else_body)}]")
    if isinstance(statement, TWhile):
        invariant = "" if statement.invariant is None \
            else statement.invariant.text
        return (f"while {statement.cond} inv [{invariant}] do "
                f"[{canonical_statements(statement.body)}]")
    if isinstance(statement, TAssertStmt):
        return f"assert [{statement.annotation.text}]"
    assert isinstance(statement, (TAssign, TNew, TDispose)), statement
    # These nodes' own renderings carry no position information.
    return str(statement)


def subgoal_fingerprint(schema: Schema,
                        statements: Sequence[object],
                        assume_keys: Iterable[str],
                        check_keys: Iterable[str],
                        options: Sequence[object]) -> str:
    """The content hash naming one (sliced subgoal, obligation) pair."""
    digest = hashlib.sha256()
    for chunk in (
            f"cache-schema:{CACHE_SCHEMA_VERSION}",
            f"code:{code_fingerprint()}",
            f"options:{'|'.join(str(item) for item in options)}",
            canonical_schema(schema),
            canonical_statements(statements),
            "assume:" + "&".join(assume_keys),
            "check:" + "&".join(check_keys)):
        digest.update(chunk.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def code_fingerprint() -> str:
    """A digest over every ``repro`` source file, computed once per
    process.  Any code change yields a different cache namespace."""
    if _code_digest:
        return _code_digest[0]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for directory, subdirs, files in sorted(os.walk(root)):
        subdirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, root).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\x00")
    _code_digest.append(digest.hexdigest()[:16])
    return _code_digest[0]
