"""Hierarchical span tracing with a zero-overhead no-op sink.

A *span* is one timed region of the pipeline — ``subgoal``,
``compile``, ``automata.product`` — with free-form attributes (state
counts, BDD node counts, formula sizes) and child spans.  Spans form a
tree mirroring the call structure, which the reporters render as a
per-phase timing tree and export as JSON.

Instrumented code does not thread a tracer through every signature; it
calls the module-level :func:`span`, which delegates to the process's
*active* tracer.  The default active tracer is :data:`NULL_TRACER`,
whose ``span`` returns a shared no-op span — no allocation, no clock
read — so leaving instrumentation in hot paths costs one function
call when tracing is off.

Two levels of granularity:

* **phase** spans (the default) — a handful per subgoal; cheap enough
  for ``--profile``;
* **detail** spans (``detail=True``) — one per automaton operation,
  possibly thousands per subgoal; recorded only by a
  ``Tracer(detail=True)`` (the CLI's ``--trace``).

Example:
    >>> tracer = Tracer()
    >>> with activate(tracer):
    ...     with span("compile") as sp:
    ...         if sp:
    ...             sp.annotate(states=7)
    >>> tracer.roots[0].name
    'compile'
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    """One timed, attributed region; also its own context manager.

    Truthiness distinguishes real spans from the no-op span, so
    callers can gate expensive attribute computation::

        with span("automata.minimize", detail=True) as sp:
            result = dfa.minimize()
            if sp:
                sp.annotate(states=result.num_states)
    """

    __slots__ = ("name", "attrs", "children", "start", "end", "_tracer")

    def __init__(self, name: str, attrs: Dict[str, object],
                 tracer: "Tracer") -> None:
        self.name = name
        self.attrs = attrs
        self.children: List["Span"] = []
        self.start = 0.0
        self.end: Optional[float] = None
        self._tracer: Optional["Tracer"] = tracer

    # -- context manager ----------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.end = time.perf_counter()
        # A closed span forgets its tracer, so a finished span tree
        # pickles on its own (across the worker pipe, into the cache).
        if self._tracer is not None:
            self._tracer._pop(self)
            self._tracer = None
        return False

    def __bool__(self) -> bool:
        return True

    # -- data ----------------------------------------------------------

    @property
    def seconds(self) -> float:
        """Duration; reads the clock while the span is still open."""
        return (self.end if self.end is not None
                else time.perf_counter()) - self.start

    def annotate(self, **attrs: object) -> None:
        """Attach or overwrite attributes."""
        self.attrs.update(attrs)

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (schema: name/seconds/attrs/children)."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.seconds:.6f}s, {self.attrs!r})"


class _NullSpan:
    """The shared do-nothing span returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def annotate(self, **attrs: object) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Records a forest of spans.

    Args:
        detail: also record ``detail=True`` (per-operation) spans.
        max_spans: hard cap on recorded spans; once reached, further
            spans become no-ops and are counted in ``spans_dropped``
            (a runaway trace must not exhaust memory).
    """

    enabled = True

    def __init__(self, detail: bool = False,
                 max_spans: int = 200_000) -> None:
        self.detail = detail
        self.max_spans = max_spans
        self.roots: List[Span] = []
        self.spans_recorded = 0
        self.spans_dropped = 0
        self._stack: List[Span] = []

    def span(self, name: str, detail: bool = False, **attrs: object):
        """Open a span as a child of the innermost open span."""
        if detail and not self.detail:
            return NULL_SPAN
        if self.spans_recorded >= self.max_spans:
            self.spans_dropped += 1
            return NULL_SPAN
        opened = Span(name, attrs, self)
        if self._stack:
            self._stack[-1].children.append(opened)
        else:
            self.roots.append(opened)
        self._stack.append(opened)
        self.spans_recorded += 1
        opened.start = time.perf_counter()
        return opened

    def _pop(self, span: Span) -> None:
        # Exits normally come in LIFO order; tolerate out-of-order
        # exits (e.g. a generator finalised late) by unwinding to the
        # span being closed.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                return

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation of the whole forest."""
        return {
            "spans": [root.to_dict() for root in self.roots],
            "spans_recorded": self.spans_recorded,
            "spans_dropped": self.spans_dropped,
        }


class _NullTracer:
    """The disabled sink: every span is the shared no-op span."""

    enabled = False
    detail = False

    def span(self, name: str, detail: bool = False,
             **attrs: object) -> _NullSpan:
        return NULL_SPAN


NULL_TRACER = _NullTracer()

#: The process-wide active tracer.  A plain module global, not a
#: context variable: the verifier is single-threaded and the lookup
#: sits on hot paths.
_ACTIVE = NULL_TRACER


def current_tracer():
    """The active tracer (the null sink when tracing is off)."""
    return _ACTIVE


def set_tracer(tracer) -> None:
    """Install ``tracer`` (or the null sink for ``None``) globally."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else NULL_TRACER


def span(name: str, detail: bool = False, **attrs: object):
    """Open a span on the active tracer (no-op when tracing is off)."""
    return _ACTIVE.span(name, detail, **attrs)


@contextmanager
def activate(tracer):
    """Install ``tracer`` for the duration of a ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer if tracer is not None else NULL_TRACER
    try:
        yield tracer
    finally:
        _ACTIVE = previous


def tracer_from_env(env: Optional[Dict[str, str]] = None) -> Optional[Tracer]:
    """A detail tracer when ``REPRO_TRACE`` is set to a truthy value.

    Recognised as enabled: any value except the empty string and
    ``0``.  Returns None when the variable is absent or falsy.
    """
    value = (env if env is not None else os.environ).get("REPRO_TRACE", "")
    if value in ("", "0"):
        return None
    return Tracer(detail=True)
