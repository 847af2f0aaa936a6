"""Request decoding and validation for the serving API.

Every byte that arrives over the socket is hostile until proven
otherwise: the decoder never lets malformed JSON, wrong-typed fields
or oversized bodies surface as anything but a structured
:class:`ProtocolError`, which the HTTP layer renders as a JSON error
body with the matching status code.  The ``serve.request_decode``
fault site fires at the top of :func:`parse_verify_request`, so the
injection matrix can prove even an "impossible" decoder failure comes
back as a structured response.

A verify request looks like::

    {
      "program": "reverse",          // bundled program name, or
      "source": "program ...",       // inline annotated-Pascal source
      "options": {                   // all optional; server defaults
        "reduce": true, "slice": true, "simulate": true
      },
      "budget": {                    // optional; server caps clamp
        "timeout": 5.0,              // each value from above
        "max_bdd_nodes": 200000,
        "max_states": 20000,
        "max_steps": 1000000
      },
      "async": false                 // true = 202 + a job id
    }

Budgets *clamp*: the server's own ``--timeout``/``--max-*`` flags are
both the per-request defaults and hard caps, so no client can buy
more of the daemon's time than the operator allowed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional

from repro.programs import ALL_PROGRAMS
from repro.robust import faults

#: Request bodies above this size are rejected before JSON parsing —
#: a verification request is a small program, not a data upload.
MAX_BODY_BYTES = 1 << 20

_OPTION_KEYS = ("reduce", "slice", "simulate")
_BUDGET_KEYS = ("timeout", "max_bdd_nodes", "max_states", "max_steps")


class ProtocolError(Exception):
    """A request that cannot be served, with its HTTP status."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def to_dict(self) -> Dict[str, object]:
        return {"error": {"code": self.code, "message": self.message}}


@dataclass
class BudgetCaps:
    """The server-side budget: per-request default *and* upper bound."""

    timeout: Optional[float] = None
    max_bdd_nodes: Optional[int] = None
    max_states: Optional[int] = None
    max_steps: Optional[int] = None

    def clamp(self, name: str, requested: Optional[float]):
        """The effective value of one budget axis: the request's if it
        asks for less than the cap, the cap otherwise."""
        cap = getattr(self, name)
        if requested is None:
            return cap
        if cap is None:
            return requested
        return min(requested, cap)


@dataclass
class VerifyRequest:
    """One decoded, validated, budget-clamped verification request."""

    source: str
    label: str
    reduce: bool = True
    slice: bool = True
    simulate: bool = True
    timeout: Optional[float] = None
    max_bdd_nodes: Optional[int] = None
    max_states: Optional[int] = None
    max_steps: Optional[int] = None
    background: bool = False


def _type_error(field: str, expected: str) -> ProtocolError:
    return ProtocolError(400, "bad-request",
                         f"field {field!r} must be {expected}")


def _decode_document(body: bytes) -> Dict[str, object]:
    if len(body) > MAX_BODY_BYTES:
        raise ProtocolError(413, "body-too-large",
                            f"request body exceeds {MAX_BODY_BYTES} "
                            f"bytes")
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(400, "bad-json",
                            f"request body is not valid JSON: {exc}"
                            ) from None
    if not isinstance(document, dict):
        raise ProtocolError(400, "bad-request",
                            "request body must be a JSON object")
    return document


def parse_verify_request(body: bytes, caps: BudgetCaps,
                         defaults: Optional[Dict[str, bool]] = None
                         ) -> VerifyRequest:
    """Decode and validate one ``/v1/verify`` body.

    Raises :class:`ProtocolError` for anything the server cannot act
    on; the returned request is fully validated and budget-clamped.
    """
    faults.fire("serve.request_decode")
    document = _decode_document(body)
    return _parse_one(document, caps, defaults)


def parse_batch_request(body: bytes, caps: BudgetCaps,
                        defaults: Optional[Dict[str, bool]] = None,
                        max_items: int = 64):
    """Decode ``/v1/batch``: ``{"requests": [<verify body>, ...]}``."""
    faults.fire("serve.request_decode")
    document = _decode_document(body)
    items = document.get("requests")
    if not isinstance(items, list) or not items:
        raise ProtocolError(400, "bad-request",
                            "field 'requests' must be a non-empty "
                            "list of verify requests")
    if len(items) > max_items:
        raise ProtocolError(413, "batch-too-large",
                            f"batch exceeds {max_items} requests")
    requests = []
    for position, item in enumerate(items):
        if not isinstance(item, dict):
            raise _type_error(f"requests[{position}]", "an object")
        try:
            requests.append(_parse_one(item, caps, defaults))
        except ProtocolError as exc:
            raise ProtocolError(exc.status, exc.code,
                                f"requests[{position}]: {exc.message}"
                                ) from None
    return requests


def _parse_one(document: Dict[str, object], caps: BudgetCaps,
               defaults: Optional[Dict[str, bool]]) -> VerifyRequest:
    program = document.get("program")
    source = document.get("source")
    if (program is None) == (source is None):
        raise ProtocolError(400, "bad-request",
                            "exactly one of 'program' (a bundled "
                            "name) or 'source' (inline text) is "
                            "required")
    if program is not None:
        if not isinstance(program, str):
            raise _type_error("program", "a string")
        if program not in ALL_PROGRAMS:
            raise ProtocolError(404, "unknown-program",
                                f"no bundled program named "
                                f"{program!r}")
        text = ALL_PROGRAMS[program]
        label = program
    else:
        if not isinstance(source, str) or not source.strip():
            raise _type_error("source", "a non-empty string")
        text = source
        label = "<inline>"

    merged: Dict[str, bool] = dict(defaults or {})
    options = document.get("options", {})
    if not isinstance(options, dict):
        raise _type_error("options", "an object")
    for key, value in options.items():
        if key not in _OPTION_KEYS:
            raise ProtocolError(400, "bad-request",
                                f"unknown option {key!r}; expected "
                                f"one of {', '.join(_OPTION_KEYS)}")
        if not isinstance(value, bool):
            raise _type_error(f"options.{key}", "a boolean")
        merged[key] = value

    budget = document.get("budget", {})
    if not isinstance(budget, dict):
        raise _type_error("budget", "an object")
    clamped: Dict[str, object] = {}
    for key, value in budget.items():
        if key not in _BUDGET_KEYS:
            raise ProtocolError(400, "bad-request",
                                f"unknown budget field {key!r}; "
                                f"expected one of "
                                f"{', '.join(_BUDGET_KEYS)}")
        if isinstance(value, bool) or \
                not isinstance(value, (int, float)) or value <= 0:
            raise _type_error(f"budget.{key}", "a positive number")
    for key in _BUDGET_KEYS:
        clamped[key] = caps.clamp(key, budget.get(key))
    for key in ("max_bdd_nodes", "max_states", "max_steps"):
        if clamped[key] is not None:
            clamped[key] = int(clamped[key])

    background = document.get("async", False)
    if not isinstance(background, bool):
        raise _type_error("async", "a boolean")

    return VerifyRequest(
        source=text,
        label=label,
        reduce=merged.get("reduce", True),
        slice=merged.get("slice", True),
        simulate=merged.get("simulate", True),
        timeout=clamped["timeout"],
        max_bdd_nodes=clamped["max_bdd_nodes"],
        max_states=clamped["max_states"],
        max_steps=clamped["max_steps"],
        background=background,
    )
