"""Wrappers that time the public entry points of each layer of repro.

A traced run calls :func:`install`, which wraps every callable named
in :data:`TARGETS`.  A function is wrapped wherever it is looked up:
in the module that defines it and in every loaded ``repro`` module
that imported it by name.  A method is wrapped in its class.

Each call of a wrapped callable becomes one span record
``[name, start, end, parent, flag]``: ``parent`` is the enclosing
span on the same thread (or None), ``flag`` marks minimisations that
removed no state and cache lookups that hit.  Records stay in memory
until :meth:`Recorder.flush` appends them, as one JSON line, to
``spans-<pid>.jsonl`` in the recorder's directory.  Clocks are
``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux and so
comparable across the processes of one run.

A span's self time is its duration minus the time its wrapped
children cover; the per-layer metrics sum self times, so no second of
a pass is counted twice.
"""

import functools
import importlib
import json
import os
import sys
import threading
import time

#: (module, attribute, span name) of every wrapped callable.
TARGETS = (
    ("repro.mso.compile", "Compiler.compile", "mso.compile"),
    ("repro.automata.symbolic", "SymbolicDfa.product",
     "automata.product"),
    ("repro.automata.symbolic", "SymbolicDfa.project",
     "automata.project"),
    ("repro.automata.symbolic", "SymbolicNfa.determinize",
     "automata.determinize"),
    ("repro.automata.symbolic", "SymbolicDfa.minimize",
     "automata.minimize"),
    ("repro.automata.symbolic", "SymbolicDfa.shortest_accepted",
     "automata.universality"),
    ("repro.symbolic.exec", "exec_statements", "symbolic.exec"),
    ("repro.storelogic.translate", "translate_formula",
     "symbolic.translate"),
    ("repro.symbolic.wf", "wf_string", "symbolic.translate"),
    ("repro.symbolic.wf", "wf_graph", "symbolic.translate"),
    ("repro.stores.encode", "decode_store", "verify.counterexample"),
    ("repro.exec.interpreter", "Interpreter.run_statements",
     "verify.counterexample"),
    ("repro.verify.counterexample", "explain_failure",
     "verify.counterexample"),
    ("repro.pascal", "parse_program", "pascal.frontend"),
    ("repro.pascal", "check_program", "pascal.frontend"),
    ("repro.storelogic.parser", "parse_formula", "storelogic.parse"),
    ("repro.storelogic.check", "check_formula", "storelogic.parse"),
    ("repro.verify.engine", "Verifier.collect_subgoals", "verify.split"),
    ("repro.analysis.slice", "slice_statements", "analysis.plan"),
    ("repro.analysis.coi", "cone_of_influence", "analysis.plan"),
    ("repro.analysis.order", "choose_order", "analysis.plan"),
    ("repro.analysis.fingerprint", "subgoal_fingerprint",
     "analysis.fingerprint"),
    ("repro.verify.cache", "VerdictCache.lookup", "verify.cache.lookup"),
    ("repro.parallel.wire", "wire_subgoal_result", "parallel.wire"),
    ("repro.parallel.wire", "rebuild_subgoal_result", "parallel.wire"),
    # Hooks rather than spans: submit stamps each task, and the
    # worker turns the stamp into a ``parallel.dispatch_wait`` span.
    ("repro.parallel.supervise", "SupervisedPool.submit", "submit"),
    ("repro.parallel.worker", "run_subgoal_task", "task"),
)

#: Per-layer time metrics: metric -> span names whose self time it
#: sums.
LAYER_TIMES = {
    "mso.compile.self_s": ("mso.compile",),
    "automata.product.self_s": ("automata.product",),
    "automata.project.self_s": ("automata.project",),
    "automata.determinize.self_s": ("automata.determinize",),
    "automata.minimize.self_s": ("automata.minimize",),
    "automata.universality_s": ("automata.universality",),
    "symbolic.exec_s": ("symbolic.exec",),
    "symbolic.translate_s": ("symbolic.translate",),
    "verify.counterexample_s": ("verify.counterexample",),
    "pascal.frontend_s": ("pascal.frontend",),
    "storelogic.parse_s": ("storelogic.parse",),
    "verify.split_s": ("verify.split",),
    "analysis.plan_s": ("analysis.plan",),
    "analysis.fingerprint_s": ("analysis.fingerprint",),
    "verify.cache.lookup_s": ("verify.cache.lookup",),
    "parallel.wire_s": ("parallel.wire",),
    "parallel.dispatch_wait_s": ("parallel.dispatch_wait",),
}

#: Per-layer call counts: metric -> span name.
LAYER_CALLS = {
    "automata.product.calls": "automata.product",
    "automata.project.calls": "automata.project",
    "automata.determinize.calls": "automata.determinize",
    "automata.minimize.calls": "automata.minimize",
    "verify.split.calls": "verify.split",
}

#: Per-layer flag counts: metric -> span name whose flagged calls it
#: counts.
LAYER_FLAGS = {
    "automata.minimize.noop_calls": "automata.minimize",
    "verify.cache.hits": "verify.cache.lookup",
}

_ORIGINAL = "__perfbench_original__"
_STAMP = "_perfbench_submitted"


class Recorder:
    """Span records of one process, and where they are written."""

    def __init__(self, directory=None) -> None:
        self.directory = directory
        self.spans = []
        self._local = threading.local()

    def stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def after_fork(self) -> None:
        """A forked child starts with no records of its parent."""
        del self.spans[:]
        self._local = threading.local()

    def flush(self) -> None:
        """Append the records kept so far to this process's span file
        and forget them."""
        if self.directory is None or not self.spans:
            return
        records, self.spans[:] = list(self.spans), []
        path = os.path.join(self.directory,
                            f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as out:
            out.write(json.dumps(encode(records)) + "\n")


def encode(records) -> list:
    """Records with their parent as an index into the list."""
    index = {id(record): i for i, record in enumerate(records)}
    return [[name, start, end,
             None if parent is None else index[id(parent)], flag]
            for name, start, end, parent, flag in records]


def read_batches(directory) -> list:
    """Every encoded batch written into ``directory``."""
    batches = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(directory, entry),
                      encoding="utf-8") as lines:
                batches.extend(json.loads(line) for line in lines
                               if line.strip())
    return batches


def layer_totals(batches, since=None, until=None) -> dict:
    """Self time, calls and flagged calls per span name, over the
    spans that start within ``[since, until)``."""
    self_s, calls, flags = {}, {}, {}
    for batch in batches:
        covered = [0.0] * len(batch)
        for name, start, end, parent, flag in batch:
            if parent is not None:
                covered[parent] += end - start
        for position, (name, start, end, _, flag) in enumerate(batch):
            if since is not None and start < since:
                continue
            if until is not None and start >= until:
                continue
            self_s[name] = (self_s.get(name, 0.0) + end - start
                            - covered[position])
            calls[name] = calls.get(name, 0) + 1
            if flag:
                flags[name] = flags.get(name, 0) + 1
    return {"self_s": self_s, "calls": calls, "flags": flags}


def layer_metrics(totals, passes) -> dict:
    """The per-layer metrics of :data:`LAYER_TIMES`,
    :data:`LAYER_CALLS` and :data:`LAYER_FLAGS`, per pass."""
    metrics = {}
    for metric, names in LAYER_TIMES.items():
        metrics[metric] = sum(totals["self_s"].get(name, 0.0)
                              for name in names) / passes
    for metric, name in LAYER_CALLS.items():
        metrics[metric] = totals["calls"].get(name, 0) / passes
    for metric, name in LAYER_FLAGS.items():
        metrics[metric] = totals["flags"].get(name, 0) / passes
    return metrics


def report_metrics(reports, passes) -> dict:
    """Counts from the ``stats`` blocks of run reports, per pass, over
    the subgoals that were computed rather than replayed from the
    verdict cache.  ``bdd.apply.hit_rate`` is reported with its base,
    ``bdd.apply.lookups`` (and reads 0 when the base is 0);
    ``bdd.peak_nodes`` and ``mso.max_states`` are maxima."""
    sums = {"bdd_apply_hits": 0, "bdd_apply_misses": 0,
            "bdd_map_misses": 0, "bdd_restrict_misses": 0,
            "compiled_nodes": 0}
    formula_size = peak_nodes = max_states = 0
    for report in reports:
        for subgoal in report.get("subgoals", ()):
            if (subgoal.get("cache") or {}).get("hit"):
                continue
            stats = subgoal["stats"]
            for key in sums:
                sums[key] += stats[key]
            formula_size += subgoal["formula_size"]
            peak_nodes = max(peak_nodes, stats["peak_nodes"])
            max_states = max(max_states, stats["max_states"])
    lookups = sums["bdd_apply_hits"] + sums["bdd_apply_misses"]
    return {
        "bdd.apply.misses": sums["bdd_apply_misses"] / passes,
        "bdd.apply.lookups": lookups / passes,
        "bdd.apply.hit_rate": (sums["bdd_apply_hits"] / lookups
                               if lookups else 0.0),
        "bdd.map.misses": sums["bdd_map_misses"] / passes,
        "bdd.restrict.misses": sums["bdd_restrict_misses"] / passes,
        "bdd.peak_nodes": peak_nodes,
        "mso.compiled_nodes": sums["compiled_nodes"] / passes,
        "mso.max_states": max_states,
        "verify.formula_size": formula_size / passes,
    }


# ----------------------------------------------------------------------
# Installing and removing the wrappers
# ----------------------------------------------------------------------

def _span_wrapper(recorder, name, function, flag_of=None):
    clock = time.perf_counter
    spans = recorder.spans

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        stack = recorder.stack()
        record = [name, clock(), 0.0, stack[-1] if stack else None,
                  None]
        stack.append(record)
        try:
            result = function(*args, **kwargs)
        finally:
            record[2] = clock()
            stack.pop()
            spans.append(record)
        if flag_of is not None:
            record[4] = flag_of(args, result)
        return result
    return wrapper


def _minimize_noop(args, result) -> bool:
    return result.num_states == args[0].num_states


def _cache_hit(args, result) -> bool:
    return result is not None


def _submit_wrapper(recorder, function):
    @functools.wraps(function)
    def wrapper(self, payload, *args, **kwargs):
        try:
            setattr(payload, _STAMP, time.perf_counter())
        except AttributeError:
            pass
        return function(self, payload, *args, **kwargs)
    return wrapper


def _task_wrapper(recorder, function):
    @functools.wraps(function)
    def wrapper(task, *args, **kwargs):
        submitted = getattr(task, _STAMP, None)
        if submitted is not None:
            recorder.spans.append(["parallel.dispatch_wait", submitted,
                                   time.perf_counter(), None, None])
        try:
            return function(task, *args, **kwargs)
        finally:
            recorder.flush()
    return wrapper


def _make_wrapper(recorder, name, function):
    if name == "submit":
        wrapper = _submit_wrapper(recorder, function)
    elif name == "task":
        wrapper = _task_wrapper(recorder, function)
    else:
        flag_of = {"automata.minimize": _minimize_noop,
                   "verify.cache.lookup": _cache_hit}.get(name)
        wrapper = _span_wrapper(recorder, name, function, flag_of)
    setattr(wrapper, _ORIGINAL, function)
    return wrapper


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Installation:
    """The wrappers one :func:`install` put in place."""

    def __init__(self) -> None:
        self.patches = []
        self.missing = []

    def _patch(self, owner, attribute, wrapper) -> None:
        self.patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)


def install(recorder, targets=TARGETS) -> Installation:
    """Wrap every target that exists; names of the missing ones are
    listed in the returned installation's ``missing``."""
    installation = Installation()
    for module_name, attribute, name in targets:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            installation.missing.append(f"{module_name}.{attribute}")
            continue
        owner_name, _, member = attribute.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name \
            else module
        function = getattr(owner, member, None)
        if owner is None or function is None:
            installation.missing.append(f"{module_name}.{attribute}")
            continue
        wrapper = _make_wrapper(recorder, name, function)
        if owner_name:
            installation._patch(owner, member, wrapper)
            continue
        for loaded in _repro_modules():
            for key, value in list(vars(loaded).items()):
                if value is function:
                    installation._patch(loaded, key, wrapper)
    return installation


def uninstall(installation) -> None:
    """Put every original back, including references to a wrapper
    that modules imported after :func:`install` took."""
    for owner, attribute, original in reversed(installation.patches):
        setattr(owner, attribute, original)
    for loaded in _repro_modules():
        for key, value in list(vars(loaded).items()):
            original = getattr(value, _ORIGINAL, None)
            if original is not None and callable(value):
                setattr(loaded, key, original)
    installation.patches = []
