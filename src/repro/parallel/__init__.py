"""Sharded parallel verification (``--jobs N``).

Fans independent subgoals — and whole programs, for ``repro table``
and batch runs — across a pool of worker processes, one BDD manager
per worker, then merges per-worker ``CompilationStats``, metrics and
outcomes back into a single :class:`~repro.verify.VerificationResult`
whose JSON report is schema-compatible (schema_version 2) and
verdict-identical with a sequential run.

Module map:

* :mod:`repro.parallel.wire` — picklable task/result payloads;
* :mod:`repro.parallel.worker` — worker-process entry points;
* :mod:`repro.parallel.supervise` — the supervised pool: a FIFO task
  queue, heartbeat and exit-code watch, respawn, retry with backoff,
  quarantine;
* :mod:`repro.parallel.pool` — the executor: index-order submission,
  deadline partitioning and the merge logic.

Worker death is a *normal event* here: a crashed, OOM-killed or hung
worker is respawned and its in-flight task retried; a task that kills
every worker sent to it is quarantined as a structured ``ERROR`` row
(``docs/ARCHITECTURE.md`` §12).  The differential harness
``tests/diffcheck.py`` is this package's correctness contract:
sequential and parallel runs over the whole corpus must produce
identical normalized reports.
"""

from repro.parallel.pool import (crash_subgoal_wire, engine_options,
                                 error_subgoal_wire, partition_deadline,
                                 resolve_jobs, run_table,
                                 verify_parallel)
from repro.parallel.supervise import (CrashReply, SupervisedPool,
                                      run_supervised)
from repro.parallel.wire import EngineOptions

__all__ = ["CrashReply", "EngineOptions", "SupervisedPool",
           "crash_subgoal_wire", "engine_options", "error_subgoal_wire",
           "partition_deadline", "resolve_jobs", "run_supervised",
           "run_table", "verify_parallel"]
