"""Parallel verification (``--jobs N``) and its supervised pool.

Fans one program's subgoals — the loop-free triples paper §5 decides
one at a time — across a pool of worker processes, one BDD manager
per worker, then reassembles per-subgoal results, stats and metrics
into a single :class:`~repro.verify.VerificationResult` whose JSON
report is schema-compatible (schema_version 2) and verdict-identical
with a sequential run.  ``verify -j``, ``table -j`` and ``repro
serve`` all go through the one fan-out,
:class:`~repro.parallel.pool.SubgoalFanOut`.

Module map:

* :mod:`repro.parallel.wire` — the task (the pickled verifier and a
  subgoal index) and the reply (the worker's result without its
  subgoal);
* :mod:`repro.parallel.worker` — the worker-process entry point;
* :mod:`repro.parallel.supervise` — the supervised pool: a FIFO task
  queue, heartbeat and exit-code watch, respawn, retry with backoff,
  quarantine;
* :mod:`repro.parallel.pool` — the fan-out: index-order submission,
  deadline partitioning, and one rule for every reply.

Worker death is a *normal event* here: a crashed, OOM-killed or hung
worker is respawned and its in-flight task retried; a task that kills
every worker sent to it is quarantined as a structured ``ERROR`` row
(``docs/ARCHITECTURE.md`` §12).  The differential harness
``tests/diffcheck.py`` is this package's correctness contract:
sequential and parallel runs over the whole corpus must produce
identical normalized reports.
"""

from repro.parallel.pool import (SubgoalFanOut, open_pool,
                                 partition_deadline, resolve_jobs,
                                 verify_parallel)
from repro.parallel.supervise import CrashReply, SupervisedPool

__all__ = ["CrashReply", "SubgoalFanOut", "SupervisedPool",
           "open_pool", "partition_deadline", "resolve_jobs",
           "verify_parallel"]
