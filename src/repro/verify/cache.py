"""The content-addressed verdict cache.

Re-verifying an edited program repeats almost all of its work: only
the subgoals whose sliced statements or obligations changed can
decide differently.  This store maps a subgoal's content fingerprint
(:func:`repro.analysis.fingerprint.subgoal_fingerprint`) to its
decided result, so a warm run replays every unchanged subgoal from
disk — the seed of ROADMAP's verification-as-a-service direction.

Design points:

* **values are decided results** — the engine's own
  :class:`repro.verify.engine.SubgoalResult`, stored without its
  ``Subgoal`` (the same record a parallel worker sends back) and
  re-attached to the caller's own.  A cache hit therefore renders and
  serialises exactly like a fresh decision (modulo wall-clock time
  and the hit marker);
* **only clean verdicts are stored** — a degraded outcome (timeout,
  budget, error) or a retry-ladder success under a *different* plan
  than the configured one says nothing about what the next run would
  see, so it is never cached;
* **corruption-tolerant** — any failure to read, unpickle or validate
  an entry is a miss, never an error (a cache must not be able to
  break the verifier); writes go through a per-process temporary file
  and an atomic rename, so a crashed or concurrent run leaves no
  half-written entry;
* **concurrency-safe** — a serving daemon has many workers deciding
  (and therefore storing) at once.  Each store takes a per-entry
  ``.lock`` file (``O_CREAT|O_EXCL``); a contended lock skips the
  store, which is sound because equal fingerprints name equal
  results.  Locks abandoned by crashed writers go stale after
  :data:`STALE_LOCK_SECONDS` and are swept away;
* **bounded** — an optional ``max_mb`` cap turns the store into an
  LRU: hits refresh an entry's mtime, and after each store the
  oldest entries are evicted until the cache fits.  Orphaned
  temporaries from crashed writers are swept by the same pass;
* **versioned** — entries live under a directory named by the cache
  schema version and the package code fingerprint, so upgrading the
  code abandons (rather than misreads) old entries; the fingerprint
  itself additionally covers the engine options and the store schema.

The ``serve.cache_write`` fault site fires at the top of
:meth:`VerdictCache.store`, so the injection matrix can prove a
failing cache write degrades to a skipped store, never a failed run.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Optional

from repro.analysis.fingerprint import (CACHE_SCHEMA_VERSION,
                                        code_fingerprint)
from repro.obs.metrics import current_metrics
from repro.robust import faults

#: A ``.lock`` or ``.tmp`` file older than this is an abandoned
#: artifact of a crashed writer, not a live one: stores take
#: milliseconds, so a minute of age is orders of magnitude past any
#: legitimate hold.
STALE_LOCK_SECONDS = 60.0


class VerdictCache:
    """An on-disk fingerprint -> decided-result store."""

    def __init__(self, root: str,
                 max_mb: Optional[float] = None) -> None:
        self.root = root
        self.max_mb = max_mb
        self.directory = os.path.join(
            root, f"v{CACHE_SCHEMA_VERSION}-{code_fingerprint()}")

    # ------------------------------------------------------------------

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.directory, f"{fingerprint}.pkl")

    def lookup(self, fingerprint: str):
        """The stored result, or None on a miss (including any
        corrupt, truncated or unreadable entry)."""
        started = time.perf_counter()
        path = self._path(fingerprint)
        try:
            with open(path, "rb") as handle:
                record = pickle.load(handle)
            # Minimal shape check: a foreign object in the store must
            # read as a miss, not surface later as an attribute error.
            if not hasattr(record, "outcome") or \
                    not hasattr(record, "stats"):
                raise ValueError("not a subgoal result")
        except KeyboardInterrupt:
            raise
        except Exception:  # noqa: BLE001 — tolerance is the contract
            current_metrics().counter("verify.cache.misses").inc()
            return None
        try:
            # A hit is a use: refresh the mtime so the LRU eviction
            # pass keeps hot entries and sheds cold ones.
            os.utime(path)
        except OSError:
            pass
        metrics = current_metrics()
        metrics.counter("verify.cache.hits").inc()
        metrics.histogram("verify.cache.lookup_seconds").observe(
            time.perf_counter() - started)
        return record

    def store(self, fingerprint: str, record: object) -> None:
        """Persist one result; failures are silently dropped (a
        read-only or full cache directory must not fail the run)."""
        try:
            faults.fire("serve.cache_write")
            os.makedirs(self.directory, exist_ok=True)
            final = self._path(fingerprint)
            lock = self._acquire_lock(final)
            if lock is None:
                # Another writer holds this fingerprint right now.
                # Equal fingerprints name equal results, so skipping
                # the duplicate store loses nothing — and never lets
                # two writers interleave on one entry.
                current_metrics().counter(
                    "verify.cache.lock_contended").inc()
                return
            try:
                temporary = f"{final}.{os.getpid()}.tmp"
                with open(temporary, "wb") as handle:
                    pickle.dump(record, handle, pickle.HIGHEST_PROTOCOL)
                os.replace(temporary, final)
            finally:
                try:
                    os.unlink(lock)
                except OSError:
                    pass
        except KeyboardInterrupt:
            raise
        except Exception:  # noqa: BLE001 — see docstring
            current_metrics().counter("verify.cache.store_errors").inc()
            return
        current_metrics().counter("verify.cache.stores").inc()
        self._enforce_cap()

    # -- locking -------------------------------------------------------

    def _acquire_lock(self, final: str) -> Optional[str]:
        """Create ``<entry>.lock`` exclusively; returns its path, or
        None when another live writer holds it (stale locks are swept
        and re-tried once)."""
        lock = f"{final}.lock"
        for attempt in range(2):
            try:
                descriptor = os.open(lock,
                                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(descriptor)
                return lock
            except FileExistsError:
                if attempt:
                    return None
                try:
                    age = time.time() - os.path.getmtime(lock)
                except OSError:
                    continue  # holder just released; retry the open
                if age <= STALE_LOCK_SECONDS:
                    return None
                try:
                    os.unlink(lock)
                except OSError:
                    return None
                current_metrics().counter(
                    "verify.cache.stale_locks_removed").inc()
            except OSError:
                return None
        return None

    # -- LRU size cap --------------------------------------------------

    def _enforce_cap(self) -> None:
        """Evict least-recently-used entries until the cache fits
        ``max_mb``; sweep abandoned ``.tmp``/``.lock`` files as a side
        effect.  Best-effort throughout — eviction must never fail a
        run either."""
        if self.max_mb is None:
            return
        try:
            limit = self.max_mb * 1024 * 1024
            now = time.time()
            metrics = current_metrics()
            entries = []
            total = 0
            with os.scandir(self.directory) as scan:
                for entry in scan:
                    try:
                        if not entry.is_file():
                            continue
                        stat = entry.stat()
                    except OSError:
                        continue
                    if entry.name.endswith(".pkl"):
                        entries.append((stat.st_mtime, stat.st_size,
                                        entry.path))
                        total += stat.st_size
                    elif entry.name.endswith((".tmp", ".lock")) and \
                            now - stat.st_mtime > STALE_LOCK_SECONDS:
                        try:
                            os.unlink(entry.path)
                            metrics.counter(
                                "verify.cache.stale_locks_removed").inc()
                        except OSError:
                            pass
            metrics.gauge("verify.cache.bytes").set(total)
            if total <= limit:
                return
            entries.sort()  # oldest mtime (least recently used) first
            for _, size, path in entries:
                if total <= limit:
                    break
                if os.path.exists(f"{path}.lock"):
                    continue  # a live writer owns it; skip this round
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                metrics.counter("verify.cache.evictions").inc()
            metrics.gauge("verify.cache.bytes").set(total)
        except KeyboardInterrupt:
            raise
        except Exception:  # noqa: BLE001 — see docstring
            return


def open_cache(cache_dir: Optional[str],
               max_mb: Optional[float] = None
               ) -> Optional["VerdictCache"]:
    """A cache rooted at ``cache_dir``, or None when caching is off."""
    if cache_dir is None:
        return None
    return VerdictCache(cache_dir, max_mb=max_mb)
