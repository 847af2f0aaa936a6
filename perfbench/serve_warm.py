"""The ``serve-warm`` workload: a live ``repro serve`` daemon answering
one closed-loop client over a unix socket.

Set-up starts the daemon in a fresh directory under the checkout's
``.perfbench/`` (socket and verdict cache; no TCP port) and fills the
cache by sending every program of the mix once, in a fixed order.
The timed loop then sends whole cycles of the mix, each in a seeded
order, and every answer must come from the cache.
"""

import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

import checkout
import checks
import measure
import tracing
import workloads

WORKERS = 2
HEALTH_TIMEOUT = 60.0
REQUEST_TIMEOUT = 150.0
STOP_TIMEOUT = 30.0


class _UnixConnection(http.client.HTTPConnection):
    def __init__(self, path, timeout) -> None:
        super().__init__("localhost", timeout=timeout)
        self._path = path

    def connect(self) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(self.timeout)
        self.sock.connect(self._path)


class Daemon:
    """One ``repro serve`` process group and its private directory.

    The daemon runs in a session of its own, so that its workers can
    be killed with it.  Paths are relative to the checkout root (the
    working directory of both sides), which keeps the socket path
    short whatever the checkout's location.
    """

    def __init__(self, traced: bool) -> None:
        os.makedirs(checkout.OUTPUT, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="serve-",
                                        dir=checkout.OUTPUT)
        relative = os.path.relpath(self.workdir, checkout.ROOT)
        self.socket = os.path.join(relative, "d.sock")
        self.spans_dir = os.path.join(self.workdir, "spans")
        os.makedirs(self.spans_dir)
        flags = ["serve", "--unix-socket", self.socket,
                 "--workers", str(WORKERS),
                 "--cache-dir", os.path.join(relative, "cache")]
        if traced:
            command = [sys.executable,
                       os.path.join(checkout.HERE, "serve_launcher.py"),
                       self.spans_dir] + flags
        else:
            command = [sys.executable, "-m", "repro"] + flags
        self.log_path = os.path.join(self.workdir, "daemon.log")
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=checkout.ROOT, env=checkout.child_environment(),
                stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                start_new_session=True)

    def call(self, method, path, document=None):
        """One request on a fresh connection: (status, parsed body)."""
        connection = _UnixConnection(self.socket, REQUEST_TIMEOUT)
        try:
            body = None if document is None else \
                json.dumps(document).encode("utf-8")
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            payload = response.read()
            return response.status, (json.loads(payload) if payload
                                     else {})
        finally:
            connection.close()

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + HEALTH_TIMEOUT
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with code "
                                   f"{self.process.returncode}:\n"
                                   f"{self.log_tail()}")
            try:
                if self.call("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.02)
        raise RuntimeError("daemon did not answer /healthz within "
                           f"{HEALTH_TIMEOUT:g}s:\n{self.log_tail()}")

    def log_tail(self) -> str:
        try:
            with open(self.log_path, encoding="utf-8",
                      errors="replace") as log:
                return "".join(log.readlines()[-20:])
        except OSError:
            return ""

    def stop(self) -> None:
        """SIGTERM (the daemon drains), then wait; whatever of the
        group is left after :data:`STOP_TIMEOUT` is killed."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self) -> None:
        """Kill the daemon and its workers and wait until all are
        gone."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        deadline = time.monotonic() + STOP_TIMEOUT
        while time.monotonic() < deadline:
            try:
                os.killpg(self.process.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.02)

    def peak_rss_mb(self) -> float:
        """The largest peak resident memory (``VmHWM``) among the
        daemon's processes, the daemon and its workers."""
        peak_kb = 0
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                    group = int(stat.read().rsplit(")", 1)[1].split()[2])
                if group != self.process.pid:
                    continue
                with open(f"/proc/{entry}/status",
                          encoding="ascii") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            peak_kb = max(peak_kb, int(line.split()[1]))
            except (OSError, ValueError, IndexError):
                continue
        if not peak_kb:
            raise RuntimeError("no peak memory of the daemon readable")
        return peak_kb / 1024.0

    def remove(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _hits(report) -> int:
    return sum(1 for subgoal in report.get("subgoals", ())
               if (subgoal.get("cache") or {}).get("hit"))


def _stats_counter(stats, name) -> float:
    entry = (stats.get("metrics") or {}).get(name) or {}
    return entry.get("total", entry.get("value", 0)) or 0


class Session:
    """A daemon with its cache filled, and the client's tallies."""

    def __init__(self, daemon, sources, seed) -> None:
        self.daemon = daemon
        self.sources = sources
        self.requests = workloads.Requests(seed)
        self.cold = {}
        self.filled_subgoals = 0
        self.client_hits = 0
        self.problems = []
        self.setup_problems = []
        #: Timed answers that computed a subgoal instead of replaying
        #: it (each is also a failed request).
        self.computed_reports = []

    def fill(self) -> list:
        """Send every program of the mix once, in the mix's own order
        whatever the seed; returns the cold reports.  A subgoal that
        an earlier program shares (``fumble`` shares two of
        ``reverse``'s) already hits the cache here."""
        reports = []
        for name in workloads.SERVE_MIX:
            status, report = self.daemon.call(
                "POST", "/v1/verify", {"source": self.sources[name]})
            problems = [] if status == 200 else [f"status {status}"]
            if status == 200:
                problems += checks.verdict_problems(
                    report, workloads.SERVE_VERDICTS[name])
                self.cold[name] = report
                reports.append(report)
                hits = _hits(report)
                self.client_hits += hits
                self.filled_subgoals += len(report["subgoals"]) - hits
            self.setup_problems += [f"set-up {name}: {problem}"
                                    for problem in problems]
        return reports

    def loop(self, seconds, min_requests):
        """Whole cycles of the mix until ``seconds`` have passed and
        at least ``min_requests`` were sent.  Returns (latencies,
        failed requests, the summed latency of each cycle)."""
        latencies, failed, rounds = [], 0, []
        started = time.perf_counter()
        while True:
            first = len(latencies)
            for name in self.requests.next_cycle():
                time.sleep(self.requests.next_think())
                sent = time.perf_counter()
                try:
                    status, report = self.daemon.call(
                        "POST", "/v1/verify", {"source": self.sources[name]})
                except (OSError, http.client.HTTPException,
                        ValueError) as exc:
                    status, report = f"{type(exc).__name__}: {exc}", None
                latencies.append(time.perf_counter() - sent)
                problems = self._warm_problems(name, status, report)
                if problems:
                    failed += 1
                    self.problems.append(f"{name}: {problems[0]}")
            rounds.append(sum(latencies[first:]))
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and len(latencies) >= min_requests:
                return latencies, failed, rounds

    def _warm_problems(self, name, status, report) -> list:
        if status != 200:
            return [f"status {status}"]
        hits = _hits(report)
        self.client_hits += hits
        if hits < len(report.get("subgoals", ())):
            self.computed_reports.append(report)
        cold = self.cold.get(name)
        if cold is None:
            return ["no cold report from set-up"]
        return (checks.verdict_problems(report,
                                        workloads.SERVE_VERDICTS[name])
                + checks.warm_problems(report, cold))

    def stats(self) -> dict:
        status, stats = self.daemon.call("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return stats

    def check_stats(self) -> list:
        return checks.daemon_stats_problems(
            self.stats(), self.client_hits, self.filled_subgoals)


def _load_sources() -> dict:
    checkout.import_repro()
    from repro.programs import ALL_PROGRAMS
    return {name: ALL_PROGRAMS[name] for name in workloads.SERVE_MIX}


def _session(traced, seed, sources):
    daemon = Daemon(traced)
    try:
        daemon.wait_healthy()
    except BaseException:
        daemon.kill()
        raise
    return Session(daemon, sources, seed)


def run(seconds, seed, process_start) -> dict:
    """The untraced run: set-up time and request latencies."""
    sources = _load_sources()
    session = _session(False, seed, sources)
    try:
        session.fill()
        setup_s = time.perf_counter() - process_start
        latencies, failed, rounds = session.loop(seconds, 1)
        stats_problems = session.check_stats()
        peak_rss_mb = session.daemon.peak_rss_mb()
    finally:
        session.daemon.stop()
    session.daemon.remove()
    print(f"serve-warm: {len(latencies)} requests, "
          f"{session.filled_subgoals} subgoals filled", file=sys.stderr)
    return {
        "attempted": len(latencies),
        "failed": failed,
        "problems": session.problems,
        "run_problems": session.setup_problems + stats_problems,
        "metrics": {
            "setup_s": setup_s,
            "round_s": measure.median(rounds),
            "peak_rss_mb": peak_rss_mb,
        },
    }


def _fill_count_problems(batches, since, until, reports) -> list:
    calls = tracing.layer_totals(batches, since, until)["calls"]
    wrapped = {"minimizations": calls.get("automata.minimize", 0),
               "projections": calls.get("automata.project", 0)}
    return ["set-up: " + problem for problem in checks.call_count_problems(
        wrapped, checks.computed_counts(reports))]


def run_traced(seconds, seed, spans_out) -> dict:
    """The traced run: half the time against a plain daemon, half
    against one started through the launcher, whose spans give the
    per-layer split of the second half."""
    sources = _load_sources()
    plain = _session(False, seed, sources)
    try:
        plain.fill()
        reference, failed, _ = plain.loop(
            seconds / 2, measure.samples_needed(0.95))
        problems = plain.check_stats()
    finally:
        plain.daemon.stop()
    plain.daemon.remove()
    attempted = len(reference)

    traced = _session(True, seed, sources)
    try:
        fill_start = time.perf_counter()
        reports = traced.fill()
        fill_end = time.perf_counter()
        before = traced.stats()
        window_start = time.perf_counter()
        latencies, traced_failed, rounds = traced.loop(seconds / 2, 1)
        window_end = time.perf_counter()
        after = traced.stats()
        problems += traced.check_stats()
    finally:
        traced.daemon.stop()
    batches = tracing.read_batches(traced.daemon.spans_dir)
    shutil.rmtree(spans_out, ignore_errors=True)
    shutil.copytree(traced.daemon.spans_dir, spans_out)
    traced.daemon.remove()
    problems += _fill_count_problems(batches, fill_start, fill_end,
                                     reports)
    attempted += len(latencies)
    failed += traced_failed

    cycles = len(rounds)
    totals = tracing.layer_totals(batches, window_start, window_end)
    layers = tracing.layer_metrics(totals, cycles)
    admitted = (_stats_counter(after, "serve.request_seconds")
                - _stats_counter(before, "serve.request_seconds"))
    layers["serve.admitted_s"] = admitted / cycles
    layers["serve.outside_s"] = (sum(latencies) - admitted) / cycles
    layers["serve.pool.retries"] = (
        _stats_counter(after, "serve.pool.retries")
        - _stats_counter(before, "serve.pool.retries")) / cycles
    layers["serve.request_p95_ms"] = measure.percentile(reference,
                                                        0.95) * 1e3
    layers.update(tracing.report_metrics(traced.computed_reports, cycles))
    layers["bench.trace_overhead"] = (measure.median(latencies)
                                      / measure.median(reference))
    with open(os.path.join(spans_out, "missing.json"),
              encoding="utf-8") as listed:
        missing = json.load(listed)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": plain.problems + traced.problems,
        "run_problems": (plain.setup_problems + traced.setup_problems
                         + problems),
        "layers": layers,
        "missing": missing,
        "fill_reports": reports,
    }
