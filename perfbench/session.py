"""One benchmark session: set-up, then timed rounds of one workload.

Started by ``run.py`` (never by hand) as::

    python3 perfbench/session.py --workload NAME --seed N --seconds S --trace 0|1 \
        --tmp DIR --out FILE --spawned-at MONOTONIC [--probe]

Set-up is everything before the first timed operation: interpreter start,
imports, a warm-up run and starting the results service.  A ``--probe``
session stops there.  Then rounds run for ``--seconds`` (at least three;
two in a traced session); a round that would end after ``--seconds`` is not
started.  Each round has three steps:

1. compute: one pass of the workload's specs through a :class:`SweepExecutor`
   into a fresh store (the first pass fills the store the service serves);
2. hits: an open-loop stream of ``POST /runs`` for a seeded choice of the
   stored specs;
3. burst: distinct uncached specs posted at once, polled until done.

Interleaving the steps spreads each metric's samples over the whole session,
so a slow spell of the host does not land on one metric only.  A traced
session adds one compute pass with the tracing wrappers installed.  Every
output is checked; the result, failures included, goes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402  (the benchmark's own modules, next to this file)
import tracing  # noqa: E402
from repro.experiments.parallel import SweepExecutor, spec_to_dict  # noqa: E402
from repro.experiments.reporting import metrics_to_dict  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, WORKLOADS, burst_specs, metrics_digest, warmup_spec,
)

#: Three rounds, so a median is never one cold or unlucky round.
MIN_ROUNDS = 3
TRACED_ROUNDS = 2
#: Hit requests per second, measured with ``saturation.py`` on a 2-vCPU VM:
#: closed loop over 2 connections the service answered 292-370 hits/s on
#: megacity-plain (the largest entry), 520-575 on paper-robc and 660-760 on
#: campaign-serve, so this rate is at most 0.43 of saturation.  Open loop,
#: the p50 did not grow from 25 to 200 requests/s on any workload: at this
#: rate it holds no queueing.
HIT_RATE_PER_S = 125.0
#: MIN_ROUNDS x 340 = 1020 hits per untraced session, so that ten lie beyond
#: the p99 (nearest rank); 2.7 s of each round at HIT_RATE_PER_S.
HITS_PER_ROUND = 340
BURST_POLL_S = 0.01
BURST_DEADLINE_S = 60.0


def calibrate_ms() -> float:
    """A fixed pure-Python plus NumPy loop: host speed, not code speed.
    About 0.15 s on a 2-vCPU VM at 2.0 GHz.  One reading catches the host's
    speed of the moment, so a session takes one before every round and one
    after the last, and reports their median."""
    start = time.perf_counter()
    total = 0
    for i in range(800_000):
        total += i * i % 7
    values = np.arange(100_000, dtype=float)
    for _ in range(200):
        values = np.sqrt(values * values + 1.0)
    return (time.perf_counter() - start) * 1e3


def spec_body(spec) -> bytes:
    """The ``POST /runs`` body submitting one run spec."""
    return json.dumps({"spec": spec_to_dict(spec)}).encode()


def nearest_rank(values: List[float], q: float) -> float:
    """The ``q`` quantile by nearest rank (p99 of 1000 leaves 10 above it)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sanitize(value: Any) -> Any:
    """The service's JSON view of a value: non-finite floats become null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(item) for item in value]
    return value


class Server:
    """The results service subprocess (``server.py``); stopped by closing stdin."""

    def __init__(self, store: Path, workers: int, trace_dir: str) -> None:
        command = [sys.executable, str(HERE / "server.py"), "--store", str(store),
                   "--workers", str(workers)]
        if trace_dir:
            command += ["--trace-dir", trace_dir]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.process.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"results service did not start: {line!r}")
        self.port = int(line.split()[1])

    def close(self) -> None:
        try:
            self.process.stdin.close()
            self.process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()


class Session:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.tmp = Path(args.tmp)
        self.nproc = os.cpu_count() or 1
        self.attempted = 0
        self.failures: List[str] = []
        self.walls: List[float] = []
        self.latencies: List[float] = []
        self.lateness: List[float] = []
        self.bursts: List[float] = []
        self.stored: List[tuple] = []
        self.result: Dict[str, Any] = {}

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def setup(self) -> None:
        tracing.assert_untraced()
        self.workload = WORKLOADS[self.args.workload]
        warm = SweepExecutor(workers=1, cache_dir=self.tmp / "warm", backend="serial")
        warm.run([warmup_spec()])
        self.trace_dir = str(self.tmp / "trace") if self.args.trace else ""
        self.store = self.tmp / "store"
        self.server = Server(self.store, self.nproc, self.trace_dir)
        status, _ = loadgen.call(self.server.port, "GET", "/health")
        if status != 200:
            raise RuntimeError(f"results service health check returned {status}")
        self.result["setup_s"] = time.monotonic() - self.args.spawned_at
        self.result["env"] = {
            "nproc": self.nproc,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        }

    # ------------------------------------------------------------------ #
    # Step 1: compute
    # ------------------------------------------------------------------ #
    def compute(self, store: Path) -> float:
        """One pass from preset to every RunMetrics stored; its wall time.
        Every pass but the first (whose store is served) is deleted after."""
        workers = self.workload.workers(self.nproc)
        executor = SweepExecutor(workers=workers, cache_dir=store, backend=self.workload.backend)
        start = time.perf_counter()
        specs = self.workload.build_specs(self.args.seed)
        outcomes = list(executor.iter_outcomes(specs, allow_failures=True))
        wall = time.perf_counter() - start
        self.check_outcomes(executor.store, outcomes)
        if store == self.store:
            self.stored = [(o.spec, o.metrics) for o in outcomes if o.ok]
        else:
            shutil.rmtree(store, ignore_errors=True)
        return wall

    def check_outcomes(self, store, outcomes) -> None:
        self.attempted += len(outcomes)
        by_key = {}
        for outcome in outcomes:
            key = outcome.spec.cache_key()
            if not outcome.ok:
                self.fail(f"run {key} failed: {outcome.error}")
                continue
            metrics = outcome.metrics
            by_key[key] = metrics
            if store.load(key) != metrics:
                self.fail(f"stored entry {key} does not load back equal")
            if metrics.messages_delivered > metrics.messages_generated:
                self.fail(f"run {key} delivered more than it generated")
        if self.args.seed == DEFAULT_SEED and len(by_key) == len(outcomes):
            digest = metrics_digest(by_key)
            if digest != self.workload.pinned_digest:
                self.fail(f"RunMetrics digest {digest} != pinned {self.workload.pinned_digest}")

    def traced_compute(self) -> None:
        """One more pass with every wrapper installed; its wall time over the
        untraced pass just before it is the tracing overhead."""
        tracer = tracing.Tracer(Path(self.trace_dir), phase="compute").install()
        try:
            self.result["traced_wall_s"] = self.compute(self.tmp / "store-traced")
        finally:
            tracer.uninstall()
            tracer.dump()
        tracing.assert_untraced()
        self.result["workers"] = self.workload.workers(self.nproc)

    # ------------------------------------------------------------------ #
    # Step 2: hits
    # ------------------------------------------------------------------ #
    def hits(self, rng: random.Random) -> None:
        requests = [
            loadgen.request_bytes("POST", "/runs", spec_body(spec)) for spec, _ in self.stored
        ]
        expected = [
            sanitize(metrics_to_dict(metrics, include_arrays=False)) for _, metrics in self.stored
        ]
        choices = [rng.randrange(len(requests)) for _ in range(HITS_PER_ROUND)]
        replies = loadgen.open_loop(
            self.server.port, [requests[i] for i in choices], HIT_RATE_PER_S, self.nproc
        )
        self.attempted += len(choices)
        for choice, reply in zip(choices, replies):
            if reply.status != 200:
                self.fail(f"hit returned HTTP {reply.status}")
                continue
            payload = json.loads(reply.body)
            if not payload.get("cached") or payload.get("metrics") != expected[choice]:
                self.fail(f"hit payload for spec {choice} differs from the stored entry")
        if len(replies) != len(choices):
            self.fail(f"{len(choices) - len(replies)} hits got no reply")
        self.latencies += [reply.latency_s * 1e3 for reply in replies]
        self.lateness += [reply.late_s * 1e3 for reply in replies]

    # ------------------------------------------------------------------ #
    # Step 3: burst
    # ------------------------------------------------------------------ #
    def burst(self, round_index: int) -> None:
        specs = burst_specs(self.args.seed, round_index)
        bodies = [spec_body(spec) for spec in specs]
        self.attempted += len(specs)
        seconds, jobs, failed = loadgen.burst(
            self.server.port, bodies, BURST_POLL_S, BURST_DEADLINE_S
        )
        if failed:
            self.fail(f"{failed} burst jobs failed or timed out")
        for job_id, payload in jobs.items():
            metrics = payload.get("metrics") or {}
            if payload.get("status") != "done":
                self.fail(f"burst job {job_id} ended {payload.get('status')}: {payload}")
            elif metrics.get("messages_delivered", 0) > metrics.get("messages_generated", 0):
                self.fail(f"burst job {job_id} delivered more than it generated")
        self.bursts.append(seconds)
        self.result["burst_jobs"] = len(specs)

    # ------------------------------------------------------------------ #
    def run(self) -> None:
        try:
            self.setup()
            if self.args.probe:
                return
            calib = []
            rng = random.Random(self.args.seed)
            needed = TRACED_ROUNDS if self.args.trace else MIN_ROUNDS
            start = time.perf_counter()
            rounds, longest = 0, 0.0
            while rounds < needed or (
                not self.args.trace
                and time.perf_counter() - start + longest <= self.args.seconds
            ):
                round_start = time.perf_counter()
                calib.append(calibrate_ms())
                store = self.store if rounds == 0 else self.tmp / f"store-{rounds}"
                self.walls.append(self.compute(store))
                self.hits(rng)
                self.burst(rounds)
                longest = max(longest, time.perf_counter() - round_start)
                rounds += 1
            if self.args.trace:
                self.traced_compute()
            self.result["calib_ms"] = calib + [calibrate_ms()]
        finally:
            server = getattr(self, "server", None)
            if server is not None:
                server.close()
        if self.walls:
            self.summarize()

    def summarize(self) -> None:
        latencies = self.latencies
        self.result.update(
            wall_samples_s=self.walls,
            burst_samples_s=self.bursts,
            hits=len(latencies),
            hit_p50_ms=statistics.median(latencies),
            hit_p90_ms=nearest_rank(latencies, 0.90),
            hit_p99_ms=nearest_rank(latencies, 0.99),
            late_ms_p99=nearest_rank(self.lateness, 0.99),
        )
        if self.args.trace:
            self.result["layers"] = tracing.layer_metrics(Path(self.trace_dir), self.result)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--probe", action="store_true")
    session = Session(parser.parse_args())
    try:
        session.run()
    except Exception as exc:  # report, never hang the orchestrator
        session.fail(f"{type(exc).__name__}: {exc}")
    session.result.update(attempted=session.attempted, failures=session.failures)
    Path(session.args.out).write_text(json.dumps(session.result))
    return 1 if session.failures else 0


if __name__ == "__main__":
    sys.exit(main())
