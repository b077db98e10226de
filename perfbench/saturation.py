"""How fast the results service answers hits: the measurement behind the
hit rate the benchmark sends (``HIT_RATE_PER_S`` in ``session.py``).

    python3 perfbench/saturation.py --workload megacity-plain

Fills a fresh store with the workload's specs at ``--seed``, starts the
service as a session does, then reports hit latency under an open loop at
each of ``--rates``, and the throughput of a closed loop (each connection
sends its next request when the last one is answered) over 1, 2 and 4
connections.  Not part of a benchmark run.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
os.environ["PYTHONPATH"] = str(ROOT / "src")  # for the service subprocess

import loadgen  # noqa: E402
from repro.experiments.parallel import SweepExecutor  # noqa: E402
from session import Server, nearest_rank, spec_body  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

OPEN_LOOP_S = 4.0
CLOSED_LOOP_REQUESTS = 600


async def closed_loop(port: int, requests, connections: int, rng: random.Random) -> float:
    """Requests answered per second with ``connections`` back-to-back senders."""
    sent = 0

    async def sender() -> None:
        nonlocal sent
        while sent < CLOSED_LOOP_REQUESTS:
            sent += 1
            await loadgen._send(port, requests[rng.randrange(len(requests))])

    start = time.perf_counter()
    await asyncio.gather(*(sender() for _ in range(connections)))
    return CLOSED_LOOP_REQUESTS / (time.perf_counter() - start)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--rates", default="25,50,100,125,150,200")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    nproc = os.cpu_count() or 1
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="saturation-", dir=scratch))
    server = None
    try:
        store = tmp / "store"
        specs = workload.build_specs(args.seed)
        executor = SweepExecutor(
            workers=workload.workers(nproc), cache_dir=store, backend=workload.backend
        )
        executor.run(specs)
        server = Server(store, nproc, "")
        requests = [loadgen.request_bytes("POST", "/runs", spec_body(s)) for s in specs]
        rng = random.Random(args.seed)
        for rate in (float(r) for r in args.rates.split(",")):
            chosen = [requests[rng.randrange(len(requests))]
                      for _ in range(int(rate * OPEN_LOOP_S))]
            replies = loadgen.open_loop(server.port, chosen, rate, nproc)
            latencies = [reply.latency_s * 1e3 for reply in replies]
            print(f"open loop {rate:5.0f}/s: {len(latencies)} hits, "
                  f"p50 {statistics.median(latencies):.2f} ms, "
                  f"p90 {nearest_rank(latencies, 0.9):.2f} ms", flush=True)
        for connections in (1, 2, 4):
            rate = asyncio.run(closed_loop(server.port, requests, connections, rng))
            print(f"closed loop, {connections} connection(s): {rate:.0f} hits/s", flush=True)
    finally:
        if server is not None:
            server.close()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
