"""The results service under test, in a process the benchmark owns.

Builds exactly what ``repro serve --workers N --backend process-pool --cache
STORE`` builds (an explicit :class:`SweepExecutor` and a
:class:`CampaignService`), binds a free port, prints ``PORT <n>`` and serves
until its standard input closes.  Closing stdin is the stop signal, so the
service also stops when the benchmark that started it dies.  With
``--trace-dir`` the tracing wrappers are installed before the service starts
and the spans are written out after it stops.

    python3 perfbench/server.py --store DIR --workers 2 [--trace-dir DIR]
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace-dir", default="")
    args = parser.parse_args()

    tracer = None
    if args.trace_dir:
        from tracing import Tracer

        tracer = Tracer(Path(args.trace_dir), phase="serve").install()
    from repro.experiments.parallel import SweepExecutor
    from repro.experiments.service import CampaignService

    executor = SweepExecutor(
        workers=args.workers, cache_dir=args.store, backend="process-pool"
    )
    service = CampaignService(executor, host="127.0.0.1", port=0)
    thread = threading.Thread(target=service.run_blocking, name="service")
    thread.start()
    if not service.ready.wait(timeout=60):
        return 1
    print(f"PORT {service.bound_port}", flush=True)
    # Block until EOF with os.read: a blocked sys.stdin.read() would hold the
    # buffer's lock across the fork of a pool worker, which closes sys.stdin
    # when it starts and would then wait on that lock forever.
    while os.read(sys.stdin.fileno(), 4096):
        pass
    service.stop()
    thread.join(timeout=60)
    if tracer is not None:
        tracer.dump()
    return 0


if __name__ == "__main__":
    sys.exit(main())
