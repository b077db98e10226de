"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-robc --seed 7 --seconds 24 --trace 0

Runs from the root of a source checkout (``src/repro`` must exist; nothing is
installed).  Set-up is measured in two probe sessions plus the measured
session, and reported as the median of the three; a traced run, which does
not report set-up, starts no probes.  With ``--trace 0`` the
last line of standard output is a JSON object carrying every end-to-end metric
named in ``BENCHMARK.json``; with ``--trace 1`` it carries every per-layer
metric instead.  The exit code is non-zero when any operation or output
check failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Settings that would otherwise change what the library runs.
SCRUBBED_ENV = ("REPRO_ENGINE", "REPRO_SWEEP_WORKERS", "REPRO_SWEEP_BACKEND")
SETUP_PROBES = 2
#: Every session must end this long after the benchmark started.
DEADLINE_S = 170.0
#: ``wall_s`` is reported in seconds of a host on which the calibration loop
#: (``session.calibrate_ms``) takes this long: the median reading of 60 runs
#: on the 2-vCPU VM of the README's first measurements.  The host's speed
#: drifts by +-20 % from minute to minute there, and the loop follows it.
CALIB_REF_MS = 141.0


def child_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_session(
    args: argparse.Namespace, tmp: Path, tag: str, probe: bool, deadline: float
) -> Dict[str, Any]:
    """One ``session.py`` process in its own process group; its result dict."""
    out = tmp / f"{tag}.json"
    command = [
        sys.executable, str(HERE / "session.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tmp", str(tmp / tag), "--out", str(out),
    ]
    command += ["--probe"] if probe else []
    spawned_at = time.monotonic()
    process = subprocess.Popen(
        command + ["--spawned-at", repr(spawned_at)],
        env=child_env(), cwd=ROOT, start_new_session=True,
    )
    try:
        process.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        # Whatever the session left running (the service, pool workers) goes too.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if not out.is_file():
        return {"failures": [f"{tag} session exited {process.returncode} without a result"],
                "attempted": 0}
    return json.loads(out.read_text())


def peak_rss_mb() -> float:
    """Peak RSS of this process and of every child it waited for (their
    children included), whichever is largest."""
    largest = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return largest / 1024.0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = definition["per_layer" if args.trace else "end_to_end"]

    # On SIGTERM, unwind through run_session's finally, which kills the
    # session's process group: sessions live in groups of their own.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    tmp = ROOT / ".perfbench-tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        setups = [
            run_session(args, tmp, f"probe{i}", probe=True, deadline=deadline)
            for i in range(0 if args.trace else SETUP_PROBES)
        ]
        result = run_session(args, tmp, "session", probe=False, deadline=deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    failures = [f for session in setups + [result] for f in session["failures"]]
    measured: Dict[str, float] = {}
    if not failures:
        if args.trace:
            measured = result["layers"]
        else:
            measured = {
                "wall_s": statistics.median(result["wall_samples_s"])
                * CALIB_REF_MS / statistics.median(result["calib_ms"]),
                "setup_s": statistics.median(s["setup_s"] for s in setups + [result]),
                "peak_rss_mb": peak_rss_mb(),
                "hit_p50_ms": result["hit_p50_ms"],
                "burst_s": statistics.median(result["burst_samples_s"]),
            }
    attempted = max(1, result["attempted"])

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + " ".join(
        [f"{key}={os.environ.get(key, '<unset>')}(ignored)" for key in SCRUBBED_ENV]
        + [f"{key}={value}" for key, value in result.get("env", {}).items()]
    ))
    if "wall_samples_s" in result:
        walls = result["wall_samples_s"]
        print(f"compute passes (s, as measured; median {statistics.median(walls):.4f}): "
              + " ".join(f"{w:.4f}" for w in walls))
        print("bursts (s): " + " ".join(f"{b:.4f}" for b in result["burst_samples_s"]))
    if "calib_ms" in result:
        print("host.calib_ms before each round and after the last: "
              + " ".join(f"{c:.2f}" for c in result["calib_ms"]))
    if "hits" in result:
        print(f"hits: {result['hits']} samples, p90 {result['hit_p90_ms']:.3f} ms, "
              f"p99 {result['hit_p99_ms']:.3f} ms, generator late p99 "
              f"{result['late_ms_p99']:.3f} ms; burst: {result['burst_jobs']} jobs")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(f"failed_ratio {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    metrics = {}
    for metric in wanted:
        if metric["name"] not in measured:
            continue
        value = float(measured[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<30} {value:>14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
