"""Layer tracing for the traced benchmark run.

Wrappers are installed from here around the public calls into each layer of
``repro``; the library itself is not modified.  A wrapper either records a
span (name, start, end, parent) or, where a span would cost more than the
call it measures, only a call count.  Spans and counts stay in memory and are
written out as one JSON file per process when that process finishes its work.

Forked children (process-pool workers) inherit the installed wrappers.  The
first span in a new process discards the state copied from the parent, and
every root span that ends in such a child rewrites ``<trace_dir>/<pid>.json``,
because pool workers exit without running ``atexit`` handlers.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Attribute set on every wrapper, so untraced runs can prove there are none.
MARK = "_perfbench_layer"

#: Calls that are counted, not spanned: each does a few microseconds of work
#: (received power: ~10^6 calls per paper-robc pass), so a span would time
#: the wrapper more than the call.
COUNTED = {"phy.rx_power_calls", "routing.on_overhear", "mac.record_uplink",
           "mac.on_acknowledged", "mac.on_uplink_failed"}


class Tracer:
    """Spans and counters of one process (reset in forked children)."""

    def __init__(self, trace_dir: Path, phase: str) -> None:
        self.trace_dir = Path(trace_dir)
        self.phase = phase
        self.owner_pid = self.pid = os.getpid()
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self.sizes: List[int] = []
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[int]:
        if os.getpid() != self.pid:
            # A forked child: drop what the parent had recorded so far.
            self.pid = os.getpid()
            self.spans.clear()
            self.counts.clear()
            self.maxima.clear()
            self.sizes.clear()
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span of the calling thread."""
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def _open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, stack[-1] if stack else -1))
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)
        stack = self._stack()
        while stack and stack.pop() != index:
            pass
        if not stack and self.pid != self.owner_pid:
            self.dump()

    def dump(self) -> Path:
        """Write this process's spans and counters to ``<trace_dir>/<pid>.json``."""
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({
            "phase": self.phase,
            "spans": self.spans,
            "counts": self.counts,
            "maxima": self.maxima,
            "sizes": self.sizes,
        }))
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def span_wrapper(
        self, name: str, fn: Callable, observe: Optional[Callable] = None
    ) -> Callable:
        """``fn`` recording one span per call; ``observe(tracer, args, result)``
        runs after each call (after each yielded item for generators)."""
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = tracer._open(name)
                try:
                    for item in fn(*args, **kwargs):
                        if observe is not None:
                            observe(tracer, args, item)
                        yield item
                finally:
                    tracer._close(index)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                if observe is not None:
                    observe(tracer, args, result)
                return result
        setattr(wrapper, MARK, name)
        return wrapper

    def count_wrapper(
        self, name: str, fn: Callable, observe: Optional[Callable] = None
    ) -> Callable:
        """``fn`` bumping the ``name`` counter per call, for calls too cheap
        to span (a span would cost more than the call)."""
        tracer, counts = self, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(tracer, args, result)
            return result
        setattr(wrapper, MARK, name)
        return wrapper

    def install(self) -> "Tracer":
        """Wrap every traced layer call.  Must run before any scenario is
        built: the array engine hoists bound methods when it is constructed."""
        for owner, attr, name, observe in _targets():
            original = vars(owner)[attr]
            make = self.count_wrapper if name in COUNTED else self.span_wrapper
            wrapper = make(name, original, observe)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # A module function: rebind it wherever ``repro`` imported it.
            for module in _repro_modules():
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound_name, wrapper)
        return self

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def assert_untraced() -> None:
    """Raise if any wrapper is installed: untraced runs must call ``repro``
    functions by their own identity."""
    for owner, attr, _, _ in _targets():
        if hasattr(vars(owner)[attr], MARK):
            raise RuntimeError(f"tracing wrapper installed on {owner.__name__}.{attr}")
    for module in _repro_modules():
        for attr, value in vars(module).items():
            if hasattr(value, MARK):
                raise RuntimeError(f"tracing wrapper installed on {module.__name__}.{attr}")


def _repro_modules() -> List[Any]:
    return [
        module for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


def _defining_classes(base: type, attr: str) -> List[type]:
    """``base`` and every loaded subclass that defines ``attr`` itself.

    Wrapping only where a method is defined keeps the engine's identity
    checks (``type(scheme).hook is ForwardingScheme.hook``) unchanged.
    """
    found, seen, pending = [], set(), [base]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if attr in vars(cls):
                found.append(cls)
    return found


# --------------------------------------------------------------------- #
# Observers: counts taken at the same boundaries as the spans
# --------------------------------------------------------------------- #
def _observe_mobility(tracer: Tracer, args, result) -> None:
    tracer.counts["mobility.traces"] += len(result.traces)


def _observe_engine_run(tracer: Tracer, args, result) -> None:
    tracer.counts["engine.frames"] += sum(result.transmissions_per_device.values())
    tracer.counts["engine.handovers"] += args[0].handover_count


def _observe_batch(tracer: Tracer, args, result) -> None:
    tracer.counts["routing.overhear_calls"] += 1
    tracer.counts["routing.overhear_candidates"] += len(result)
    tracer.counts["routing.forwards"] += sum(1 for decision in result if decision.forward)


def _observe_single(tracer: Tracer, args, result) -> None:
    if tracer.parent_name() == "routing.on_overhear_batch":
        return  # the default batch hook loops over on_overhear; counted there
    tracer.counts["routing.overhear_calls"] += 1
    tracer.counts["routing.overhear_candidates"] += 1
    tracer.counts["routing.forwards"] += int(result.forward)


def _observe_failed(tracer: Tracer, args, result) -> None:
    tracer.counts["mac.retries"] += int(result)


def _observe_store(tracer: Tracer, args, result) -> None:
    tracer.sizes.append(result.stat().st_size)


def _observe_load(tracer: Tracer, args, result) -> None:
    tracer.counts["store.hits"] += int(result is not None)


def _observe_execute(tracer: Tracer, args, item) -> None:
    # One outcome per dispatched spec; dispatches are the execute spans.  A
    # failed outcome is what a retry policy re-dispatches.
    tracer.counts["backends.specs"] += 1
    tracer.counts["backends.retries"] += int(not item[1].ok)


def _observe_outcome(tracer: Tracer, args, outcome) -> None:
    tracer.counts["backends.run_s"] += outcome.wall_time_s


def _observe_post(tracer: Tracer, args, result) -> None:
    depth = args[0]._queue.qsize()
    maxima = tracer.maxima
    maxima["service.queue_depth_max"] = max(maxima["service.queue_depth_max"], depth)


def _targets() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, observer) of every traced call."""
    from repro.analysis import metrics as analysis_metrics
    from repro.engine.array_engine import ArrayMLoRaSimulation
    from repro.experiments import parallel, reporting, scenario
    from repro.experiments.backends.base import ExecutionBackend
    from repro.experiments.service import CampaignService
    from repro.experiments.store import ResultStore
    from repro.mac.device import EndDevice
    from repro.mac.network_server import NetworkServer
    from repro.mobility import models
    from repro.network.topology import TimeVaryingTopology
    from repro.phy.pathloss import PathLossModel
    from repro.radio.medium import RadioMedium
    from repro.routing.base import ForwardingScheme
    import repro.routing.registry  # noqa: F401  (registers every built-in scheme)

    targets = [
        (models, "build_mobility", "mobility.build", _observe_mobility),
        (scenario, "build_scenario", "scenario.build", None),
        (parallel, "execute_spec", "backends.execute_spec", None),
        (ArrayMLoRaSimulation, "__init__", "engine.init", None),
        (ArrayMLoRaSimulation, "run", "engine.run", _observe_engine_run),
    ]
    for attr, name, observe in (
        ("on_overhear_batch", "routing.on_overhear_batch", _observe_batch),
        ("on_overhear", "routing.on_overhear", _observe_single),
        ("observe_transmission_slot", "routing.observe_slot", None),
    ):
        targets += [(cls, attr, name, observe)
                    for cls in _defining_classes(ForwardingScheme, attr)]
    targets += [
        (EndDevice, "build_uplink", "mac.build_uplink", None),
        (EndDevice, "record_uplink", "mac.record_uplink", None),
        (EndDevice, "on_acknowledged", "mac.on_acknowledged", None),
        (EndDevice, "on_uplink_failed", "mac.on_uplink_failed", _observe_failed),
        (NetworkServer, "process_uplink", "mac.process_uplink", None),
        (TimeVaryingTopology, "in_contact", "network.in_contact", None),
        (TimeVaryingTopology, "neighbours", "network.neighbours", None),
        (TimeVaryingTopology, "gateways_in_range", "network.gateways_in_range", None),
        (RadioMedium, "link_quality", "radio.link_quality", None),
        (RadioMedium, "airtime_s", "radio.airtime_s", None),
        (PathLossModel, "received_power_dbm", "phy.rx_power_calls", None),
        (analysis_metrics, "compute_run_metrics", "analysis.metrics", None),
        (ResultStore, "store", "store.write", _observe_store),
        (ResultStore, "load", "store.read", _observe_load),
        (parallel, "spec_from_dict", "serialization.decode", None),
        (parallel, "config_digest", "serialization.digest", None),
        (reporting, "metrics_to_dict", "reporting.payload", None),
        (parallel.SweepExecutor, "iter_outcomes", "backends.iter_outcomes", _observe_outcome),
        (CampaignService, "_route", "service.route", None),
        (CampaignService, "_post_run", "service.post_run", _observe_post),
    ]
    targets += [(cls, "execute", "backends.execute", _observe_execute)
                for cls in _defining_classes(ExecutionBackend, "execute")
                if cls is not ExecutionBackend]
    return targets


# --------------------------------------------------------------------- #
# From trace files to per-layer metrics
# --------------------------------------------------------------------- #
MAC_SPANS = {"mac.build_uplink", "mac.process_uplink"}
ROUTING_SPANS = {"routing.on_overhear_batch", "routing.observe_slot"}
NETWORK_SPANS = {"network.in_contact", "network.neighbours", "network.gateways_in_range"}
RADIO_SPANS = {"radio.link_quality", "radio.airtime_s"}
#: What a hit spends in traced library calls; the rest is the service's own.
HIT_COVERED_SPANS = {"store.read", "serialization.decode", "serialization.digest",
                     "reporting.payload"}


class _Phase:
    """Spans and counters of every process that ran one phase."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int]] = []  # + file number
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self.sizes: List[int] = []
        self._children: Dict[Tuple[int, int], List[int]] = defaultdict(list)

    def add(self, number: int, data: Dict[str, Any]) -> None:
        offset = len(self.spans)
        for name, start, end, parent in data["spans"]:
            index = len(self.spans)
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, number))
            if parent >= 0:
                self._children[(number, parent + offset)].append(index)
        for key, value in data["counts"].items():
            self.counts[key] += value
        for key, value in data["maxima"].items():
            self.maxima[key] = max(self.maxima[key], value)
        self.sizes.extend(data["sizes"])

    def children(self, index: int) -> List[int]:
        return self._children.get((self.spans[index][4], index), [])

    def named(self, names) -> List[int]:
        names = {names} if isinstance(names, str) else names
        return [i for i, span in enumerate(self.spans) if span[0] in names]

    def duration(self, index: int) -> float:
        return self.spans[index][2] - self.spans[index][1]

    def total_s(self, names) -> float:
        """Time inside spans of ``names``, not double counting nested ones."""
        names = {names} if isinstance(names, str) else names
        return sum(
            self.duration(i) for i in self.named(names)
            if self.spans[i][3] < 0 or self.spans[self.spans[i][3]][0] not in names
        )

    def self_s(self, name: str) -> float:
        """Time inside ``name`` spans not covered by their child spans."""
        return sum(
            self.duration(i) - sum(self.duration(c) for c in self.children(i))
            for i in self.named(name)
        )

    def p50_ms(self, name: str) -> float:
        durations = [self.duration(i) * 1e3 for i in self.named(name)]
        return statistics.median(durations) if durations else 0.0

    def descendants(self, index: int, stop_at=frozenset()) -> List[int]:
        """Spans under span ``index``, not looking below one named in ``stop_at``."""
        found, pending = [], list(self.children(index))
        while pending:
            child = pending.pop()
            found.append(child)
            if self.spans[child][0] not in stop_at:
                pending.extend(self.children(child))
        return [i for i in found if not stop_at or self.spans[i][0] in stop_at]


def layer_metrics(trace_dir: Path, session: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced run (definitions in ``README.md``).

    Engine-side layers and the executor's busy ratio come from the compute
    phase; store reads, serialization, reporting and the service from the
    serve phase (the hit stream and the burst); store writes and run counts
    from both.
    """
    phases = {"compute": _Phase(), "serve": _Phase()}
    for number, path in enumerate(sorted(Path(trace_dir).glob("*.json"))):
        data = json.loads(path.read_text())
        phases[data["phase"]].add(number, data)
    compute, serve = phases["compute"], phases["serve"]

    write_ms = [compute.duration(i) * 1e3 for i in compute.named("store.write")]
    write_ms += [serve.duration(i) * 1e3 for i in serve.named("store.write")]
    sizes = compute.sizes + serve.sizes
    reads = serve.named("store.read")
    # A hit decodes a spec and renders a payload; burst posts and job polls
    # never do both.
    hit_routes = [
        i for i in serve.named("service.route")
        if {serve.spans[c][0] for c in serve.descendants(i)}
        >= {"serialization.decode", "reporting.payload"}
    ]
    covered_ms = [
        sum(serve.duration(c) for c in serve.descendants(i, HIT_COVERED_SPANS)) * 1e3
        for i in hit_routes
    ]
    decisions = compute.counts["routing.overhear_candidates"]
    dispatches = len(serve.named("backends.execute"))
    iterations = compute.total_s("backends.iter_outcomes")
    return {
        "host.calib_ms": statistics.median(session["calib_ms"]),
        "trace.overhead_ratio": session["traced_wall_s"] / session["wall_samples_s"][-1],
        "mobility.build_s": compute.total_s("mobility.build"),
        "mobility.traces": compute.counts["mobility.traces"],
        "scenario.build_s": compute.total_s("scenario.build"),
        "scenario.self_s": compute.self_s("scenario.build"),
        "engine.init_s": compute.total_s("engine.init"),
        "engine.run_s": compute.total_s("engine.run"),
        "engine.self_s": compute.self_s("engine.run"),
        "engine.frames": compute.counts["engine.frames"],
        "engine.handovers": compute.counts["engine.handovers"],
        "routing.overhear_calls": compute.counts["routing.overhear_calls"],
        "routing.overhear_candidates": decisions,
        "routing.forward_yield": (
            compute.counts["routing.forwards"] / decisions if decisions else 0.0
        ),
        "routing.decide_s": compute.total_s(ROUTING_SPANS),
        "mac.uplinks": float(len(compute.named("mac.build_uplink"))),
        "mac.retries": compute.counts["mac.retries"],
        "mac.acks": compute.counts["mac.on_acknowledged"],
        "mac.s": compute.total_s(MAC_SPANS),
        "network.calls": float(len(compute.named(NETWORK_SPANS))),
        "network.s": compute.total_s(NETWORK_SPANS),
        "phy.rx_power_calls": compute.counts["phy.rx_power_calls"],
        "radio.s": compute.total_s(RADIO_SPANS),
        "analysis.metrics_s": compute.total_s("analysis.metrics"),
        "store.writes": float(len(write_ms)),
        "store.write_ms_p50": statistics.median(write_ms) if write_ms else 0.0,
        "store.reads": float(len(reads)),
        "store.read_ms_p50": serve.p50_ms("store.read"),
        "store.entry_bytes_mean": statistics.mean(sizes) if sizes else 0.0,
        "store.hit_ratio": serve.counts["store.hits"] / len(reads) if reads else 0.0,
        "serialization.decode_ms_p50": serve.p50_ms("serialization.decode"),
        "serialization.digest_ms_p50": serve.p50_ms("serialization.digest"),
        "reporting.payload_ms_p50": serve.p50_ms("reporting.payload"),
        "backends.runs": compute.counts["backends.specs"] + serve.counts["backends.specs"],
        "backends.retries": (
            compute.counts["backends.retries"] + serve.counts["backends.retries"]
        ),
        "backends.specs_per_dispatch": (
            serve.counts["backends.specs"] / dispatches if dispatches else 0.0
        ),
        "backends.busy_ratio": (
            compute.counts["backends.run_s"] / (session["workers"] * iterations)
            if iterations else 0.0
        ),
        "backends.dispatch_s": compute.self_s("backends.execute"),
        "service.requests": float(len(serve.named("service.route"))),
        "service.self_ms_p50": max(
            0.0, session["hit_p50_ms"] - statistics.median(covered_ms)
        ) if covered_ms else 0.0,
        "service.queue_depth_max": serve.maxima["service.queue_depth_max"],
        "load.sent": float(session["hits"]),
        "load.late_ms_p99": session["late_ms_p99"],
    }

