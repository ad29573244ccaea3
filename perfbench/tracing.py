"""Span tracing around the program's public calls (traced runs only).

The benchmark never edits the program: :class:`Instrumentation` swaps a
timing wrapper in for each traced name *where its caller looks it up*
(a module global such as ``repro.serve.daemon.save_snapshot``, or a class
attribute such as ``Server.advance``) and puts the original back on
:meth:`Instrumentation.uninstall`. Each wrapped call records one span —
name, start, end, parent span, request id, and an optional numeric value
(points solved, bytes written) — into flat in-memory arrays that are
written out once, after the run.

A span's *self time* is its duration minus the part of its interval that
its child spans cover (:func:`self_times`); per-layer metrics are built
from those and from call counts at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from pathlib import Path

import numpy as np

__all__ = [
    "LAYER_METRICS",
    "Instrumentation",
    "Tracer",
    "layer_metrics",
    "percentile",
    "self_times",
]


class Tracer:
    """Append-only span store with a parent stack and a request id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.value = array("d")
        self.error = array("b")
        self._stack: list[int] = []
        #: Calls of count-only names (hot leaf calls too frequent to span).
        self.counts: dict[str, int] = {}
        #: Request id stamped on new spans (a serve event seq or a
        #: campaign cell number); -1 outside any request.
        self.current_request = -1
        self._next_request = 0

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.value.append(0.0)
        self.error.append(0)
        self.end.append(float("nan"))
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int, value: float = 0.0, error: bool = False) -> None:
        """End span ``index`` (the innermost open span)."""
        self.end[index] = time.perf_counter()
        self.value[index] = value
        self.error[index] = error
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped})")

    def new_request(self) -> int:
        """Allocate a fresh request id (one per campaign cell)."""
        self._next_request += 1
        return self._next_request

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as NumPy columns (``name`` indexes :attr:`names`)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
            "value": np.frombuffer(self.value, dtype=np.float64),
            "error": np.frombuffer(self.error, dtype=np.int8),
        }

    def write(self, path: Path) -> None:
        """Write every span to one compressed ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str), **self.arrays()
        )


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval and overlapping
    children are merged first, so concurrent children are not subtracted
    twice.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent)
    cover = np.zeros(len(start))
    kids = np.flatnonzero(parent >= 0)
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    run_parent, run_start, run_end = -1, 0.0, 0.0
    for p, s, e in zip(
        parent[kids].tolist(), start[kids].tolist(), end[kids].tolist()
    ):
        s = max(s, start[p])
        e = min(e, end[p])
        if e <= s:
            continue
        if p != run_parent or s > run_end:
            if run_parent >= 0:
                cover[run_parent] += run_end - run_start
            run_parent, run_start, run_end = p, s, e
        else:
            run_end = max(run_end, e)
    if run_parent >= 0:
        cover[run_parent] += run_end - run_start
    return end - start - cover


def _points(args, kwargs, result) -> float:
    return float(len(args[1] if len(args) > 1 else kwargs["points"]))


def _one(args, kwargs, result) -> float:
    return 1.0


def _returned(args, kwargs, result) -> float:
    return float(result)


def _file_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(args[0] if args else kwargs["path"]))


#: (module, name as looked up by its caller, span name, span value,
#: whether the call starts a new request). Every name is patched in the
#: namespace its caller resolves it from at call time. A value of
#: ``COUNT_ONLY`` counts calls without recording spans (for leaf calls
#: made millions of times per run).
COUNT_ONLY = "count-only"
_TARGETS = (
    ("repro.sim.contention", "solve_steady_state_batch", "sim.solve", _points, False),
    ("repro.sim.contention", "solve_steady_state", "sim.solve", _one, False),
    ("repro.sim.server", "Server.advance", "sim.server.advance", None, False),
    ("repro.sim.solo", "prewarm_profiles", "sim.solo.prewarm", _returned, False),
    ("repro.experiments.runner", "solo_profile", "sim.solo.profile", None, False),
    ("repro.rdt.simulated", "SimulatedRdt.sample", "rdt.sample", None, False),
    ("repro.rdt.simulated", "SimulatedRdt.apply", "rdt.apply", None, False),
    ("repro.rdt.simulated", "SimulatedRdt.prefetch_allocations", "rdt.prefetch", _returned, False),
    ("repro.core.dicer", "DicerController.update", "core.dicer.update", None, False),
    ("repro.core.lfoc", "LfocController.update", "core.lfoc.update", None, False),
    ("repro.core.cbp", "CbpController.update", "core.cbp.update", None, False),
    ("repro.serve.placement", "find_max_bes", "core.admission.find_max_bes", None, False),
    ("repro.serve.placement", "AdmissionCache.max_bes", "serve.admission.max_bes", COUNT_ONLY, False),
    ("repro.experiments.parallel", "run_pair", "experiments.run_pair", None, True),
    ("repro.core.admission", "run_pair", "experiments.run_pair", None, False),
    ("repro.experiments.store", "ResultStore.get_many", "experiments.store.get_many", None, False),
    ("repro.serve.placement", "ControlPlane.canonical_placement", "serve.plane.canonical_placement", None, False),
    ("repro.serve.placement", "ControlPlane.reconcile", "serve.plane.reconcile", None, False),
    ("repro.serve.daemon", "ServeDaemon._actuate", "serve.daemon.actuate", None, False),
    ("repro.serve.node", "NodeRuntime.assign", "serve.node.assign", None, False),
    ("repro.serve.daemon", "save_snapshot", "serve.snapshot.save", _file_bytes, False),
)


def _wrap(tracer: Tracer, fn, name: str, value, new_request: bool):
    if value == COUNT_ONLY:
        counts = tracer.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    def enter() -> tuple[int, int]:
        previous = tracer.current_request
        if new_request:
            tracer.current_request = tracer.new_request()
        return tracer.open(name), previous

    def leave(index, previous, error, args, kwargs, result) -> None:
        tracer.close(
            index,
            value(args, kwargs, result) if value and not error else 0.0,
            error,
        )
        tracer.current_request = previous

    if inspect.iscoroutinefunction(fn):

        async def traced(*args, **kwargs):
            index, previous = enter()
            try:
                result = await fn(*args, **kwargs)
            except BaseException:
                leave(index, previous, True, args, kwargs, None)
                raise
            leave(index, previous, False, args, kwargs, result)
            return result

    else:

        def traced(*args, **kwargs):
            index, previous = enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(index, previous, True, args, kwargs, None)
                raise
            leave(index, previous, False, args, kwargs, result)
            return result

    return functools.wraps(fn)(traced)


class Instrumentation:
    """Install / remove the span wrappers on every traced name."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._originals:
            return
        for module_name, path, span, value, new_request in _TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = (
                owner.__dict__[attr]
                if isinstance(owner, type)
                else getattr(owner, attr)
            )
            self._originals.append((owner, attr, original))
            setattr(
                owner, attr, _wrap(self.tracer, original, span, value, new_request)
            )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()


#: Every per-layer metric: (name, unit, better). Values missing from a
#: workload (a layer it never calls) read 0.
LAYER_METRICS = (
    ("sim.solve.calls", "count", "lower"),
    ("sim.solve.points", "count", "lower"),
    ("sim.solve.points_per_call", "points/call", "higher"),
    ("sim.solve.iterations", "count", "lower"),
    ("sim.solve.self_s", "s", "lower"),
    ("sim.solve.us_per_point", "us", "lower"),
    ("sim.steady_cache.hit_rate", "ratio", "higher"),
    ("sim.steady_cache.misses", "count", "lower"),
    ("sim.server.advance.calls", "count", "lower"),
    ("sim.server.advance.self_s", "s", "lower"),
    ("sim.solo.profiles", "count", "lower"),
    ("sim.solo.self_s", "s", "lower"),
    ("rdt.sample.calls", "count", "lower"),
    ("rdt.sample.self_s", "s", "lower"),
    ("rdt.apply.calls", "count", "lower"),
    ("rdt.prefetch.points", "count", "lower"),
    ("core.dicer.update.self_s", "s", "lower"),
    ("core.lfoc.update.self_s", "s", "lower"),
    ("core.cbp.update.self_s", "s", "lower"),
    ("core.policy.update.calls", "count", "lower"),
    ("core.admission.find_max_bes.calls", "count", "lower"),
    ("core.admission.find_max_bes.s", "s", "lower"),
    ("serve.admission.max_bes.calls", "count", "lower"),
    ("experiments.run_pair.calls", "count", "lower"),
    ("experiments.run_pair.ms_p50", "ms", "lower"),
    ("experiments.run_pair.ms_p99", "ms", "lower"),
    ("experiments.store.get_many.self_s", "s", "lower"),
    ("serve.apply.submit.ms_p50", "ms", "lower"),
    ("serve.apply.depart.ms_p50", "ms", "lower"),
    ("serve.apply.fault.ms_p50", "ms", "lower"),
    ("serve.plane.canonical_placement.calls_per_event", "calls/event", "lower"),
    ("serve.plane.canonical_placement.self_s", "s", "lower"),
    ("serve.plane.reconcile.self_s", "s", "lower"),
    ("serve.daemon.actuate.self_s", "s", "lower"),
    ("serve.node.assign.calls", "count", "lower"),
    ("serve.node.assign.retries", "count", "lower"),
    ("serve.snapshot.save.calls", "count", "lower"),
    ("serve.snapshot.save.ms_p50", "ms", "lower"),
    ("serve.snapshot.bytes", "bytes", "lower"),
    ("serve.plane.migrations_per_event", "count/event", "lower"),
    ("serve.plane.accept_ratio", "ratio", "higher"),
    ("core.dicer.suci_gmean", "index", "higher"),
    ("core.dicer.hp_slowdown_gmean", "x", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` (0 when there are none)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer values from the recorded spans plus ``extra`` figures.

    ``extra`` carries what spans cannot see: solver iteration and memo
    counters, workload outcome figures and the tracing overhead.
    """
    cols = tracer.arrays()
    selfs = self_times(cols["start"], cols["end"], cols["parent"])
    durations = cols["end"] - cols["start"]
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(*names: str) -> np.ndarray:
        wanted = [ids[n] for n in names if n in ids]
        return np.isin(cols["name"], wanted)

    def count(*names: str) -> float:
        return float(mask(*names).sum())

    def self_s(*names: str) -> float:
        return float(selfs[mask(*names)].sum())

    def total(*names: str) -> float:
        return float(cols["value"][mask(*names)].sum())

    def ms(name: str, q: float) -> float:
        return percentile(durations[mask(name)] * 1e3, q)

    solve_calls = count("sim.solve")
    points = total("sim.solve")
    events = count(
        "serve.apply.submit", "serve.apply.depart", "serve.apply.fault"
    )
    saves = count("serve.snapshot.save")
    out = {
        "sim.solve.calls": solve_calls,
        "sim.solve.points": points,
        "sim.solve.points_per_call": points / solve_calls if solve_calls else 0.0,
        "sim.solve.self_s": self_s("sim.solve"),
        "sim.solve.us_per_point": (
            self_s("sim.solve") / points * 1e6 if points else 0.0
        ),
        "sim.server.advance.calls": count("sim.server.advance"),
        "sim.server.advance.self_s": self_s("sim.server.advance"),
        "sim.solo.profiles": total("sim.solo.prewarm"),
        "sim.solo.self_s": self_s("sim.solo.prewarm", "sim.solo.profile"),
        "rdt.sample.calls": count("rdt.sample"),
        "rdt.sample.self_s": self_s("rdt.sample"),
        "rdt.apply.calls": count("rdt.apply"),
        "rdt.prefetch.points": total("rdt.prefetch"),
        "core.dicer.update.self_s": self_s("core.dicer.update"),
        "core.lfoc.update.self_s": self_s("core.lfoc.update"),
        "core.cbp.update.self_s": self_s("core.cbp.update"),
        "core.policy.update.calls": count(
            "core.dicer.update", "core.lfoc.update", "core.cbp.update"
        ),
        "core.admission.find_max_bes.calls": count(
            "core.admission.find_max_bes"
        ),
        "core.admission.find_max_bes.s": float(
            durations[mask("core.admission.find_max_bes")].sum()
        ),
        "serve.admission.max_bes.calls": tracer.counts.get(
            "serve.admission.max_bes", 0
        ),
        "experiments.run_pair.calls": count("experiments.run_pair"),
        "experiments.run_pair.ms_p50": ms("experiments.run_pair", 50),
        "experiments.run_pair.ms_p99": ms("experiments.run_pair", 99),
        "experiments.store.get_many.self_s": self_s(
            "experiments.store.get_many"
        ),
        "serve.apply.submit.ms_p50": ms("serve.apply.submit", 50),
        "serve.apply.depart.ms_p50": ms("serve.apply.depart", 50),
        "serve.apply.fault.ms_p50": ms("serve.apply.fault", 50),
        "serve.plane.canonical_placement.calls_per_event": (
            count("serve.plane.canonical_placement") / events if events else 0.0
        ),
        "serve.plane.canonical_placement.self_s": self_s(
            "serve.plane.canonical_placement"
        ),
        "serve.plane.reconcile.self_s": self_s("serve.plane.reconcile"),
        "serve.daemon.actuate.self_s": self_s("serve.daemon.actuate"),
        "serve.node.assign.calls": count("serve.node.assign"),
        "serve.node.assign.retries": float(
            cols["error"][mask("serve.node.assign")].sum()
        ),
        "serve.snapshot.save.calls": saves,
        "serve.snapshot.save.ms_p50": ms("serve.snapshot.save", 50),
        "serve.snapshot.bytes": total("serve.snapshot.save") / saves if saves else 0.0,
        "trace.spans": float(len(tracer.start)),
    }
    out.update(extra)
    return {name: float(out.get(name, 0.0)) for name, _unit, _b in LAYER_METRICS}
