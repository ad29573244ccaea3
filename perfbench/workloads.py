"""The four benchmark workloads: set-up, timed phase and output checks.

Each workload is driven in three steps by ``run.py``:

* :meth:`Workload.setup` — everything between process start and the
  first timed operation (imports, input generation; for serve, building
  the daemon, warming the 24 admission searches and filling the fleet);
* :meth:`Workload.measure` — the timed phase, split into rounds
  (campaigns: one cold-cache campaign per round; serve: blocks of
  events). In a traced run, odd rounds run with the span wrappers
  installed and even rounds without, so one run yields both the
  per-layer spans and the untraced numbers the tracing overhead is
  measured against;
* :meth:`Workload.verify` — correctness checks on the program's outputs,
  returned as a list of failures (empty when every check passes).

Campaigns start every round from cold process-wide caches (steady-state
memo, solo profiles, parameter memo), so a round costs what a user's
fresh CLI campaign costs; the serve timed phase starts only after the
fill, once admission has warmed.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from tracing import Instrumentation

#: Pinned outputs the correctness checks compare against (see pin.py).
PINNED_PATH = Path(__file__).with_name("pinned.json")

#: BE count of the classification sweep (the paper's Figure 1 setting).
SWEEP_N_BE = 9
#: Apps the policy-grid pairs are drawn over, one per catalog archetype
#: (streaming, cache-sensitive x2, compute-bound, phased). A pass runs all
#: 25 ordered pairs in five seeded rounds of five (5 pairs x 9 core counts
#: x 6 policies = 270 cells each).
GRID_APPS = ("lbm1", "omnetpp1", "gcc_base8", "namd1", "h264ref2")
#: Seconds one policy-grid pass takes on a 2-core x86 box; a run makes
#: ``round(--seconds / GRID_PASS_S)`` passes (at least one). Whole passes
#: keep the work of a run the same for every seed: cell costs differ
#: ~50 % between pairs, so partial passes would measure the draw.
GRID_PASS_S = 14
#: Fixed pairs whose per-policy aggregates are pinned (policy-grid check),
#: chosen so DICER both meets and misses the SLO among them.
CANARY_PAIRS = (
    ("namd1", "lbm1"),
    ("povray1", "milc1"),
    ("omnetpp1", "lbm1"),
    ("soplex1", "hmmer1"),
)
SERVE_NODES = 16
#: Churn events per second of ``--seconds`` (about the daemon's rate on a
#: 2-core x86 box), so the serve stream length follows the run length.
SERVE_EVENTS_PER_S = 150
#: Serve events per round (traced and untraced blocks alternate).
SERVE_BLOCK = 100
SUCI_SLO = 0.9
SUCI_LAMBDA = 1.0


def cold_caches() -> None:
    """Empty the program's process-wide solver caches.

    The parameter memo has no public clear, so it is emptied under its own
    lock; a rename in ``repro.sim.contention`` fails loudly here.
    """
    from repro.sim import contention, solo

    contention.GLOBAL_STEADY_CACHE.clear()
    solo.clear_caches()
    with contention._PARAMS_MEMO_LOCK:
        contention._PARAMS_MEMO.clear()


def solver_work() -> tuple[int, int, int]:
    """(solver iterations, memo hits, memo misses) so far in the process."""
    from repro.sim.contention import GLOBAL_STEADY_CACHE, solver_counters

    counters = solver_counters()
    iterations = sum(v for k, v in counters.items() if k.endswith("_iterations"))
    life = GLOBAL_STEADY_CACHE.stats()["lifetime"]
    return iterations, life["hits"], life["misses"]


def campaign_store():
    """A serial store with the campaign CLI defaults.

    Fast precision, auto kernel, two retries per cell; quarantined cells
    are counted rather than aborting the campaign.
    """
    from repro.experiments.store import ResultStore
    from repro.experiments.supervise import SuperviseConfig

    return ResultStore(
        n_workers=1,
        supervise=SuperviseConfig(max_retries=2, on_failure="skip"),
        precision="fast",
        kernel="auto",
    )


@dataclass
class Rounds:
    """Timings of the timed phase, split by whether tracing was on."""

    #: (operations, seconds) per round.
    untraced: list[tuple[int, float]] = field(default_factory=list)
    traced: list[tuple[int, float]] = field(default_factory=list)
    #: Per-operation latencies of the untraced rounds, in seconds.
    latencies: list[float] = field(default_factory=list)
    #: Solver iterations / memo hits / memo misses while traced.
    traced_solver: list[int] = field(default_factory=lambda: [0, 0, 0])

    @staticmethod
    def rate(rounds: list[tuple[int, float]]) -> float:
        ops = sum(n for n, _ in rounds)
        seconds = sum(s for _, s in rounds)
        return ops / seconds if seconds > 0 else 0.0


class Workload:
    """Shared driver for the rounds of the timed phase."""

    name = ""
    #: Human-readable unit of one operation (for the printed summary).
    op = ""
    #: Workload-specific names of the end-to-end metrics (printed beside
    #: the generic ones).
    aliases: dict[str, str] = {}

    def __init__(self, seed: int, seconds: int, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        #: Scratch directory inside the checkout (serve files).
        self.workdir = workdir
        self.rounds = Rounds()
        self.attempted = 0
        self.failed = 0
        #: Workload outcome figures: name -> (value, unit).
        self.figures: dict[str, tuple[float, str]] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, instrumentation: Instrumentation | None) -> None:
        raise NotImplementedError

    def verify(self) -> list[str]:
        raise NotImplementedError

    def cleanup(self) -> None:
        """Release anything :meth:`setup` created."""

    @contextlib.contextmanager
    def traced(self, instrumentation: Instrumentation):
        """Span wrappers installed, solver work counted, for one block."""
        before = solver_work()
        instrumentation.install()
        try:
            yield
        finally:
            instrumentation.uninstall()
            after = solver_work()
            for i in range(3):
                self.rounds.traced_solver[i] += after[i] - before[i]

    def _round(self, instrumentation, round_index: int, body) -> None:
        """Time ``body()`` (returns ops, latencies) as one round."""
        traced = instrumentation is not None and round_index % 2 == 1
        with self.traced(instrumentation) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            ops, latencies = body()
            elapsed = time.perf_counter() - t0
        if traced:
            self.rounds.traced.append((ops, elapsed))
        else:
            self.rounds.untraced.append((ops, elapsed))
            self.rounds.latencies.extend(latencies)


# -- campaigns ------------------------------------------------------------


class _Campaign(Workload):
    op = "cell"
    aliases = {
        "ops_per_s": "cells_per_s",
        "op_ms_p50": "cell_ms_p50",
        "op_ms_max_of_100": "cell_ms_max_of_100",
    }

    def setup(self) -> None:
        # Import what the rounds use here, so import cost counts as set-up.
        from repro.experiments import classify, grid, store  # noqa: F401
        from repro.workloads.catalog import app_names, catalog

        catalog()
        self.names = app_names()
        self.pinned = json.loads(PINNED_PATH.read_text())
        self.quarantined = 0
        self.bad_results = 0

    def _run_cells(self, store, cells) -> tuple[list, list[float]]:
        """``get_many`` with one completion timestamp per cell."""
        stamps = [time.perf_counter()]
        results = store.get_many(
            cells, on_result=lambda i, c, r: stamps.append(time.perf_counter())
        )
        self.attempted += len(cells)
        self.failed += len(store.failures)
        self.quarantined += len(store.failures)
        for result in results:
            if result is None or not all(
                math.isfinite(v) and v > 0
                for v in (result.hp_norm_ipc, result.hp_slowdown, result.efu)
            ):
                self.bad_results += 1
        return results, list(np.diff(stamps))

    def _cell_problems(self) -> list[str]:
        problems = []
        if self.quarantined:
            problems.append(f"{self.quarantined} quarantined cells")
        if self.bad_results:
            problems.append(f"{self.bad_results} non-finite or missing cells")
        return problems

class ClassifySweep(_Campaign):
    """Every ordered catalog pair under UM and CT (6962 cells per round)."""

    name = "classify-sweep"

    def setup(self) -> None:
        super().setup()
        #: (pairs classified, CT-Thwarted pairs) per round.
        self.classified: list[tuple[int, int]] = []

    def measure(self, instrumentation: Instrumentation | None) -> None:
        """Cold rounds until ``seconds`` have passed (two when traced).

        Every round is the same sweep, so how many fit does not change
        what a round measures.
        """
        deadline = time.perf_counter() + self.seconds
        round_index = 0
        while True:
            cold_caches()
            self._round(
                instrumentation,
                round_index,
                lambda r=round_index: self._campaign(r),
            )
            round_index += 1
            if time.perf_counter() >= deadline and (
                instrumentation is None or round_index >= 2
            ):
                break

    def _campaign(self, round_index: int):
        from repro.core.policies import CacheTakeoverPolicy, UnmanagedPolicy
        from repro.experiments.classify import classify_all

        hps, bes = inputs.sweep_order(self.seed, round_index, self.names)
        um, ct = UnmanagedPolicy(), CacheTakeoverPolicy()
        # The cells classify_all requests, in its order; fetching them
        # first gives per-cell completion times, then classify_all
        # classifies from the now-complete store.
        cells = [
            (hp, be, SWEEP_N_BE, policy)
            for hp in hps
            for be in bes
            for policy in (um, ct)
        ]
        store = campaign_store()
        _results, latencies = self._run_cells(store, cells)
        classes = classify_all(
            store, n_be=SWEEP_N_BE, hp_names=hps, be_names=bes
        )
        self.classified.append(
            (len(classes), sum(1 for c in classes if not c.ct_favoured))
        )
        return len(cells), latencies

    def verify(self) -> list[str]:
        pinned = self.pinned["classify-sweep"]
        want = (pinned["pairs"], pinned["ctt_pairs"])
        problems = self._cell_problems()
        for pairs, ctt in self.classified:
            if (pairs, ctt) != want:
                problems.append(
                    f"CT-T pairs {ctt}/{pairs}, pinned {want[1]}/{want[0]}"
                )
        pairs, ctt = self.classified[0]
        self.figures["ctt_fraction"] = (ctt / pairs, "ratio")
        return problems


def grid_aggregates(results, cells) -> dict:
    """Per-policy aggregates of a policy-grid result set.

    Geometric means of HP normalised IPC, EFU and HP slowdown per policy,
    plus DICER's SUCI geomean (lambda 1, SLO 90 %, zeros floored).
    """
    from repro.metrics.suci import suci
    from repro.util.stats import geomean, geomean_with_zeros

    by_policy: dict[str, list] = {}
    for (_hp, _be, _n_be, policy), result in zip(cells, results):
        by_policy.setdefault(policy.name, []).append(result)
    out = {
        name: {
            "hp_norm_ipc_gmean": geomean(r.hp_norm_ipc for r in rows),
            "efu_gmean": geomean(r.efu for r in rows),
            "hp_slowdown_gmean": geomean(r.hp_slowdown for r in rows),
        }
        for name, rows in by_policy.items()
    }
    out["DICER"]["suci_gmean"] = geomean_with_zeros(
        suci(r.hp_norm_ipc, r.efu, SUCI_SLO, SUCI_LAMBDA)
        for r in by_policy["DICER"]
    )
    return out


def grid_cells_for(pairs) -> list[tuple]:
    """Pairs x core counts 2-10 x the six-policy zoo, workload-major."""
    from repro.experiments.grid import PAPER_CORES, zoo_policies

    policies = zoo_policies()
    return [
        (hp, be, n_cores - 1, policy)
        for hp, be in pairs
        for n_cores in PAPER_CORES
        for policy in policies
    ]


class PolicyGrid(_Campaign):
    """Seeded (HP, BE) draws x cores 2-10 x UM/CT/S10/DICER/LFOC/CBP."""

    name = "policy-grid"

    def measure(self, instrumentation: Instrumentation | None) -> None:
        """Whole Latin-square passes over ``GRID_APPS``, one cold round each."""
        passes = max(1, round(self.seconds / GRID_PASS_S))
        rounds = [
            pairs
            for pass_index in range(passes)
            for pairs in inputs.latin_rounds(self.seed, pass_index, GRID_APPS)
        ]
        for round_index, pairs in enumerate(rounds):
            cold_caches()
            self._round(
                instrumentation,
                round_index,
                lambda pairs=pairs: self._campaign(pairs),
            )

    def _campaign(self, pairs):
        cells = grid_cells_for(pairs)
        _results, latencies = self._run_cells(campaign_store(), cells)
        return len(cells), latencies

    def verify(self) -> list[str]:
        from repro.sim.contention import FAST_REL_TOL

        problems = self._cell_problems()
        cells = grid_cells_for(CANARY_PAIRS)
        store = campaign_store()
        results = store.get_many(cells)
        if store.failures or any(r is None for r in results):
            return problems + ["canary cells failed"]
        got = grid_aggregates(results, cells)
        for policy, values in self.pinned["policy-grid"].items():
            for key, want in values.items():
                have = got.get(policy, {}).get(key, float("nan"))
                if not abs(have - want) <= FAST_REL_TOL * abs(want):
                    problems.append(
                        f"canary {policy} {key} = {have!r}, pinned {want!r}"
                    )
        self.figures["dicer_suci_gmean"] = (got["DICER"]["suci_gmean"], "index")
        self.figures["dicer_hp_slowdown_gmean"] = (
            got["DICER"]["hp_slowdown_gmean"],
            "x",
        )
        return problems


# -- serve ----------------------------------------------------------------


class _Serve(Workload):
    op = "event"
    aliases = {
        "ops_per_s": "events_per_s",
        "op_ms_p50": "apply_ms_p50",
        "op_ms_max_of_100": "apply_ms_max_of_100",
    }
    failover = False

    def setup(self) -> None:
        from repro.serve.daemon import ServeConfig, ServeDaemon
        from repro.serve.events import ServeEvent
        from repro.serve.placement import PlaneConfig

        plane = PlaneConfig.for_nodes(SERVE_NODES)
        self.base = inputs.base_stream(
            self.seed, SERVE_EVENTS_PER_S * self.seconds
        )
        stream = (
            inputs.weave_faults(self.seed, self.base, plane.node_ids)
            if self.failover
            else self.base
        )
        self.events = [ServeEvent(seq=i, **raw) for i, raw in enumerate(stream)]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.daemon = ServeDaemon(
            ServeConfig(
                plane=plane,
                events_path=self.workdir / "events.jsonl",
                snapshot_path=self.workdir / "snapshot.json",
            )
        )
        admission = self.daemon.plane.admission
        for hp in inputs.HP_APPS:
            for be in inputs.BE_APPS:
                admission.max_bes(hp, be)
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(
            self._feed(self.events[: inputs.FILL_JOBS], None)
        )

    async def _feed(self, events, tracer) -> list[float]:
        """Closed loop: one event in flight, each awaited to completion."""
        latencies = []
        for event in events:
            t0 = time.perf_counter()
            if tracer is None:
                await self.daemon.apply_event(event)
            else:
                kind = (
                    event.kind if event.kind in ("submit", "depart") else "fault"
                )
                tracer.current_request = event.seq
                index = tracer.open(f"serve.apply.{kind}")
                await self.daemon.apply_event(event)
                tracer.close(index)
                tracer.current_request = -1
            latencies.append(time.perf_counter() - t0)
        return latencies

    def measure(self, instrumentation: Instrumentation | None) -> None:
        """Every churn event, in blocks of ``SERVE_BLOCK``."""
        timed = self.events[inputs.FILL_JOBS:]
        before = dict(self.daemon.plane.counters)
        for round_index, start in enumerate(range(0, len(timed), SERVE_BLOCK)):
            block = timed[start:start + SERVE_BLOCK]
            tracer = (
                instrumentation.tracer
                if instrumentation is not None and round_index % 2 == 1
                else None
            )

            def body(block=block, tracer=tracer):
                latencies = self.loop.run_until_complete(
                    self._feed(block, tracer)
                )
                return len(block), latencies

            self._round(instrumentation, round_index, body)
        after = self.daemon.plane.counters
        delta = {k: after[k] - before[k] for k in after}
        self.attempted = len(timed)
        self.failed = delta["placement_failures"]
        self.figures["migrations_per_event"] = (
            delta["migrations"] / len(timed),
            "count/event",
        )
        self.figures["accept_ratio"] = (
            delta["accepted"] / delta["submitted"] if delta["submitted"] else 0.0,
            "ratio",
        )

    def verify(self) -> list[str]:
        plane = self.daemon.plane
        counters = plane.counters
        problems = []
        if plane.applied_seq != self.events[-1].seq:
            problems.append(
                f"stream not drained: applied {plane.applied_seq} of "
                f"{self.events[-1].seq}"
            )
        if counters["submitted"] != counters["accepted"] + counters["rejected"]:
            problems.append(f"submitted != accepted + rejected: {counters}")
        submits = [e.job_id for e in self.events if e.kind == "submit"]
        if set(submits) != set(plane.jobs) or len(submits) != counters["submitted"]:
            problems.append("submitted jobs and plane jobs differ")
        status = Counter(job.status for job in plane.jobs.values())
        if (
            status["placed"] + status["pending"]
            != counters["accepted"] - counters["departed"]
            or status["rejected"] != counters["rejected"]
            or status["departed"] != counters["departed"]
        ):
            problems.append(f"job accounting off: {dict(status)} vs {counters}")
        return problems

    def cleanup(self) -> None:
        loop = getattr(self, "loop", None)
        if loop is not None:
            loop.close()
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.workdir.parent.rmdir()  # only once no other run uses it


class ServeChurn(_Serve):
    """16 nodes, ~150 outstanding jobs, 50/50 submit/depart churn."""

    name = "serve-churn"


class ServeFailover(_Serve):
    """The churn stream plus dense node faults and armed assign faults."""

    name = "serve-failover"
    failover = True

    def verify(self) -> list[str]:
        from repro.serve.events import ServeEvent
        from repro.serve.placement import ControlPlane

        problems = super().verify()
        plane = self.daemon.plane
        down = [
            nid
            for nid in plane.config.node_ids
            if plane.nodes[nid].health != "healthy"
        ]
        if down:
            problems.append(f"nodes still down at stream end: {down}")
        # The clean twin: serve-churn's stream for this seed, replayed on
        # a bare plane sharing the warmed admission cache.
        clean = ControlPlane(plane.config, admission=plane.admission)
        for seq, raw in enumerate(self.base):
            clean.apply_event(ServeEvent(seq=seq, **raw))
        if clean.digest() != plane.digest():
            problems.append(
                f"failover digest {plane.digest()[:12]} != clean "
                f"{clean.digest()[:12]}"
            )
        return problems


WORKLOADS = {
    cls.name: cls
    for cls in (ClassifySweep, PolicyGrid, ServeChurn, ServeFailover)
}
