"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of ``(seed, size)``: the same seed
always yields the same inputs, and nothing here reads the program under
test beyond the catalog names it is handed. The serve stream is built
here rather than by ``repro.serve.loadgen`` on purpose, so a change to
the program's own load generator cannot move the workload.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Latency-critical and batch app pools (the same 4 HP x 6 BE slices of
#: the catalog the program's load generator defaults to, copied so they
#: stay fixed).
HP_APPS = ("namd1", "povray1", "gamess1", "h264ref1")
BE_APPS = ("bzip22", "lbm1", "milc1", "soplex1", "hmmer1", "astar1")
HP_FRACTION = 0.12
#: Submissions before steady churn starts (~150 outstanding jobs).
FILL_JOBS = 150

#: Node faults; each is followed by a ``node_recover`` of the same node.
NODE_FAULTS = ("node_crash", "node_hang", "node_partition")
FAULT_KINDS = NODE_FAULTS + ("assign_fault",)
#: Chance that a churn step is preceded by a fault. With 1.75 events per
#: fault on average (a node fault is two events, an armed assign fault
#: one), about 5 % of the failover stream is fault events.
FAULT_RATE = 0.03
#: A node fault lasts this many base events (inclusive low, exclusive high).
FAULT_SPAN = (10, 41)
#: Transient actuation failures armed per ``assign_fault``; stays below the
#: daemon's default retry budget of 3 so the retry path absorbs them.
ASSIGN_FAULT_COUNT = 2
#: Minimum base events between two ``assign_fault``s on one node, so armed
#: faults are consumed by actuation before the node is armed again.
ASSIGN_FAULT_GAP = 50

# Independent RNG streams per generator, so adding faults never perturbs
# the base stream they are woven into.
_SWEEP, _PAIRS, _SERVE, _FAULTS = range(4)


def _rng(seed: int, stream: int, *extra: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng([stream, seed, *extra])


def sweep_order(
    seed: int, round_index: int, names: Sequence[str]
) -> tuple[list[str], list[str]]:
    """HP and BE orders for one classification sweep round.

    Every round covers all ordered pairs; only the order the cells are
    handed to the store changes with the seed.
    """
    rng = _rng(seed, _SWEEP, round_index)
    names = list(names)
    hps = [names[i] for i in rng.permutation(len(names))]
    bes = [names[i] for i in rng.permutation(len(names))]
    return hps, bes


def latin_rounds(
    seed: int, pass_index: int, apps: Sequence[str]
) -> list[list[tuple[str, str]]]:
    """Every ordered (HP, BE) pair of ``apps``, grouped into rounds.

    Each of the ``len(apps)`` rounds pairs every app as HP with a distinct
    BE, and over the rounds every ordered pair occurs exactly once (a
    Latin square). The seed draws the square — which pairs share a round
    and in what order they run — so the work of a whole pass is the same
    for every seed while its rounds differ.
    """
    apps = list(apps)
    n = len(apps)
    rng = _rng(seed, _PAIRS, pass_index)
    rows, cols, symbols = (rng.permutation(n) for _ in range(3))
    return [
        [(apps[cols[i]], apps[symbols[(rows[r] + i) % n]]) for i in range(n)]
        for r in range(n)
    ]


def base_stream(seed: int, n_churn: int) -> list[dict]:
    """Submit/depart events: ``FILL_JOBS`` submits, then ``n_churn`` churn.

    Churn comes in submit/depart couples in random order, so the number
    of outstanding jobs stays at ``FILL_JOBS`` (+-1) for the whole run.
    Departures pick uniformly among outstanding jobs, rejected ones
    included (the plane treats those as no-ops). Returns ServeEvent field
    dicts without ``seq``.
    """
    if n_churn < 2:
        raise ValueError(f"n_churn must be >= 2, got {n_churn}")
    rng = _rng(seed, _SERVE)
    events: list[dict] = []
    outstanding: list[str] = []
    n_jobs = 0

    def submit() -> None:
        nonlocal n_jobs
        job_id = f"j{n_jobs:06d}"
        n_jobs += 1
        if rng.random() < HP_FRACTION:
            kind, app = "hp", HP_APPS[int(rng.integers(len(HP_APPS)))]
        else:
            kind, app = "be", BE_APPS[int(rng.integers(len(BE_APPS)))]
        events.append(
            {"kind": "submit", "job_id": job_id, "job_kind": kind, "app": app}
        )
        outstanding.append(job_id)

    def depart() -> None:
        job_id = outstanding.pop(int(rng.integers(len(outstanding))))
        events.append({"kind": "depart", "job_id": job_id})

    for _ in range(FILL_JOBS):
        submit()
    for _ in range(n_churn // 2):
        first, second = (submit, depart) if rng.random() < 0.5 else (
            depart,
            submit,
        )
        first()
        second()
    return events


def weave_faults(
    seed: int, base: Sequence[dict], node_ids: Sequence[str]
) -> list[dict]:
    """Splice node faults and armed assign faults into the churn phase.

    Faults land only after the fill phase, hit only healthy nodes, and
    every node fault recovers before the final base event, so the woven
    stream ends over the full healthy roster (the plane's chaos-invariance
    contract then makes its terminal digest equal the clean stream's).
    """
    rng = _rng(seed, _FAULTS)
    out = list(base[:FILL_JOBS])
    down: dict[str, int] = {}  # node -> base index it recovers before
    last_armed: dict[str, int] = {}
    n = len(base)
    for i in range(FILL_JOBS, n):
        for node in sorted(nid for nid, at in down.items() if at == i):
            out.append({"kind": "node_recover", "node_id": node})
            del down[node]
        if rng.random() < FAULT_RATE:
            kind = FAULT_KINDS[int(rng.integers(len(FAULT_KINDS)))]
            if kind in NODE_FAULTS:
                span = int(rng.integers(*FAULT_SPAN))
                nodes = [nid for nid in node_ids if nid not in down]
                if i + span < n and nodes:
                    node = nodes[int(rng.integers(len(nodes)))]
                    out.append({"kind": kind, "node_id": node})
                    down[node] = i + span
            else:
                nodes = [
                    nid
                    for nid in node_ids
                    if nid not in down
                    and i - last_armed.get(nid, -ASSIGN_FAULT_GAP)
                    >= ASSIGN_FAULT_GAP
                ]
                if nodes:
                    node = nodes[int(rng.integers(len(nodes)))]
                    out.append(
                        {
                            "kind": "assign_fault",
                            "node_id": node,
                            "count": ASSIGN_FAULT_COUNT,
                        }
                    )
                    last_armed[node] = i
        out.append(base[i])
    if down:
        raise RuntimeError(f"faults left open at stream end: {down}")
    return out
