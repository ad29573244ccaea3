"""Parallel campaign execution engine.

Every campaign in the reproduction — the 3481-pair Figure 1 / CT-F/CT-T
classification sweeps and the 120-workload × cores × policies grid behind
Figures 4-8 — is a batch of *independent* ``run_pair`` executions. One cell
is one ``(hp_name, be_name, n_be, policy)`` tuple; cells share nothing at
runtime (each builds its mix from the catalog and solves its own fixed
points), so fanning them out over worker processes is embarrassingly
parallel.

Since the supervision rework the actual dispatch lives in
:class:`~repro.experiments.supervise.SupervisedExecutor`: individually
submitted futures under a supervisor loop that survives worker crashes,
hangs and poison cells. :class:`ParallelExecutor` is the strict facade —
no retries, no timeout, first failure aborts with the original exception
— preserving the pre-supervision contract for callers that want a plain
``list[PairResult]``.

Determinism is the load-bearing property: ``run_pair`` is a pure function
of its cell, and results are emitted in submission order regardless of
completion order — so a parallel campaign is bit-identical to a serial
one at any worker count (enforced by tests). ``n_workers=1`` bypasses the
pool entirely and runs the exact in-process serial path.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable

from repro.core.policies import Policy
from repro.experiments.runner import PairResult, run_pair
from repro.experiments.supervise import (
    CampaignError,
    SupervisedExecutor,
    SuperviseConfig,
)
from repro.sim.platform import PlatformConfig, TABLE1_PLATFORM
from repro.workloads.mix import make_mix

__all__ = ["Cell", "ParallelExecutor", "run_cell"]

#: One campaign cell: (hp_name, be_name, n_be, policy).
Cell = tuple[str, str, int, Policy]


def run_cell(
    platform: PlatformConfig,
    cell: Cell,
    run_kwargs: dict | None = None,
) -> PairResult:
    """Execute one campaign cell (the unit of work the pool distributes)."""
    hp_name, be_name, n_be, policy = cell
    return run_pair(
        make_mix(hp_name, be_name, n_be=n_be),
        policy,
        platform,
        **(run_kwargs or {}),
    )


def _prewarm_solo_profiles(
    platform: PlatformConfig,
    cells: list[Cell],
    run_kwargs: dict | None = None,
) -> None:
    """Batch-solve the solo baselines every cell will normalise against.

    Serial path only: one :func:`~repro.sim.solo.prewarm_profiles` call
    feeds the distinct apps of the whole campaign into the vectorised
    solver, instead of each cell cold-solving its own pair of profiles.
    Apps missing from the catalog (tests with synthetic names) are simply
    skipped — the cell itself will raise the right error. Honours the
    campaign's solver ``precision`` (from ``run_kwargs``) so the prewarmed
    profiles are the ones the cells will actually look up.
    """
    from repro.sim.kernels import use_kernel
    from repro.sim.solo import prewarm_profiles
    from repro.workloads.catalog import catalog

    precision = (run_kwargs or {}).get("precision", "exact")
    kernel = (run_kwargs or {}).get("kernel", "auto")
    apps = catalog()
    names: list[str] = []
    seen: set[str] = set()
    for hp_name, be_name, _n_be, _policy in cells:
        for name in (hp_name, be_name):
            if name not in seen:
                seen.add(name)
                names.append(name)
    with use_kernel(kernel):
        prewarm_profiles(
            [apps[name] for name in names if name in apps],
            platform,
            precision=precision,
        )


def _prewarm_phase_products(
    platform: PlatformConfig,
    cells: list[Cell],
    run_kwargs: dict | None = None,
    max_points_per_cell: int = 64,
) -> int:
    """Fuse the phase-product operating points of many cells into one batch.

    Fast-mode serial campaigns only. Each cell's execution starts from its
    policy's *initial* partition and (absent MBA throttling) visits exactly
    the phase cross product — the same points
    :meth:`~repro.sim.server.Server.prefetch_phase_product` would solve one
    cell at a time. Aggregating them across the whole campaign hands the
    vectorised fast kernel one wide fused batch instead of hundreds of
    narrow ones, which is where its throughput comes from (DESIGN.md §10).

    A no-op for ``precision="exact"`` (the scalar-parity path keeps its
    historical per-cell solve pattern) and for cells whose mix or policy
    setup fails — those cells surface their own errors when they run.
    Likewise a point that does not converge never aborts the campaign:
    the batch memoises every converged point and leaves the failed ones
    out, so the cell owning a failed point fails when it runs, under the
    campaign's retry / quarantine rules. Returns the number of operating
    points submitted.
    """
    from repro.sim.contention import GLOBAL_STEADY_CACHE, ConvergenceError
    from repro.sim.kernels import use_kernel
    from repro.sim.partition import PartitionSpec
    from repro.sim.server import phase_product_points

    precision = (run_kwargs or {}).get("precision", "exact")
    kernel = (run_kwargs or {}).get("kernel", "auto")
    if precision != "fast":
        return 0
    points: list[tuple] = []
    seen: set[tuple] = set()
    for hp_name, be_name, n_be, policy in cells:
        cell_key = (hp_name, be_name, n_be, policy.name)
        if cell_key in seen:
            continue
        seen.add(cell_key)
        try:
            mix = make_mix(hp_name, be_name, n_be=n_be)
            models = mix.apps()
            allocation = policy.fresh().setup(platform.llc_ways)
            partition = (
                allocation.to_partition(len(models))
                if allocation is not None
                else PartitionSpec.unmanaged(len(models), platform.llc_ways)
            )
        except Exception:
            continue
        points.extend(
            phase_product_points(models, partition, None, max_points_per_cell)
        )
    if points:
        with use_kernel(kernel):
            try:
                GLOBAL_STEADY_CACHE.solve_many(
                    platform, points, precision="fast"
                )
            except ConvergenceError:
                pass  # converged points are memoised; see above
    return len(points)


class ParallelExecutor:
    """Fan campaign cells out over worker processes, in deterministic order.

    A strict facade over :class:`~repro.experiments.supervise.
    SupervisedExecutor`: no retries, no per-cell timeout, and the first
    cell failure aborts the batch by re-raising the original exception —
    the historical all-or-nothing contract. Campaigns that want retry /
    timeout / quarantine semantics use ``SupervisedExecutor`` directly
    (:class:`~repro.experiments.store.ResultStore` does, when configured).

    Parameters
    ----------
    n_workers:
        Worker process count. ``None`` or ``0`` auto-detects from the CPU
        count; ``1`` runs everything serially in-process (no pool, no
        pickling — the exact pre-parallel execution path).
    chunk_size:
        Retained for API compatibility; the supervised engine submits
        cells individually (per-cell futures are what make timeouts and
        crash attribution possible), so this is accepted and ignored.
    label:
        Optional tag for this executor's ``campaign.batch`` telemetry
        events (see :class:`SupervisedExecutor`).
    pool:
        ``"processes"`` (default) or ``"threads"`` — forwarded to
        :class:`SupervisedExecutor` (thread mode shares the in-process
        solver caches; built for the GIL-releasing compiled kernel).
    """

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        chunk_size: int | None = None,
        label: str | None = None,
        pool: str = "processes",
    ) -> None:
        if n_workers is None or n_workers <= 0:
            n_workers = os.cpu_count() or 1
        self.n_workers = n_workers
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        self.label = label
        self.pool = pool

    def run(
        self,
        cells: Iterable[Cell],
        platform: PlatformConfig = TABLE1_PLATFORM,
        *,
        run_kwargs: dict | None = None,
        on_result: Callable[[int, Cell, PairResult], None] | None = None,
    ) -> list[PairResult]:
        """Execute every cell; results align index-for-index with ``cells``.

        ``on_result(index, cell, result)`` fires as each result arrives (in
        submission order) — the hook :class:`~repro.experiments.store.
        ResultStore` uses to merge worker results back into the parent
        cache and checkpoint long campaigns for mid-grid resume.
        """
        executor = SupervisedExecutor(
            self.n_workers,
            config=SuperviseConfig(),
            label=self.label,
            pool=self.pool,
        )
        try:
            outcome = executor.run(
                cells,
                platform,
                run_kwargs=run_kwargs,
                on_result=on_result,
            )
        except CampaignError as err:
            if err.cause is not None:
                raise err.cause from None
            raise
        return outcome.results
