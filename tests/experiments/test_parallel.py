"""Tests for the parallel campaign engine.

The load-bearing property is determinism: a campaign executed over N
worker processes must be *bit-identical* to the serial execution — same
floats, same traces, same ordering — because every figure in the paper is
a projection of these campaigns and must not depend on the machine's core
count.
"""

import pytest

from repro.core.policies import (
    CacheTakeoverPolicy,
    DicerPolicy,
    UnmanagedPolicy,
)
from repro.experiments.classify import classify_all
from repro.experiments.grid import run_grid
from repro.experiments.parallel import ParallelExecutor, run_cell
from repro.experiments.store import ResultStore
from repro.sim.platform import TABLE1_PLATFORM
from repro.workloads.catalog import app_names


def _cells(n_names: int, n_be: int = 3):
    names = app_names()[:n_names]
    policies = [UnmanagedPolicy(), CacheTakeoverPolicy()]
    return [
        (hp, be, n_be, policy)
        for hp in names
        for be in names
        for policy in policies
    ]


class TestParallelExecutor:
    def test_serial_path_matches_direct_run(self):
        cells = _cells(2)
        direct = [run_cell(TABLE1_PLATFORM, cell) for cell in cells]
        serial = ParallelExecutor(1).run(cells, TABLE1_PLATFORM)
        assert serial == direct

    def test_parallel_bit_identical_to_serial(self):
        cells = _cells(2)
        serial = ParallelExecutor(1).run(cells, TABLE1_PLATFORM)
        parallel = ParallelExecutor(4).run(cells, TABLE1_PLATFORM)
        # Dataclass equality is exact float equality, field by field.
        assert parallel == serial

    def test_dicer_trace_survives_the_pool(self):
        cells = [("omnetpp1", "bzip22", 3, DicerPolicy())]
        serial = ParallelExecutor(1).run(cells, TABLE1_PLATFORM)
        parallel = ParallelExecutor(2).run(cells * 2, TABLE1_PLATFORM)
        assert parallel[0] == parallel[1] == serial[0]
        assert parallel[0].trace  # decisions crossed the process boundary

    def test_on_result_fires_in_submission_order(self):
        cells = _cells(2)
        seen = []
        ParallelExecutor(4).run(
            cells,
            TABLE1_PLATFORM,
            on_result=lambda i, cell, r: seen.append(i),
        )
        assert seen == list(range(len(cells)))

    def test_auto_detect_workers(self):
        assert ParallelExecutor(None).n_workers >= 1
        assert ParallelExecutor(0).n_workers >= 1
        assert ParallelExecutor(3).n_workers == 3

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(2, chunk_size=0)


class TestParallelCampaigns:
    """Serial and parallel stores must build identical campaign artefacts."""

    # A small property sweep: different catalog slices, sample sizes and
    # core grids all have to agree with serial execution bit-for-bit.
    @pytest.mark.parametrize(
        "n_names,n_sample,cores",
        [(3, 3, (2, 4)), (4, 4, (2,)), (2, 4, (3, 5))],
    )
    def test_grid_bit_identical(self, n_names, n_sample, cores):
        names = app_names()[:n_names]

        serial_store = ResultStore(n_workers=1)
        serial_classes = classify_all(
            serial_store, hp_names=names, be_names=names
        )
        serial_grid = run_grid(
            serial_store, serial_classes[:n_sample], cores=cores
        )

        parallel_store = ResultStore(n_workers=4)
        parallel_classes = classify_all(
            parallel_store, hp_names=names, be_names=names
        )
        parallel_grid = run_grid(
            parallel_store, parallel_classes[:n_sample], cores=cores
        )

        assert parallel_classes == serial_classes
        assert parallel_grid == serial_grid

    def test_get_many_aligns_with_requests(self):
        cells = _cells(2)
        store = ResultStore(n_workers=2)
        results = store.get_many(cells + cells[:3])  # duplicates allowed
        assert len(results) == len(cells) + 3
        for cell, result in zip(cells + cells[:3], results):
            hp, be, n_be, policy = cell
            assert (result.hp_name, result.be_name) == (hp, be)
            assert result.n_be == n_be
            assert result.policy == policy.name
        # Duplicates were served from cache, not recomputed.
        assert store.stats()["recomputed"] == len(cells)


class TestPrewarmConvergenceFailure:
    """A point the fast kernel cannot converge never aborts a campaign.

    UM on h264ref1 + 8 x gcc_base6 does not converge within the solver's
    budget. The fused phase-product prewarm keeps every other point of its
    batch and leaves the failed one out of the memo; the cell owning it
    then fails on its own, under the campaign's retry / quarantine rules.
    """

    FAILING = ("h264ref1", "gcc_base6", 8, UnmanagedPolicy())
    HEALTHY = ("namd1", "lbm1", 8, UnmanagedPolicy())

    @staticmethod
    def _store():
        from repro.experiments.supervise import SuperviseConfig

        return ResultStore(
            n_workers=1,
            supervise=SuperviseConfig(
                max_retries=2, backoff_base_s=0.0, on_failure="skip"
            ),
            precision="fast",
        )

    @staticmethod
    def _keys(cell):
        from repro.sim.contention import SteadyStateCache
        from repro.sim.partition import PartitionSpec
        from repro.sim.server import phase_product_points
        from repro.workloads.mix import make_mix

        hp, be, n_be, _policy = cell
        models = make_mix(hp, be, n_be=n_be).apps()
        partition = PartitionSpec.unmanaged(len(models), 20)
        return [
            SteadyStateCache.make_key(
                TABLE1_PLATFORM, phases, partition, mba, "fast",
                prefetch=prefetch,
            )
            for phases, partition, mba, prefetch in phase_product_points(
                models, partition
            )
        ]

    def test_prewarm_keeps_converged_points_only(self, clean_caches):
        from repro.experiments.parallel import _prewarm_phase_products
        from repro.sim.contention import GLOBAL_STEADY_CACHE, solver_counters

        before = solver_counters()["fast_solves"]
        submitted = _prewarm_phase_products(
            TABLE1_PLATFORM,
            [self.FAILING, self.HEALTHY],
            {"precision": "fast"},
        )
        # One fused call, not re-run after the failure.
        assert solver_counters()["fast_solves"] - before == 1
        failing, healthy = self._keys(self.FAILING), self._keys(self.HEALTHY)
        assert submitted == len(failing) + len(healthy)
        memo = GLOBAL_STEADY_CACHE._data
        assert not any(key in memo for key in failing)
        assert all(key in memo for key in healthy)

    def test_campaign_completes_and_quarantines_the_failing_cell(
        self, clean_caches
    ):
        from repro.sim.contention import GLOBAL_STEADY_CACHE
        from repro.sim.solo import clear_caches

        store = self._store()
        failing, healthy = store.get_many([self.FAILING, self.HEALTHY])
        assert failing is None
        [failed] = store.failures
        assert (failed.hp_name, failed.be_name, failed.n_be) == (
            self.FAILING[:3]
        )
        assert len(failed.attempts) == 3
        assert "ConvergenceError" in store.failure_manifest()[0]["error"]

        clear_caches()
        GLOBAL_STEADY_CACHE.clear()
        [alone] = self._store().get_many([self.HEALTHY])
        assert healthy == alone
