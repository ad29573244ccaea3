"""Solver kernel registry: selection, fallback, and compiled parity.

The registry (DESIGN.md §12) maps kernel *requests* (``auto`` / ``exact``
/ ``fast`` / ``compiled``) onto the implementation that actually runs,
with thread-local scoping so ``pool="threads"`` workers cannot leak a
selection into each other, and a clean degradation path when the
optional numba extra is missing. The compiled-parity suites are
``kernels``-marked (tier-1 stays numba-free) and skip with a reason on a
NumPy-only install.
"""

from __future__ import annotations

import threading

import pytest

from repro.sim import kernels
from repro.sim.kernels import (
    KERNEL_CHOICES,
    KERNELS,
    available_kernels,
    check_kernel,
    check_kernel_precision,
    get_active_kernel,
    kernel_precision,
    numba_available,
    resolve_kernel,
    set_default_kernel,
    use_kernel,
)

NO_NUMBA_REASON = (
    "compiled kernel unavailable: numba not installed "
    "(pip install .[compiled])"
)


@pytest.fixture(autouse=True)
def _restore_default_kernel():
    yield
    set_default_kernel("auto")


class TestRegistry:
    def test_kernel_namespace(self):
        assert KERNELS == ("exact", "fast", "compiled")
        assert KERNEL_CHOICES == ("auto", "exact", "fast", "compiled")

    def test_exact_and_fast_always_available(self):
        avail = available_kernels()
        assert "exact" in avail and "fast" in avail
        assert ("compiled" in avail) == numba_available()

    def test_check_kernel_rejects_unknown(self):
        with pytest.raises(ValueError, match="kernel must be one of"):
            check_kernel("vectorised")
        assert check_kernel("auto") == "auto"

    @pytest.mark.parametrize(
        "kernel,expected",
        [("auto", None), ("exact", "exact"), ("fast", "fast"),
         ("compiled", "fast")],
    )
    def test_kernel_precision_mapping(self, kernel, expected):
        assert kernel_precision(kernel) == expected

    @pytest.mark.parametrize(
        "kernel,precision",
        [("exact", "fast"), ("fast", "exact"), ("compiled", "exact")],
    )
    def test_contradictions_rejected(self, kernel, precision):
        with pytest.raises(ValueError, match="contradicts"):
            check_kernel_precision(kernel, precision)

    @pytest.mark.parametrize(
        "kernel,precision",
        [("auto", "exact"), ("auto", "fast"), ("exact", "exact"),
         ("fast", "fast"), ("compiled", "fast")],
    )
    def test_consistent_requests_accepted(self, kernel, precision):
        check_kernel_precision(kernel, precision)


class TestSelection:
    def test_default_request_is_auto(self):
        assert get_active_kernel() == "auto"

    def test_use_kernel_scopes_and_nests(self):
        with use_kernel("fast"):
            assert get_active_kernel() == "fast"
            with use_kernel("exact"):
                assert get_active_kernel() == "exact"
            assert get_active_kernel() == "fast"
        assert get_active_kernel() == "auto"

    def test_use_kernel_rejects_unknown(self):
        with pytest.raises(ValueError):
            with use_kernel("vectorised"):
                pass  # pragma: no cover

    def test_set_default_kernel(self):
        set_default_kernel("fast")
        assert get_active_kernel() == "fast"
        with use_kernel("exact"):
            assert get_active_kernel() == "exact"
        assert get_active_kernel() == "fast"

    def test_selection_is_thread_local(self):
        seen = {}

        def probe():
            seen["worker_default"] = get_active_kernel()
            with use_kernel("exact"):
                seen["worker_scoped"] = get_active_kernel()

        with use_kernel("fast"):
            t = threading.Thread(target=probe)
            t.start()
            t.join()
            assert get_active_kernel() == "fast"
        # The worker saw the process default, not the main thread's scope,
        # and its own scope never leaked back.
        assert seen == {"worker_default": "auto", "worker_scoped": "exact"}
        assert get_active_kernel() == "auto"


class TestResolution:
    def test_exact_precision_always_resolves_exact(self):
        for request in ("auto", "exact"):
            assert resolve_kernel(request, precision="exact") == "exact"

    def test_fast_request_resolves_fast(self):
        assert resolve_kernel("fast", precision="fast") == "fast"

    def test_auto_prefers_compiled_when_available(self):
        resolved = resolve_kernel("auto", precision="fast")
        assert resolved == ("compiled" if numba_available() else "fast")

    def test_none_reads_thread_request(self):
        with use_kernel("fast"):
            assert resolve_kernel(precision="fast") == "fast"

    @pytest.mark.skipif(numba_available(), reason="numba installed")
    def test_compiled_without_numba_falls_back_to_fast(self):
        assert resolve_kernel("compiled", precision="fast") == "fast"

    @pytest.mark.skipif(numba_available(), reason="numba installed")
    def test_fallback_noted_once(self, tmp_path):
        from repro import obs

        kernels._FALLBACK_NOTED = False
        obs.enable(tmp_path / "events.jsonl", run_id="t")
        try:
            resolve_kernel("compiled", precision="fast")
            resolve_kernel("compiled", precision="fast")
            assert kernels._FALLBACK_NOTED
            assert obs.counter("kernels.compiled_fallback").value == 1.0
        finally:
            obs.disable()

    def test_solver_counters_expose_by_kernel(self):
        from repro.sim.contention import solver_counters

        by_kernel = solver_counters()["by_kernel"]
        assert set(by_kernel) == {"exact", "fast", "compiled"}
        for kernel, counts in by_kernel.items():
            # The fast kernel also reports its per-lane share.
            extra = {"lane_solves", "lane_points"} if kernel == "fast" else set()
            assert set(counts) == {"solves", "points", "iterations"} | extra


@pytest.mark.kernels
@pytest.mark.skipif(not numba_available(), reason=NO_NUMBA_REASON)
class TestCompiledParity:
    """The numba kernel honours the same contract as the NumPy kernel.

    These run only with the ``[compiled]`` extra installed (``make
    kernels``); the NumPy-only contract sweeps live in test_fastmath.py.
    """

    def _points(self):
        from repro.sim.partition import PartitionSpec
        from repro.workloads.catalog import app_names, catalog

        apps = catalog()
        partitions = (
            PartitionSpec.unmanaged(10, 20),
            PartitionSpec.hp_be(5, 10, 20),
        )
        points = []
        for hp in app_names()[::6]:
            phases = (apps[hp].phases[0],) + (apps["bzip22"].phases[0],) * 9
            for part in partitions:
                points.append((phases, part))
        return points

    def test_contract_against_exact(self):
        from repro.sim.contention import (
            _fast_contract_violations,
            solve_steady_state_batch,
        )
        from repro.sim.platform import TABLE1_PLATFORM

        points = self._points()
        with use_kernel("compiled"):
            compiled = solve_steady_state_batch(
                TABLE1_PLATFORM, points, precision="fast"
            )
        exact = solve_steady_state_batch(
            TABLE1_PLATFORM, points, precision="exact"
        )
        for i, (c, e) in enumerate(zip(compiled, exact)):
            assert not _fast_contract_violations(c, e), f"point {i}"

    def test_batch_composition_independence(self):
        import numpy as np

        from repro.sim.contention import solve_steady_state_batch
        from repro.sim.platform import TABLE1_PLATFORM

        points = self._points()
        with use_kernel("compiled"):
            batch = solve_steady_state_batch(
                TABLE1_PLATFORM, points, precision="fast"
            )
            for i, point in enumerate(points):
                solo = solve_steady_state_batch(
                    TABLE1_PLATFORM, [point], precision="fast"
                )
                assert np.array_equal(solo[0].ipc, batch[i].ipc)
                assert np.array_equal(solo[0].ways, batch[i].ways)

    def test_compiled_counters_tick(self):
        from repro.sim.contention import solve_steady_state_batch, solver_counters
        from repro.sim.platform import TABLE1_PLATFORM

        before = solver_counters()["compiled_solves"]
        with use_kernel("compiled"):
            solve_steady_state_batch(
                TABLE1_PLATFORM, self._points()[:2], precision="fast"
            )
        assert solver_counters()["compiled_solves"] > before
