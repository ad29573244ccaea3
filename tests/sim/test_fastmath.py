"""Fast-math solver mode: the tolerance contract and its guard rails.

``precision="fast"`` trades the exact kernel's bitwise scalar parity for a
*tolerance* contract (DESIGN.md §10): every output quantity stays within
``FAST_REL_TOL``/``FAST_WAYS_ATOL`` of the exact solve of the same point.
These tests pin the contract over the application catalog (enumerated and
property-based), the fast kernel's batch-composition independence (the
property that makes fast results memoisable), the bitwise equality of its
per-lane and vectorised paths, the ``REPRO_FAST_CHECK`` shadow-assertion
mode, and failure attribution. The exhaustive 3481-pair sweeps are
``fast_math``-marked and run via ``make fastmath``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import GroupAllocation
from repro.sim import contention
from repro.sim.contention import (
    ConvergenceError,
    FastContractError,
    _assert_fast_contract,
    _fast_contract_violations,
    _LANE_PATH_BELOW,
    _parse_points,
    _solve_fast_lanes,
    _solve_fast_vectorised,
    solve_steady_state,
    solve_steady_state_batch,
    solver_counters,
)
from repro.sim.kernels import available_kernels, use_kernel
from repro.sim.partition import PartitionSpec
from repro.sim.platform import TABLE1_PLATFORM
from repro.workloads.catalog import app_names, catalog
from repro.workloads.mrc import TabulatedMRC

PLAT = TABLE1_PLATFORM

PARTITIONS = (
    PartitionSpec.unmanaged(10, 20),
    PartitionSpec.hp_be(5, 10, 20),
    PartitionSpec.hp_be(19, 10, 20),
)

#: Every fast-precision kernel implementation, skip-with-reason for the
#: ones this environment cannot run (DESIGN.md §12) — the contract and
#: composition-independence sweeps must hold for whichever kernel serves
#: ``precision="fast"``.
FAST_KERNELS = [
    pytest.param(
        kernel,
        marks=()
        if kernel in available_kernels()
        else pytest.mark.skip(
            reason=f"kernel {kernel!r} unavailable: numba not installed "
            "(pip install .[compiled])"
        ),
    )
    for kernel in ("fast", "compiled")
]


def solve_both(points, kernel="fast"):
    """(fast, exact) result lists for one point population."""
    with use_kernel(kernel):
        fast = solve_steady_state_batch(PLAT, points, precision="fast")
    exact = solve_steady_state_batch(PLAT, points, precision="exact")
    return fast, exact


def assert_within_contract(fast_states, exact_states, points):
    for i, (f, e) in enumerate(zip(fast_states, exact_states)):
        problems = _fast_contract_violations(f, e)
        assert not problems, f"point {i} ({points[i][1]}): {problems}"


def assert_states_bitwise(a, b, label=""):
    assert np.array_equal(a.ipc, b.ipc), f"{label}: ipc"
    assert np.array_equal(a.ways, b.ways), f"{label}: ways"
    assert np.array_equal(a.miss_ratio, b.miss_ratio), f"{label}: miss_ratio"
    assert np.array_equal(a.bw_bytes, b.bw_bytes), f"{label}: bw_bytes"
    assert a.latency_cycles == b.latency_cycles, f"{label}: latency"
    assert a.utilisation == b.utilisation, f"{label}: utilisation"
    assert a.iterations == b.iterations, f"{label}: iterations"


@pytest.mark.parametrize("kernel", FAST_KERNELS)
class TestToleranceContract:
    """Fast results track exact ones within the documented band."""

    @pytest.mark.parametrize("hp_name", app_names()[::8])
    def test_catalog_slice_within_contract(self, hp_name, kernel):
        apps = catalog()
        be_phase = apps["bzip22"].phases[0]
        points = []
        for hp_phase in apps[hp_name].phases:
            phases = (hp_phase,) + (be_phase,) * 9
            for part in PARTITIONS:
                points.append((phases, part))
        fast, exact = solve_both(points, kernel)
        assert_within_contract(fast, exact, points)

    @settings(deadline=None, max_examples=30)
    @given(
        hp=st.sampled_from(app_names()),
        be=st.sampled_from(app_names()),
        n_be=st.integers(min_value=1, max_value=9),
        hp_ways=st.integers(min_value=1, max_value=18),
        throttle=st.one_of(
            st.none(), st.floats(min_value=0.1, max_value=1.0)
        ),
    )
    def test_contract_holds_everywhere(
        self, kernel, hp, be, n_be, hp_ways, throttle
    ):
        apps = catalog()
        phases = (apps[hp].phases[0],) + (apps[be].phases[0],) * n_be
        n = n_be + 1
        partition = (
            PartitionSpec.hp_be(hp_ways, n, PLAT.llc_ways)
            if n >= 2 and hp_ways + 1 <= PLAT.llc_ways
            else PartitionSpec.unmanaged(n, PLAT.llc_ways)
        )
        mba = None if throttle is None else (1.0,) + (throttle,) * n_be
        points = [(phases, partition, mba)]
        fast, exact = solve_both(points, kernel)
        assert_within_contract(fast, exact, points)

    def test_mba_throttled_points_within_contract(self, kernel):
        apps = catalog()
        phases = (apps["omnetpp1"].phases[0],) + (apps["lbm1"].phases[0],) * 9
        points = [
            (phases, part, (1.0,) + (0.25,) * 9) for part in PARTITIONS
        ]
        fast, exact = solve_both(points, kernel)
        assert_within_contract(fast, exact, points)


@pytest.mark.parametrize("kernel", FAST_KERNELS)
class TestCompositionIndependence:
    """A fast lane's bits cannot depend on its batch mates.

    This is what makes fast results safe to memoise: a cache hit produced
    inside one batch must equal the solve any other batch (or a singleton)
    would have produced for the same key.
    """

    def _points(self):
        apps = catalog()
        names = app_names()[::10]
        points = []
        for hp in names:
            for part in PARTITIONS:
                phases = (apps[hp].phases[0],) + (
                    apps["gcc_base3"].phases[0],
                ) * 9
                points.append((phases, part))
        return points

    def test_singleton_equals_batch(self, kernel):
        points = self._points()
        with use_kernel(kernel):
            batch = solve_steady_state_batch(PLAT, points, precision="fast")
            for i, point in enumerate(points):
                solo = solve_steady_state_batch(
                    PLAT, [point], precision="fast"
                )
                assert_states_bitwise(solo[0], batch[i], label=f"point {i}")

    def test_permutation_invariant(self, kernel):
        points = self._points()
        with use_kernel(kernel):
            batch = solve_steady_state_batch(PLAT, points, precision="fast")
            order = list(reversed(range(len(points))))
            shuffled = solve_steady_state_batch(
                PLAT, [points[i] for i in order], precision="fast"
            )
        for pos, i in enumerate(order):
            assert_states_bitwise(shuffled[pos], batch[i], label=f"point {i}")

    def test_ragged_core_counts_pad_neutrally(self, kernel):
        apps = catalog()
        narrow = (
            (apps["omnetpp1"].phases[0],) * 2,
            PartitionSpec.unmanaged(2, 20),
        )
        wide = (
            (apps["lbm1"].phases[0],) * 10,
            PartitionSpec.hp_be(5, 10, 20),
        )
        with use_kernel(kernel):
            together = solve_steady_state_batch(
                PLAT, [narrow, wide], precision="fast"
            )
            for i, point in enumerate((narrow, wide)):
                solo = solve_steady_state_batch(
                    PLAT, [point], precision="fast"
                )
                assert_states_bitwise(
                    solo[0], together[i], label=f"point {i}"
                )


KW = dict(tol=1e-6, max_iter=800, damping=0.5)

CATALOG_PAIRS = [(hp, be) for hp in app_names() for be in app_names()]

#: A measured-looking curve without fused coefficients: its slots take the
#: ``eval_many_fast`` fallback in both paths.
TABULATED = TabulatedMRC([0.0, 1.0, 3.0, 6.0, 12.0, 20.0],
                         [1.0, 0.7, 0.45, 0.3, 0.2, 0.18])


def lane_parity_points(pairs):
    """Operating points over every branch where the fast paths could part.

    One ``(hp, be)`` pair per entry of ``pairs``, cycling through ragged
    core counts 2-10, UM / CT-k / shared-zone / ``GroupAllocation``
    partitions, MBA throttles, prefetch levels and tabulated MRCs.
    """
    apps = catalog()
    points = []
    for k, (hp, be) in enumerate(pairs):
        n_be = 1 + k % 9
        n = n_be + 1
        hp_phases = apps[hp].phases
        be_phase = apps[be].phases[0]
        if k % 5 == 4:
            be_phase = replace(be_phase, mrc=TABULATED)
        phases = (hp_phases[k % len(hp_phases)],) + (be_phase,) * n_be
        partitions = [
            PartitionSpec.unmanaged(n, 20),
            PartitionSpec.hp_be(1 + k % 18, n, 20),
            PartitionSpec.hp_be(1 + k % 12, n, 20, overlap_ways=1 + k % 4),
        ]
        if n >= 3:
            split = 1 + n_be // 2
            partitions.append(
                GroupAllocation(
                    total_ways=20,
                    cores=((0,), tuple(range(1, split)),
                           tuple(range(split, n))),
                    ways=(6.0, 5.0, 5.0),
                    shared_ways=4.0,
                ).to_partition(n)
            )
        mba = None if k % 3 else (1.0,) + (0.2 + 0.1 * (k % 8),) * n_be
        prefetch = (
            tuple(((c + k) % 5) / 4 for c in range(n)) if k % 4 == 1 else None
        )
        points.extend((phases, part, mba, prefetch) for part in partitions)
    return points


def assert_lane_parity(points):
    """Per-lane path == vectorised kernel, lane by lane, bit for bit."""
    parsed = _parse_points(PLAT, points)
    lanes = _solve_fast_lanes(PLAT, parsed, **KW)
    batch = _solve_fast_vectorised(PLAT, parsed, **KW)
    for i, (a, b) in enumerate(zip(lanes, batch)):
        assert_states_bitwise(a, b, label=f"point {i} ({points[i][1]})")
    return lanes


class TestLanePath:
    """The per-lane path for small calls equals the vectorised kernel.

    Bit equality — not mere tolerance — is what keeps a fast memo entry
    independent of the path, batch size and order that produced it.
    """

    #: Every 48th catalog pair (73 pairs, ~280 points) — dense enough
    #: that a per-lane path computing a sum or a power differently from
    #: the vectorised kernel shows up within tier-1.
    SAMPLE_PAIRS = CATALOG_PAIRS[::48]

    def test_sampled_points_bitwise_equal(self):
        points = lane_parity_points(self.SAMPLE_PAIRS)
        states = assert_lane_parity(points)
        # The sample reaches the rationing epilogue (link over capacity).
        assert any(s.utilisation >= 1.0 - 1e-12 for s in states)

    def test_solo_points_bitwise_equal(self):
        # One-core points: the solo baselines every campaign normalises by.
        assert_lane_parity(
            [
                ((phase,), PartitionSpec.unmanaged(1, ways))
                for app in catalog().values()
                for phase in app.phases
                for ways in (1, 3, 11, 20)
            ]
        )

    def test_non_converging_point_fails_alike(self):
        apps = catalog()
        stuck = (
            (apps["h264ref1"].phases[0],) + (apps["gcc_base6"].phases[0],) * 8,
            PartitionSpec.unmanaged(9, 20),
        )
        healthy = lane_parity_points(self.SAMPLE_PAIRS[:1])[:2]
        parsed = _parse_points(PLAT, [healthy[0], stuck, healthy[1]])
        errors = []
        for solve in (_solve_fast_lanes, _solve_fast_vectorised):
            with pytest.raises(ConvergenceError) as info:
                solve(PLAT, parsed, **KW)
            errors.append(info.value)
        lane, batch = errors
        assert str(lane) == str(batch)
        assert "fast lane 1: no convergence after" in str(lane)
        assert lane.iterations == batch.iterations >= KW["max_iter"]
        # Both finish the other points and hand them back.
        assert lane.states[1] is None and batch.states[1] is None
        for i in (0, 2):
            assert_states_bitwise(lane.states[i], batch.states[i], f"point {i}")

    def test_call_size_picks_the_path(self):
        points = lane_parity_points(self.SAMPLE_PAIRS[:3])
        assert len(points) > _LANE_PATH_BELOW
        small = points[: _LANE_PATH_BELOW - 1]
        before = solver_counters()
        solve_steady_state_batch(PLAT, small, precision="fast")
        solve_steady_state(PLAT, *points[0][:2], precision="fast")
        mid = solver_counters()
        solve_steady_state_batch(PLAT, points, precision="fast")
        after = solver_counters()
        assert mid["fast_lane_solves"] - before["fast_lane_solves"] == 2
        assert mid["fast_lane_points"] - before["fast_lane_points"] == (
            len(small) + 1
        )
        assert mid["fast_points"] - before["fast_points"] == len(small) + 1
        assert after["fast_lane_solves"] == mid["fast_lane_solves"]
        assert after["fast_points"] - mid["fast_points"] == len(points)
        assert after["by_kernel"]["fast"]["lane_points"] == (
            after["fast_lane_points"]
        )
        # No new *_iterations key: per-lane iterations count as fast ones.
        assert [k for k in after if k.endswith("_iterations")] == [
            "scalar_iterations", "batch_iterations", "fast_iterations",
            "compiled_iterations",
        ]


class TestFastCheckMode:
    """REPRO_FAST_CHECK=1 shadows every fast solve with an exact one."""

    def test_clean_solves_pass_the_shadow_assertion(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_CHECK", "1")
        apps = catalog()
        phases = (apps["omnetpp1"].phases[0],) + (apps["bzip22"].phases[0],) * 9
        points = [(phases, part) for part in PARTITIONS]
        fast = solve_steady_state_batch(PLAT, points, precision="fast")
        assert len(fast) == len(points)

    def test_shadow_assertion_covers_the_lane_path(self, monkeypatch):
        apps = catalog()
        point = (
            (apps["omnetpp1"].phases[0],) + (apps["bzip22"].phases[0],) * 9,
            PARTITIONS[0],
        )
        solve_point = contention._solve_point

        def skewed(*args, **kwargs):
            state = solve_point(*args, **kwargs)
            return replace(state, ipc=state.ipc * 1.01)

        monkeypatch.setattr(contention, "_solve_point", skewed)
        solve_steady_state_batch(PLAT, [point], precision="fast")
        monkeypatch.setenv("REPRO_FAST_CHECK", "1")
        with pytest.raises(FastContractError, match="tolerance contract"):
            solve_steady_state_batch(PLAT, [point], precision="fast")

    def test_contract_breach_raises_fast_contract_error(self):
        apps = catalog()
        phases = (apps["omnetpp1"].phases[0],) + (apps["bzip22"].phases[0],) * 9
        points = [(phases, PARTITIONS[0])]
        fast = solve_steady_state_batch(PLAT, points, precision="fast")
        from dataclasses import replace

        corrupted = [replace(fast[0], ipc=fast[0].ipc * 1.01)]
        parsed = _parse_points(PLAT, points)
        with pytest.raises(FastContractError, match="tolerance contract"):
            _assert_fast_contract(
                PLAT, parsed, corrupted, tol=1e-6, max_iter=800, damping=0.5
            )

    def test_fast_contract_error_is_assertion_error(self):
        assert issubclass(FastContractError, AssertionError)


class TestFailureAttribution:
    """Fast-lane convergence failures say which kernel they came from."""

    def test_convergence_error_names_fast_precision(self):
        apps = catalog()
        phases = (apps["lbm1"].phases[0],) * 10
        point = (phases, PartitionSpec.hp_be(1, 10, 20))
        with pytest.raises(ConvergenceError, match="precision=fast"):
            solve_steady_state_batch(
                PLAT, [point], precision="fast", max_iter=1
            )


@pytest.mark.fast_math
def test_lane_path_bitwise_over_the_catalog():
    """Per-lane vs vectorised parity over all 3481 pairs (``make fastmath``)."""
    assert_lane_parity(lane_parity_points(CATALOG_PAIRS))


@pytest.mark.fast_math
@pytest.mark.parametrize("kernel", FAST_KERNELS)
class TestFullCatalogSweep:
    """The exhaustive 3481-pair contract sweep (``make fastmath``)."""

    def test_every_pair_every_partition(self, kernel):
        apps = catalog()
        names = app_names()
        points = []
        for hp in names:
            for be in names:
                phases = (apps[hp].phases[0],) + (apps[be].phases[0],) * 9
                for part in PARTITIONS:
                    points.append((phases, part))
        fast, exact = solve_both(points, kernel)
        assert_within_contract(fast, exact, points)
