"""LLC way-sharing model.

Within a partition group, competing applications do not receive equal slices
of the group's ways: under LRU, steady-state occupancy is approximately
proportional to each competitor's LLC *access rate* (its insertion
pressure). This is the classic observation behind utility-based cache
partitioning — a streaming scan wins cache it cannot use, which is precisely
why UM underserves cache-sensitive applications (and why the paper's milc
example ends up holding ~26 % of the LLC despite a flat miss-ratio curve).

:func:`waterfill` implements pressure-proportional sharing with per-app
occupancy caps; :func:`effective_ways` applies it across a full
:class:`~repro.sim.partition.PartitionSpec`, including the optional shared
(overlapping) zone.
"""

from __future__ import annotations

import numpy as np

from repro.sim.partition import PartitionSpec

__all__ = [
    "waterfill",
    "effective_ways",
    "waterfill_batch",
    "effective_ways_batch",
]

_EPS = 1e-12


def _ordered_sum(values) -> float:
    """Sum from ``0.0`` in iteration order (fixed core order).

    The batch kernels' column loops reduce this way. NumPy's ``.sum()`` is
    pairwise and ``sum()`` compensates from Python 3.12 on, so neither is
    guaranteed to round the same.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def waterfill(
    total_ways: float,
    weights: np.ndarray,
    caps: np.ndarray,
) -> np.ndarray:
    """Split ``total_ways`` proportionally to ``weights``, capped by ``caps``.

    Iterative water-filling: proportional shares are assigned; any
    competitor whose share exceeds its cap is pinned at the cap and the
    surplus is redistributed among the rest. Competitors with zero weight
    receive zero. The result ``w`` satisfies ``0 <= w <= caps`` and
    ``sum(w) <= total_ways`` (strictly less only when every competitor is
    capped — leftover cache simply sits idle).
    """
    weights = np.asarray(weights, dtype=float)
    caps = np.asarray(caps, dtype=float)
    if weights.shape != caps.shape:
        raise ValueError("weights and caps must have the same shape")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if np.any(caps < 0):
        raise ValueError("caps must be non-negative")
    if total_ways < 0:
        raise ValueError("total_ways must be non-negative")
    return np.asarray(
        _waterfill(float(total_ways), weights.tolist(), caps.tolist())
    )


def _waterfill(
    remaining: float, w_list: list[float], cap_list: list[float]
) -> list[float]:
    """:func:`waterfill` on validated Python lists.

    Pure-Python implementation: this runs once per solver iteration on
    ~10-element inputs, where float loops are several times faster than
    boolean-mask NumPy (see the solver's profiling notes).
    """
    n = len(w_list)
    result = [0.0] * n
    active = [w > _EPS and c > _EPS for w, c in zip(w_list, cap_list)]

    # Each pass either finishes or permanently retires >= 1 competitor, so
    # at most n passes run.
    for _ in range(n):
        if remaining <= _EPS or not any(active):
            break
        weight_sum = _ordered_sum(w for w, a in zip(w_list, active) if a)
        overflow = False
        for i in range(n):
            if not active[i]:
                continue
            share = remaining * w_list[i] / weight_sum
            if result[i] + share >= cap_list[i] - 1e-9:
                overflow = True
        if not overflow:
            for i in range(n):
                if active[i]:
                    result[i] += remaining * w_list[i] / weight_sum
            remaining = 0.0
            break
        granted = 0.0
        for i in range(n):
            if not active[i]:
                continue
            share = remaining * w_list[i] / weight_sum
            if result[i] + share >= cap_list[i] - 1e-9:
                granted += cap_list[i] - result[i]
                result[i] = cap_list[i]
                active[i] = False
        remaining -= granted
    return result


def effective_ways(
    partition: PartitionSpec,
    pressures: np.ndarray,
    caps: np.ndarray,
    theta: float,
    *,
    core_order: bool = False,
) -> np.ndarray:
    """Per-core effective LLC ways under ``partition``.

    ``pressures[i]`` is core *i*'s LLC access rate (accesses/second);
    ``caps[i]`` its occupancy cap in ways (``inf`` for unbounded);
    ``theta`` exponentiates pressures before sharing (``1.0`` =
    rate-proportional LRU).

    The optional shared zone is first divided between groups in proportion
    to their aggregate pressure, then each group's (exclusive + zone-share)
    capacity is water-filled among its member cores. ``core_order=True``
    sums the group pressures in fixed core order, as
    :func:`effective_ways_batch` does, so the result equals that
    function's lane bit for bit (the fast solver's per-lane path); the
    default keeps NumPy's pairwise sums of the exact solver.
    """
    pressures = np.asarray(pressures, dtype=float)
    caps = np.asarray(caps, dtype=float)
    if pressures.size != partition.n_cores:
        raise ValueError(
            f"expected {partition.n_cores} pressures, got {pressures.size}"
        )
    weights = np.power(np.maximum(pressures, 0.0), theta)
    weight_list = weights.tolist()

    # Split the shared zone between groups by aggregate pressure weight.
    zone_share = {g.name: 0.0 for g in partition.groups}
    if partition.shared_ways > _EPS:
        if core_order:
            group_weight = [
                _ordered_sum(weight_list[c] for c in g.cores)
                for g in partition.groups
            ]
            total_weight = _ordered_sum(group_weight)
        else:
            group_weight = np.array(
                [weights[list(g.cores)].sum() for g in partition.groups]
            )
            total_weight = group_weight.sum()
        if total_weight > _EPS:
            for g, gw in zip(partition.groups, group_weight):
                zone_share[g.name] = partition.shared_ways * gw / total_weight

    # Per group on Python lists (the same operations as waterfill on the
    # group's slices, without its per-call array validation).
    cap_list = caps.tolist()
    if any(c < 0 for c in cap_list):
        raise ValueError("caps must be non-negative")
    out = [0.0] * partition.n_cores
    for group in partition.groups:
        capacity = float(group.ways + zone_share[group.name])
        shares = _waterfill(
            capacity,
            [weight_list[c] for c in group.cores],
            [min(cap_list[c], capacity) for c in group.cores],
        )
        for c, share in zip(group.cores, shares):
            out[c] = share
    return np.array(out)


def waterfill_batch(
    total_ways: np.ndarray | float,
    weights: np.ndarray,
    caps: np.ndarray,
) -> np.ndarray:
    """Lane-batched :func:`waterfill`: row ``i`` splits ``total_ways[i]``.

    ``weights`` and ``caps`` are ``(lanes, k)``; ``total_ways`` broadcasts
    over lanes. Each lane walks exactly the scalar water-filling decision
    sequence (proportional shares, overflow detection with the same
    ``1e-9`` cap slack, pin-and-redistribute), with every reduction
    accumulated in fixed competitor order — so a lane's result depends
    only on that lane's inputs, never on which other lanes share the
    batch. This is the ``precision="fast"`` solver's sharing step; the
    scalar function stays the bitwise-exact path.
    """
    weights = np.asarray(weights, dtype=float)
    caps = np.asarray(caps, dtype=float)
    if weights.ndim != 2 or weights.shape != caps.shape:
        raise ValueError("weights and caps must share a (lanes, k) shape")
    if np.any(weights < 0) or np.any(caps < 0):
        raise ValueError("weights and caps must be non-negative")
    n_lanes, k = weights.shape
    remaining = np.broadcast_to(
        np.asarray(total_ways, dtype=float), (n_lanes,)
    ).copy()
    if np.any(remaining < 0):
        raise ValueError("total_ways must be non-negative")

    result = np.zeros((n_lanes, k))
    active = (weights > _EPS) & (caps > _EPS)
    # Each pass either finishes a lane or permanently retires >= 1 of its
    # competitors, so at most k passes run (as in the scalar loop).
    for _ in range(k):
        live = np.nonzero((remaining > _EPS) & active.any(axis=1))[0]
        if live.size == 0:
            break
        w_act = np.where(active[live], weights[live], 0.0)
        # Fixed-order accumulation (competitor 0, 1, ...): inactive slots
        # add exactly 0.0, matching the scalar sum over active entries.
        weight_sum = np.zeros(live.size)
        for j in range(k):
            weight_sum = weight_sum + w_act[:, j]
        share = remaining[live, None] * w_act / weight_sum[:, None]
        would_cap = active[live] & (
            result[live] + share >= caps[live] - 1e-9
        )
        overflow = would_cap.any(axis=1)

        fin = live[~overflow]
        if fin.size:
            result[fin] += share[~overflow]
            remaining[fin] = 0.0
        ov = live[overflow]
        if ov.size:
            capped = would_cap[overflow]
            granted = np.where(capped, caps[ov] - result[ov], 0.0)
            granted_sum = np.zeros(ov.size)
            for j in range(k):
                granted_sum = granted_sum + granted[:, j]
            result[ov] = np.where(capped, caps[ov], result[ov])
            active[ov] &= ~capped
            remaining[ov] -= granted_sum
    return result


def effective_ways_batch(
    partition: PartitionSpec,
    pressures: np.ndarray,
    caps: np.ndarray,
    theta: float,
) -> np.ndarray:
    """Lane-batched :func:`effective_ways` under ONE shared ``partition``.

    ``pressures``/``caps`` are ``(lanes, n_cores)`` (``caps`` may also be
    a single ``(n_cores,)`` row, broadcast over lanes). All lanes share
    the partition — the fast solver groups its batch by partition key and
    calls this once per group. Per-lane semantics mirror the scalar
    function decision-for-decision with fixed-order reductions, so lane
    results are independent of batch composition.
    """
    pressures = np.asarray(pressures, dtype=float)
    n = partition.n_cores
    if pressures.ndim != 2 or pressures.shape[1] != n:
        raise ValueError(
            f"expected (lanes, {n}) pressures, got {pressures.shape}"
        )
    n_lanes = pressures.shape[0]
    caps = np.asarray(caps, dtype=float)
    if caps.ndim == 1:
        caps = np.broadcast_to(caps, (n_lanes, n))
    weights = np.power(np.maximum(pressures, 0.0), theta)

    # Split the shared zone between groups by aggregate pressure weight,
    # per lane (fixed-order sums over each group's member cores).
    zone_share = {g.name: np.zeros(n_lanes) for g in partition.groups}
    if partition.shared_ways > _EPS:
        group_weight = []
        for g in partition.groups:
            gw = np.zeros(n_lanes)
            for core in g.cores:
                gw = gw + weights[:, core]
            group_weight.append(gw)
        total_weight = np.zeros(n_lanes)
        for gw in group_weight:
            total_weight = total_weight + gw
        live = total_weight > _EPS
        safe = np.where(live, total_weight, 1.0)
        for g, gw in zip(partition.groups, group_weight):
            zone_share[g.name] = np.where(
                live, partition.shared_ways * gw / safe, 0.0
            )

    out = np.zeros((n_lanes, n))
    for group in partition.groups:
        idx = np.fromiter(group.cores, dtype=int)
        capacity = group.ways + zone_share[group.name]
        group_caps = np.minimum(caps[:, idx], capacity[:, None])
        out[:, idx] = waterfill_batch(
            capacity, weights[:, idx], group_caps
        )
    return out
