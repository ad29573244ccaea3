"""Unit tests for the synthetic trace generators."""

import pytest

from repro.cachesim.traces import (
    _CHUNK,
    LINE,
    mixed_trace,
    streaming_trace,
    working_set_trace,
    zipf_trace,
)
from repro.util.rng import make_rng


class TestStreaming:
    def test_sequential_and_wrapping(self):
        trace = list(streaming_trace(6, footprint_lines=4))
        assert trace == [0, LINE, 2 * LINE, 3 * LINE, 0, LINE]

    def test_line_aligned(self):
        assert all(
            a % LINE == 0 for a in streaming_trace(20, footprint_lines=7)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            list(streaming_trace(0, footprint_lines=4))


class TestWorkingSet:
    def test_confined_to_set(self):
        trace = list(working_set_trace(500, make_rng(0), ws_lines=16))
        assert all(0 <= a < 16 * LINE for a in trace)
        assert all(a % LINE == 0 for a in trace)

    def test_reproducible(self):
        a = list(working_set_trace(100, make_rng(5), ws_lines=8))
        b = list(working_set_trace(100, make_rng(5), ws_lines=8))
        assert a == b

    def test_covers_the_set(self):
        trace = set(working_set_trace(2000, make_rng(0), ws_lines=8))
        assert len(trace) == 8


class TestZipf:
    def test_skewed_reuse(self):
        trace = list(
            zipf_trace(5000, make_rng(0), universe_lines=1000, exponent=1.5)
        )
        counts = {}
        for a in trace:
            counts[a] = counts.get(a, 0) + 1
        top = max(counts.values())
        assert top > len(trace) * 0.2  # the hottest line dominates

    def test_exponent_validated(self):
        with pytest.raises(ValueError):
            list(zipf_trace(10, make_rng(0), universe_lines=10, exponent=1.0))

    def test_confined_to_universe(self):
        trace = zipf_trace(2000, make_rng(1), universe_lines=32)
        assert all(0 <= a < 32 * LINE for a in trace)


class TestChunkedDraws:
    """The lazily drawing generators equal a one-shot draw of all values.

    ``n`` spans three draw chunks; the odd working-set size makes the
    bounded-integer sampler reject some draws, so chunk boundaries do not
    fall on fixed bit-stream offsets.
    """

    N = 2 * _CHUNK + 12345

    def test_working_set_equals_one_shot(self):
        ws = 3 * 2**30 + 7
        trace = list(working_set_trace(self.N, make_rng(11), ws_lines=ws))
        picks = make_rng(11).integers(0, ws, size=self.N)
        assert trace == [int(p) * LINE for p in picks]

    def test_zipf_equals_one_shot(self):
        trace = list(zipf_trace(self.N, make_rng(12), universe_lines=1000))
        ranks = make_rng(12).zipf(1.2, size=self.N)
        assert trace == [(int(r - 1) % 1000) * LINE for r in ranks]

    def test_huge_traces_draw_lazily(self):
        # 10**9 up-front draws would need ~8 GB; the first values come
        # from one chunk.
        trace = working_set_trace(10**9, make_rng(3), ws_lines=128)
        head = [next(trace) for _ in range(10)]
        expected = make_rng(3).integers(0, 128, size=10)
        assert head == [int(p) * LINE for p in expected]


class TestMixed:
    def test_regions_disjoint(self):
        ws, scan = 16, 64
        trace = list(
            mixed_trace(
                2000, make_rng(0), ws_lines=ws, scan_lines=scan,
                scan_fraction=0.5,
            )
        )
        ws_hits = [a for a in trace if a < ws * LINE]
        scan_hits = [a for a in trace if a >= ws * LINE]
        assert ws_hits and scan_hits
        assert all(a < (ws + scan) * LINE for a in scan_hits)

    def test_scan_fraction_zero_is_pure_working_set(self):
        trace = list(
            mixed_trace(
                500, make_rng(0), ws_lines=8, scan_lines=64, scan_fraction=0.0
            )
        )
        assert all(a < 8 * LINE for a in trace)

    def test_scan_fraction_validated(self):
        with pytest.raises(ValueError):
            list(
                mixed_trace(
                    10, make_rng(0), ws_lines=8, scan_lines=8,
                    scan_fraction=1.5,
                )
            )
