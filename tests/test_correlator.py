"""Histogram correlator against an O(N^2) oracle and analytic cases."""

import contextlib
import hashlib
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionpair import atom, correlator
from ionpair.cli import main
from ionpair.correlations import read_table_csv
from ionpair.correlator import (CorrelatorConfig, correlate,
                                correlate_brute_force)
from ionpair.params import get_preset
from ionpair.streams import save_stream
from ionpair.trajectory import (ClickStream, DetectionConfig, DetectorChannel,
                                detect, simulate_emissions)


def stream_from_gaps(rng, n, mean_gap_ps, channel=0, pol=None):
    gaps = np.maximum(rng.exponential(mean_gap_ps, size=n).astype(np.int64), 1)
    ts = np.cumsum(gaps)
    p = rng.integers(0, 3, size=n) if pol is None else np.full(n, pol)
    return ClickStream(ts, p, np.zeros(n, dtype=np.uint8),
                       duration_ps=int(ts[-1] + 1), channel=channel)


class TestConfig:
    def test_defaults(self):
        cfg = CorrelatorConfig()
        assert cfg.bin_width_ps == 1000
        assert cfg.window_ps == 2_000_000
        assert cfg.n_bins == 4000

    def test_geometry(self):
        cfg = CorrelatorConfig(bin_width_ps=250, window_ps=1000)
        assert cfg.n_bins == 8
        assert cfg.bin_edges_ps().tolist() == list(range(-1000, 1001, 250))
        centers = cfg.bin_centers_ps()
        assert centers[0] == -875 and centers[-1] == 875

    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelatorConfig(bin_width_ps=0, window_ps=1000)
        with pytest.raises(ValueError):
            CorrelatorConfig(bin_width_ps=300, window_ps=1000)
        with pytest.raises(ValueError):
            CorrelatorConfig(bin_width_ps=100, window_ps=-100)


class TestAgainstBruteForce:
    def test_random_instances(self):
        # mix of cross and auto, random geometry, occasional
        # all-on-bin-edge instances to stress the boundary rule
        rng = np.random.default_rng(42)
        for trial in range(60):
            width = int(rng.integers(1, 8)) * 10 ** int(rng.integers(0, 3))
            cfg = CorrelatorConfig(bin_width_ps=width,
                                   window_ps=width * int(rng.integers(1, 40)))
            n_a = int(rng.integers(1, 500))
            n_b = int(rng.integers(1, 500))
            if trial % 5 == 0:
                # deterministic lattice: every delay on a bin edge
                a = ClickStream(np.arange(1, n_a + 1) * width,
                                np.zeros(n_a), np.zeros(n_a),
                                duration_ps=(n_a + 1) * width)
                b = ClickStream(np.arange(1, n_b + 1) * width,
                                np.zeros(n_b), np.zeros(n_b),
                                duration_ps=(n_b + 1) * width)
            else:
                gap = int(rng.integers(1, 3 * width + 1))
                a = stream_from_gaps(rng, n_a, gap)
                b = stream_from_gaps(rng, n_b, gap)
            if trial % 3 == 0:
                got = correlate(a, None, cfg)
                want = correlate_brute_force(a, None, cfg)
            else:
                got = correlate(a, b, cfg)
                want = correlate_brute_force(a, b, cfg)
            context = (trial, width, cfg.window_ps, n_a, n_b)
            assert np.array_equal(got.counts, want), context
            assert got.total_pairs == int(want.sum()), context

    def test_dense_streams_need_many_offsets(self):
        # a 5 ns window over 20 ps gaps puts ~500 b-events in each slice,
        # so the correlator runs ~500 offset passes
        rng = np.random.default_rng(1)
        a = stream_from_gaps(rng, 1500, 20)
        b = stream_from_gaps(rng, 1500, 20)
        cfg = CorrelatorConfig(bin_width_ps=100, window_ps=5000)
        for other in (None, b):
            got = correlate(a, other, cfg)
            want = correlate_brute_force(a, other, cfg)
            assert np.array_equal(got.counts, want)
            assert got.total_pairs == int(want.sum())


class TestWork:
    @pytest.mark.parametrize("mode", ["auto", "cross", "empty"])
    def test_one_prefix_pass_per_offset(self, mode, monkeypatch):
        # ~40 b-events per slice.  The binning calls are the bincounts
        # with minlength n_bins, n_bins + 1 on the one-sided auto, whose
        # last bin takes the +window keys; the one count of slice lengths
        # has none.
        rng = np.random.default_rng(31)
        a = stream_from_gaps(rng, 1000, 1000)
        b = stream_from_gaps(rng, 1000, 1000) if mode == "cross" else None
        if mode == "empty":     # no a-clicks: no slice and no pass
            a, b = ClickStream([], [], [], duration_ps=a.duration_ps), a
        cfg = CorrelatorConfig(bin_width_ps=1000, window_ps=20_000)
        ts_a = a.timestamps_ps
        ts_b = ts_a if b is None else b.timestamps_ps
        tau = ts_b[None, :] - ts_a[:, None]
        slices = ((tau >= -cfg.window_ps) & (tau < cfg.window_ps)).sum(1)

        bincount, passes, binned = np.bincount, [], []

        def counted(arg, *args, **kwargs):
            if kwargs.get("minlength") in (cfg.n_bins, cfg.n_bins + 1):
                assert kwargs["minlength"] == cfg.n_bins + (mode == "auto")
                passes.append(arg)
                binned.append(arg.copy())
            return bincount(arg, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", counted)
        got = correlate(a, b, cfg)
        monkeypatch.undo()
        sizes = [p.size for p in passes]
        assert got.total_pairs == slices.sum() - (len(a) if b is None else 0)
        if mode == "auto":
            # one recording, one filter: one pass per offset up to the
            # longest slice of later partners, d = t_j - t_i in (0, window],
            # and two keys per such pair, (d + window) // w for +d and
            # (window - d) // w for -d; d = 0, a self pair, is never formed
            later = (tau > 0) & (tau <= cfg.window_ps)
            d = tau[later]
            assert len(sizes) == later.sum(1).max()
            assert sum(sizes) == 2 * d.size
            want = np.concatenate([(d + cfg.window_ps) // cfg.bin_width_ps,
                                   (cfg.window_ps - d) // cfg.bin_width_ps])
            assert np.array_equal(np.sort(np.concatenate(binned)),
                                  np.sort(want))
            scratch = 2 * len(a)
        else:
            # one pass per offset up to the longest slice, one binned
            # delay per pair
            assert len(sizes) == (slices.max() if slices.size else 0)
            assert sum(sizes) == slices.sum()
            scratch = len(a)
        # every pass bins a shrinking prefix of one scratch buffer:
        # nothing is compressed or reallocated per pass
        assert sizes == sorted(sizes, reverse=True)
        assert all(p.base is passes[0].base for p in passes)
        assert all(p.base.size == scratch for p in passes)


class TestLongSlices:
    """A slice of 2**15 or more b-events takes the wide sort key."""

    # a 40 000-click comb at 10 ps pitch, 100 clicks per 1 ns bin, and
    # three a-clicks inside it: the middle one faces the whole comb in
    # all 400 bins, the outer ones 30 000 comb clicks in 300 bins
    COMB = 10 * np.arange(40_000, dtype=np.int64) + 5
    A = np.array([100_000, 200_000, 300_000], dtype=np.int64)
    CFG = CorrelatorConfig(bin_width_ps=1000, window_ps=200_000)
    WANT = np.repeat([200, 300, 200], [100, 200, 100])

    def test_cross(self):
        mk = lambda ts: ClickStream(ts, np.zeros(ts.size), np.zeros(ts.size),
                                    duration_ps=400_000)
        a, b = mk(self.A), mk(self.COMB)
        got = correlate(a, b, self.CFG)
        assert np.array_equal(got.counts, self.WANT)
        assert got.total_pairs == 100_000
        assert np.array_equal(got.counts, correlate_brute_force(a, b, self.CFG))

    def test_auto(self):
        # one recording: three sigma- clicks among a sigma+ comb
        ts = np.union1d(self.A, self.COMB)
        s = ClickStream(ts, np.where(np.isin(ts, self.A), 0, 2),
                        np.zeros(ts.size), duration_ps=400_000)
        got = correlate(s, None, self.CFG, pol_a="sigma-", pol_b="sigma+")
        assert np.array_equal(got.counts, self.WANT)
        assert got.total_pairs == 100_000
        assert got.meta["auto"] is True
        # with no filter on b the three also pair with each other, at
        # -200, -100 (twice) and +100 (twice) ns, but not with themselves
        got = correlate(s, None, self.CFG, pol_a="sigma-")
        want = self.WANT.copy()
        want[[0, 100, 300]] += [1, 2, 2]
        assert np.array_equal(got.counts, want)
        assert got.total_pairs == 100_005
        assert np.array_equal(
            got.counts, _self_pair_oracle(s, None, self.CFG, "sigma-", None))


@st.composite
def _timestamps(draw, window, shared=()):
    """0-300 strictly increasing stamps: 1-2 ps bursts, gaps of up to
    four windows, and optionally some stamps equal to `shared`."""
    gaps = draw(st.lists(st.one_of(st.integers(1, 2),
                                   st.integers(1, 4 * window)),
                         max_size=300))
    ts = np.cumsum(np.asarray(gaps, dtype=np.int64)) - 1
    if len(shared):
        picks = draw(st.lists(st.sampled_from(list(shared)), max_size=50))
        ts = np.union1d(ts, np.asarray(picks, dtype=np.int64))
    return ts


def _stream(ts, pol):
    n = ts.size
    return ClickStream(ts, np.resize(np.asarray(pol, dtype=np.uint8), n),
                       np.zeros(n), duration_ps=int(ts[-1]) + 1 if n else 1)


def _self_pair_oracle(a, b, cfg, pol_a, pol_b):
    """Counts of one recording a (b None or a itself) or of two, by brute
    force on the two selections; on one recording the clicks the two
    selections share leave the zero-delay bin."""
    sel_a = a.select(pol=pol_a)
    sel_b = (a if b is None else b).select(pol=pol_b)
    counts = correlate_brute_force(sel_a, sel_b, cfg)
    if b is None or b is a:
        shared = np.intersect1d(sel_a.timestamps_ps, sel_b.timestamps_ps)
        counts[cfg.window_ps // cfg.bin_width_ps] -= shared.size
    return counts


class TestProperties:
    @settings(max_examples=300, database=None)
    @given(data=st.data(), width=st.integers(1, 50),
           n_half=st.integers(1, 20),
           mode=st.sampled_from(["auto", "same object", "cross"]),
           pol=st.lists(st.integers(0, 2), min_size=1, max_size=7),
           pol_a=st.sampled_from([None, "sigma-", "pi", "sigma+"]),
           pol_b=st.sampled_from([None, "sigma-", "pi", "sigma+"]))
    def test_matches_brute_force(self, data, width, n_half, mode, pol,
                                 pol_a, pol_b):
        cfg = CorrelatorConfig(bin_width_ps=width, window_ps=width * n_half)
        ts_a = data.draw(_timestamps(cfg.window_ps))
        a = _stream(ts_a, pol)
        if mode == "cross":
            b = _stream(data.draw(_timestamps(cfg.window_ps, ts_a)), pol[::-1])
        else:
            b = None if mode == "auto" else a
        got = correlate(a, b, cfg)
        want = correlate_brute_force(a, b, cfg)
        assert np.array_equal(got.counts, want)
        assert got.total_pairs == int(want.sum())
        assert got.meta["auto"] is (mode != "cross")

        # any two filters: on one recording no click pairs with itself,
        # on two (sharing some stamps) every pair counts
        got = correlate(a, b, cfg, pol_a=pol_a, pol_b=pol_b)
        want = _self_pair_oracle(a, b, cfg, pol_a, pol_b)
        assert np.array_equal(got.counts, want)
        assert got.total_pairs == int(want.sum())
        assert got.meta["auto"] is (mode != "cross")


class TestMirrorEdges:
    """One recording whose delays sit on the window edge (d = 12 ps), on
    bin edges (d = k w) and one off them (k w +- 1): the one-sided auto
    bins each later partner at +d and -d, and -window lands in the
    lowest bin while +window leaves the histogram."""

    # isolated pairs at each delay, sigma- first and sigma- or sigma+
    # second, then a cluster of sigma- clicks at 0, 4, 12, 13 and a pi
    DELAYS = (1, 3, 4, 5, 7, 8, 9, 11, 12, 13, 24)

    @classmethod
    def recording(cls):
        ts, pol = [], []
        for k, d in enumerate(cls.DELAYS):
            ts += [100 * k, 100 * k + d]
            pol += [0, 0 if k % 2 else 2]
        end = 100 * len(cls.DELAYS)
        ts += [end, end + 4, end + 12, end + 13, end + 20]
        pol += [0, 0, 0, 0, 1]
        return ClickStream(ts, pol, np.zeros(len(ts)), duration_ps=end + 100)

    @pytest.mark.parametrize("width", [1, 4, 12])
    @pytest.mark.parametrize("pols", [(None, None), ("sigma-", "sigma-"),
                                      ("sigma-", "sigma+"),
                                      ("sigma+", "sigma-")])
    def test_matches_brute_force(self, width, pols):
        s = self.recording()
        cfg = CorrelatorConfig(bin_width_ps=width, window_ps=12)
        got = correlate(s, None, cfg, *pols)
        want = _self_pair_oracle(s, None, cfg, *pols)
        assert np.array_equal(got.counts, want)
        assert got.total_pairs == got.counts.sum() > 0
        if pols[0] == pols[1]:
            sel = s.select(pol=pols[0])
            assert np.array_equal(got.counts,
                                  correlate_brute_force(sel, None, cfg))

    @pytest.mark.parametrize("suffix", [".clk", ".csv"])
    @pytest.mark.parametrize("pols", [("sigma-", "sigma-"),
                                      ("sigma-", "sigma+")])
    def test_cli_filters_on_one_file(self, tmp_path, capsys, suffix, pols):
        s = self.recording()
        path = tmp_path / f"edges{suffix}"
        save_stream(path, s)
        for width in (1, 12):
            out = tmp_path / "hist.csv"
            assert main(["correlate", str(path), "--pol-a", pols[0],
                         "--pol-b", pols[1], "--bin", f"{width}ps",
                         "--window", "12ps", "-o", str(out)]) == 0
            pairs = re.search(r"pairs = (\d+),", capsys.readouterr().out)
            _, cols, meta = read_table_csv(out)
            want = _self_pair_oracle(s, None, CorrelatorConfig(width, 12),
                                     *pols)
            assert np.array_equal(cols["counts"], want)
            assert int(pairs.group(1)) == int(meta["total_pairs"]) \
                == want.sum() > 0


@contextlib.contextmanager
def _split(cpus):
    """correlate with _MIN_BLOCK = 1 and `cpus` usable CPUs, so a stream
    of a few clicks takes up to `cpus` blocks; yields the (start, stop,
    thread) of each block that ran."""
    spans, block_counts = [], correlator._block_counts

    def spy(ts_a, ts_b, start, stop, *rest):
        spans.append((start, stop, threading.get_ident()))
        return block_counts(ts_a, ts_b, start, stop, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(correlator, "_MIN_BLOCK", 1)
        mp.setattr(correlator.os, "sched_getaffinity",
                   lambda pid: set(range(cpus)), raising=False)
        mp.setattr(correlator, "_block_counts", spy)
        yield spans


def _check_split(a, b, cfg, cpus, pol_a=None, pol_b=None):
    """The split call equals the one-block call and the oracle; its
    blocks tile the clicks of a, the first on the calling thread, and no
    thread outlives it."""
    whole = correlate(a, b, cfg, pol_a, pol_b)
    threads = threading.active_count()
    with _split(cpus) as spans:
        got = correlate(a, b, cfg, pol_a, pol_b)
    assert threading.active_count() == threads
    n_a = len(a.select(pol=pol_a)) if pol_a else len(a)
    spans.sort()
    assert len(spans) == max(1, min(cpus, n_a))
    assert [s[0] for s in spans] + [n_a] == [0] + [s[1] for s in spans]
    assert spans[0][2] == threading.get_ident()
    assert np.array_equal(got.counts, whole.counts)
    assert np.array_equal(got.values, whole.values)
    assert got.total_pairs == whole.total_pairs == int(got.counts.sum())
    want = _self_pair_oracle(a, b, cfg, pol_a, pol_b)
    assert np.array_equal(got.counts, want)
    return spans


class TestBlocks:
    """At least 2 * _MIN_BLOCK clicks of a run as one contiguous block per
    usable CPU; small streams take the same split here."""

    CFG = CorrelatorConfig(bin_width_ps=1000, window_ps=20_000)

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_one_sided_auto(self, cpus):
        a = stream_from_gaps(np.random.default_rng(cpus), 500, 1000)
        _check_split(a, None, self.CFG, cpus)
        _check_split(a, a, self.CFG, cpus, "sigma-", "sigma-")

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    @pytest.mark.parametrize("pols", [("sigma-", "sigma+"), ("sigma-", None),
                                      (None, "pi")])
    def test_mixed_filters_remove_self_pairs_once(self, cpus, pols):
        a = stream_from_gaps(np.random.default_rng(cpus), 500, 1000)
        _check_split(a, None, self.CFG, cpus, *pols)

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_cross(self, cpus):
        rng = np.random.default_rng(cpus)
        a, b = (stream_from_gaps(rng, 400, 1000) for _ in range(2))
        _check_split(a, b, self.CFG, cpus)
        _check_split(a, b, self.CFG, cpus, "sigma-", "sigma+")

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_burst_across_a_block_boundary(self, cpus):
        # 40 clicks 1 ps apart, indices 30-69, around the boundaries at
        # 50 (two blocks) or 33 and 66 (three), a 20 ps window
        sparse = 10_000 * np.arange(1, 31, dtype=np.int64)
        ts = np.concatenate([sparse, 400_000 + np.arange(40),
                             500_000 + sparse])
        a = _stream(ts, [0, 2])
        cfg = CorrelatorConfig(bin_width_ps=1, window_ps=20)
        spans = _check_split(a, None, cfg, cpus)
        assert all(30 < start < 70 for start, _, _ in spans[1:])
        _check_split(a, None, cfg, cpus, "sigma-", "sigma+")
        _check_split(a, _stream(ts + 3, [2, 0]), cfg, cpus)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_fewer_clicks_than_cpus(self, n):
        ts = 5 * np.arange(n, dtype=np.int64)
        a = _stream(ts, [0])
        cfg = CorrelatorConfig(bin_width_ps=1, window_ps=20)
        _check_split(a, None, cfg, 4)
        _check_split(a, _stream(ts + 2, [0]), cfg, 4)

    @settings(max_examples=100, database=None)
    @given(data=st.data(), width=st.integers(1, 50),
           n_half=st.integers(1, 20), cpus=st.integers(2, 4),
           mode=st.sampled_from(["auto", "same object", "cross"]),
           pol=st.lists(st.integers(0, 2), min_size=1, max_size=7),
           pol_a=st.sampled_from([None, "sigma-", "pi", "sigma+"]),
           pol_b=st.sampled_from([None, "sigma-", "pi", "sigma+"]))
    def test_matches_one_block(self, data, width, n_half, cpus, mode, pol,
                               pol_a, pol_b):
        # the streams of TestProperties
        cfg = CorrelatorConfig(bin_width_ps=width, window_ps=width * n_half)
        ts_a = data.draw(_timestamps(cfg.window_ps))
        a = _stream(ts_a, pol)
        if mode == "cross":
            b = _stream(data.draw(_timestamps(cfg.window_ps, ts_a)), pol[::-1])
        else:
            b = None if mode == "auto" else a
        _check_split(a, b, cfg, cpus)
        _check_split(a, b, cfg, cpus, pol_a, pol_b)

    def test_an_error_in_a_helper_block_propagates(self):
        a = stream_from_gaps(np.random.default_rng(5), 500, 1000)
        caller, loop = threading.get_ident(), correlator._offset_loop

        def failing(*args):
            if threading.get_ident() != caller:
                raise RuntimeError("helper block failed")
            return loop(*args)

        threads = threading.active_count()
        with _split(3), pytest.MonkeyPatch.context() as mp:
            mp.setattr(correlator, "_offset_loop", failing)
            with pytest.raises(RuntimeError, match="helper block failed"):
                correlate(a, None, self.CFG)
        assert threading.active_count() == threads

    def test_declared_threshold(self, monkeypatch):
        # one block below 2 * _MIN_BLOCK clicks, then one per usable CPU
        block = correlator._MIN_BLOCK
        monkeypatch.setattr(correlator.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        assert [correlator._workers(n) for n in
                (0, block, 2 * block - 1, 2 * block, 3 * block, 9 * block)] \
            == [1, 1, 1, 2, 3, 3]
        monkeypatch.delattr(correlator.os, "sched_getaffinity")
        monkeypatch.setattr(correlator.os, "cpu_count", lambda: 2)
        assert correlator._workers(9 * block) == 2

    def test_replay_sized_stream(self, monkeypatch):
        # 2.5 * _MIN_BLOCK clicks of a at the declared threshold: two
        # blocks on two CPUs, the counts of one
        n = 5 * correlator._MIN_BLOCK // 2
        rng = np.random.default_rng(9)
        a, b = (stream_from_gaps(rng, n, 3000) for _ in range(2))
        cfg = CorrelatorConfig(bin_width_ps=4000, window_ps=400_000)
        spans, block_counts = [], correlator._block_counts

        def spy(*args):
            spans.append(args[2:4])
            return block_counts(*args)

        monkeypatch.setattr(correlator, "_block_counts", spy)
        for other, pols in ((None, (None, None)), (None, (None, "pi")),
                            (b, (None, None))):
            for cpus in (1, 2):
                monkeypatch.setattr(correlator.os, "sched_getaffinity",
                                    lambda pid: set(range(cpus)),
                                    raising=False)
                spans.clear()
                got = correlate(a, other, cfg, *pols)
                assert sorted(spans) == ([(0, n)] if cpus == 1 else
                                         [(0, n // 2), (n // 2, n)])
                if cpus == 1:
                    whole = got
            assert np.array_equal(got.counts, whole.counts)
            assert got.total_pairs == whole.total_pairs > 0


class TestAnalyticCases:
    def test_known_shift_lands_in_correct_bin(self):
        base = np.arange(1, 51, dtype=np.int64) * 100_000
        mk = lambda ts: ClickStream(ts, np.zeros(ts.size), np.zeros(ts.size),
                                    duration_ps=int(ts[-1]) + 1000)
        a, b = mk(base), mk(base + 37)
        cfg = CorrelatorConfig(bin_width_ps=10, window_ps=50)
        fwd = correlate(a, b, cfg)
        assert fwd.counts.sum() == 50
        assert fwd.counts[(37 + 50) // 10] == 50
        rev = correlate(b, a, cfg)
        assert rev.counts[(-37 + 50) // 10] == 50

    def test_edge_delays_half_open_window(self):
        # window [-W, +W): tau = -W counted in the lowest bin, +W dropped,
        # and a delay on an interior edge lands in the upper bin
        mk = lambda ts: ClickStream(np.asarray(ts, dtype=np.int64),
                                    np.zeros(len(ts)), np.zeros(len(ts)),
                                    duration_ps=10_000)
        a = mk([5000])
        b = mk([4000, 4500, 5000, 5500, 6000])
        cfg = CorrelatorConfig(bin_width_ps=500, window_ps=1000)
        got = correlate(a, b, cfg)
        assert got.counts.tolist() == [1, 1, 1, 1]
        assert got.total_pairs == 4
        brute = correlate_brute_force(a, b, cfg)
        assert brute.tolist() == [1, 1, 1, 1]

    def test_cross_reversal_symmetry(self):
        # a on even, b on odd timestamps: no delay ever sits on an edge,
        # so swapping the streams exactly reverses the histogram
        rng = np.random.default_rng(5)
        ga = np.maximum(rng.exponential(3000, 800).astype(np.int64), 1)
        gb = np.maximum(rng.exponential(3000, 800).astype(np.int64), 1)
        ta = 2 * np.cumsum(ga)
        tb = 2 * np.cumsum(gb) + 1
        dur = int(max(ta[-1], tb[-1])) + 2
        a = ClickStream(ta, np.zeros(800), np.zeros(800), duration_ps=dur)
        b = ClickStream(tb, np.zeros(800), np.zeros(800), duration_ps=dur)
        cfg = CorrelatorConfig(bin_width_ps=1000, window_ps=20_000)
        ab = correlate(a, b, cfg)
        ba = correlate(b, a, cfg)
        assert np.array_equal(ab.counts, ba.counts[::-1])


class TestNormalization:
    def test_uncorrelated_streams_give_unit_g2(self):
        rng = np.random.default_rng(11)
        a = stream_from_gaps(rng, 20_000, 5_000_000, channel=1)
        b = stream_from_gaps(rng, 20_000, 5_000_000, channel=2)
        g = correlate(a, b)
        assert not g.flagged
        assert g.values.mean() == pytest.approx(1.0, abs=0.03)
        # per-bin counts are Poisson: variance tracks the mean
        assert g.counts.var() == pytest.approx(g.counts.mean(), rel=0.15)

    def test_autocorrelation_removes_self_pairs(self):
        rng = np.random.default_rng(12)
        a = stream_from_gaps(rng, 20_000, 5_000_000)
        g = correlate(a)
        center = g.config.window_ps // g.config.bin_width_ps
        # with self pairs the center bin would read ~5000, not ~1
        assert g.values[center] < 10.0
        assert g.values.mean() == pytest.approx(1.0, abs=0.03)
        assert g.meta["auto"] is True

    def test_values_follow_documented_norm(self):
        rng = np.random.default_rng(13)
        a = stream_from_gaps(rng, 3000, 100_000, channel=1)
        b = stream_from_gaps(rng, 3000, 100_000, channel=2)
        cfg = CorrelatorConfig(bin_width_ps=2000, window_ps=100_000)
        g = correlate(a, b, cfg)
        overlap_ps = min(a.duration_ps, b.duration_ps)
        assert g.overlap_s == overlap_ps / 1e12
        n_a = int(np.sum(a.timestamps_ps < overlap_ps))
        assert g.rate_a == pytest.approx(n_a / g.overlap_s)
        norm = g.rate_a * g.rate_b * g.overlap_s * cfg.bin_width_ps / 1e12
        assert np.allclose(g.values, g.counts / norm)

    def test_empty_stream_is_flagged(self):
        rng = np.random.default_rng(14)
        a = stream_from_gaps(rng, 100, 1000)
        empty = ClickStream(np.array([], dtype=np.int64), np.array([]),
                            np.array([]), duration_ps=a.duration_ps)
        g = correlate(a, empty, CorrelatorConfig(100, 1000))
        assert g.flagged
        assert np.all(g.values == 0.0)
        assert g.counts.sum() == 0


class TestConditionedEstimate:
    def test_filters_then_correlates(self):
        rng = np.random.default_rng(21)
        s1 = stream_from_gaps(rng, 4000, 10_000, channel=1)
        s2 = stream_from_gaps(rng, 4000, 10_000, channel=2)
        cfg = CorrelatorConfig(bin_width_ps=500, window_ps=10_000)
        got = correlate(s1, s2, cfg, pol_a="sigma-", pol_b="sigma+")
        want = correlate(s1.select(pol="sigma-"), s2.select(pol="sigma+"),
                         cfg)
        assert np.array_equal(got.counts, want.counts)

    def test_same_stream_same_filter_autocorrelates(self):
        rng = np.random.default_rng(22)
        s = stream_from_gaps(rng, 4000, 10_000)
        cfg = CorrelatorConfig(bin_width_ps=500, window_ps=10_000)
        got = correlate(s, s, cfg, pol_a="pi", pol_b="pi")
        want = correlate(s.select(pol="pi"), None, cfg)
        assert got.meta["auto"] is True
        assert np.array_equal(got.counts, want.counts)


def _digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# the benchmark's replay geometries: (cross, bin, window) in ps; auto_4ns
# is also the geometry of its simulate-and-correlate loop
REPLAY = {"auto_4ns": (False, 4000, 400_000),
          "cross_1ns": (True, 1000, 2_000_000),
          "auto_10ns": (False, 10_000, 50_000_000),
          "cross_10ns": (True, 10_000, 50_000_000)}


class TestFrozenClickRoute:
    """simulate_emissions, detect, correlate and `ionpair correlate -o`,
    byte for byte as frozen from the offset loop that compressed its
    active set per pass and the detector that selected by boolean mask:
    20 ms of the weak preset, seed 3, arms at efficiency 0.5, crosstalk
    0.05 and 200 dark counts/s."""

    ARGS = ["--params", "weak", "--duration", "20ms", "--seed", "3",
            "--detect", "0.5", "--crosstalk", "0.05", "--dark-rate", "200"]
    EMISSIONS = "8328fe340dc609d33d6feb2fe9bf13d69b0f9b22fd42f8218fe41de78751bbbb"
    ARMS = ("0e8a1aa50980429af0b0c71ff0539879987b6920f1a1c63a64c1d9ab2d88d548",
            "208bf0b9dde44d0af3de34a6da25d05b224c0e031685a1e7e3e0989dc6d7e582")
    COUNTS = {
        "auto_4ns": (10024, "3e6aa500a2d8cd0babe57c22e15ae6a0"
                            "d987661cc1cd70ee56b942c87c6a3271"),
        "cross_1ns": (17769, "37402634c0ee8891c05c662963c70100"
                             "f5f144f2e356220b9fa8202c2a9f638b"),
        "auto_10ns": (206806, "db1c0c951cc07885a19b82ba899046c0"
                              "1824002e73762bb10ce746782c4e9491"),
        "cross_10ns": (195354, "f0a93df62bfb3bc226db17bf092e5142"
                               "96adc8b85e45344c1b1ccad428be2920"),
    }
    CROSS_10NS_CSV = ("77e74febf82413fc4297c8d582d5931e"
                      "b263a1328cf90ec3213bc2e46f0e7eb5")

    @pytest.fixture(scope="class")
    def route(self):
        em = simulate_emissions(get_preset("weak"), 20e-3, seed=3)
        arm = lambda pol: DetectorChannel(0.5, pol, crosstalk=0.05,
                                          dark_rate=200.0)
        return em, detect(em, DetectionConfig(arm("sigma-"), arm("sigma+")),
                          seed=3)

    def test_emissions(self, route):
        em, _ = route
        assert len(em) == 38692
        assert _digest(em.timestamps_ps, em.pol, em.wavelength) \
            == self.EMISSIONS

    def test_detector_arms(self, route):
        _, arms = route
        assert [len(arm) for arm in arms] == [6038, 5851]
        assert tuple(_digest(arm.timestamps_ps, arm.pol, arm.wavelength)
                     for arm in arms) == self.ARMS

    @pytest.mark.parametrize("label", REPLAY)
    def test_counts(self, route, label):
        _, (d1, d2) = route
        cross, width, window = REPLAY[label]
        got = correlate(d1, d2 if cross else None,
                        CorrelatorConfig(width, window))
        assert (got.total_pairs, _digest(got.counts)) == self.COUNTS[label]

    def test_cli_output_bytes(self, tmp_path, capsys):
        run = tmp_path / "run.bin"
        assert main(["simulate", *self.ARGS, "-o", str(run)]) == 0
        out = tmp_path / "hist.csv"
        assert main(["correlate", str(tmp_path / "run-1.bin"),
                     str(tmp_path / "run-2.bin"), "--bin", "10ns",
                     "--window", "50us", "-o", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() \
            == self.CROSS_10NS_CSV


class TestFrozenEmissions:
    """simulate_emissions byte for byte as frozen from the walk that drew
    one event per Python loop step, on the paths TestFrozenClickRoute does
    not take: the spectrum preset (its levels flag 544-1241 table
    intervals each, so draws take exact P amplitudes), a start in D-3/2,
    a max_events cap, and 600 ms of the weak preset (1.18 M events, many
    walk chunks).  Seed 3 throughout."""

    # label -> ((preset, duration s, start level, max_events),
    #           events, duration_ps, sha256 of timestamps, pol, wavelength)
    CASES = {
        "spectrum": (("spectrum", 20e-3, atom.S_MINUS, None),
                     55646, 20_000_000_000,
                     "95ce804e7578457802810a4edf7a7921"
                     "b30372c97777894ead083949852d885f"),
        "start_d_m32": (("weak", 20e-3, atom.D_M32, None),
                        38694, 20_000_000_000,
                        "a831d2e347932e479d4b8c81e1bae297"
                        "3830a68b2a003355dd75d626354162bf"),
        "max_events": (("weak", 1.0, atom.S_MINUS, 5000),
                       5000, 2_720_170_660,
                       "9f0beff4830858cafcf37e53d3145268"
                       "ea2b1bf3a1130c51c0a8244af196627d"),
        "weak_600ms": (("weak", 0.6, atom.S_MINUS, None),
                       1_179_209, 600_000_000_000,
                       "52518571228b99f54e6f861aefe96cd4"
                       "56684866b92fb4153059682cd580209b"),
    }

    @pytest.mark.parametrize("label", CASES)
    def test_stream(self, label):
        (preset, duration, start, cap), n, duration_ps, digest = \
            self.CASES[label]
        em = simulate_emissions(get_preset(preset), duration, seed=3,
                                start_level=start, max_events=cap)
        assert (len(em), em.duration_ps) == (n, duration_ps)
        assert _digest(em.timestamps_ps, em.pol, em.wavelength) == digest
