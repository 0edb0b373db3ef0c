"""Fast coincidence histograms between timestamp streams.

correlate() bins all pairwise delays tau = t_b - t_a falling in
[-window, +window) using searchsorted to find, for every event of stream
a, the compact slice of stream b inside the window: O((N_a + N_b) log N_b
+ pairs).  Histogram counts are bin-exact, integer arithmetic throughout.

Normalization divides each bin by rate_a * rate_b * T * bin_width, the
expectation for uncorrelated streams, turning the histogram into a g2
estimate.  For autocorrelation the N zero-delay self-pairs are removed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .trajectory import ClickStream


@dataclass(frozen=True)
class CorrelatorConfig:
    """Histogram geometry: window and bin width in integer picoseconds.

    The window must be a positive multiple of the bin width; bins then
    tile [-window, +window) exactly, and a delay on a bin edge always
    lands in the upper bin.
    """

    bin_width_ps: int = 1000
    window_ps: int = 2_000_000

    def __post_init__(self):
        if self.bin_width_ps <= 0 or self.window_ps <= 0:
            raise ValueError("bin width and window must be positive")
        if self.window_ps % self.bin_width_ps:
            raise ValueError("window must be a multiple of the bin width")

    @property
    def n_bins(self) -> int:
        return 2 * self.window_ps // self.bin_width_ps

    def bin_edges_ps(self) -> np.ndarray:
        return np.arange(-self.window_ps, self.window_ps + 1,
                         self.bin_width_ps, dtype=np.int64)

    def bin_centers_ps(self) -> np.ndarray:
        edges = self.bin_edges_ps()
        return (edges[:-1] + edges[1:]) // 2


@dataclass
class Correlogram:
    """Counts and normalized values per delay bin."""

    config: CorrelatorConfig
    counts: np.ndarray           # int64 per bin
    values: np.ndarray           # counts / (rate_a rate_b T bin)
    total_pairs: int
    rate_a: float                # counts/s inside the overlap window
    rate_b: float
    overlap_s: float
    flagged: bool = False        # empty input, normalization impossible
    meta: dict = field(default_factory=dict)


def _window_counts(a: np.ndarray, b: np.ndarray, window: int):
    # slice of b with tau = b - a in [-window, +window)
    lo = np.searchsorted(b, a - window, side="left")
    hi = np.searchsorted(b, a + window, side="left")
    return lo, hi


def correlate(a: ClickStream, b: ClickStream | None = None,
              config: CorrelatorConfig | None = None,
              max_chunk_pairs: int = 4_000_000) -> Correlogram:
    """Histogram of delays t_b - t_a; b = None autocorrelates a.

    Pairs are accumulated in chunks of a-events so the scratch arrays
    stay below max_chunk_pairs entries regardless of stream size.
    """
    if config is None:
        config = CorrelatorConfig()
    same = b is None or b is a
    if same:
        b = a
    ts_a = a.timestamps_ps
    ts_b = b.timestamps_ps
    window = config.window_ps
    width = config.bin_width_ps
    n_bins = config.n_bins

    overlap_ps = min(a.duration_ps, b.duration_ps)
    overlap_s = overlap_ps / 1e12
    n_a_overlap = int(np.searchsorted(ts_a, overlap_ps, side="left"))
    n_b_overlap = int(np.searchsorted(ts_b, overlap_ps, side="left"))
    rate_a = n_a_overlap / overlap_s
    rate_b = n_b_overlap / overlap_s

    counts = np.zeros(n_bins, dtype=np.int64)
    lo, hi = _window_counts(ts_a, ts_b, window)
    per_event = hi - lo
    total = int(per_event.sum())
    if total:
        # chunk boundaries keeping sum(per_event) per chunk bounded
        cum = np.cumsum(per_event)
        starts = [0]
        while True:
            budget = cum[starts[-1] - 1] if starts[-1] else 0
            nxt = int(np.searchsorted(cum, budget + max_chunk_pairs,
                                      side="left"))
            if nxt >= ts_a.size:
                break
            starts.append(max(nxt, starts[-1] + 1))
        starts.append(ts_a.size)
        for s, e in zip(starts[:-1], starts[1:]):
            cnt = per_event[s:e]
            m = int(cnt.sum())
            if m == 0:
                continue
            # ragged expansion: for each a-event, its slice of b
            idx_b = np.repeat(lo[s:e], cnt) + _ragged_arange(cnt)
            tau = ts_b[idx_b] - np.repeat(ts_a[s:e], cnt)
            bins = (tau + window) // width
            counts += np.bincount(bins, minlength=n_bins).astype(np.int64)

    if same:
        # remove the N zero-delay self pairs
        counts[window // width] -= ts_a.size
        total -= ts_a.size

    flagged = rate_a <= 0.0 or rate_b <= 0.0
    if flagged:
        values = np.zeros(n_bins)
    else:
        norm = rate_a * rate_b * overlap_s * (width / 1e12)
        values = counts / norm
    return Correlogram(
        config=config, counts=counts, values=values, total_pairs=total,
        rate_a=rate_a, rate_b=rate_b, overlap_s=overlap_s, flagged=flagged,
        meta={"channel_a": a.channel, "channel_b": b.channel,
              "auto": same})


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """[0..c0), [0..c1), ... concatenated; zero-count segments vanish."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def correlate_brute_force(a: ClickStream, b: ClickStream | None = None,
                          config: CorrelatorConfig | None = None) -> np.ndarray:
    """O(N^2) oracle: counts per bin by explicit double loop semantics.

    Kept deliberately independent of correlate(): full outer differences,
    no searchsorted, no chunking.
    """
    if config is None:
        config = CorrelatorConfig()
    same = b is None or b is a
    if same:
        b = a
    window, width = config.window_ps, config.bin_width_ps
    counts = np.zeros(config.n_bins, dtype=np.int64)
    ts_a = a.timestamps_ps
    ts_b = b.timestamps_ps
    for i in range(ts_a.size):
        tau = ts_b.astype(np.int64) - int(ts_a[i])
        tau = tau[(tau >= -window) & (tau < window)]
        if same:
            tau = tau[tau != 0]
        np.add.at(counts, (tau + window) // width, 1)
    return counts


def conditioned_g2_estimate(stream_1: ClickStream, stream_2: ClickStream,
                            config: CorrelatorConfig | None = None,
                            pol_1: str | None = None,
                            pol_2: str | None = None) -> Correlogram:
    """Cross-correlogram between two polarization-filtered streams.

    Positive delays: a pol_2 photon at tau after a pol_1 photon.  With
    pol filters applied on the raw streams this estimates the
    conditioned g2 measured in hardware by analyzers.  Passing the same
    stream twice with the same filter is treated as autocorrelation
    (self-pairs removed).
    """
    if stream_1 is stream_2 and pol_1 == pol_2:
        s = stream_1.select(pol=pol_1) if pol_1 else stream_1
        return correlate(s, None, config)
    s1 = stream_1.select(pol=pol_1) if pol_1 else stream_1
    s2 = stream_2.select(pol=pol_2) if pol_2 else stream_2
    return correlate(s1, s2, config)
