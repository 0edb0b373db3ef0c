"""Fast coincidence histograms between timestamp streams.

correlate() bins all pairwise delays tau = t_b - t_a falling in
[-window, +window).  Two searchsorted calls give each event of stream a
its slice [lo, hi) of stream b inside the window; pass j then bins
b[lo + j] - a for every event whose slice is longer than j (the offset
loop of Laurence, Fore & Huser, Opt. Lett. 31, 829, 2006).  Work is
O((N_a + N_b) log N_b + pairs), scratch memory O(N_a), one pass per
offset up to the longest slice.  Counts are bin-exact, integer
arithmetic throughout.

Normalization divides each bin by rate_a * rate_b * T * bin_width, the
expectation for uncorrelated streams, turning the histogram into a g2
estimate.

Self pairs: when both sides come from one recording (b is None or a
itself), no click pairs with itself, whatever the polarization
filters; the clicks that pass both filters are taken out of the
zero-delay bin and the pair total.  With two recordings every pair
counts.
"""

from __future__ import annotations

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


def correlate(a: ClickStream, b: ClickStream | None = None,
              config: CorrelatorConfig | None = None,
              pol_a: str | None = None,
              pol_b: str | None = None) -> Correlogram:
    """Histogram of delays t_b - t_a; b = None autocorrelates a.

    pol_a and pol_b keep only the clicks of that polarization on each
    side (None keeps all), so positive delays put a pol_b click after a
    pol_a click: the conditioned g2 that analyzers measure in hardware.

    Costs O((N_a + N_b) log N_b + pairs) work and O(N_a) scratch memory,
    in one pass per offset up to the longest slice of b in the window.
    """
    if config is None:
        config = CorrelatorConfig()
    same = b is None or b is a
    if same:
        b = a
    if pol_a:
        a = a.select(pol=pol_a)
    if pol_b:
        b = b.select(pol=pol_b)
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
    # slice [lo, hi) of b with tau = b - a in [-window, +window)
    lo = np.searchsorted(ts_b, ts_a - window, side="left")
    hi = np.searchsorted(ts_b, ts_a + window, side="left")
    total = int((hi - lo).sum())
    idx = np.flatnonzero(hi > lo)
    j = 0
    while idx.size:
        tau = ts_b[lo[idx] + j] - ts_a[idx]
        counts += np.bincount((tau + window) // width, minlength=n_bins)
        j += 1
        idx = idx[lo[idx] + j < hi[idx]]

    if same:
        # remove the zero-delay self pairs of the clicks on both sides
        n_self = len(a.select(pol=pol_b)) if pol_b else len(a)
        counts[window // width] -= n_self
        total -= n_self

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
