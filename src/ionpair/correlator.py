"""Fast coincidence histograms between timestamp streams.

correlate() bins all pairwise delays tau = t_b - t_a falling in
[-window, +window).  Two searchsorted calls give each event of stream a
its slice [lo, lo + n) of stream b inside the window; pass j then bins
b[lo + j - 1] - a for every event with n >= j (the offset loop of
Laurence, Fore & Huser, Opt. Lett. 31, 829, 2006).  The a-events are
sorted once by n, longest slice first, so the events of pass j are a
prefix of that order and each pass is one gather from b into one
scratch buffer, with no compress.  Work is O((N_a + N_b) log N_b) for
the searches, one stable sort of the N_a slice lengths on a 16-bit key
(a radix sort; int64 once a slice reaches 2**15 events), one gather per
pair, and one pass per offset up to the longest slice; scratch memory
is O(N_a).  Counts are bin-exact, integer arithmetic throughout.

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

    Costs two searches of b, one narrow-key sort of the N_a slice
    lengths, then one gather per pair, in one pass per offset up to the
    longest slice of b in the window; O(N_a) scratch memory.
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
    # slice [lo, hi) of b with tau = b - a in [-window, +window), n = hi - lo
    lo = np.searchsorted(ts_b, ts_a - window, side="left")
    n = np.searchsorted(ts_b, ts_a + window, side="left") - lo
    total = int(n.sum())
    longest = int(n.max()) if n.size else 0
    # a-events longest slice first: the ones still paired at offset j are
    # the first active[j] = #(n >= j).  A stable sort of 16-bit keys is a
    # radix sort; wider keys only for slices of 2**15 b-events or more.
    key = n.astype(np.int16 if longest < 2**15 else np.int64)
    order = np.argsort(key, kind="stable")[::-1]
    active = np.cumsum(np.bincount(n)[::-1])[::-1].tolist()
    lo_s = lo[order]
    base = ts_a[order] - window
    scratch = np.empty_like(base)    # tau + window, then the bin, per pass
    for j in range(1, longest + 1):
        m = active[j]
        tau = scratch[:m]
        # the indices are in range by construction; mode "clip" skips the
        # bounds-checked copy that take makes into `out`
        np.take(ts_b[j - 1:], lo_s[:m], out=tau, mode="clip")
        tau -= base[:m]
        tau //= width
        counts += np.bincount(tau, minlength=n_bins)

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
