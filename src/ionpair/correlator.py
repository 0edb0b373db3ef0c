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

One recording with one filter on both sides is one-sided: the
timestamps are strictly increasing, so event i takes only its later
partners, the slice (i, hi) with delays d in (0, window], found by one
searchsorted.  Each pass gathers once and bins two keys per pair,
(d + window) // w for +d and (window - d) // w for -d, in one bincount
whose extra last bin holds the d = window keys: +window lies outside
the histogram, -window in its lowest bin.  So such a call costs one
search and one gather per unordered pair, through the same sort and
offset loop.

At least 2 * _MIN_BLOCK clicks of a are split into contiguous blocks,
one per usable CPU, each with its own searches, sort and offset loop
over the whole of b.  The calling thread runs the first block and a
thread pool the rest (numpy releases the GIL in these calls); the int64
counts of the blocks are summed, so they do not depend on the split.
Scratch stays O(N_a), plus one malloc arena per helper thread.

Normalization divides each bin by rate_a * rate_b * T * bin_width, the
expectation for uncorrelated streams, turning the histogram into a g2
estimate.

Self pairs: when both sides come from one recording (b is None or a
itself), no click pairs with itself, whatever the polarization
filters.  The one-sided pass never forms a self pair; with different
filters the clicks that pass both are taken out of the zero-delay bin
and the pair total.  With two recordings every pair counts.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .trajectory import ClickStream

# fewest clicks of a per block, so below 2 * _MIN_BLOCK clicks one block
# on the calling thread: a helper thread takes about 0.13 ms to start and
# join, a block of 2**14 replay clicks about 1.5 ms at 4 ns/+-400 ns
_MIN_BLOCK = 1 << 14


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
    longest slice of b in the window; O(N_a) scratch memory.  One
    recording with one filter on both sides (b None or a, pol_a ==
    pol_b) costs one search and one gather per unordered pair.  At
    least 2 * _MIN_BLOCK clicks of a are split into contiguous blocks,
    one per usable CPU, each with its own searches, sort and offset
    loop; their counts are summed.  Scratch is then O(N_a) plus one
    malloc arena per helper thread.
    """
    if config is None:
        config = CorrelatorConfig()
    same = b is None or b is a
    one_sided = same and pol_a == pol_b
    if same:
        b = a
    if pol_a:
        a = a.select(pol=pol_a)
    if one_sided:
        b = a
    elif pol_b:
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

    # contiguous blocks of a, one per usable CPU; the first runs here
    edges = np.linspace(0, ts_a.size, _workers(ts_a.size) + 1).astype(int)
    blocks = [(ts_a, ts_b, start, stop, config, one_sided)
              for start, stop in zip(edges[:-1], edges[1:])]
    if len(blocks) == 1:
        counts = _block_counts(*blocks[0])
    else:
        with ThreadPoolExecutor(len(blocks) - 1) as pool:
            rest = [pool.submit(_block_counts, *args) for args in blocks[1:]]
            counts = _block_counts(*blocks[0])
            for block in rest:
                counts += block.result()
    if same and not one_sided:
        # remove the zero-delay self pairs of the clicks on both sides
        n_self = len(a.select(pol=pol_b)) if pol_b else len(a)
        counts[window // width] -= n_self
    total = int(counts.sum())

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


def _workers(n_a: int) -> int:
    """Blocks for N_a clicks of a: one per usable CPU, each of at least
    _MIN_BLOCK clicks, and one below 2 * _MIN_BLOCK."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_a // _MIN_BLOCK))


def _block_counts(ts_a, ts_b, start, stop, config, one_sided) -> np.ndarray:
    """Counts of the pairs of clicks start..stop - 1 of a with all of b."""
    window = config.window_ps
    t = ts_a[start:stop]
    if one_sided:
        # later partners only: event i pairs with (i, hi), delays d in
        # (0, window], each binned at +d and at -d
        lo = np.arange(start + 1, stop + 1)
        n = np.searchsorted(ts_b, t + window, side="right") - lo
    else:
        # slice [lo, hi) of b with tau = b - a in [-window, +window)
        lo = np.searchsorted(ts_b, t - window, side="left")
        n = np.searchsorted(ts_b, t + window, side="left") - lo
    return _offset_loop(ts_b, lo, n, t - window, config, one_sided)


def _offset_loop(ts_b, lo, n, base, config, mirror) -> np.ndarray:
    """Counts per bin of the delays ts_b[lo[i] + j] - a[i], j < n[i],
    with base = a - window, in one pass per offset j; with `mirror`,
    each delay d is also binned at -d, and the pass's extra last bin
    drops the d = +window keys."""
    width, n_bins = config.bin_width_ps, config.n_bins
    longest = int(n.max()) if n.size else 0
    # events longest slice first: the ones still paired at offset j are
    # the first active[j] = #(n >= j).  A stable sort of 16-bit keys is a
    # radix sort; wider keys only for slices of 2**15 b-events or more.
    key = n.astype(np.int16 if longest < 2**15 else np.int64)
    order = np.argsort(key, kind="stable")[::-1]
    active = np.cumsum(np.bincount(n)[::-1])[::-1].tolist()
    lo, base = lo[order], base[order]
    # the bin keys of a pass, tau + window then -tau + window
    scratch = np.empty((1 + mirror) * base.size, dtype=np.int64)
    counts = np.zeros(n_bins, dtype=np.int64)
    for j in range(1, longest + 1):
        m = active[j]
        keys = scratch[:(1 + mirror) * m]
        # the indices are in range by construction; mode "clip" skips the
        # bounds-checked copy that take makes into `out`
        np.take(ts_b[j - 1:], lo[:m], out=keys[:m], mode="clip")
        keys[:m] -= base[:m]
        if mirror:
            np.subtract(2 * config.window_ps, keys[:m], out=keys[m:])
        keys //= width
        counts += np.bincount(keys, minlength=n_bins + mirror)[:n_bins]
    return counts


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
