"""Quantum-jump photon streams and a click-level detector model.

simulate_emissions draws an exact Monte Carlo wave-function record of
every emitted photon.  Between jumps the state evolves under the
non-Hermitian H_eff = H - (i/2)(gamma_sp + gamma_dp) P_P, whose norm
decay gives the waiting-time distribution; instead of stepping with a
finite dt, waiting times are sampled by inverting the survival
probability S(t) = ||exp(-i H_eff t) |s>||^2, tabulated per level from
the eigendecomposition of H_eff (see _JumpSampler).  The jump channel
follows from the share q(t) of the P population in P-1/2, tabulated on
the same grid (exact amplitudes where the grid cannot resolve q): given
the emitting P sublevel, the channel law is fixed.  Jumps always land in
one of the six lower levels, so waiting times and jump channels depend
only on the current source level; they are drawn in per-level batches
and consumed in order.  The walk over that chain runs in C and records
only the channel of each jump; each level's waits are then gathered in
draw order and one cumulative sum turns them into emission times.

The detector model splits the emitted stream over two polarization-
filtered channels with finite efficiency, polarizer crosstalk and dark
counts, mirroring a two-arm photomultiplier setup.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import atom
from .params import ExperimentParams, NumericalError, _check_fields, _quantity

PS_PER_S = 1_000_000_000_000

# Channel id conventions for ClickStream.
EMISSION_CHANNEL = 0
DETECTOR_1 = 1
DETECTOR_2 = 2

# jump-walk steps per chunk of simulate_emissions: chunks double from 16
# up to this size, so a short run walks few steps past its end
_WALK_CHUNK = 1 << 16


@dataclass
class ClickStream:
    """Sorted integer-picosecond photon events on one channel."""

    timestamps_ps: np.ndarray     # int64, strictly increasing
    pol: np.ndarray               # uint8: 0 sigma-, 1 pi, 2 sigma+
    wavelength: np.ndarray        # uint8: 0 -> 397 nm, 1 -> 866 nm
    duration_ps: int
    channel: int = EMISSION_CHANNEL
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        ts = self.timestamps_ps = np.asarray(self.timestamps_ps,
                                             dtype=np.int64)
        self.pol = np.asarray(self.pol, dtype=np.uint8)
        self.wavelength = np.asarray(self.wavelength, dtype=np.uint8)
        if any(a.ndim != 1 for a in (ts, self.pol, self.wavelength)):
            raise ValueError("timestamps, pol and wavelength must be 1-D")
        n = ts.size
        if self.pol.size != n or self.wavelength.size != n:
            raise ValueError("timestamps, pol and wavelength must align")
        if n and self.pol.max() > atom.POL_SIGMA_PLUS:
            raise ValueError(f"polarization tag {self.pol.max()} is not "
                             "0, 1 or 2")
        if n and self.wavelength.max() > atom.WL_866:
            raise ValueError(f"wavelength tag {self.wavelength.max()} is "
                             "not 0 or 1")
        if n and ts[0] < 0:
            raise ValueError("timestamps must be non-negative")
        if n and np.any(ts[1:] <= ts[:-1]):
            raise ValueError("timestamps must be strictly increasing")
        self.duration_ps = int(self.duration_ps)
        if self.duration_ps <= 0:
            raise ValueError("duration must be positive")
        if n and ts[-1] >= self.duration_ps:
            raise ValueError("events beyond the stream duration")

    def __len__(self) -> int:
        return int(self.timestamps_ps.size)

    @property
    def duration_s(self) -> float:
        return self.duration_ps / PS_PER_S

    def rate(self) -> float:
        """Mean event rate in counts/s."""
        return len(self) / self.duration_s

    def select(self, pol: str | None = None,
               wavelength: str | None = None) -> "ClickStream":
        """Sub-stream with only the given polarization / wavelength."""
        mask = np.ones(len(self), dtype=bool)
        if pol is not None:
            if pol not in atom.POL_TAGS:
                raise ValueError(f"unknown polarization {pol!r}")
            mask &= self.pol == atom.POL_TAGS[pol]
        if wavelength is not None:
            if wavelength not in atom.WL_TAGS:
                raise ValueError(f"unknown wavelength {wavelength!r}")
            mask &= self.wavelength == atom.WL_TAGS[wavelength]
        keep = np.flatnonzero(mask)   # one index pass serves every array
        return ClickStream(
            timestamps_ps=self.timestamps_ps.take(keep),
            pol=self.pol.take(keep), wavelength=self.wavelength.take(keep),
            duration_ps=self.duration_ps, channel=self.channel,
            meta=dict(self.meta, selection=f"pol={pol},wavelength={wavelength}"))


def _bump(ts: np.ndarray, limit: int) -> np.ndarray:
    """Resolve duplicate sorted integer timestamps inside [0, limit).

    Equivalent to out[i] = max(out[i-1] + 1, ts[i]) followed by
    out[i] = min(out[i], out[i+1] - 1) with out[-1] <= limit - 1, but
    vectorized: subtracting the index turns "strictly increasing" into
    "non-decreasing", which running-max enforces, and the cap limit - n
    on that form pulls a tail pushed to or past `limit` back below it.
    """
    n = ts.size
    if n > limit:
        raise ValueError(f"{n} events do not fit into the {limit} distinct "
                         "picosecond timestamps of the stream")
    idx = np.arange(n, dtype=np.int64)
    out = ts - idx      # the one new array; each later step works in place
    np.maximum.accumulate(out, out=out)
    np.minimum(out, limit - n, out=out)
    out += idx
    return out


class _Table(NamedTuple):
    """One source level's lookup table on a shared time grid."""

    t: np.ndarray              # 0, then TABLE_SIZE log-spaced times
    neg_log_s: np.ndarray      # -log S(t), non-decreasing
    q: np.ndarray              # share of the P population in P-1/2
    exact: np.ndarray | None   # intervals where q is not linear, or None


class _JumpSampler:
    """Eigendecomposition of H_eff plus per-level batch sampling.

    Waiting times invert the survival curve S(t) = ||exp(-i H_eff t)|s>||^2
    through a per-level lookup table: S is tabulated once on a log-spaced
    grid dense enough (about 1% spacing in t) that log-linear
    interpolation between nodes distorts the distribution by well under
    any statistical resolution, and the pure-exponential tail follows the
    same formula by extrapolation.

    The jump channel at wait t has weight rate_c |psi_upper(t)|^2.  Both P
    sublevels decay at gamma_sp + gamma_dp and split that rate over their
    channels in fixed ratios, so the channel law is q(t) times P-1/2's law
    plus (1 - q(t)) times P+1/2's, with q = |psi_P-|^2 / (|psi_P-|^2 +
    |psi_P+|^2) (the delay-function method of Cohen-Tannoudji & Dalibard,
    Europhys. Lett. 1, 441, 1986).  q is tabulated on the survival grid and
    interpolated with the same fraction as the wait.  Where q oscillates
    faster than the grid resolves, which happens on slow, near-dark levels
    with pi drive components, the table build flags the interval: its
    linear interpolation misses q by more than Q_TOL at a quarter point.
    Draws landing in a flagged interval get the exact q from the two P
    amplitudes.  A drive whose H_eff has no entry between the parity
    classes of atom._PARITY above atom._PARITY_TOL of its largest entry
    is pi-free: from a source of class c only the P sublevel of class c
    is reachable, so q is 0 or 1, and its tables skip the probe and
    flag nothing.
    """

    BATCH = 8192
    MAX_DOUBLINGS = 400
    TABLE_SIZE = 4096
    TABLE_FLOOR = 1e-16
    T_MIN = 1e-13
    Q_TOL = 1e-5
    # a mode decaying slower than this fraction of ||H_eff|| is dark: its
    # rate is at the round-off level of the eigenvalues
    DARK_RATE = 1e-12

    def __init__(self, params: ExperimentParams):
        if params.linewidth_397 or params.linewidth_866:
            raise ValueError("trajectory sampling does not support laser "
                             "linewidth dephasing")
        h = atom.build_hamiltonian(params)
        gamma_tot = params.gamma_sp + params.gamma_dp
        h_eff = h.astype(complex)
        for i in atom.P_LEVELS:
            h_eff[i, i] -= 0.5j * gamma_tot
        w, v = np.linalg.eig(h_eff)
        v_inv = np.linalg.inv(v)
        scale = np.linalg.norm(h_eff)
        resid = np.linalg.norm(v @ np.diag(w) @ v_inv - h_eff)
        if resid > 1e-8 * scale:
            raise NumericalError(
                f"H_eff eigendecomposition residual {resid:.2e} too large")
        self.w = w
        self.v = v
        self.v_inv = v_inv
        self.gamma_tot = gamma_tot
        self.dark_modes = -2.0 * w.imag <= self.DARK_RATE * scale
        self.pi_free = atom._pi_free(h_eff)
        # decay channels as flat arrays
        tr = atom.TRANSITIONS
        self.ch_upper = np.array([t.upper for t in tr])
        self.ch_lower = np.array([t.lower for t in tr])
        self.ch_pol = np.array([t.pol_tag for t in tr], dtype=np.uint8)
        self.ch_wl = np.array([t.wl_tag for t in tr], dtype=np.uint8)
        self.ch_rate = np.array(
            [(params.gamma_sp if t.branch == "SP" else params.gamma_dp)
             * t.amplitude ** 2 for t in tr])
        # channel law given the emitting sublevel k (0: P-, 1: P+): the
        # cumulative law of P- on [0, 1], then P+'s shifted onto [1, 2],
        # so one search for k + uniform picks the channel
        order, cum = [], []
        for k, upper in enumerate(atom.P_LEVELS):
            chans = np.flatnonzero(self.ch_upper == upper)
            c = np.cumsum(self.ch_rate[chans])
            order.append(chans)
            cum.append(k + c / c[-1])
        self._law_chan = np.concatenate(order)
        self._law_cum = np.concatenate(cum)
        self._tables: dict[int, _Table] = {}

    def _amplitudes(self, source: int, times: np.ndarray,
                    levels=slice(None)) -> np.ndarray:
        """psi = V exp(-i w t) V^-1 |source>, shape (len(times), levels)."""
        return (np.exp(-1j * np.outer(times, self.w))
                * self.v_inv[:, source]) @ self.v[levels].T

    @staticmethod
    def _survival(amps: np.ndarray) -> np.ndarray:
        """S = ||psi||^2 at each row of `amps` (all levels)."""
        return np.einsum("ij,ij->i", amps, amps.conj()).real

    @staticmethod
    def _share(amps: np.ndarray) -> np.ndarray:
        """q = |psi_P-|^2 / (|psi_P-|^2 + |psi_P+|^2), 0 where both vanish,
        at each row of `amps` (the two P levels, P- first)."""
        pop = np.abs(amps) ** 2
        tot = pop.sum(axis=1)
        return np.divide(pop[:, 0], tot, out=np.zeros_like(tot),
                         where=tot > 0)

    def _table(self, source: int) -> _Table:
        """Waiting-time and P-share table of one level, built on first use."""
        cached = self._tables.get(source)
        if cached is not None:
            return cached
        # the survival never drops below the squared norm of the source's
        # part in non-decaying modes; checking that first keeps the
        # doubling below from running into overflow
        stuck = self.v[:, self.dark_modes] @ self.v_inv[self.dark_modes,
                                                         source]
        dark = NumericalError(
            f"waiting time from level {source} does not converge; the atom "
            "is trapped in a dark state (zero magnetic field, or a laser "
            "polarization that leaves a level uncoupled)")
        if np.vdot(stuck, stuck).real >= self.TABLE_FLOOR:
            raise dark
        t_max = 2.0 / self.gamma_tot
        for _ in range(self.MAX_DOUBLINGS):
            end = self._amplitudes(source, np.array([t_max]))
            if self._survival(end)[0] < self.TABLE_FLOOR:
                break
            t_max *= 2.0
        else:
            raise dark
        t_grid = np.concatenate(
            [[0.0], np.geomspace(self.T_MIN, t_max, self.TABLE_SIZE)])
        # one amplitude matrix on the grid serves both curves
        amps = self._amplitudes(source, t_grid)
        surv = self._survival(amps)
        # running min guards against last-digit wiggle in the flat head
        surv = np.minimum.accumulate(np.clip(surv, 1e-300, 1.0))
        q = self._share(amps[:, list(atom.P_LEVELS)])
        q[0] = q[1]     # no P population at t = 0 from a lower level
        table = _Table(t_grid, -np.log(surv), q, None if self.pi_free
                       else self._flagged(source, t_grid, q))
        self._tables[source] = table
        return table

    def _flagged(self, source: int, t_grid: np.ndarray, q: np.ndarray):
        """The intervals whose linear interpolation misses q at a quarter
        point, or None; the last one also serves waits extrapolated past
        t_max, so it must be flat."""
        quarters = np.array([0.25, 0.5, 0.75])
        dt, dq = np.diff(t_grid), np.diff(q)
        probe = self._share(self._amplitudes(
            source, (t_grid[:-1, None] + quarters * dt[:, None]).ravel(),
            list(atom.P_LEVELS)))
        miss = np.abs(probe.reshape(-1, 3)
                      - (q[:-1, None] + quarters * dq[:, None])).max(axis=1)
        exact = miss > self.Q_TOL
        exact[-1] |= abs(dq[-1]) > self.Q_TOL
        return exact if exact.any() else None

    def _invert(self, source: int, u: np.ndarray):
        """Waits at survival probabilities u, and the P-1/2 share q there.

        Both are interpolated between the same table nodes; q is exact
        in flagged intervals.
        """
        tab = self._table(source)
        neg_log_u = -np.log(np.clip(u, 1e-300, 1.0))
        # sorted keys search about 3x faster than random ones; the
        # scatter puts each bracket back at its draw's position
        order = np.argsort(neg_log_u)
        idx = np.empty(u.size, dtype=np.intp)
        idx[order] = np.searchsorted(tab.neg_log_s, neg_log_u[order],
                                     side="right") - 1
        idx = np.clip(idx, 0, tab.t.size - 2)
        d_log = tab.neg_log_s[idx + 1] - tab.neg_log_s[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(d_log > 0,
                            (neg_log_u - tab.neg_log_s[idx]) / d_log, 0.0)
        waits = tab.t[idx] + frac * (tab.t[idx + 1] - tab.t[idx])
        q = tab.q[idx] + frac * (tab.q[idx + 1] - tab.q[idx])
        if tab.exact is not None:
            slow = tab.exact[idx]
            q[slow] = self._share(
                self._amplitudes(source, waits[slow], list(atom.P_LEVELS)))
        return waits, q

    def sample(self, source: int, rng: np.random.Generator, n: int):
        """Draw n (waiting time, channel index) pairs from level `source`."""
        waits, q = self._invert(source, rng.random(n))
        # jump channel: P-1/2 emits with probability q(wait), then the
        # channel follows that sublevel's fixed branching law
        sublevel, pick = rng.random((2, n))
        pos = np.searchsorted(self._law_cum, (sublevel >= q) + pick,
                              side="right")
        chans = self._law_chan[np.minimum(pos, self._law_chan.size - 1)]
        return waits, chans


def simulate_emissions(params: ExperimentParams, duration: float, seed: int,
                       start_level: int = atom.S_MINUS,
                       max_events: int | None = None) -> ClickStream:
    """Exact quantum-jump record of all photons emitted in `duration` s.

    Every decay of either branch appears as one event tagged with its
    polarization (sigma-/pi/sigma+) and wavelength (397/866).  The same
    seed always reproduces the same stream.  The atom starts in
    `start_level`; the early transient is a few microseconds and is
    negligible against any realistic duration.

    Level s draws its (wait, channel) pairs in batches of BATCH from its
    own SeedSequence((seed, s)) generator and hands them out in order,
    so the stream is that of a sequential loop which adds one wait per
    event and stops at the first time at or past `duration`, or after
    `max_events` events.  The walk runs in chunks (16 steps, doubling to
    _WALK_CHUNK) that record only channel ids.  Each level keeps one
    queue of drawn waits the walk has not used; after a chunk, each
    level gives up the head of its queue, one wait per step the chunk
    took from it.  A cumulative sum seeded with the last time gives the
    same doubles as the sequential sum, and a search finds the end.
    Draws past the end are never used.  A dark level raises
    NumericalError on its first draw, and that error propagates only if
    the sequential loop would have drawn from the level: the walk
    reached it before `duration` and below `max_events`.
    """
    if not 0.0 < duration < math.inf:
        raise ValueError(
            f"duration must be positive and finite, got {duration}")
    if not 0 <= start_level < atom.N_LEVELS:
        raise ValueError(f"start_level must be 0..7, got {start_level}")
    if max_events is not None and max_events < 1:
        raise ValueError(f"max_events must be at least 1, got {max_events}")
    sampler = _JumpSampler(params)
    # per level: the drawn waits that the walk has not used yet
    pending: list[list[np.ndarray]] = [[] for _ in range(atom.N_LEVELS)]

    def channels(source):
        # a generator body runs on its first next(): a level's seed and
        # table are made only when the walk first reaches it
        rng = np.random.default_rng(np.random.SeedSequence((seed, source)))
        while True:
            waits, chans = sampler.sample(source, rng, _JumpSampler.BATCH)
            pending[source].append(waits)
            yield chans.tolist()

    def take(source, n):
        """The next n waits of level `source`, in draw order."""
        drawn = np.concatenate(pending[source])
        pending[source] = [drawn[n:]]
        return drawn[:n]

    draw = [itertools.chain.from_iterable(channels(level))
            for level in range(atom.N_LEVELS)]
    # the level each channel lands in, plus a last entry for the start;
    # the walk's channel ids index it, and bytes() below raises
    # ValueError on any id that does not fit in one byte
    lower = np.append(sampler.ch_lower, start_level).astype(np.uint8)
    after = [draw[level] for level in lower.tolist()]
    t, prev = 0.0, len(after) - 1
    ts_parts, pol_parts, wl_parts = [], [], []
    n_out, chunk = 0, 8
    while True:
        chunk = min(2 * chunk, _WALK_CHUNK)
        # step i draws the channel of event i from the level that event
        # i - 1 landed in; list.extend appends each channel before it
        # pulls the next, so the map over seq reads the chain as it grows
        steps = chunk if max_events is None \
            else min(chunk, max_events - n_out)
        seq, dark = [prev], None
        try:
            seq.extend(itertools.islice(
                map(next, map(after.__getitem__, seq)), steps))
        except NumericalError as exc:   # a dark level's first draw
            dark = exc
        chans = np.frombuffer(bytes(seq), np.uint8)
        source = lower[chans[:-1]]
        counts = np.bincount(source, minlength=atom.N_LEVELS)
        waits = np.empty(source.size)
        if waits.size:
            waits[np.argsort(source, kind="stable")] = np.concatenate(
                [take(level, n) for level, n in enumerate(counts.tolist())
                 if n])
            waits[0] += t
        times = np.cumsum(waits)   # the doubles of a sequential t += wait
        end = int(np.searchsorted(times, duration))
        ts_parts.append(np.round(times[:end] * PS_PER_S).astype(np.int64))
        pol_parts.append(sampler.ch_pol[chans[1:end + 1]])
        wl_parts.append(sampler.ch_wl[chans[1:end + 1]])
        n_out += end
        if end < times.size:
            break
        # every event so far lies before the end, so a sequential walk
        # would have drawn from the dark level too
        if dark is not None:
            raise dark
        if n_out == max_events:
            duration = times[-1] + 1e-12
            break
        t, prev = times[-1], seq[-1]

    # an event within 0.5 ps of the end rounds onto duration_ps
    duration_ps = int(math.ceil(duration * PS_PER_S))
    ts = np.concatenate(ts_parts)
    del ts_parts    # freed before _bump makes its two arrays
    return ClickStream(
        timestamps_ps=_bump(ts, duration_ps),
        pol=np.concatenate(pol_parts),
        wavelength=np.concatenate(wl_parts),
        duration_ps=duration_ps,
        channel=EMISSION_CHANNEL,
        meta={"seed": seed, "params": params.fingerprint(),
              "start_level": start_level, "kind": "emissions"})


# -- detection ----------------------------------------------------------

@dataclass(frozen=True)
class DetectorChannel:
    """One photomultiplier arm behind a polarization analyzer.

    efficiency: total collection+quantum efficiency for photons routed
        to this arm.
    accepted_pol: "sigma-", "sigma+", "pi" or None for no analyzer.
    crosstalk: probability that an orthogonally sigma-polarized photon
        passes the analyzer anyway; pi photons never pass an analyzer.
    dark_rate: Poissonian dark counts per second, tagged like accepted
        photons.
    """

    efficiency: float = _quantity(None, 0.0, 1.0)
    accepted_pol: str | None = None
    crosstalk: float = _quantity(None, 0.0, 1.0, default=0.0)
    dark_rate: float = _quantity(None, 0.0, default=0.0)

    def __post_init__(self):
        _check_fields(self)
        if self.accepted_pol is not None and self.accepted_pol not in atom.POL_TAGS:
            raise ValueError(f"unknown polarization {self.accepted_pol!r}")


@dataclass(frozen=True)
class DetectionConfig:
    """Two detector arms plus a common wavelength filter (397 by default:
    the repumper photons never reach the photomultipliers)."""

    channel_1: DetectorChannel
    channel_2: DetectorChannel
    wavelength: str | None = "397"

    def __post_init__(self):
        if self.wavelength is not None and self.wavelength not in atom.WL_TAGS:
            raise ValueError(f"unknown wavelength {self.wavelength!r}")
        if self.channel_1.efficiency + self.channel_2.efficiency > 1.0 + 1e-12:
            raise ValueError("channel efficiencies must sum to at most 1")


def detect(emissions: ClickStream, config: DetectionConfig,
           seed: int) -> tuple[ClickStream, ClickStream]:
    """Split an emission stream over two detector arms.

    Each photon is first routed to arm 1, arm 2 or lost according to the
    efficiencies, then passes or fails that arm's analyzer; dark counts
    are merged in afterwards.  Deterministic per seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 9000)))
    eta1 = config.channel_1.efficiency
    u = rng.random(len(emissions))
    # u < eta1 routes a photon to arm 1, eta1 <= u < eta1 + eta2 to arm 2
    first = u < eta1
    routed = u < eta1 + config.channel_2.efficiency
    if config.wavelength is not None:
        routed &= emissions.wavelength == atom.WL_TAGS[config.wavelength]

    out = []
    for idx, chan_cfg, mask in ((1, config.channel_1, routed & first),
                                (2, config.channel_2, routed & ~first)):
        sel = np.flatnonzero(mask)
        pol = emissions.pol.take(sel)
        if chan_cfg.accepted_pol is not None:
            acc = atom.POL_TAGS[chan_cfg.accepted_pol]
            pass_prob = np.zeros(256)     # per uint8 polarization tag
            pass_prob[acc] = 1.0 - chan_cfg.crosstalk
            if acc in (atom.POL_SIGMA_MINUS, atom.POL_SIGMA_PLUS):
                other = (atom.POL_SIGMA_PLUS if acc == atom.POL_SIGMA_MINUS
                         else atom.POL_SIGMA_MINUS)
                pass_prob[other] = chan_cfg.crosstalk
            keep = np.flatnonzero(rng.random(sel.size) < pass_prob[pol])
            sel, pol = sel.take(keep), pol.take(keep)
        ts = emissions.timestamps_ps.take(sel)
        wav = emissions.wavelength.take(sel)
        if chan_cfg.dark_rate > 0.0:
            mean = chan_cfg.dark_rate * emissions.duration_s
            if ts.size + mean > emissions.duration_ps:
                raise ValueError(
                    f"dark rate {chan_cfg.dark_rate:g}/s puts {mean:g} dark "
                    f"counts into a {emissions.duration_ps} ps stream: more "
                    "clicks than picosecond timestamps")
            n_dark = rng.poisson(mean)
            dark_ts = rng.integers(0, emissions.duration_ps, size=n_dark)
            dark_pol = np.full(n_dark, atom.POL_TAGS.get(
                chan_cfg.accepted_pol, atom.POL_PI), dtype=np.uint8)
            dark_wl = np.full(n_dark, atom.WL_TAGS.get(
                config.wavelength, atom.WL_397), dtype=np.uint8)
            ts = np.concatenate([ts, dark_ts])
            order = np.argsort(ts, kind="stable")
            pol = np.concatenate([pol, dark_pol])[order]
            wav = np.concatenate([wav, dark_wl])[order]
            ts = _bump(ts[order], emissions.duration_ps)
        out.append(ClickStream(
            timestamps_ps=ts, pol=pol, wavelength=wav,
            duration_ps=emissions.duration_ps,
            channel=DETECTOR_1 if idx == 1 else DETECTOR_2,
            meta={"seed": seed, "efficiency": chan_cfg.efficiency,
                  "accepted_pol": chan_cfg.accepted_pol,
                  "crosstalk": chan_cfg.crosstalk,
                  "dark_rate": chan_cfg.dark_rate,
                  "source": emissions.meta.get("params", "")}))
    return out[0], out[1]
