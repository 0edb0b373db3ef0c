"""Quantum-jump sampler statistics and the detector model."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from ionpair import atom
from ionpair.dynamics import Model, NumericalError
from ionpair.params import ExperimentParams, TWO_PI, get_preset
from ionpair import trajectory as T
from ionpair.trajectory import (ClickStream, DetectionConfig, DetectorChannel,
                                _bump, _JumpSampler, detect,
                                simulate_emissions)

WEAK = get_preset("weak")


@pytest.fixture(scope="module")
def weak_emissions():
    return simulate_emissions(WEAK, 0.02, seed=7)


class TestBump:
    def test_duplicates_pushed_minimally(self):
        ts = np.array([5, 5, 5], dtype=np.int64)
        assert _bump(ts, 100).tolist() == [5, 6, 7]
        ts = np.array([3, 7, 7, 8], dtype=np.int64)
        assert _bump(ts, 100).tolist() == [3, 7, 8, 9]

    def test_already_strict_untouched(self):
        ts = np.array([1, 4, 9], dtype=np.int64)
        assert _bump(ts, 100).tolist() == [1, 4, 9]

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ts = np.sort(rng.integers(0, 50, size=40)).astype(np.int64)
            out = _bump(ts, 100)
            ref = ts.copy()
            for i in range(1, ref.size):
                if ref[i] <= ref[i - 1]:
                    ref[i] = ref[i - 1] + 1
            assert np.array_equal(out, ref)

    def test_tail_pulled_below_limit(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            limit = 50
            ts = np.sort(rng.integers(30, limit, size=18)).astype(np.int64)
            out = _bump(ts, limit)
            ref = ts.copy()
            for i in range(1, ref.size):
                ref[i] = max(ref[i], ref[i - 1] + 1)
            ref[-1] = min(ref[-1], limit - 1)
            for i in range(ref.size - 2, -1, -1):
                ref[i] = min(ref[i], ref[i + 1] - 1)
            assert np.array_equal(out, ref)
            assert np.all(np.diff(out) > 0) and 0 <= out[0] and out[-1] < limit
        assert _bump(np.array([0, 4, 4, 4], dtype=np.int64), 4).tolist() \
            == [0, 1, 2, 3]

    def test_more_events_than_slots_rejected(self):
        with pytest.raises(ValueError, match="picosecond"):
            _bump(np.array([0, 1, 2], dtype=np.int64), 2)


class TestClickStream:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClickStream(np.array([3, 2]), np.zeros(2), np.zeros(2),
                        duration_ps=10)
        with pytest.raises(ValueError):
            ClickStream(np.array([1, 1]), np.zeros(2), np.zeros(2),
                        duration_ps=10)
        with pytest.raises(ValueError):
            ClickStream(np.array([1, 2]), np.zeros(1), np.zeros(2),
                        duration_ps=10)
        with pytest.raises(ValueError):
            ClickStream(np.array([1, 20]), np.zeros(2), np.zeros(2),
                        duration_ps=10)  # event beyond duration
        with pytest.raises(ValueError):
            ClickStream(np.array([], dtype=np.int64), np.array([]),
                        np.array([]), duration_ps=0)

    @pytest.mark.parametrize("pol, wavelength, message", [
        ([1, 3], [0, 0], "polarization tag 3 is not 0, 1 or 2"),
        ([0, 2], [0, 2], "wavelength tag 2 is not 0 or 1"),
        ([7, 0], [0, 5], "polarization tag 7"),
        ([[0, 1]], [[0, 1]], "must be 1-D")])
    def test_tags_outside_the_format_rejected(self, pol, wavelength,
                                              message):
        ts = np.array([1, 3]).reshape(np.shape(pol))
        with pytest.raises(ValueError, match=message):
            ClickStream(ts, pol, wavelength, duration_ps=10)

    def test_decrease_across_the_int64_range_rejected(self):
        # the difference -2**63 - 5 wraps to a positive int64, so a check
        # on np.diff would pass this stream
        with pytest.raises(ValueError, match="strictly increasing"):
            ClickStream(np.array([5, -2**63]), np.zeros(2), np.zeros(2),
                        duration_ps=10)

    def test_select(self, weak_emissions):
        blue = weak_emissions.select(wavelength="397")
        assert np.all(blue.wavelength == atom.WL_397)
        minus = weak_emissions.select(pol="sigma-", wavelength="397")
        assert np.all(minus.pol == atom.POL_SIGMA_MINUS)
        assert len(minus) < len(blue) < len(weak_emissions)
        with pytest.raises(ValueError):
            weak_emissions.select(pol="left")

    def test_select_rejects_an_unknown_wavelength(self):
        s = ClickStream(np.array([1, 2]), np.zeros(2), np.zeros(2),
                        duration_ps=10)
        with pytest.raises(ValueError, match="unknown wavelength '500'"):
            s.select(wavelength="500")

    def test_select_matches_a_mask(self):
        # random streams, empty ones included, under every filter pair:
        # the same arrays, dtypes, duration, channel and meta as
        # compressing each array with the boolean mask
        rng = np.random.default_rng(31)
        filters = [(p, w) for p in (None, *atom.POL_TAGS)
                   for w in (None, *atom.WL_TAGS)]
        for k in range(40):
            n = int(rng.integers(0, 3000)) if k else 0
            ts = np.unique(rng.integers(0, 10**7, size=n))
            stream = ClickStream(ts, rng.integers(0, 3, ts.size),
                                 rng.integers(0, 2, ts.size), 10**7,
                                 channel=int(rng.integers(0, 3)),
                                 meta={"seed": k})
            for pol, wavelength in filters:
                got = stream.select(pol=pol, wavelength=wavelength)
                mask = np.ones(len(stream), dtype=bool)
                if pol is not None:
                    mask &= stream.pol == atom.POL_TAGS[pol]
                if wavelength is not None:
                    mask &= stream.wavelength == atom.WL_TAGS[wavelength]
                for name in ("timestamps_ps", "pol", "wavelength"):
                    want = getattr(stream, name)[mask]
                    assert getattr(got, name).dtype == want.dtype
                    assert np.array_equal(getattr(got, name), want)
                assert (got.duration_ps, got.channel) \
                    == (stream.duration_ps, stream.channel)
                assert got.meta == dict(
                    stream.meta,
                    selection=f"pol={pol},wavelength={wavelength}")


class TestJumpSampler:
    def test_pure_decay_waiting_times_are_exponential(self):
        p = ExperimentParams(omega_397=0.0, omega_866=0.0, delta_397=0.0,
                            delta_866=0.0, b_field=3.5)
        sampler = _JumpSampler(p)
        rng = np.random.default_rng(11)
        waits, _ = sampler.sample(atom.P_PLUS, rng, 20000)
        gamma = p.gamma_sp + p.gamma_dp
        stat = scipy.stats.kstest(waits, "expon", args=(0.0, 1.0 / gamma))
        assert stat.pvalue > 1e-3

    def test_pure_decay_branching_fractions(self):
        p = ExperimentParams(omega_397=0.0, omega_866=0.0, delta_397=0.0,
                            delta_866=0.0, b_field=3.5)
        sampler = _JumpSampler(p)
        rng = np.random.default_rng(13)
        n = 40000
        _, chans = sampler.sample(atom.P_PLUS, rng, n)
        gamma = p.gamma_sp + p.gamma_dp
        counts = np.bincount(chans, minlength=10)
        for c, t in enumerate(atom.TRANSITIONS):
            if t.upper != atom.P_PLUS:
                assert counts[c] == 0
                continue
            frac = (p.gamma_sp if t.branch == "SP" else p.gamma_dp) \
                * t.amplitude ** 2 / gamma
            sigma = np.sqrt(frac * (1 - frac) * n)
            assert abs(counts[c] - frac * n) < 5 * sigma, t

    def test_survival_table_is_accurate_between_nodes(self):
        sampler = _JumpSampler(WEAK)
        table = sampler._table(atom.S_PLUS)
        log_s = -table.neg_log_s
        assert np.all(np.diff(log_s) <= 1e-15)
        mids = 0.5 * (table.t[1:-1] + table.t[2:])
        exact = np.log(sampler._survival(
            sampler._amplitudes(atom.S_PLUS, mids)))
        interp = np.interp(mids, table.t, log_s)
        assert np.max(np.abs(interp - exact)) < 5e-3

    @pytest.mark.parametrize("preset", ["weak", "spectrum"])
    def test_mirror_symmetry_at_nonzero_field(self, preset, monkeypatch):
        # m -> -m maps the field B to -B and P-1/2 to P+1/2: the table of
        # level s at B is that of its mirror level at -B, with q -> 1 - q.
        # ExperimentParams keeps B >= 0, so -B negates the Zeeman shifts.
        mirror = {atom.S_MINUS: atom.S_PLUS, atom.S_PLUS: atom.S_MINUS,
                  atom.D_M32: atom.D_P32, atom.D_P32: atom.D_M32,
                  atom.D_M12: atom.D_P12, atom.D_P12: atom.D_M12}
        params = get_preset(preset)
        sampler = _JumpSampler(params)
        shifts = atom.zeeman_shifts
        monkeypatch.setattr(atom, "zeeman_shifts", lambda b: -shifts(b))
        flipped = _JumpSampler(params)
        for level, image in mirror.items():
            table, mirrored = sampler._table(level), flipped._table(image)
            assert np.array_equal(table.t, mirrored.t), level
            assert np.abs(table.neg_log_s - mirrored.neg_log_s).max() \
                <= 1e-10, level
            assert np.abs(table.q - (1.0 - mirrored.q)).max() <= 1e-10, level

    def test_dark_level_raises(self):
        p = ExperimentParams(omega_397=TWO_PI * 5e6, omega_866=0.0,
                             delta_397=0.0, delta_866=0.0, b_field=3.5)
        sampler = _JumpSampler(p)
        rng = np.random.default_rng(1)
        with pytest.raises(NumericalError, match="dark"):
            sampler.sample(atom.D_M32, rng, 10)

    def test_linewidth_rejected(self):
        p = WEAK.replace(linewidth_397=TWO_PI * 0.1e6)
        with pytest.raises(ValueError):
            _JumpSampler(p)

    def test_inaccurate_h_eff_decomposition_raises(self, monkeypatch):
        eig = np.linalg.eig

        def detuned(a):
            w, v = eig(a)
            return w * (1.0 + 1e-6), v

        monkeypatch.setattr(np.linalg, "eig", detuned)
        with pytest.raises(NumericalError, match="residual"):
            _JumpSampler(WEAK)

    def test_survival_above_the_floor_after_the_last_doubling_raises(
            self, monkeypatch):
        # one doubling of 2 / gamma leaves a weak-preset ground level's
        # survival far above TABLE_FLOOR
        monkeypatch.setattr(_JumpSampler, "MAX_DOUBLINGS", 1)
        sampler = _JumpSampler(WEAK)
        with pytest.raises(NumericalError, match="does not converge"):
            sampler._table(atom.S_PLUS)


def _assert_sampler_generates_liouvillian(params):
    """The sampler's no-jump evolution plus its jump channels is the
    master equation: -i(H_eff x 1 - 1 x H_eff*) + sum_c rate_c A_c x A_c*
    in row-major vec(rho), with A_c = |lower><upper|."""
    s = _JumpSampler(params)
    h_eff = s.v @ np.diag(s.w) @ s.v_inv
    eye = np.eye(atom.N_LEVELS)
    mat = -1j * (np.kron(h_eff, eye) - np.kron(eye, h_eff.conj()))
    for rate, upper, lower in zip(s.ch_rate, s.ch_upper, s.ch_lower):
        a = np.zeros((atom.N_LEVELS, atom.N_LEVELS))
        a[lower, upper] = 1.0
        mat += rate * np.kron(a, a)
    ref = atom.build_liouvillian(params)
    assert np.abs(mat - ref).max() <= 1e-13 * np.abs(ref).max()


class TestSamplerMatchesMasterEquation:
    @pytest.mark.parametrize("preset", ["weak", "strong", "spectrum"])
    def test_presets(self, preset):
        _assert_sampler_generates_liouvillian(get_preset(preset))

    @settings(max_examples=20, database=None)
    @given(log10_b=st.floats(-3.0, 1.0),
           delta_397_mhz=st.floats(-40.0, 0.0),
           delta_866_mhz=st.floats(-40.0, 40.0),
           omega_397_mhz=st.floats(0.0, 40.0),
           omega_866_mhz=st.floats(0.0, 20.0),
           alpha_397_pi=st.floats(0.0, 1.0),
           alpha_866_pi=st.floats(0.0, 1.0))
    def test_random_parameters(self, log10_b, delta_397_mhz, delta_866_mhz,
                               omega_397_mhz, omega_866_mhz, alpha_397_pi,
                               alpha_866_pi):
        _assert_sampler_generates_liouvillian(WEAK.replace(
            b_field=10.0 ** log10_b, delta_397=TWO_PI * delta_397_mhz * 1e6,
            delta_866=TWO_PI * delta_866_mhz * 1e6,
            omega_397=TWO_PI * omega_397_mhz * 1e6,
            omega_866=TWO_PI * omega_866_mhz * 1e6,
            alpha_397=alpha_397_pi * math.pi,
            alpha_866=alpha_866_pi * math.pi))


_LOWER = atom.S_LEVELS + atom.D_LEVELS


def _jump_law(s, source):
    """(mean waiting time, probability of each channel) from level
    `source` of a _JumpSampler, in closed form.

    psi(t) = V exp(-i w t) V^-1 |source>, so the mean waiting time
    int S dt and each channel's probability rate_c int |psi_up|^2 dt are
    quadratic forms in the kernel K_ij = int_0^inf
    exp(i(conj(w_i) - w_j) t) dt = 1 / (i (w_j - conj(w_i))).
    """
    kern = 1.0 / (1j * (s.w[None, :] - s.w.conj()[:, None]))
    gram = s.v.conj().T @ s.v
    c = s.v_inv[:, source]
    mean_wait = np.real(c.conj() @ (gram * kern) @ c)
    probs = np.array([rate * np.real((s.v[up] * c).conj() @ kern
                                     @ (s.v[up] * c))
                      for rate, up in zip(s.ch_rate, s.ch_upper)])
    return mean_wait, probs


def _renewal(s):
    """(rate, chain) from a _JumpSampler's arrays in closed form.

    `chain` is the embedded jump chain over the six lower levels, from
    _jump_law; `rate` is 1 / sum_s pi_s E[tau_s] under its stationary
    law pi.
    """
    mean_wait = np.empty(len(_LOWER))
    chain = np.zeros((len(_LOWER), len(_LOWER)))
    for row, source in enumerate(_LOWER):
        mean_wait[row], probs = _jump_law(s, source)
        for prob, lower in zip(probs, s.ch_lower):
            chain[row, _LOWER.index(lower)] += prob
    vals, vecs = np.linalg.eig(chain.T)
    pi = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    pi /= pi.sum()
    return 1.0 / (pi @ mean_wait), chain


def _assert_renewal_rate_matches_steady_state(params):
    s = _JumpSampler(params)
    rate, chain = _renewal(s)
    rho = np.real(np.diag(Model(params).steady))
    expected = (params.gamma_sp + params.gamma_dp) \
        * (rho[atom.P_MINUS] + rho[atom.P_PLUS])
    assert rate == pytest.approx(expected, rel=1e-10)
    # the eigenvalues carry an error of about eps * ||H_eff||, which a
    # near-dark mode's small decay rate magnifies in its waiting-time mass
    h_norm = np.linalg.norm(s.v @ np.diag(s.w) @ s.v_inv)
    floor = np.finfo(float).eps * h_norm / np.min(-s.w.imag)
    assert np.abs(chain.sum(axis=1) - 1.0).max() <= 1e-12 + 8 * floor


class TestRenewalIdentity:
    """1 / (mean waiting time under the jump chain's stationary law) is
    the master equation's emission rate (gamma_sp + gamma_dp) rho_PP."""

    @pytest.mark.parametrize("preset", ["weak", "strong", "spectrum"])
    def test_presets(self, preset):
        _assert_renewal_rate_matches_steady_state(get_preset(preset))

    @settings(max_examples=30, database=None)
    @given(log10_b=st.floats(-1.0, 1.0),
           delta_397_mhz=st.floats(-40.0, 0.0),
           delta_866_mhz=st.floats(-40.0, 40.0),
           omega_397_mhz=st.floats(1.0, 40.0),
           omega_866_mhz=st.floats(0.5, 20.0),
           alpha_397_pi=st.floats(0.1, 0.9),
           alpha_866_pi=st.floats(0.1, 0.9))
    def test_random_parameters(self, log10_b, delta_397_mhz, delta_866_mhz,
                               omega_397_mhz, omega_866_mhz, alpha_397_pi,
                               alpha_866_pi):
        _assert_renewal_rate_matches_steady_state(WEAK.replace(
            b_field=10.0 ** log10_b, delta_397=TWO_PI * delta_397_mhz * 1e6,
            delta_866=TWO_PI * delta_866_mhz * 1e6,
            omega_397=TWO_PI * omega_397_mhz * 1e6,
            omega_866=TWO_PI * omega_866_mhz * 1e6,
            alpha_397=alpha_397_pi * math.pi,
            alpha_866=alpha_866_pi * math.pi))


def _laplace_gap(params):
    """Largest gap, relative to max |E|, between the sampler's and the
    master equation's Laplace transforms E(u) of every conditioned
    emission rate, over u = gamma {0.01, 0.1, 1, 10}.

    E[s, c] transforms channel c's rate after a start in lower level s.
    The sampler's first-jump law transforms to F_sc = rate_c sum_ij
    a_i conj(a_j) / (u + i (w_i - conj(w_j))), a = V[upper_c] V^-1[:, s];
    renewal over the lower levels, M_ss' = sum_{c: lower_c = s'} F_sc,
    gives E = (I - M)^-1 F.  The master equation gives rate_c [(u - R)^-1
    e_s] at upper_c, population k being coordinate k of Model.real.
    """
    s = _JumpSampler(params)
    real = Model(params).real
    land = np.array([_LOWER.index(lower) for lower in s.ch_lower])
    worst = 0.0
    for u in s.gamma_tot * np.array([0.01, 0.1, 1.0, 10.0]):
        kern = 1.0 / (u + 1j * (s.w[:, None] - s.w.conj()[None, :]))
        f = np.empty((len(_LOWER), s.ch_rate.size))
        for row, source in enumerate(_LOWER):
            a = s.v[s.ch_upper] * s.v_inv[:, source]
            f[row] = s.ch_rate * np.einsum("ci,ij,cj->c", a, kern,
                                           a.conj()).real
        m = np.zeros((len(_LOWER), len(_LOWER)))
        np.add.at(m.T, land, f.T)
        sampler = np.linalg.solve(np.eye(len(_LOWER)) - m, f)
        x = np.linalg.solve(u * np.eye(len(real)) - real,
                            np.eye(len(real))[:, _LOWER])
        master = x[s.ch_upper].T * s.ch_rate
        worst = max(worst,
                    np.abs(sampler - master).max() / np.abs(master).max())
    return worst


class TestLaplaceIdentity:
    """Every conditioned emission rate of the sampler is the master
    equation's, checked exactly in the Laplace domain (Cohen-Tannoudji &
    Dalibard, Europhys. Lett. 1, 441, 1986).  The gap is about 3e-14 on
    the presets; a sampler with gamma_dp off by 1e-6 leaves about 1e-7."""

    TOL = 1e-10

    @pytest.mark.parametrize("preset", ["weak", "strong", "spectrum"])
    def test_presets(self, preset):
        assert _laplace_gap(get_preset(preset)) <= self.TOL

    @settings(max_examples=30, database=None)
    @given(log10_b=st.floats(-1.0, 1.0),
           delta_397_mhz=st.floats(-40.0, 0.0),
           delta_866_mhz=st.floats(-40.0, 40.0),
           omega_397_mhz=st.floats(1.0, 40.0),
           omega_866_mhz=st.floats(0.5, 20.0),
           alpha_397_pi=st.floats(0.1, 0.9),
           alpha_866_pi=st.floats(0.1, 0.9))
    def test_random_parameters(self, log10_b, delta_397_mhz, delta_866_mhz,
                               omega_397_mhz, omega_866_mhz, alpha_397_pi,
                               alpha_866_pi):
        assert _laplace_gap(WEAK.replace(
            b_field=10.0 ** log10_b, delta_397=TWO_PI * delta_397_mhz * 1e6,
            delta_866=TWO_PI * delta_866_mhz * 1e6,
            omega_397=TWO_PI * omega_397_mhz * 1e6,
            omega_866=TWO_PI * omega_866_mhz * 1e6,
            alpha_397=alpha_397_pi * math.pi,
            alpha_866=alpha_866_pi * math.pi)) <= self.TOL


def _reachable(s):
    """Lower levels the jump chain reaches from S-1/2."""
    chain = _renewal(s)[1]
    seen, todo = set(), [_LOWER.index(atom.S_MINUS)]
    while todo:
        row = todo.pop()
        if row not in seen:
            seen.add(row)
            todo.extend(np.flatnonzero(chain[row] > 1e-12).tolist())
    return [_LOWER[row] for row in sorted(seen)]


def _channel_law_distance(s, source, n=1 << 14):
    """Mean total-variation distance between the sampler's channel law
    and the exact rate_c |psi_upper(t)|^2 law, over waits at n
    stratified survival probabilities (so weighted by waiting-time
    mass)."""
    waits, q = s._invert(source, (np.arange(n) + 0.5) / n)
    exact = s.ch_rate * np.abs(s._amplitudes(source, waits)[:, s.ch_upper]) ** 2
    exact /= exact.sum(axis=1, keepdims=True)
    share = np.where(s.ch_upper == atom.P_MINUS, q[:, None], 1.0 - q[:, None])
    table = share * s.ch_rate / s.gamma_tot
    return 0.5 * np.abs(table - exact).sum(axis=1).mean()


class TestChannelLaw:
    """The tabulated P-sublevel share q(t) gives the exact channel law."""

    @pytest.mark.parametrize("preset", ["weak", "strong"])
    def test_sigma_presets_take_the_table_path(self, preset):
        # sigma-only drives keep q at 0 or 1: no interval falls back to
        # exact amplitudes, and sample() has no complex exp
        s = _JumpSampler(get_preset(preset))
        for level in _LOWER:
            table = s._table(level)
            assert table.exact is None, level
            assert np.all((table.q < 1e-20) | (table.q > 1.0 - 1e-15)), level

    @pytest.mark.parametrize("preset", ["weak", "strong", "spectrum"])
    def test_quarter_point_probe_runs_only_with_pi_drive(self, preset,
                                                         monkeypatch):
        # the probe is one amplitude read at 3 points per interval
        s, sizes = _JumpSampler(get_preset(preset)), []
        amplitudes = s._amplitudes

        def counted(source, times, *args):
            sizes.append(len(times))
            return amplitudes(source, times, *args)

        monkeypatch.setattr(s, "_amplitudes", counted)
        s._table(atom.S_MINUS)
        pi_free = preset != "spectrum"
        assert s.pi_free == pi_free
        assert (3 * _JumpSampler.TABLE_SIZE in sizes) != pi_free

    def test_spectrum_preset_within_tolerance(self):
        s = _JumpSampler(get_preset("spectrum"))
        for level in _reachable(s):
            assert _channel_law_distance(s, level) < 1e-4, level

    @settings(max_examples=20, database=None)
    @given(log10_b=st.floats(-1.0, 1.0),
           delta_397_mhz=st.floats(-40.0, 0.0),
           delta_866_mhz=st.floats(-40.0, 40.0),
           omega_397_mhz=st.floats(1.0, 40.0),
           omega_866_mhz=st.floats(0.5, 20.0),
           alpha_397_pi=st.floats(0.1, 0.9),
           alpha_866_pi=st.floats(0.1, 0.9))
    def test_random_parameters_with_pi_components(
            self, log10_b, delta_397_mhz, delta_866_mhz, omega_397_mhz,
            omega_866_mhz, alpha_397_pi, alpha_866_pi):
        s = _JumpSampler(WEAK.replace(
            b_field=10.0 ** log10_b, delta_397=TWO_PI * delta_397_mhz * 1e6,
            delta_866=TWO_PI * delta_866_mhz * 1e6,
            omega_397=TWO_PI * omega_397_mhz * 1e6,
            omega_866=TWO_PI * omega_866_mhz * 1e6,
            alpha_397=alpha_397_pi * math.pi,
            alpha_866=alpha_866_pi * math.pi))
        for level in _reachable(s):
            assert _channel_law_distance(s, level) < 1e-4, level

    @pytest.mark.parametrize("source", [atom.S_MINUS, atom.D_M12])
    def test_sampled_channels_match_closed_form(self, source):
        # channel c has probability rate_c int |psi_upper(t)|^2 dt
        s = _JumpSampler(get_preset("spectrum"))
        probs = _jump_law(s, source)[1]
        n = 80000
        _, chans = s.sample(source, np.random.default_rng(21), n)
        counts = np.bincount(chans, minlength=probs.size)
        sigma = np.sqrt(n * probs * (1.0 - probs)) + 1.0
        assert np.all(np.abs(counts - n * probs) < 5.0 * sigma)


def _reference_walk(params, duration, seed, start_level, max_events):
    """The walk's contract as a plain loop: level s draws batches of
    BATCH from its own SeedSequence((seed, s)) generator, on first need,
    and hands their (wait, channel) pairs out in order.  Returns the
    stream's arrays and the number of batches each level drew."""
    s = _JumpSampler(params)
    rngs, pending, batches = {}, {}, {}
    t, state, times, chans = 0.0, start_level, [], []
    while True:
        if not pending.get(state):
            if state not in rngs:
                rngs[state] = np.random.default_rng(
                    np.random.SeedSequence((seed, state)))
            waits, picks = s.sample(state, rngs[state], _JumpSampler.BATCH)
            pending[state] = list(zip(waits, picks))[::-1]
            batches[state] = batches.get(state, 0) + 1
        wait, chan = pending[state].pop()
        t += wait
        if t >= duration:
            break
        times.append(t)
        chans.append(chan)
        state = int(s.ch_lower[chan])
        if max_events is not None and len(times) >= max_events:
            duration = t + 1e-12
            break
    duration_ps = math.ceil(duration * T.PS_PER_S)
    ts = _bump(np.round(np.array(times) * T.PS_PER_S).astype(np.int64),
               duration_ps)
    chans = np.array(chans, dtype=int)
    return (ts, s.ch_pol[chans], s.ch_wl[chans], duration_ps), batches


class TestSimulateEmissions:
    def test_deterministic_per_seed(self):
        a = simulate_emissions(WEAK, 2e-4, seed=5)
        b = simulate_emissions(WEAK, 2e-4, seed=5)
        c = simulate_emissions(WEAK, 2e-4, seed=6)
        assert np.array_equal(a.timestamps_ps, b.timestamps_ps)
        assert np.array_equal(a.pol, b.pol)
        assert np.array_equal(a.wavelength, b.wavelength)
        assert not np.array_equal(a.timestamps_ps[:50], c.timestamps_ps[:50])

    @pytest.mark.parametrize("preset", ["weak", "spectrum"])
    @pytest.mark.parametrize("max_events", [None, 1000])
    @pytest.mark.parametrize("start_level", [atom.S_MINUS, atom.D_M32])
    def test_walk_consumes_per_level_batches_in_order(self, preset,
                                                      max_events,
                                                      start_level):
        params = get_preset(preset)
        (ts, pol, wl, duration_ps), batches = _reference_walk(
            params, 0.02, 4, start_level, max_events)
        em = simulate_emissions(params, 0.02, seed=4,
                                start_level=start_level,
                                max_events=max_events)
        assert np.array_equal(em.timestamps_ps, ts)
        assert np.array_equal(em.pol, pol)
        assert np.array_equal(em.wavelength, wl)
        assert em.duration_ps == duration_ps
        if max_events is None:
            # some level ran past its first batch
            assert max(batches.values()) >= 2

    @pytest.mark.parametrize("max_events", [15, 16, 17, 48, 112, 113])
    def test_cap_at_walk_chunk_edges(self, max_events):
        # the walk's chunks double from 16 steps, so they end after 16, 48
        # and 112 events
        (ts, pol, wl, duration_ps), _ = _reference_walk(
            WEAK, 1.0, 2, atom.S_MINUS, max_events)
        em = simulate_emissions(WEAK, 1.0, seed=2, max_events=max_events)
        assert len(em) == max_events
        assert np.array_equal(em.timestamps_ps, ts)
        assert np.array_equal(em.pol, pol)
        assert np.array_equal(em.wavelength, wl)
        assert em.duration_ps == duration_ps

    @pytest.mark.parametrize("seed", [1, 2])
    def test_dark_level_raises_only_where_the_walk_reaches_it(self, seed):
        # with a sigma-only repumper nothing couples D+3/2 (level 7), so
        # the first draw from it raises; the walk runs past the end and
        # may reach it there, which must not raise
        params = WEAK.replace(alpha_866=0.0)

        def reference(duration, cap):
            try:
                return _reference_walk(params, duration, seed, atom.S_MINUS,
                                       cap)[0]
            except NumericalError:
                return None

        # the events up to and including the trapping arrival
        arrival = 1
        while reference(1.0, arrival + 1) is not None:
            arrival += 1
        t_ps = int(reference(1.0, arrival)[0][-1])
        cases = [((t_ps - 1) / T.PS_PER_S, None),
                 ((t_ps + 1) / T.PS_PER_S, None),
                 ((t_ps + 1) / T.PS_PER_S, arrival),
                 (1.0, arrival), (1.0, arrival + 1)]
        if arrival > 1:
            cases.append((1.0, arrival - 1))
        raised = []
        for duration, cap in cases:
            want = reference(duration, cap)
            raised.append(want is None)
            if want is None:
                with pytest.raises(NumericalError,
                                   match="level 7 .* dark state"):
                    simulate_emissions(params, duration, seed=seed,
                                       max_events=cap)
                continue
            em = simulate_emissions(params, duration, seed=seed,
                                    max_events=cap)
            ts, pol, wl, duration_ps = want
            assert np.array_equal(em.timestamps_ps, ts)
            assert np.array_equal(em.pol, pol)
            assert np.array_equal(em.wavelength, wl)
            assert em.duration_ps == duration_ps
        assert raised[:5] == [False, True, False, False, True]

    def test_walk_holds_no_python_object_per_event(self):
        # tracemalloc peak per event of a 0.2 s weak run, seeds 1-3:
        # 81.4-83.1 B for the loop that appended one Python float per
        # event, 36.2-37.9 B for the chunked walk of channel ids
        tracemalloc.start()
        try:
            em = simulate_emissions(WEAK, 0.2, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(em) > 300_000
        assert peak / len(em) < 60.0

    def test_strictly_increasing_and_within_duration(self, weak_emissions):
        ts = weak_emissions.timestamps_ps
        assert np.all(np.diff(ts) > 0)
        assert ts[-1] < weak_emissions.duration_ps

    def test_total_rate_near_steady_prediction(self, weak_emissions):
        rss = Model(WEAK).steady
        p_tot = rss[2, 2].real + rss[3, 3].real
        expected = (WEAK.gamma_sp + WEAK.gamma_dp) * p_tot
        # photon counts here are super-Poissonian (dark-period blinking
        # gives a Fano factor of tens), hence the loose tolerance
        assert weak_emissions.rate() == pytest.approx(expected, rel=0.05)

    def test_polarization_composition(self, weak_emissions):
        rss = Model(WEAK).steady
        blue = weak_emissions.select(wavelength="397")
        frac_minus = np.mean(blue.pol == atom.POL_SIGMA_MINUS)
        expect = (2 / 3) * rss[2, 2].real / (rss[2, 2].real + rss[3, 3].real)
        # polarizations of successive photons are strongly correlated, so
        # the fraction fluctuates far beyond 1/sqrt(N); tolerance sized
        # to the observed seed-to-seed spread
        assert frac_minus == pytest.approx(expect, abs=0.02)
        red = weak_emissions.select(wavelength="866")
        # 866 branch rate ratio
        expect_red = WEAK.gamma_dp / (WEAK.gamma_sp + WEAK.gamma_dp)
        assert len(red) / len(weak_emissions) == pytest.approx(expect_red,
                                                               abs=0.006)

    def test_sigma_pol_implies_wavelength_mix(self, weak_emissions):
        # pi 397 photons exist even with no pi drive: decay branches
        blue_pi = weak_emissions.select(pol="pi", wavelength="397")
        assert len(blue_pi) > 0

    def test_event_in_last_half_picosecond_stays_inside(self):
        # ending the run on an event's rounded timestamp puts that event
        # within 0.5 ps of the end for about half the events
        base = simulate_emissions(WEAK, 2e-6, seed=3)
        assert len(base) >= 4
        for end_ps in base.timestamps_ps:
            em = simulate_emissions(WEAK, int(end_ps) / T.PS_PER_S, seed=3)
            assert em.timestamps_ps[-1] < em.duration_ps
            assert np.all(np.diff(em.timestamps_ps) > 0)

    def test_max_events_cap(self):
        em = simulate_emissions(WEAK, 1.0, seed=3, max_events=500)
        assert len(em) == 500
        assert em.duration_ps <= 1_000_000_000_000

    def test_max_events_below_one_rejected(self):
        for cap in (0, -3):
            with pytest.raises(ValueError, match="max_events"):
                simulate_emissions(WEAK, 1e-6, seed=1, max_events=cap)
        assert len(simulate_emissions(WEAK, 1e-3, seed=1, max_events=1)) == 1

    def test_non_finite_duration_rejected(self):
        # the cap ends the run if the check is missing: the event loop
        # never reaches an infinite or NaN end time
        for duration in (math.inf, math.nan):
            with pytest.raises(ValueError, match="duration"):
                simulate_emissions(WEAK, duration, seed=1, max_events=10)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            simulate_emissions(WEAK, 0.0, seed=1)
        with pytest.raises(ValueError):
            simulate_emissions(WEAK, 1e-3, seed=1, start_level=9)

    def test_undriven_atom_is_dark(self):
        p = ExperimentParams(omega_397=0.0, omega_866=0.0, delta_397=0.0,
                             delta_866=0.0, b_field=3.5)
        with pytest.raises(NumericalError, match="dark"):
            simulate_emissions(p, 1e-3, seed=1, start_level=atom.S_MINUS)


class TestDetectorChannel:
    @pytest.mark.parametrize("kwargs, message", [
        ({"efficiency": 1.5}, r"efficiency must lie in \[0, 1\], got 1.5"),
        ({"efficiency": math.nan}, "efficiency must be finite"),
        ({"efficiency": 0.5, "crosstalk": -0.1},
         r"crosstalk must lie in \[0, 1\], got -0.1"),
        ({"efficiency": 0.5, "dark_rate": -1.0},
         r"dark_rate must lie in \[0, inf\], got -1.0"),
        ({"efficiency": 0.5, "dark_rate": math.inf},
         "dark_rate must be finite, got inf"),
        ({"efficiency": 0.5, "accepted_pol": "sigma"},
         "unknown polarization 'sigma'"),
    ])
    def test_invalid_settings_name_the_field(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            DetectorChannel(**kwargs)

    def test_range_edges_are_legal(self):
        arm = DetectorChannel(1.0, "pi", crosstalk=1.0, dark_rate=0.0)
        assert DetectorChannel(0.0, None, crosstalk=0.0).efficiency == 0.0
        assert arm.crosstalk == 1.0


class TestDetect:
    def test_lossless_split_conserves_events(self, weak_emissions):
        cfg = DetectionConfig(
            channel_1=DetectorChannel(efficiency=0.5),
            channel_2=DetectorChannel(efficiency=0.5),
            wavelength=None)
        d1, d2 = detect(weak_emissions, cfg, seed=1)
        assert len(d1) + len(d2) == len(weak_emissions)
        merged = np.sort(np.concatenate([d1.timestamps_ps, d2.timestamps_ps]))
        assert np.array_equal(merged, weak_emissions.timestamps_ps)

    def test_analyzer_passes_only_accepted_pol(self, weak_emissions):
        cfg = DetectionConfig(DetectorChannel(0.5, "sigma-"),
                              DetectorChannel(0.5, "sigma+"))
        d1, d2 = detect(weak_emissions, cfg, seed=2)
        assert np.all(d1.pol == atom.POL_SIGMA_MINUS)
        assert np.all(d2.pol == atom.POL_SIGMA_PLUS)
        assert np.all(d1.wavelength == atom.WL_397)
        assert d1.channel == T.DETECTOR_1 and d2.channel == T.DETECTOR_2

    def test_efficiency_binomial(self, weak_emissions):
        eta = 0.3
        cfg = DetectionConfig(
            channel_1=DetectorChannel(eta, "sigma-"),
            channel_2=DetectorChannel(0.0, "sigma+"))
        d1, _ = detect(weak_emissions, cfg, seed=3)
        n_minus = len(weak_emissions.select(pol="sigma-", wavelength="397"))
        expect = eta * n_minus
        sigma = np.sqrt(expect * (1 - eta))
        assert abs(len(d1) - expect) < 5 * sigma

    def test_crosstalk_mixes_orthogonal_sigma(self, weak_emissions):
        cfg = DetectionConfig(
            channel_1=DetectorChannel(1.0, "sigma-", crosstalk=1.0),
            channel_2=DetectorChannel(0.0, "sigma+"))
        d1, _ = detect(weak_emissions, cfg, seed=4)
        # full crosstalk: only wrong-sigma photons pass, pi never does
        assert np.all(d1.pol == atom.POL_SIGMA_PLUS)

    def test_dark_counts_poisson_and_tagged(self, weak_emissions):
        rate = 2e5
        cfg = DetectionConfig(
            channel_1=DetectorChannel(0.0, "sigma-", dark_rate=rate),
            channel_2=DetectorChannel(0.0, "sigma+"))
        d1, d2 = detect(weak_emissions, cfg, seed=5)
        expect = rate * weak_emissions.duration_s
        assert abs(len(d1) - expect) < 5 * np.sqrt(expect)
        assert np.all(d1.pol == atom.POL_SIGMA_MINUS)
        assert len(d2) == 0
        assert np.all(np.diff(d1.timestamps_ps) > 0)

    def test_dark_count_never_lands_on_duration(self):
        em = ClickStream([10, 99], [0, 0], [0, 0], duration_ps=100)
        cfg = DetectionConfig(DetectorChannel(1.0, "sigma-", dark_rate=2e10),
                              DetectorChannel(0.0))
        for seed in range(20):
            d1, _ = detect(em, cfg, seed=seed)
            assert d1.timestamps_ps[-1] < d1.duration_ps
            assert np.all(np.diff(d1.timestamps_ps) > 0)

    def test_more_dark_counts_than_slots_rejected(self):
        em = ClickStream([10, 99], [0, 0], [0, 0], duration_ps=100)
        cfg = DetectionConfig(DetectorChannel(1.0, "sigma-", dark_rate=1e13),
                              DetectorChannel(0.0))
        with pytest.raises(ValueError, match="dark rate"):
            detect(em, cfg, seed=1)

    def test_deterministic_per_seed(self, weak_emissions):
        cfg = DetectionConfig(DetectorChannel(0.4, "sigma-"),
                              DetectorChannel(0.4, "sigma+"))
        a1, a2 = detect(weak_emissions, cfg, seed=9)
        b1, b2 = detect(weak_emissions, cfg, seed=9)
        assert np.array_equal(a1.timestamps_ps, b1.timestamps_ps)
        assert np.array_equal(a2.timestamps_ps, b2.timestamps_ps)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectorChannel(efficiency=1.2)
        with pytest.raises(ValueError):
            DetectorChannel(efficiency=0.5, accepted_pol="diag")
        with pytest.raises(ValueError):
            DetectorChannel(efficiency=0.5, crosstalk=-0.1)
        with pytest.raises(ValueError):
            DetectionConfig(DetectorChannel(0.6), DetectorChannel(0.6))
        with pytest.raises(ValueError):
            DetectionConfig(DetectorChannel(0.5), DetectorChannel(0.5),
                            wavelength="532")
