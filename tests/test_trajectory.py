"""Quantum-jump sampler statistics and the detector model."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from ionpair import atom
from ionpair.dynamics import Model, NumericalError
from ionpair.params import ExperimentParams, TWO_PI, get_preset
from ionpair import trajectory as T
from ionpair.trajectory import (ClickStream, DetectionConfig, DetectorChannel,
                                _bump, _JumpSampler, detect, ideal_pair_config,
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

    def test_select(self, weak_emissions):
        blue = weak_emissions.select(wavelength="397")
        assert np.all(blue.wavelength == atom.WL_397)
        minus = weak_emissions.select(pol="sigma-", wavelength="397")
        assert np.all(minus.pol == atom.POL_SIGMA_MINUS)
        assert len(minus) < len(blue) < len(weak_emissions)
        with pytest.raises(ValueError):
            weak_emissions.select(pol="left")


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
        exact = np.log(sampler._survival(atom.S_PLUS, mids))
        interp = np.interp(mids, table.t, log_s)
        assert np.max(np.abs(interp - exact)) < 5e-3

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


def _renewal(s):
    """(rate, chain) from a _JumpSampler's arrays in closed form.

    From level s, psi(t) = V exp(-i w t) V^-1 |s>, so the mean waiting
    time int S dt and each channel's probability rate_c int |psi_up|^2 dt
    are quadratic forms in the kernel K_ij = int_0^inf
    exp(i(conj(w_i) - w_j) t) dt = 1 / (i (w_j - conj(w_i))).  `chain`
    is the embedded jump chain over the six lower levels; `rate` is
    1 / sum_s pi_s E[tau_s] under its stationary law pi.
    """
    kern = 1.0 / (1j * (s.w[None, :] - s.w.conj()[:, None]))
    gram = s.v.conj().T @ s.v
    mean_wait = np.empty(len(_LOWER))
    chain = np.zeros((len(_LOWER), len(_LOWER)))
    for row, source in enumerate(_LOWER):
        c = s.v_inv[:, source]
        mean_wait[row] = np.real(c.conj() @ (gram * kern) @ c)
        for rate, upper, lower in zip(s.ch_rate, s.ch_upper, s.ch_lower):
            a = s.v[upper] * c
            chain[row, _LOWER.index(lower)] += \
                rate * np.real(a.conj() @ kern @ a)
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
        # channel c has probability rate_c int |psi_upper(t)|^2 dt, a
        # quadratic form in the kernel of _renewal
        s = _JumpSampler(get_preset("spectrum"))
        kern = 1.0 / (1j * (s.w[None, :] - s.w.conj()[:, None]))
        c = s.v_inv[:, source]
        probs = np.array([rate * np.real((s.v[up] * c).conj() @ kern
                                         @ (s.v[up] * c))
                          for rate, up in zip(s.ch_rate, s.ch_upper)])
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
        d1, d2 = detect(weak_emissions, ideal_pair_config(0.5), seed=2)
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
        cfg = ideal_pair_config(0.4)
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
