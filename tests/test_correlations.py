"""Correlation functions against closed forms and frozen model anchors.

The two-level oracle: with pure pi drive at zero field the S/P system is
an exact pair of two-level atoms sharing one Rabi frequency, so the total
P population must follow the textbook resonance-fluorescence solution.
That pins the coupling normalization of the Hamiltonian independently of
any eight-level numerics.
"""

import csv
import math
import re
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import ionpair.correlations as C
from ionpair import atom, dynamics
from ionpair.dynamics import Model
from ionpair.params import ExperimentParams, NumericalError, TWO_PI, get_preset

WEAK = get_preset("weak")
STRONG = get_preset("strong")


@pytest.fixture(scope="module")
def weak_pair():
    return C.g2_pair(WEAK, "sigma-")


@pytest.fixture(scope="module")
def strong_pair():
    return C.g2_pair(STRONG, "sigma-")


class TestTwoLevelOracle:
    """Pure pi drive, B = 0: the eight-level model must reduce to the
    closed-form two-level excited population

        rho_ee(t) = rho_ee(inf) * [1 - exp(-3 G t/4) (cos w t + 3G/(4w) sin w t)]

    with w = sqrt(W_R^2 - (G/4)^2) and W_R = 2 * omega * |CG| = 2 omega / sqrt(3).
    A tiny D leak stands in for gamma_dp = 0, which would make the steady
    state degenerate; it perturbs the window below at the 1e-3 level.
    """

    def test_resonant_rabi_oscillation(self):
        gamma = TWO_PI * 20.7e6
        omega = TWO_PI * 30.0e6
        p = ExperimentParams(omega_397=omega, omega_866=0.0,
                             delta_397=0.0, delta_866=0.0, b_field=0.0,
                             alpha_397=0.0, alpha_866=0.0,
                             gamma_sp=gamma, gamma_dp=1e-4 * gamma)
        rho0 = np.zeros((8, 8), complex)
        rho0[atom.S_MINUS, atom.S_MINUS] = 1.0
        grid = np.linspace(0.0, 150e-9, 601)
        pops = Model(p).populations(rho0, grid)
        p_exc = pops[:, atom.P_MINUS] + pops[:, atom.P_PLUS]

        w_r = 2.0 * omega / math.sqrt(3.0)
        w = math.sqrt(w_r ** 2 - (gamma / 4.0) ** 2)
        envelope = np.exp(-0.75 * gamma * grid)
        closed = (w_r ** 2 / (gamma ** 2 + 2.0 * w_r ** 2)) * (
            1.0 - envelope * (np.cos(w * grid)
                              + (0.75 * gamma / w) * np.sin(w * grid)))
        assert np.abs(p_exc - closed).max() < 1.5e-2

    def test_detuned_saturation_formula(self):
        gamma = TWO_PI * 20.7e6
        omega = TWO_PI * 12.0e6
        delta = TWO_PI * 7.0e6
        p = ExperimentParams(omega_397=omega, omega_866=0.0,
                             delta_397=delta, delta_866=0.0, b_field=0.0,
                             alpha_397=0.0, alpha_866=0.0,
                             gamma_sp=gamma, gamma_dp=1e-4 * gamma)
        rho0 = np.zeros((8, 8), complex)
        rho0[atom.S_PLUS, atom.S_PLUS] = 1.0
        # quasi-steady window: transients gone, D leak still negligible
        grid = np.linspace(0.0, 120e-9, 241)
        pops = Model(p).populations(rho0, grid)
        p_exc = (pops[:, atom.P_MINUS] + pops[:, atom.P_PLUS])[grid > 80e-9]
        w_r = 2.0 * omega / math.sqrt(3.0)
        expect = (w_r ** 2 / 4.0) / (delta ** 2 + gamma ** 2 / 4.0 + w_r ** 2 / 2.0)
        assert np.mean(p_exc) == pytest.approx(expect, rel=2e-2)


def _assert_total_is_weighted_mixture(params):
    """g2_total = sum_ab w_a w_b g2(a|b), with w the steady feeding
    weights rho_P / (rho_P- + rho_P+) of the two sigma channels."""
    rss = Model(params).steady
    feed = np.array([rss[atom.P_MINUS, atom.P_MINUS].real,
                     rss[atom.P_PLUS, atom.P_PLUS].real])
    w = dict(zip(("sigma-", "sigma+"), feed / feed.sum()))
    grid = C.default_grid(200e-9, 2e-9)
    mix = sum(w[a] * w[b] * curve.values
              for a in w for b, curve in zip(w, C.g2_pair(params, a, grid)))
    total = C.g2_total(params, grid).values
    assert np.allclose(total, mix, rtol=0.0, atol=1e-13 * total.max())


_FROZEN_G2 = {
    "weak": {
        "sigma-|sigma-": [1.164856938424661, 7.793434303842022,
                          16.095442951607584, 9.813427028977912],
        "sigma-|sigma+": [5.051388441601578e-05, 0.012176422640712312,
                          0.29658542185370296, 2.0376747869153022],
        "sigma+|sigma-": [5.05138015110711e-05, 0.012176196927651334,
                          0.2965512347773081, 2.0352035485422686],
        "sigma+|sigma+": [1.1514193805324646, 6.8532979101745655,
                          8.1075886131506, 5.138119533222341],
        "total": [0.5790943366607625, 3.667771208396238,
                  6.199042055347302, 4.756106224414457],
    },
    "strong": {
        "sigma-|sigma-": [0.5112361477861536, 2.574474118088685,
                          1.8606725483168305, 1.3098549224667835],
        "sigma-|sigma+": [0.00011038799312277613, 0.022648200325703,
                          0.27667568508745716, 0.8034324999450156],
        "sigma+|sigma-": [0.00011037901449538118, 0.022627645889092655,
                          0.27565292533569935, 0.8016960681381928],
        "sigma+|sigma+": [0.5053810550774106, 2.307204613277882,
                          2.6012018673846367, 1.3701715460335664],
        "total": [0.25420949246779556, 1.2317386443953406,
                  1.2535507565311559, 1.0712887591458897],
    },
    "spectrum": {
        "sigma-|sigma-": [0.9310497550745299, 6.197548063189065,
                          12.51193324341084, 7.16309357956454],
        "sigma-|sigma+": [0.015203784818359382, 0.11057032291238765,
                          0.46066924676353893, 1.8533950032907998],
        "sigma+|sigma-": [0.014791436289170014, 0.10217679173918122,
                          0.39967368794651353, 1.8299408047606176],
        "sigma+|sigma+": [0.9405099997007542, 5.568819432507792,
                          6.438265706151159, 4.044477630911961],
        "total": [0.47539165436058206, 2.9985319586482966,
                  4.986137658532187, 3.739876971492252],
    },
}


class TestConditionedG2:
    def test_g2_zero_vanishes_all_kinds(self, weak_pair):
        # the atom is in the ground state right after the first photon
        minus, plus = weak_pair
        assert abs(minus.values[0]) < 1e-10
        assert abs(plus.values[0]) < 1e-10
        total = C.g2_total(WEAK, C.default_grid(50e-9))
        assert abs(total.values[0]) < 1e-10

    def test_long_delay_approaches_one(self):
        # slowest relaxation here is the weak D repumping, tens of us
        grid = C.default_grid(80e-6, 40e-9)
        minus, plus = C.g2_pair(WEAK, "sigma-", grid)
        assert minus.values[-1] == pytest.approx(1.0, abs=1e-5)
        assert plus.values[-1] == pytest.approx(1.0, abs=1e-5)

    def test_frozen_weak_peaks(self, weak_pair):
        """Anchors frozen from an independently written prototype."""
        minus, plus = weak_pair
        t_m, v_m = minus.peak()
        assert v_m == pytest.approx(16.49, rel=1e-3)
        assert t_m == pytest.approx(28.5e-9, abs=0.5e-9)
        t_p, v_p = plus.peak()
        assert v_p == pytest.approx(3.212, rel=1e-3)
        assert t_p == pytest.approx(360e-9, abs=2e-9)

    def test_frozen_strong_peak_and_no_overshoot(self, strong_pair):
        minus, plus = strong_pair
        t_m, v_m = minus.peak()
        assert v_m == pytest.approx(2.833, rel=1e-3)
        assert t_m == pytest.approx(13.0e-9, abs=0.5e-9)
        assert plus.values.max() <= 1.0 + 1e-6

    @pytest.mark.parametrize("preset", sorted(_FROZEN_G2))
    def test_frozen_curves(self, preset):
        """Every kind at 3, 10, 24 and 100 ns, frozen from the eigenbasis
        propagation in the complex vec(rho) basis; any rewrite of the
        propagation core must reproduce them to round-off."""
        params = get_preset(preset)
        grid = np.array([0.0, 3e-9, 10e-9, 24e-9, 100e-9])
        curves = [*C.g2_pair(params, "sigma-", grid),
                  *C.g2_pair(params, "sigma+", grid),
                  C.g2_total(params, grid)]
        for curve in curves:
            frozen = np.array(_FROZEN_G2[preset][curve.kind])
            dev = np.abs(curve.values[1:] - frozen).max()
            assert dev <= 1e-12 * frozen.max(), curve.kind

    def test_mirror_symmetry_at_zero_field(self):
        # with B = 0 the m -> -m reflection is exact: preparing sigma-
        # and watching P-1/2 must mirror preparing sigma+ and watching
        # P+1/2.  Compare raw populations; g2 normalization is unusable
        # at B = 0 (dark-state trapping, next test).
        p = WEAK.replace(b_field=0.0, alpha_397=0.3 * math.pi,
                         alpha_866=0.7 * math.pi)
        model = Model(p)
        grid = C.default_grid(400e-9, 2e-9)
        rho_m = np.zeros((8, 8), complex)
        rho_m[atom.S_PLUS, atom.S_PLUS] = 1.0
        rho_p = np.zeros((8, 8), complex)
        rho_p[atom.S_MINUS, atom.S_MINUS] = 1.0
        pops_m = model.populations(rho_m, grid)
        pops_p = model.populations(rho_p, grid)
        assert np.allclose(pops_m[:, atom.P_MINUS], pops_p[:, atom.P_PLUS],
                           atol=1e-12)
        assert np.allclose(pops_m[:, atom.P_PLUS], pops_p[:, atom.P_MINUS],
                           atol=1e-12)

    @pytest.mark.parametrize("preset", ["weak", "strong", "spectrum"])
    def test_mirror_symmetry_at_nonzero_field(self, preset):
        # m -> -m maps the field B to -B and swaps sigma- with sigma+:
        # g2(s-|s-; B) = g2(s+|s+; -B) and g2(s-|s+; B) = g2(s+|s-; -B).
        # ExperimentParams keeps B >= 0, so the mirrored Model negates the
        # Zeeman weight (coefficient 2) of R before its first read-out.
        p = get_preset(preset)
        grid = C.default_grid(400e-9, 0.5e-9)
        mirrored = Model(p)
        coef = atom.liouvillian_coefficients(p)
        coef[2] = -coef[2]
        mirrored.real = (coef @ dynamics._REAL_TERMS).reshape(
            mirrored.real.shape)
        same, cross = C.g2_pair(p, "sigma-", grid)
        cross_m, same_m = C.g2_pair(mirrored, "sigma+", grid)
        for curve, mirror in ((same, same_m), (cross, cross_m)):
            dev = np.abs(curve.values - mirror.values).max()
            assert dev <= 1e-13 * curve.values.max(), curve.kind

    def test_zero_field_dark_trapping_guarded(self):
        from ionpair.dynamics import NumericalError
        p = WEAK.replace(b_field=0.0)
        with pytest.raises(NumericalError, match="dark"):
            C.g2_pair(p, "sigma-", C.default_grid(50e-9))

    def test_uncoupled_level_trapping_names_level_and_causes(self):
        from ionpair.dynamics import NumericalError
        # a pi repumper leaves D(+-3/2) uncoupled at any field
        p = WEAK.replace(alpha_397=0.0, alpha_866=math.pi)
        with pytest.raises(NumericalError,
                           match=r"P\(-1/2\) population .*zero magnetic "
                                 r"field, or a laser polarization"):
            C.g2_pair(p, "sigma-", C.default_grid(50e-9))

    def test_total_is_population_weighted_mixture(self):
        # weak and strong have w = 1/2, the spectrum preset does not
        for name in ("weak", "strong", "spectrum"):
            _assert_total_is_weighted_mixture(get_preset(name))

    # angles of 0 or pi can leave one P sublevel unpopulated (a dark
    # state), where the g2 normalization is undefined
    @settings(max_examples=20, database=None)
    @given(b_field=st.floats(0.5, 10.0),
           delta_397_mhz=st.floats(-40.0, 0.0),
           omega_397_mhz=st.floats(1.0, 40.0),
           omega_866_mhz=st.floats(0.5, 20.0),
           alpha_397_pi=st.floats(0.1, 0.9),
           alpha_866_pi=st.floats(0.1, 0.9))
    def test_total_mixture_random_parameters(
            self, b_field, delta_397_mhz, omega_397_mhz, omega_866_mhz,
            alpha_397_pi, alpha_866_pi):
        _assert_total_is_weighted_mixture(WEAK.replace(
            b_field=b_field, delta_397=TWO_PI * delta_397_mhz * 1e6,
            omega_397=TWO_PI * omega_397_mhz * 1e6,
            omega_866=TWO_PI * omega_866_mhz * 1e6,
            alpha_397=alpha_397_pi * math.pi,
            alpha_866=alpha_866_pi * math.pi))

    def test_kind_labels_and_meta(self, weak_pair):
        minus, plus = weak_pair
        assert minus.kind == "sigma-|sigma-"
        assert plus.kind == "sigma-|sigma+"
        assert minus.meta["params"] == WEAK.fingerprint()

    def test_bad_pol_rejected(self):
        with pytest.raises(ValueError):
            C.g2_conditioned(WEAK, "pi", "sigma-")
        with pytest.raises(ValueError):
            C.g2_conditioned(WEAK, "sigma-", "left")


@pytest.fixture(scope="module")
def short_pair():
    return C.g2_pair(WEAK, "sigma-", C.default_grid(1.2e-9, 0.02e-9))


class TestShortTimeExponents:
    def test_frozen_slopes(self, short_pair):
        minus, plus = short_pair
        assert C.short_time_exponent(minus) == pytest.approx(1.969, abs=0.01)
        assert C.short_time_exponent(plus) == pytest.approx(4.969, abs=0.02)

    def test_window_validation(self, short_pair):
        minus, _ = short_pair
        with pytest.raises(ValueError):
            C.short_time_exponent(minus, window=(1e-9, 1.01e-9))
        zero = C.CorrelationCurve(tau=minus.tau, values=np.zeros_like(minus.values),
                                  kind="x")
        with pytest.raises(ValueError):
            C.short_time_exponent(zero)


class TestDefaultGrid:
    @pytest.mark.parametrize("t_max, dt, steps", [
        (1e-9, 0.6e-9, 1),          # round() took 2: 1.2 ns
        (1e-9, 0.4e-9, 2),
        (1e-9, 0.5e-9, 2),
        (1e-9, 1e-9, 1),
        (0.7e-9, 0.1e-9, 7),        # 6.999999999999999 by division
        (2e-9 * (1 - 1e-12), 1e-9, 1),
        (1.0, 1e-12, 10**12)])
    def test_last_multiple_not_above_t_max(self, t_max, dt, steps):
        assert C._steps(t_max, dt) == steps
        if steps < 10**6:
            grid = C.default_grid(t_max, dt)
            assert grid.size == steps + 1 and grid[1] == dt
            assert grid[-1] <= t_max * (1 + 1e-15)

    @pytest.mark.parametrize("t_max, dt", [(1e300, 2e-9),
                                           (np.float64(1e300), 2e-9),
                                           (1.7976931348623157e308, 1.0)])
    def test_steps_past_the_float_range_are_rejected(self, t_max, dt):
        with pytest.raises(ValueError, match=re.escape(
                f"t_max={t_max} over dt={dt} is not a finite")):
            C._steps(t_max, dt)

    @settings(max_examples=200, database=None)
    @given(dt=st.floats(1e-12, 1e-6), n=st.integers(1, 10**6))
    def test_round_off_below_a_multiple_keeps_it(self, dt, n):
        assert C._steps(n * dt, dt) == n


class TestPurity:
    def test_frozen_purity_and_pair_probability(self):
        p24 = C.purity(WEAK, 24e-9)
        assert p24 == pytest.approx(128.2395, rel=1e-6)
        assert C.pair_probability(p24) == pytest.approx(0.992262, abs=1e-6)
        assert C.purity(STRONG, 24e-9) == pytest.approx(23.4680, rel=1e-5)

    def test_purity_curve_monotone_tail(self):
        # integrated sigma+ keeps growing relative to sigma-, so p falls
        tau, p = C.purity_curve(WEAK)
        assert np.array_equal(tau, C.default_grid()[1:])
        sel = tau > 50e-9
        assert np.all(np.diff(p[sel]) < 0)

    @pytest.mark.parametrize("errors", [
        C.ErrorModel(), C.ErrorModel(eps_init=0.025, eps_minus=0.05,
                                     eps_plus=0.018)])
    def test_exact_integrals_are_the_trapezoid_limit(self, errors):
        # the ratio of the integrated g2_pair curves, as measured through
        # the same errors; the trapezoid's error on a 5 ps grid is 4e-8
        from scipy.integrate import trapezoid
        grid = C.default_grid(24e-9, 0.005e-9)
        minus, plus = C.g2_pair(WEAK, "sigma-", grid, errors)
        ratio = trapezoid(minus.values, grid) / trapezoid(plus.values, grid)
        assert C.purity(WEAK, 24e-9, errors) == pytest.approx(ratio,
                                                              rel=1e-6)
        assert C.purity_curve(WEAK, grid, errors)[1][-1] == pytest.approx(
            ratio, rel=1e-6)

    def test_window_validation(self):
        # any positive window, on no grid at all
        model = Model(WEAK)
        tau, p = C.purity_curve(model, np.array([0.0, 12e-9, 24.3e-9]))
        assert C.purity(model, 24.3e-9) == p[-1]
        for t_window in (0.0, -1e-9, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="window"):
                C.purity(model, t_window)

    def test_unresolved_window_is_a_numerical_error(self):
        # both integrals are positive for T > 0; at 1 fs round-off leaves
        # the sigma-|sigma+ one negative (-2.1e-31 on weak)
        for params in (WEAK, STRONG):
            model = Model(params)
            tau, p = C.purity_curve(model, np.array([0.0, 1e-15, 24e-9]))
            assert math.isnan(p[0]) and p[1] > 0
            with pytest.raises(NumericalError, match="lost in round-off"):
                C.purity(model, 1e-15)
            assert not np.any(np.isnan(C.purity_curve(model)[1]))

    def test_list_grids_give_array_delays(self):
        grid = list(C.default_grid(1.2e-9, 0.02e-9))
        minus, plus = C.g2_pair(WEAK, "sigma-", grid)
        total = C.g2_total(WEAK, grid)
        for curve in (minus, plus, total):
            assert isinstance(curve.tau, np.ndarray)
            assert np.array_equal(curve.tau, np.array(grid))
        assert C.short_time_exponent(minus) == pytest.approx(1.969, abs=0.01)

    def test_pair_probability_arithmetic(self):
        assert C.pair_probability(10.0) == pytest.approx(10.0 / 11.0)
        assert C.pair_probability(0.0) == 0.0
        assert C.pair_probability(float("inf")) == 1.0
        with pytest.raises(ValueError):
            C.pair_probability(-0.1)

    def test_nan_purity_ratio_rejected(self):
        with pytest.raises(ValueError, match="must be non-negative"):
            C.pair_probability(math.nan)


class TestErrorModel:
    def test_zero_errors_reproduce_ideal(self):
        for first in ("sigma-", "sigma+"):
            ideal = C.g2_pair(WEAK, first)
            measured = C.g2_pair(WEAK, first, errors=C.ErrorModel(0, 0, 0))
            for a, b in zip(ideal, measured):
                assert np.array_equal(a.values, b.values)

    def test_mixing_is_affine(self, weak_pair):
        minus, plus = weak_pair
        errors = C.ErrorModel(eps_init=0.0, eps_minus=0.2, eps_plus=0.1)
        em, ep = C.g2_pair(WEAK, "sigma-", errors=errors)
        assert np.allclose(em.values, 0.8 * minus.values + 0.2 * plus.values,
                           atol=1e-12)
        assert np.allclose(ep.values, 0.9 * plus.values + 0.1 * minus.values,
                           atol=1e-12)
        # measured curves keep the plain labels; the errors go to meta
        assert (em.kind, ep.kind) == ("sigma-|sigma-", "sigma-|sigma+")
        assert em.meta["eps_minus"] == 0.2 and ep.meta["eps_plus"] == 0.1

    def test_init_error_mixes_prepared_state(self):
        grid = C.default_grid(200e-9, 1e-9)
        errors = C.ErrorModel(eps_init=0.3)
        em, _ = C.g2_pair(WEAK, "sigma-", grid, errors)
        mm = C.g2_conditioned(WEAK, "sigma-", "sigma-", grid)
        pm = C.g2_conditioned(WEAK, "sigma+", "sigma-", grid)
        assert np.allclose(em.values, 0.7 * mm.values + 0.3 * pm.values,
                           atol=1e-9)

    def test_frozen_degraded_purity(self):
        """Model value for the quoted analyzer errors; the purity plateau
        sits near 22 and peaks between 10 and 30 ns."""
        errors = C.ErrorModel(eps_init=0.025, eps_minus=0.05, eps_plus=0.018)
        assert C.purity(WEAK, 24e-9, errors) == pytest.approx(21.843,
                                                              rel=1e-4)
        tau, p = C.purity_curve(WEAK, errors=errors)
        t_pk = tau[np.argmax(p)]
        assert 5e-9 < t_pk < 40e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            C.ErrorModel(eps_init=-0.01)
        with pytest.raises(ValueError):
            C.ErrorModel(eps_minus=0.6)

    @pytest.mark.parametrize("name", ["eps_init", "eps_minus", "eps_plus"])
    def test_errors_name_the_field(self, name):
        with pytest.raises(ValueError, match=rf"{name} must be finite"):
            C.ErrorModel(**{name: math.nan})
        with pytest.raises(ValueError,
                           match=rf"{name} must lie in \[0, 0.5\], got 0.7"):
            C.ErrorModel(**{name: 0.7})
        assert getattr(C.ErrorModel(**{name: 0.5}), name) == 0.5


class TestSigmaChannels:
    """The two 397 sigma channels come from atom.TRANSITIONS; the read-outs
    equal the literal P(-+1/2) -> S(+-1/2), amplitude^2 = 2/3 forms."""

    def test_channel_rows(self):
        minus, plus = C._CHANNEL["sigma-"], C._CHANNEL["sigma+"]
        assert (minus.upper, minus.lower) == (atom.P_MINUS, atom.S_PLUS)
        assert (plus.upper, plus.lower) == (atom.P_PLUS, atom.S_MINUS)
        assert minus.amplitude ** 2 == plus.amplitude ** 2 == 2.0 / 3.0

    def test_heralded_state(self):
        rho = C._heralded(0.3)
        want = np.zeros((8, 8), complex)
        want[atom.S_PLUS, atom.S_PLUS] = 0.3
        want[atom.S_MINUS, atom.S_MINUS] = 0.7
        assert np.array_equal(rho, want)

    @pytest.mark.parametrize("preset", ["weak", "strong", "spectrum"])
    def test_read_outs_bit_identical_to_literal_forms(self, preset):
        model = Model(get_preset(preset))
        gamma = model.params.gamma_sp
        for pol, lvl, s in (("sigma-", atom.P_MINUS, atom.S_PLUS),
                            ("sigma+", atom.P_PLUS, atom.S_MINUS)):
            rate = (2.0 / 3.0) * gamma * model.steady[lvl, lvl].real
            assert C.emission_rate(model, pol) == rate
            rho0 = np.zeros((8, 8), complex)
            rho0[s, s] = 1.0
            occ = model.cumulative(rho0, [0.0, 24e-9])[-1, lvl]
            assert C.mean_photon_number(model, pol, 24e-9) \
                == float((2.0 / 3.0) * gamma * occ)


class TestPhotonBudget:
    def test_conditioned_integral_matches_van_loan(self):
        # Van Loan (IEEE TAC 23, 395, 1978): the last column of
        # expm([[L, x0], [0, 0]] T) holds int_0^T exp(L t) x0 dt
        rho0 = np.zeros((8, 8), complex)
        rho0[atom.S_PLUS, atom.S_PLUS] = 1.0
        for params in (WEAK, STRONG):
            mat = atom.build_liouvillian(params)
            block = np.zeros((65, 65), complex)
            block[:64, :64] = mat
            block[:64, 64] = rho0.reshape(-1)
            grid = np.array([0.0, 12e-9, 24e-9, 30e-6])
            got = Model(params).cumulative(rho0, grid)
            for t_window, row in zip(grid[1:], got[1:]):
                ref = scipy.linalg.expm(block * t_window)[:64:9, 64].real
                assert np.abs(row - ref).max() <= 1e-10 * np.abs(ref).max()
                n = C.mean_photon_number(params, "sigma-", t_window)
                expect = (2.0 / 3.0) * params.gamma_sp * ref[atom.P_MINUS]
                assert n == pytest.approx(expect, rel=1e-10)

    def test_frozen_budgets(self):
        assert C.mean_photon_number(WEAK, "sigma-", 24e-9) == pytest.approx(
            0.1283, rel=1e-3)
        assert C.mean_photon_number(STRONG, "sigma-", 24e-9) == pytest.approx(
            0.2989, rel=1e-3)
        assert C.mean_photon_number(STRONG, "sigma-", 12e-9) == pytest.approx(
            0.1118, rel=1e-3)

    def test_late_window_increment_is_steady_rate(self):
        # the conditioned transient converges, so photon counts gained
        # between 30 and 60 us come from the steady rate alone
        n_60 = C.mean_photon_number(WEAK, "sigma-", 60e-6)
        n_30 = C.mean_photon_number(WEAK, "sigma-", 30e-6)
        rate = C.emission_rate(WEAK, "sigma-")
        assert (n_60 - n_30) / 30e-6 == pytest.approx(rate, rel=1e-3)

    def test_emission_rate_uses_branching(self):
        rss = Model(STRONG).steady
        expect = (2.0 / 3.0) * STRONG.gamma_sp * rss[3, 3].real
        assert C.emission_rate(STRONG, "sigma+") == pytest.approx(expect)

    def test_window_validation(self):
        for t_window in (0.0, -1e-9, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="window"):
                C.mean_photon_number(WEAK, "sigma-", t_window)


class TestModelMemo:
    """Consecutive read-outs given one bit-identical parameter set share
    one Model."""

    GRID = C.default_grid(100e-9, 2e-9)

    def test_equal_sets_share_one_model(self, tmp_path, models_built):
        path = tmp_path / "p.json"
        WEAK.save(path)
        a, b = ExperimentParams.load(path), ExperimentParams.load(path)
        assert a is not b and a == b
        C.g2_pair(a, "sigma-", self.GRID)
        C.g2_total(b, self.GRID)
        C.g2_pair(a, "sigma+", self.GRID, C.ErrorModel(0.02, 0.01, 0.01))
        C.purity(b, 24e-9)
        C.mean_photon_number(a, "sigma-", 24e-9)
        C.mean_photon_number(b, "sigma+", 24e-9)
        C.emission_rate(a, "sigma-")
        C.emission_rate(b, "sigma+")
        assert models_built == [a]

    def test_bit_distinct_sets_get_distinct_models(self, models_built):
        # omega_397 two and three ulps above weak's: one MHz file value,
        # so one fingerprint, for two sets
        up = math.nextafter(math.nextafter(WEAK.omega_397, math.inf),
                            math.inf)
        ulp = [WEAK.replace(omega_397=v)
               for v in (up, math.nextafter(up, math.inf))]
        assert ulp[0].fingerprint() == ulp[1].fingerprint()
        sets = [WEAK.replace(delta_866=-0.0), WEAK.replace(delta_866=0.0),
                *ulp]
        for p in sets:
            for _ in range(2):
                minus, plus = C.g2_pair(p, "sigma-", self.GRID)
                total = C.g2_total(p, self.GRID)
                for curve in (minus, plus, total):
                    assert curve.meta["params"] == p.fingerprint()
        assert [repr(p) for p in models_built] == [repr(p) for p in sets]

    def test_only_the_last_set_is_kept(self, models_built):
        a, b = WEAK, WEAK.replace(b_field=2.0)
        for p in (a, a, b, b, a):
            C.emission_rate(p, "sigma-")
        assert models_built == [a, b, a]
        assert C._kept.cache_info().currsize == 1

    def test_model_argument_is_not_kept(self):
        model = Model(WEAK)
        C.g2_pair(model, "sigma-", self.GRID)
        C.purity(model, 24e-9)
        C.emission_rate(model, "sigma+")
        assert C._kept.cache_info().currsize == 0
        assert C._model(WEAK) is not model
        assert C._model(model) is model

    def test_failed_set_raises_again(self, models_built):
        trapped = WEAK.replace(b_field=0.0)
        for _ in range(2):
            with pytest.raises(NumericalError, match="stationary state"):
                C.emission_rate(trapped, "sigma-")
            with pytest.raises(NumericalError, match="stationary state"):
                C.g2_total(trapped, self.GRID)
        assert models_built == [trapped]

    def test_threads_share_the_memo(self):
        # more threads than cores, switching every microsecond: no thread
        # may be handed another set's Model
        sets = [WEAK.replace(b_field=1.0 + 0.25 * k) for k in range(12)]
        errors = []

        def hammer(offset):
            try:
                for i in range(300):
                    p = sets[(offset + i // 3) % len(sets)]
                    assert C._model(p.replace()).params == p
            except BaseException as exc:
                errors.append(exc)
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert C._kept.cache_info().currsize == 1

    @settings(max_examples=30, database=None)
    @given(log10_b=st.floats(-1.0, 1.0),
           delta_397_mhz=st.floats(-40.0, 0.0),
           delta_866_mhz=st.floats(-40.0, 40.0),
           omega_397_mhz=st.floats(1.0, 40.0),
           omega_866_mhz=st.floats(0.5, 20.0),
           alpha_397_pi=st.floats(0.1, 0.9),
           alpha_866_pi=st.floats(0.1, 0.9))
    def test_warm_reads_equal_a_cold_model(
            self, log10_b, delta_397_mhz, delta_866_mhz, omega_397_mhz,
            omega_866_mhz, alpha_397_pi, alpha_866_pi):
        # the ranges of test_trajectory.TestRenewalIdentity
        p = WEAK.replace(
            b_field=10.0 ** log10_b, delta_397=TWO_PI * delta_397_mhz * 1e6,
            delta_866=TWO_PI * delta_866_mhz * 1e6,
            omega_397=TWO_PI * omega_397_mhz * 1e6,
            omega_866=TWO_PI * omega_866_mhz * 1e6,
            alpha_397=alpha_397_pi * math.pi,
            alpha_866=alpha_866_pi * math.pi)
        errors = C.ErrorModel(0.02, 0.01, 0.03)

        def read(x):
            pair = C.g2_pair(x, "sigma-", self.GRID, errors)
            return [*(c.values for c in pair),
                    C.g2_total(x, self.GRID).values,
                    *C.purity_curve(x, self.GRID, errors),
                    [C.mean_photon_number(x, pol, 24e-9)
                     for pol in (C.SIGMA_MINUS, C.SIGMA_PLUS)],
                    [C.emission_rate(x, pol)
                     for pol in (C.SIGMA_MINUS, C.SIGMA_PLUS)]]

        warm = C._model(p)                      # keeps p's Model
        assert C._model(p.replace()) is warm
        cold = read(Model(p))
        for got, want in zip(read(p.replace()), cold, strict=True):
            assert np.array_equal(got, want, equal_nan=True)
        assert C._model(p) is warm


@pytest.fixture(scope="module")
def spectrum():
    return C.excitation_spectrum(get_preset("spectrum"),
                                 C.default_spectrum_grid())


def _spectrum_oracle(params, grid):
    """Direct steady-state solve of the full Liouvillian at every point."""
    n = atom.N_LEVELS
    b = np.zeros(n * n, dtype=complex)
    b[0] = 1.0
    values, ok = np.full(grid.size, np.nan), np.zeros(grid.size, dtype=bool)
    for i, d in enumerate(grid):
        a = atom.build_liouvillian(params.replace(delta_866=d))
        a[0] = 0.0
        a[0, :: n + 1] = 1.0
        try:
            pops = np.linalg.solve(a, b).reshape(n, n).diagonal().real
        except np.linalg.LinAlgError:
            continue
        f = pops[atom.P_MINUS] + pops[atom.P_PLUS]
        if np.isfinite(f) and f >= -1e-9:
            values[i], ok[i] = f, True
    return values, ok


def _assert_matches_oracle(params, grid):
    curve = C.excitation_spectrum(params, grid)
    ref, ref_ok = _spectrum_oracle(params, grid)
    assert np.array_equal(curve.ok, ref_ok)
    assert np.all(np.isnan(curve.values[~curve.ok]))
    if ref_ok.any():
        dev = np.abs(curve.values[ref_ok] - ref[ref_ok]).max()
        assert dev <= 1e-9 * ref[ref_ok].max()


_FAR = np.array([-TWO_PI * 4000e6, TWO_PI * 4000e6])


class TestSpectrumAgainstDirectSolve:
    @pytest.mark.parametrize("preset", ["weak", "strong", "spectrum"])
    def test_default_grid_and_far_points(self, preset):
        grid = np.concatenate([C.default_spectrum_grid(), _FAR])
        _assert_matches_oracle(get_preset(preset), grid)

    @settings(max_examples=30, database=None)
    @given(b_field=st.floats(0.5, 10.0),
           delta_397_mhz=st.floats(-40.0, 0.0),
           omega_397_mhz=st.floats(1.0, 40.0),
           omega_866_mhz=st.floats(0.5, 20.0),
           alpha_397_pi=st.floats(0.0, 1.0),
           alpha_866_pi=st.floats(0.1, 0.9))
    def test_random_parameters(self, b_field, delta_397_mhz, omega_397_mhz,
                               omega_866_mhz, alpha_397_pi, alpha_866_pi):
        params = get_preset("spectrum").replace(
            b_field=b_field, delta_397=TWO_PI * delta_397_mhz * 1e6,
            omega_397=TWO_PI * omega_397_mhz * 1e6,
            omega_866=TWO_PI * omega_866_mhz * 1e6,
            alpha_397=alpha_397_pi * math.pi,
            alpha_866=alpha_866_pi * math.pi)
        grid = np.concatenate(
            [np.linspace(-TWO_PI * 40e6, TWO_PI * 40e6, 41), _FAR])
        _assert_matches_oracle(params, grid)

    def test_degenerate_two_photon_resonance_flags_only_its_point(self):
        # B = 0 and delta_397 = 0 put every two-photon resonance at
        # delta_866 = 0, where the steady state is not unique
        params = get_preset("spectrum").replace(
            b_field=0.0, delta_397=0.0, alpha_397=math.pi / 4,
            alpha_866=math.pi / 2)
        grid = np.linspace(-TWO_PI * 40e6, TWO_PI * 40e6, 81)
        curve = C.excitation_spectrum(params, grid)
        ref, ref_ok = _spectrum_oracle(params, grid)
        off = np.abs(grid) > TWO_PI * 1e3
        assert ref_ok[off].all()
        assert np.array_equal(curve.ok[off], ref_ok[off])
        np.testing.assert_allclose(curve.values[off], ref[off], rtol=0,
                                   atol=1e-12)

    def test_negative_fluorescence_is_flagged(self):
        # gamma_dp = 0 at 3e-8 G: the steady state is numerically not
        # unique (second singular value of L ~3e-17 of the largest), and
        # the closed form goes below zero at some detunings; those points
        # must come back flagged, not as a negative fluorescence.  Which
        # points go negative is round-off, so the test spreads over 20
        # sets jittered by 1e-3.
        rng = np.random.default_rng(5)
        grid = C.default_spectrum_grid(points=161)
        flagged = 0
        for _ in range(20):
            j = 1.0 + rng.uniform(-1e-3, 1e-3, size=7)
            params = ExperimentParams(
                omega_397=TWO_PI * 32.4e6 * j[0],
                omega_866=TWO_PI * 26.8e6 * j[1],
                delta_397=-TWO_PI * 5.7e6 * j[2], delta_866=0.0,
                b_field=3e-8 * j[3], alpha_397=0.05 * math.pi * j[4],
                alpha_866=0.4 * math.pi * j[5], gamma_dp=0.0,
                linewidth_866=TWO_PI * 0.5e6 * j[6])
            curve = C.excitation_spectrum(params, grid)
            assert np.all(np.isnan(curve.values[~curve.ok]))
            assert curve.values[curve.ok].min() >= -1e-9
            flagged += int((~curve.ok).sum())
        assert flagged >= 20

    @pytest.mark.parametrize("change", [{"omega_866": 0.0},
                                        {"alpha_866": 0.0}])
    def test_no_unique_steady_state_fails_every_point(self, change):
        params = get_preset("spectrum").replace(**change)
        grid = C.default_spectrum_grid(points=21)
        curve = C.excitation_spectrum(params, grid)
        assert not curve.ok.any()
        assert np.all(np.isnan(curve.values))
        assert not _spectrum_oracle(params, grid)[1].any()


class TestSpectrum:
    def test_exactly_four_dips(self, spectrum):
        dips = C.find_dips(spectrum)
        assert dips.size == 4

    def test_dips_match_raman_conditions(self, spectrum):
        dips = np.sort(C.find_dips(spectrum))
        raman = C.raman_positions(get_preset("spectrum"))
        assert raman.size == 4
        # within the narrow D-P linewidth, the strictest sensible bound
        assert np.abs(dips - raman).max() < TWO_PI * 1.69e6

    def test_raman_positions_hand_values(self):
        raman = C.raman_positions(get_preset("spectrum")) / TWO_PI / 1e6
        assert raman == pytest.approx([-25.777, -17.939, -12.061, -4.223],
                                      abs=2e-3)

    def test_scale_and_background_affine(self):
        p = get_preset("spectrum")
        grid = np.linspace(-TWO_PI * 30e6, TWO_PI * 10e6, 41)
        raw = C.excitation_spectrum(p, grid)
        scaled = C.excitation_spectrum(p, grid, scale=2.5e6, background=7.0)
        assert np.allclose(scaled.values, 7.0 + 2.5e6 * raw.values)

    def test_far_detuned_repumper_starves_fluorescence(self):
        p = get_preset("spectrum")
        grid = np.array([-TWO_PI * 4000e6, TWO_PI * 4000e6])
        far = C.excitation_spectrum(p, grid)
        near = C.excitation_spectrum(p, np.array([-TWO_PI * 5e6]))
        assert np.all(far.values < 0.02 * near.values[0])

    def test_scalar_detuning_is_a_one_point_scan(self):
        p = get_preset("spectrum")
        scalar = C.excitation_spectrum(p, -TWO_PI * 5e6)
        array = C.excitation_spectrum(p, np.array([-TWO_PI * 5e6]))
        assert scalar.ok.shape == (1,) and scalar.ok[0]
        assert scalar.values[0] == array.values[0]

    def test_grid_of_more_than_one_dimension_rejected(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the model was solved")

        monkeypatch.setattr(C, "Model", unreachable)
        with pytest.raises(ValueError, match=r"1-D, got shape \(2, 2\)"):
            C.excitation_spectrum(get_preset("spectrum"), np.zeros((2, 2)))

    def test_all_points_ok_on_default_grid(self, spectrum):
        assert spectrum.ok.all()

    @pytest.mark.parametrize("name, value", [
        ("scale", math.nan), ("scale", math.inf),
        ("background", math.nan), ("background", -math.inf)])
    def test_non_finite_scale_or_background_is_rejected_before_any_solve(
            self, monkeypatch, name, value):
        def unreachable(*args, **kwargs):
            raise AssertionError("the model was solved")

        monkeypatch.setattr(C, "Model", unreachable)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            C.excitation_spectrum(get_preset("spectrum"),
                                  C.default_spectrum_grid(points=5),
                                  **{name: value})

    @pytest.mark.parametrize("params", [
        get_preset("weak"), get_preset("spectrum"),
        get_preset("spectrum").replace(omega_866=0.0)])
    @pytest.mark.parametrize("scale, background", [
        (1.0, 0.0), (2.5e6, 7.0), (0.0, -3.0), (-1e3, 1e-300)])
    def test_ok_is_exactly_the_finite_values(self, params, scale, background):
        curve = C.excitation_spectrum(params, C.default_spectrum_grid(
            points=41), scale=scale, background=background)
        np.testing.assert_array_equal(curve.ok, np.isfinite(curve.values))


def _scipy_dips(spectrum, min_prominence):
    """Oracle: find_dips as it read on scipy.signal.find_peaks."""
    import scipy.signal

    v, x = spectrum.values, spectrum.delta_866
    swing = v.max() - v.min()
    if swing <= 0.0:
        return np.array([])
    idx, _ = scipy.signal.find_peaks(-v, prominence=min_prominence * swing)
    dips = []
    for i in idx:
        denom = v[i - 1] - 2.0 * v[i] + v[i + 1]
        offset = 0.5 * (v[i - 1] - v[i + 1]) / denom if denom > 0 else 0.0
        dips.append(x[i] + offset * (x[i + 1] - x[i]))
    return np.array(dips)


def _curve(values):
    v = np.asarray(values, dtype=float)
    return C.SpectrumCurve(delta_866=0.5 * np.arange(v.size) - 3.0,
                           values=v, ok=np.ones(v.size, dtype=bool))


class TestFindDips:
    @settings(max_examples=400, deadline=None)
    @given(values=st.one_of(
        # few levels: plateaus, and equal values far apart
        st.lists(st.integers(0, 3), min_size=1, max_size=40),
        st.lists(st.integers(-1, 1), min_size=1, max_size=80).map(np.cumsum),
        st.lists(st.floats(-1.0, 1.0), min_size=1,
                 max_size=300).map(np.cumsum)),
        min_prominence=st.sampled_from([0.0, 0.05, 0.1, 0.3]))
    def test_matches_scipy_find_peaks(self, values, min_prominence):
        curve = _curve(values)
        np.testing.assert_array_equal(
            C.find_dips(curve, min_prominence),
            _scipy_dips(curve, min_prominence))

    def test_matches_scipy_on_the_presets(self):
        for name in ("weak", "strong", "spectrum"):
            curve = C.excitation_spectrum(get_preset(name),
                                          C.default_spectrum_grid())
            for min_prominence in (0.0, 0.05, 0.1, 0.3):
                np.testing.assert_array_equal(
                    C.find_dips(curve, min_prominence),
                    _scipy_dips(curve, min_prominence))

    def test_prominence_by_hand(self):
        # minima at 1 (rises to 2 before the lower 0: prominence 1) and
        # at 3 (rises to 3 on the left, 4 on the right: prominence 3);
        # the swing is 4, so 0.3 keeps only the second
        curve = _curve([3.0, 1.0, 2.0, 0.0, 4.0])
        x = curve.delta_866
        assert C.find_dips(curve, 0.25).size == 2
        assert C.find_dips(curve, 0.3) == pytest.approx(
            [x[3] + 0.5 * (2.0 - 4.0) / 6.0 * (x[4] - x[3])])

    def test_empty_spectrum_has_no_dips(self):
        assert C.find_dips(_curve([])).size == 0

    def test_plateau_counts_once_at_its_middle(self):
        curve = _curve([2.0, 0.0, 0.0, 0.0, 0.0, 2.0])
        assert list(C.find_dips(curve, 0.3)) == [curve.delta_866[2]]


def _per_row_csv(path, x, columns, x_label, meta=None):
    """Oracle: the cell-by-cell csv.writer table that write_table_csv's
    single format call replaces."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key in sorted(meta or {}):
            fh.write(f"# {key} = {(meta or {})[key]}\n")
        writer = csv.writer(fh)
        writer.writerow([x_label, *columns.keys()])
        for i in range(len(x)):
            writer.writerow([f"{x[i]:.10g}",
                             *(f"{col[i]:.10g}" for col in columns.values())])


def _per_line_csv(path):
    """Oracle: the line-by-line csv.reader parser that read_table_csv's
    single np.loadtxt call replaces."""
    meta, rows = {}, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in filter(None, map(str.strip, fh)):
            if not line.startswith("#"):
                rows.append(next(csv.reader([line])))
            elif "=" in line:
                key, _, val = line[1:].partition("=")
                meta[key.strip()] = val.strip()
    header = rows.pop(0)
    data = np.array([[float(c) for c in row] for row in rows])
    columns = {n: data[:, j + 1] for j, n in enumerate(header[1:])}
    return data[:, 0], columns, meta


_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                     1.7976931348623157e308, 1e10, 123456789012.0]))


class TestCsvRoundTrip:
    def test_repeated_column_name_is_rejected(self, tmp_path):
        # a dict by name would keep only the last of the two columns
        path = tmp_path / "dup.csv"
        path.write_text("tau_ns,g2,err,g2\n0,1,0.1,2\n1,1,0.1,2\n")
        with pytest.raises(ValueError, match="column 'g2' appears more "
                                             "than once"):
            C.read_table_csv(path)
        # the x column is not a data column: its name may recur
        path.write_text("tau_ns,tau_ns\n0,1\n1,1\n")
        x, cols, _ = C.read_table_csv(path)
        assert list(cols) == ["tau_ns"] and cols["tau_ns"].tolist() == [1, 1]

    def test_table_round_trip(self, tmp_path, weak_pair):
        minus, plus = weak_pair
        path = tmp_path / "curves.csv"
        C.write_table_csv(path, minus.tau * 1e9,
                          {"g2_sigma_minus": minus.values,
                           "g2_sigma_plus": plus.values},
                          x_label="tau_ns",
                          meta={"params": WEAK.fingerprint()})
        x, cols, meta = C.read_table_csv(path)
        assert np.allclose(x, minus.tau * 1e9, rtol=1e-9)
        assert np.allclose(cols["g2_sigma_minus"], minus.values, rtol=1e-9)
        assert np.allclose(cols["g2_sigma_plus"], plus.values, rtol=1e-9)
        assert meta["params"] == WEAK.fingerprint()

    @settings(max_examples=100, database=None)
    @given(data=st.data(), rows=st.integers(0, 40), ncols=st.integers(0, 3),
           meta=st.dictionaries(st.sampled_from(["params", "command", "bin"]),
                                st.text("abc =0.5", max_size=8), max_size=2))
    def test_bytes_match_per_row_writer(self, data, rows, ncols, meta):
        x = np.array(data.draw(st.lists(_CELLS, min_size=rows,
                                        max_size=rows)))
        columns = {f"c{j}": np.array(data.draw(
            st.lists(_CELLS, min_size=rows, max_size=rows)))
            for j in range(ncols)}
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            C.write_table_csv(got, x, columns, "tau_ns", meta)
            _per_row_csv(want, x, columns, "tau_ns", meta)
            assert got.read_bytes() == want.read_bytes()

    @settings(max_examples=50, database=None)
    @given(data=st.data(), rows=st.integers(1, 20), ncols=st.integers(0, 3))
    def test_reads_match_per_line_reader(self, data, rows, ncols):
        x = np.array(data.draw(st.lists(_CELLS, min_size=rows,
                                        max_size=rows)))
        columns = {f"c{j}": np.array(data.draw(
            st.lists(_CELLS, min_size=rows, max_size=rows)))
            for j in range(ncols)}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            C.write_table_csv(path, x, columns, "tau_ns", {"bin": 4})
            got, want = C.read_table_csv(path), _per_line_csv(path)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1].keys() == want[1].keys()
        for name in got[1]:
            np.testing.assert_array_equal(got[1][name], want[1][name])
        assert got[2] == want[2] == {"bin": "4"}

    def test_hand_edited_table_reads_as_before(self, tmp_path):
        path = tmp_path / "edited.csv"
        path.write_bytes(b"# params = weak \r\n  #command=g2\n\n"
                         b"tau_ns, g2 ,\"err\"\r\n"
                         b"0, 1.5 ,\"0.25\"\n\n   \n"
                         b" 2.5e1,nan,-inf\r\n")
        x, cols, meta = C.read_table_csv(path)
        want_x, want_cols, want_meta = _per_line_csv(path)
        np.testing.assert_array_equal(x, want_x)
        assert cols.keys() == want_cols.keys() == {" g2 ", "err"}
        for name in cols:
            np.testing.assert_array_equal(cols[name], want_cols[name])
        assert meta == want_meta == {"params": "weak", "command": "g2"}
        assert x.tolist() == [0.0, 25.0]
        assert cols["err"].tolist() == [0.25, -math.inf]

    def test_ragged_and_empty_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(ValueError):
            C.read_table_csv(path)
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError):
            C.read_table_csv(path)

    @pytest.mark.parametrize("text, where", [
        ("# a = 1\n\nx,y\n1,2\n\n3,abc\n",
         "could not convert string 'abc' to float64 at line 6, column 2"),
        ("x,y\n1,2\n3,4,5\n", "requires 2 columns but 3 were found at line 3"),
        ("x,y\n1,2,5\n3,4\n", "requires 2 columns but 3 were found at line 2"),
        ("x,y\nabc,2\n3,4\n", "'abc' to float64 at line 2, column 1"),
        ("x,y\r\n1,2\r\n# note\r\n\r\n3\r\n",
         "requires 2 columns but 1 were found at line 5"),
    ])
    def test_errors_name_the_file_line(self, tmp_path, text, where):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as info:
            C.read_table_csv(path)
        assert where in str(info.value)
        assert "row" not in str(info.value)

    def test_deep_error_names_its_file_line(self, tmp_path):
        lines = ["# params = weak", "tau_ns,g2"]
        for i in range(3000):
            lines += [f"{i},{i / 7}"] + ([""] if i % 5 == 0 else []) \
                + (["# a comment"] if i % 11 == 0 else [])
        bad = 3 + len(lines) // 2
        lines[bad - 1] = "17,0x1f"
        lines[bad + 300] = "18,zz"   # a second, later error is not named
        path = tmp_path / "long.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"'0x1f' to float64 at line "
                                             rf"{bad}, column 2"):
            C.read_table_csv(path)

    def test_column_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            C.write_table_csv(tmp_path / "x.csv", np.arange(3),
                              {"v": np.arange(4)}, x_label="t")
