"""Steady-state and propagation checks against closed-form decay laws
and a per-point matrix-exponential oracle."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from ionpair import atom, dynamics
from ionpair.correlations import g2_pair
from ionpair.params import ExperimentParams, TWO_PI, get_preset
from ionpair.dynamics import (DegenerateSteadyStateError, Model,
                              NumericalError)


def _decay_only(gamma_sp=TWO_PI * 20.7e6, gamma_dp=TWO_PI * 1.69e6):
    return ExperimentParams(omega_397=0.0, omega_866=0.0, delta_397=0.0,
                            delta_866=0.0, b_field=3.5,
                            gamma_sp=gamma_sp, gamma_dp=gamma_dp)


class TestPureDecay:
    def test_exponential_p_decay_and_branching(self):
        """Start in P+1/2; closed form: rho_PP = exp(-G t), ground levels fill
        according to branching fractions."""
        p = _decay_only()
        g_tot = p.gamma_sp + p.gamma_dp
        rho0 = np.zeros((8, 8), complex)
        rho0[atom.P_PLUS, atom.P_PLUS] = 1.0
        grid = np.linspace(0.0, 5.0 / g_tot, 40)
        pops = Model(p).populations(rho0, grid)
        decay = np.exp(-g_tot * grid)
        assert pops[:, atom.P_PLUS] == pytest.approx(decay, abs=1e-9)
        # branching out of P+1/2: S gets 2/3, 1/3 of gamma_sp;
        # D-1/2, D+1/2, D+3/2 get 1/6, 1/3, 1/2 of gamma_dp
        filled = 1.0 - decay
        assert pops[:, atom.S_MINUS] == pytest.approx(
            (2 / 3) * (p.gamma_sp / g_tot) * filled, abs=1e-9)
        assert pops[:, atom.S_PLUS] == pytest.approx(
            (1 / 3) * (p.gamma_sp / g_tot) * filled, abs=1e-9)
        assert pops[:, atom.D_M12] == pytest.approx(
            (1 / 6) * (p.gamma_dp / g_tot) * filled, abs=1e-9)
        assert pops[:, atom.D_P32] == pytest.approx(
            (1 / 2) * (p.gamma_dp / g_tot) * filled, abs=1e-9)
        assert pops[:, atom.D_M32] == pytest.approx(np.zeros(40), abs=1e-12)

    def test_coherence_decays_at_half_total_rate(self):
        p = _decay_only()
        g_tot = p.gamma_sp + p.gamma_dp
        rho0 = np.zeros((8, 8), complex)
        rho0[atom.S_MINUS, atom.S_MINUS] = 0.5
        rho0[atom.P_MINUS, atom.P_MINUS] = 0.5
        rho0[atom.S_MINUS, atom.P_MINUS] = 0.4
        rho0[atom.P_MINUS, atom.S_MINUS] = 0.4
        grid = np.linspace(0.0, 3.0 / g_tot, 16)
        states = Model(p).states(rho0, grid)
        coh = states[:, atom.S_MINUS, atom.P_MINUS]
        assert np.abs(coh) == pytest.approx(0.4 * np.exp(-0.5 * g_tot * grid),
                                            abs=1e-9)


class TestPropagate:
    def test_semigroup_property(self):
        model = Model(get_preset("weak"))
        rho0 = np.zeros((8, 8), complex)
        rho0[1, 1] = 1.0
        t = 80e-9
        one = model.states(rho0, np.array([0.0, t]))[-1]
        two = model.states(rho0, np.array([0.0, 0.3 * t, t]))[-1]
        assert np.allclose(one, two, atol=1e-12)

    def test_positivity_and_trace_on_long_run(self):
        rho0 = np.zeros((8, 8), complex)
        rho0[0, 0] = 1.0
        grid = np.arange(0.0, 4000e-9, 2e-9)
        states = Model(get_preset("strong")).states(rho0, grid)
        traces = np.einsum("kii->k", states).real
        assert np.abs(traces - 1.0).max() < 1e-10
        eigs = np.linalg.eigvalsh(states[::100])
        assert eigs.min() > -1e-10

    def test_relaxes_to_steady_state(self):
        model = Model(get_preset("strong"))
        rho0 = np.zeros((8, 8), complex)
        rho0[1, 1] = 1.0
        final = model.states(rho0, np.array([0.0, 40e-6]))[-1]
        assert np.allclose(final, model.steady, atol=1e-8)

    def test_grid_validation(self):
        model = Model(get_preset("weak"))
        rho0 = np.eye(8, dtype=complex) / 8
        for grid in ([1e-9, 2e-9],            # must start at 0
                     [0.0, 2e-9, 1e-9], [],
                     [0.0, 1e-9, np.nan], [0.0, np.inf]):
            for read in (model.states, model.populations):
                with pytest.raises(ValueError):
                    read(rho0, np.array(grid))
        for grid in ([0.0, 1e-9, np.nan], [0.0, np.inf]):
            with pytest.raises(ValueError, match="finite"):
                g2_pair(get_preset("weak"), "sigma-", grid)

    def test_rho0_validation(self):
        model = Model(get_preset("weak"))
        with pytest.raises(ValueError):
            model.states(np.eye(8) * 2.0, np.array([0.0, 1e-9]))
        with pytest.raises(ValueError):
            model.states(np.eye(4), np.array([0.0, 1e-9]))

    def test_failed_eigendecomposition_is_numerical_error(self):
        rho0 = np.eye(8, dtype=complex) / 8
        model = Model(get_preset("weak"))
        model.real[:] = np.nan
        with pytest.raises(NumericalError):
            model.states(rho0, np.array([0.0, 1e-9]))
        with pytest.raises(NumericalError):
            model.integral(rho0, 1e-9)

    def test_integration_window_validation(self):
        model = Model(get_preset("weak"))
        rho0 = np.eye(8, dtype=complex) / 8
        for t_end in (0.0, -1e-9, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                model.integral(rho0, t_end)


# -- per-point matrix-exponential oracle ---------------------------------

_ORACLE_GRID = np.concatenate([[0.0], np.geomspace(1e-10, 20e-6, 24)])


def _expm_states(mat, rho0, grid):
    """States from scipy.linalg.expm(L t) vec(rho0), one t at a time."""
    return np.array([(scipy.linalg.expm(mat * t) @ rho0.reshape(-1))
                     .reshape(8, 8) for t in grid])


def _expm_populations(mat, rho0, grid):
    return np.einsum("kii->ki", _expm_states(mat, rho0, grid)).real


def _van_loan_integral(mat, rho0, t_end):
    """Van Loan (IEEE TAC 23, 395, 1978): the last column of
    expm([[L, x0], [0, 0]] T) holds int_0^T exp(L t) x0 dt."""
    block = np.zeros((65, 65), complex)
    block[:64, :64] = mat
    block[:64, 64] = rho0.reshape(-1)
    return scipy.linalg.expm(block * t_end)[:64, 64].reshape(8, 8)


def _direct_steady_state(mat):
    """A complex solve of L with its first row set to the trace row."""
    a = mat.copy()
    a[0] = 0.0
    a[0, ::9] = 1.0
    return np.linalg.solve(a, np.eye(64)[0]).reshape(8, 8)


def _assert_matches_expm(params):
    mat = atom.build_liouvillian(params)
    rho0 = np.zeros((8, 8), complex)
    rho0[atom.S_PLUS, atom.S_PLUS] = 1.0
    states = Model(params).states(rho0, _ORACLE_GRID)
    ref = _expm_populations(mat, rho0, _ORACLE_GRID)
    assert np.abs(np.einsum("kii->ki", states).real - ref).max() <= 1e-12
    assert np.abs(np.einsum("kii->k", states).real - 1.0).max() <= 1e-10


class TestAgainstExpm:
    @pytest.mark.parametrize("preset", ["weak", "strong", "spectrum"])
    def test_presets(self, preset):
        _assert_matches_expm(get_preset(preset))

    def test_zero_field_on_resonance(self):
        # B = 0 with delta_397 = 0: degenerate Zeeman levels and a second
        # stationary (dark) state, so L has a repeated zero eigenvalue
        _assert_matches_expm(get_preset("weak").replace(
            b_field=0.0, delta_397=0.0))

    @settings(max_examples=30, database=None)
    @given(log10_b=st.floats(-3.0, 1.0),
           delta_397_mhz=st.floats(-40.0, 0.0),
           omega_397_mhz=st.floats(1.0, 40.0),
           omega_866_mhz=st.floats(0.5, 20.0),
           alpha_397_pi=st.floats(0.1, 0.9),
           alpha_866_pi=st.floats(0.1, 0.9))
    def test_random_parameters(self, log10_b, delta_397_mhz, omega_397_mhz,
                               omega_866_mhz, alpha_397_pi, alpha_866_pi):
        params = get_preset("weak").replace(
            b_field=10.0 ** log10_b, delta_397=TWO_PI * delta_397_mhz * 1e6,
            omega_397=TWO_PI * omega_397_mhz * 1e6,
            omega_866=TWO_PI * omega_866_mhz * 1e6,
            alpha_397=alpha_397_pi * math.pi,
            alpha_866=alpha_866_pi * math.pi)
        _assert_matches_expm(params)

        # north-star invariants: a positive unit-trace steady state,
        # g2(0) = 0 on both sigma channels, and g2 -> 1 once the slowest
        # mode has decayed (20 relaxation times)
        mat = atom.build_liouvillian(params)
        rss = Model(params).steady
        assert np.trace(rss).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rss).min() >= -1e-12
        rates = np.sort(-np.linalg.eigvals(mat).real)
        minus, plus = g2_pair(params, "sigma-",
                              np.array([0.0, 20.0 / rates[1]]))
        assert minus.values[0] == 0.0 and plus.values[0] == 0.0
        assert minus.values[1] == pytest.approx(1.0, abs=1e-6)
        assert plus.values[1] == pytest.approx(1.0, abs=1e-6)


# -- the real Hermitian basis and its half spectrum -----------------------

def _random_state(seed):
    """A mixed 8x8 density matrix with every coherence nonzero."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _assert_real_basis(params, seed=0):
    mat = atom.build_liouvillian(params)
    r = dynamics._UH @ mat @ dynamics._U
    assert np.abs(r.imag).max() <= 1e-13 * np.linalg.norm(mat, ord=np.inf)
    rho0 = _random_state(seed)
    model = Model(params)
    # every complex mode kept stands for itself and its conjugate partner
    half = model._modes(rho0)[0]
    assert np.all(half.imag >= 0)
    assert 2 * np.sum(half.imag > 0) + np.sum(half.imag == 0) == 64

    pops = model.populations(rho0, _ORACLE_GRID)
    assert np.abs(pops - np.einsum("kii->ki", model.states(
        rho0, _ORACLE_GRID)).real).max() <= 1e-13
    assert np.abs(pops - _expm_populations(mat, rho0, _ORACLE_GRID)
                  ).max() <= 1e-12


class TestRealBasis:
    @pytest.mark.parametrize("preset", ["weak", "strong", "spectrum"])
    def test_presets(self, preset):
        _assert_real_basis(get_preset(preset))

    @settings(max_examples=30, database=None)
    @given(log10_b=st.floats(-1.0, 1.0),
           delta_397_mhz=st.floats(-40.0, 0.0),
           delta_866_mhz=st.floats(-40.0, 40.0),
           omega_397_mhz=st.floats(1.0, 40.0),
           omega_866_mhz=st.floats(0.5, 20.0),
           alpha_397_pi=st.floats(0.1, 0.9),
           alpha_866_pi=st.floats(0.1, 0.9),
           seed=st.integers(0, 2**32 - 1))
    def test_random_parameters(self, log10_b, delta_397_mhz, delta_866_mhz,
                               omega_397_mhz, omega_866_mhz, alpha_397_pi,
                               alpha_866_pi, seed):
        _assert_real_basis(get_preset("weak").replace(
            b_field=10.0 ** log10_b, delta_397=TWO_PI * delta_397_mhz * 1e6,
            delta_866=TWO_PI * delta_866_mhz * 1e6,
            omega_397=TWO_PI * omega_397_mhz * 1e6,
            omega_866=TWO_PI * omega_866_mhz * 1e6,
            alpha_397=alpha_397_pi * math.pi,
            alpha_866=alpha_866_pi * math.pi), seed)

    def test_populations_match_full_states_on_long_grid(self):
        model = Model(get_preset("strong"))
        rho0 = _random_state(1)
        grid = np.arange(0.0, 4000e-9, 2e-9)
        pops = model.populations(rho0, grid)
        assert pops.shape == (grid.size, 8)
        assert np.array_equal(pops[0], rho0.diagonal().real)
        assert np.abs(pops - np.einsum("kii->ki", model.states(rho0, grid))
                      .real).max() <= 1e-13

    def test_non_hermitian_rho0_rejected(self):
        model = Model(get_preset("weak"))
        rho0 = np.eye(8, dtype=complex) / 8
        rho0[0, 1] = 0.1
        grid = np.array([0.0, 1e-9])
        for call in (lambda: model.states(rho0, grid),
                     lambda: model.populations(rho0, grid),
                     lambda: model.integral(rho0, 1e-9)):
            with pytest.raises(ValueError, match="not Hermitian"):
                call()

    def test_nan_generator_is_numerical_error(self):
        rho0 = np.eye(8, dtype=complex) / 8
        broken = Model(get_preset("weak"))
        broken.real[5, 7] = np.nan
        grid = np.array([0.0, 1e-9])
        for call in (lambda: broken.states(rho0, grid),
                     lambda: broken.populations(rho0, grid),
                     lambda: broken.integral(rho0, 1e-9)):
            with pytest.raises(NumericalError):
                call()


class TestSteadyState:
    def test_residual_and_trace(self):
        for name in ("weak", "strong", "spectrum"):
            mat = atom.build_liouvillian(get_preset(name))
            rss = Model(get_preset(name)).steady
            resid = np.linalg.norm(mat @ rss.reshape(-1))
            resid /= np.linalg.norm(mat, ord=np.inf)
            assert resid < 1e-10
            assert np.trace(rss).real == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(rss, rss.conj().T)
            assert np.linalg.eigvalsh(rss).min() > -1e-12

    def test_frozen_excited_populations(self):
        """Values frozen from an independently written prototype of the
        same physics; regression anchors for everything downstream."""
        rss = Model(get_preset("weak")).steady
        assert rss[2, 2].real == pytest.approx(0.0069562, rel=1e-4)
        assert rss[3, 3].real == pytest.approx(0.0069562, rel=1e-4)
        rss = Model(get_preset("strong")).steady
        assert rss[2, 2].real == pytest.approx(0.074253, rel=1e-4)
        assert rss[3, 3].real == pytest.approx(0.074253, rel=1e-4)

    def test_sigma_symmetry_of_perpendicular_drive(self):
        # equal sigma+/sigma- amplitudes pin the two P populations equal
        rss = Model(get_preset("weak")).steady
        assert rss[2, 2].real == pytest.approx(rss[3, 3].real, rel=1e-9)

    def test_pure_decay_steady_state_not_unique(self):
        # with no drives every ground mixture is stationary
        with pytest.raises(DegenerateSteadyStateError):
            Model(_decay_only()).steady

    def test_decoupled_d_manifold_detected(self):
        # no repumper and no D decay: D populations never move
        p = ExperimentParams(omega_397=TWO_PI * 5e6, omega_866=0.0,
                             delta_397=0.0, delta_866=0.0, b_field=3.5,
                             gamma_dp=0.0)
        with pytest.raises(DegenerateSteadyStateError):
            Model(p).steady

    def test_error_type_hierarchy(self):
        assert issubclass(DegenerateSteadyStateError, NumericalError)


# -- the Model of one parameter set ------------------------------------

class TestModel:
    def test_real_basis_terms_are_real(self):
        for term in atom.LIOUVILLIAN_TERMS:
            r = dynamics._UH @ term @ dynamics._U
            assert np.abs(r.imag).max() <= 1e-15 * np.abs(term).max()
        assert dynamics._REAL_TERMS.shape == (17, 64 * 64)
        # the detuning scan assumes the delta_866 term is one 32x32 block
        outside = dynamics._D866.copy()
        coords = dynamics._D866_COORDS
        outside[np.ix_(coords, coords)] = 0.0
        assert coords.size == 32 and np.abs(outside).max() <= 1e-15

    def _assert_matches_matrix_path(self, params, seed, tol):
        """Model(params) against the complex matrix build_liouvillian(params)
        through independent solvers: a direct steady-state solve, expm per
        grid point and Van Loan's block expm for the window integrals.

        Round-off in R and in the modes grows in x(t) roughly as t: up to
        1 us (a g2 grid) the read-outs agree to `tol`, and over the whole
        grid to 20 us to 1e-12.
        """
        mat = atom.build_liouvillian(params)
        model = Model(params)
        assert np.abs(model.real - (dynamics._UH @ mat @ dynamics._U).real
                      ).max() <= 1e-15 * np.abs(mat).max()
        assert np.abs(model.steady - _direct_steady_state(mat)
                      ).max() <= 1e-13
        short = _ORACLE_GRID <= 1e-6
        for rho0 in (_random_state(seed), model.steady):
            ref = _expm_states(mat, rho0, _ORACLE_GRID)
            gap = np.abs(model.populations(rho0, _ORACLE_GRID)
                         - np.einsum("kii->ki", ref).real)
            assert gap[short].max() <= tol and gap.max() <= 1e-12
            gap = np.abs(model.states(rho0, _ORACLE_GRID) - ref)
            assert gap[short].max() <= tol and gap.max() <= 1e-12
            for t_end in (1e-9, 24e-9, 5e-6):
                assert np.abs(model.integral(rho0, t_end)
                              - _van_loan_integral(mat, rho0, t_end)
                              ).max() <= 1e-13 * t_end

    @pytest.mark.parametrize("preset", ["weak", "strong", "spectrum"])
    def test_presets_match_matrix_path(self, preset):
        self._assert_matches_matrix_path(get_preset(preset), 3, tol=1e-13)

    @settings(max_examples=15, database=None)
    @given(log10_b=st.floats(-1.0, 1.0),
           delta_397_mhz=st.floats(-40.0, 0.0),
           omega_397_mhz=st.floats(1.0, 40.0),
           omega_866_mhz=st.floats(0.5, 20.0),
           linewidth_mhz=st.sampled_from([0.0, 0.5]),
           seed=st.integers(0, 2**32 - 1))
    def test_random_parameters_match_matrix_path(
            self, log10_b, delta_397_mhz, omega_397_mhz, omega_866_mhz,
            linewidth_mhz, seed):
        # eigenvector conditioning varies over these ranges: up to 1.4e-13
        # within 1 us was seen over 300 random sets
        self._assert_matches_matrix_path(get_preset("weak").replace(
            b_field=10.0 ** log10_b, delta_397=TWO_PI * delta_397_mhz * 1e6,
            omega_397=TWO_PI * omega_397_mhz * 1e6,
            omega_866=TWO_PI * omega_866_mhz * 1e6,
            linewidth_397=TWO_PI * linewidth_mhz * 1e6), seed, tol=1e-12)

    def test_steady_state_and_eig_are_computed_once(self, monkeypatch):
        model = Model(get_preset("weak"))
        calls = []
        eig = np.linalg.eig

        def counted(a):
            calls.append(a.shape)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counted)
        assert model.steady is model.steady
        for w in (1.0, 0.0, 0.5):
            rho0 = np.diag([1.0 - w, w, 0, 0, 0, 0, 0, 0]).astype(complex)
            model.populations(rho0, _ORACLE_GRID)
            model.integral(rho0, 24e-9)
        assert calls == [(64, 64)]

    def test_trace_holds_at_long_delay_near_a_slow_mode(self):
        # at 1.3 mG the slowest decay rate is 8.3 /s against ||R|| ~ 1e8 /s;
        # eig's round-off put ~1e-10 of the trace into that mode, so g2 at
        # 20 of its relaxation times failed the trace-drift check
        params = get_preset("weak").replace(
            b_field=10.0 ** -2.87890625, delta_397=0.0,
            omega_397=TWO_PI * 1e6, omega_866=TWO_PI * 3e6,
            alpha_397=0.5 * math.pi, alpha_866=0.890625 * math.pi)
        grid = np.array([0.0, 1e-3, 0.1, 2.4, 100.0])
        rho0 = np.diag([0.0, 1.0, 0, 0, 0, 0, 0, 0]).astype(complex)
        pops = Model(params).populations(rho0, grid)
        assert np.abs(pops.sum(axis=1) - 1.0).max() <= 1e-14
        for curve in g2_pair(params, "sigma-", grid):
            assert curve.values[-1] == pytest.approx(1.0, abs=1e-6)

    def test_checks_hold_on_the_model_path(self):
        model = Model(get_preset("weak"))
        with pytest.raises(ValueError, match="not Hermitian"):
            model.populations(np.eye(8) / 8 + 0.1 * np.eye(8, k=1),
                              np.array([0.0, 1e-9]))
        with pytest.raises(ValueError):
            model.states(np.eye(8) * 2.0, np.array([0.0, 1e-9]))
        with pytest.raises(ValueError):
            model.populations(np.eye(8) / 8, np.array([1e-9, 2e-9]))
        with pytest.raises(ValueError):
            model.integral(np.eye(8) / 8, 0.0)

    def test_degenerate_steady_state_names_dark_states(self):
        # B = 0 on two-photon resonance: a dark superposition is stationary
        model = Model(get_preset("weak").replace(
            b_field=0.0, delta_397=0.0))
        with pytest.raises(NumericalError):
            model.steady
