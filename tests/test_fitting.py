"""Fit round trips on synthetic data with known ground truth."""

import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from ionpair import fitting
from ionpair.correlations import (ErrorModel, default_grid,
                                  excitation_spectrum, g2_pair)
from ionpair.fitting import DataSet, FitResult, fit_g2_joint, fit_spectrum
from ionpair.params import TWO_PI, NumericalError, get_preset


class TestDataSet:
    def test_default_err_is_poisson(self):
        d = DataSet("spectrum", [0.0, 1.0], [100.0, 0.25])
        assert d.err[0] == pytest.approx(10.0)
        assert d.err[1] == 1.0  # floor at one count

    def test_kinds(self):
        for kind in ("spectrum", "total", "sigma-|sigma+", "sigma+|sigma+"):
            DataSet(kind, [0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            DataSet("sigma-|pi", [0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            DataSet("g2", [0.0, 1.0], [1.0, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            DataSet("spectrum", [0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            DataSet("spectrum", [0.0, np.nan], [1.0, 2.0])
        with pytest.raises(ValueError):
            DataSet("spectrum", [0.0, 1.0], [1.0, 2.0], err=[1.0, 0.0])
        with pytest.raises(ValueError):
            DataSet("total", [-1e-9, 1e-9], [1.0, 2.0])
        with pytest.raises(ValueError):
            DataSet("total", [1e-9, 1e-9], [1.0, 2.0])

    def test_single_point_and_misaligned_err(self):
        with pytest.raises(ValueError, match="at least two data points"):
            DataSet("spectrum", [0.0], [1.0])
        with pytest.raises(ValueError, match="err must align with y"):
            DataSet("spectrum", [0.0, 1.0], [1.0, 2.0], err=[1.0])


def _clamp_cascade(y, w, s, a0, b0, fit_a, fit_b):
    """Oracle: the closed-form weighted regression with negative results
    clamped to zero, in the order scale, then background."""
    if fit_a and fit_b:
        sw = w.sum()
        sws = (w * s).sum()
        swss = (w * s * s).sum()
        swy = (w * y).sum()
        swsy = (w * s * y).sum()
        det = swss * sw - sws * sws
        if det <= 1e-14 * max(swss * sw, 1e-300):
            return a0, b0
        a = (swsy * sw - swy * sws) / det
        b = (swss * swy - sws * swsy) / det
        if b < 0.0:
            b = 0.0
            a = swsy / swss if swss > 0.0 else a0
        if a < 0.0:
            a = 0.0
            b = max(swy / sw, 0.0)
        return a, b
    if fit_a:
        swss = (w * s * s).sum()
        if swss <= 0.0:
            return a0, b0
        return max((w * s * (y - b0)).sum() / swss, 0.0), b0
    if fit_b:
        return a0, max((w * (y - a0 * s)).sum() / w.sum(), 0.0)
    return a0, b0


class TestSolveAffine:
    def test_matches_clamp_cascade(self):
        # non-negative shapes, as excitation spectra are, with true scales
        # and backgrounds of either sign so that every clamp is reached
        rng = np.random.default_rng(12)
        modes = [(True, True), (True, False), (False, True)]
        clamped = 0
        for k in range(10_000):
            n = int(rng.integers(2, 40))
            s = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0)
            err = rng.uniform(0.1, 2.0, n)
            y = (rng.normal(1.0, 1.5) * s + rng.normal(0.5, 1.0) * s.mean()
                 + rng.normal(0.0, 1.0, n) * err * s.mean() * rng.uniform())
            a0, b0 = rng.uniform(0.0, 2.0, 2)
            w = 1.0 / err ** 2
            want = _clamp_cascade(y, w, s, a0, b0, *modes[k % 3])
            got = fitting._solve_affine(y, w, s, a0, b0, *modes[k % 3])
            # natural sizes of the scale and the background
            size = np.abs(y).max() * np.array([1.0 / s.max(), 1.0])
            assert np.all(np.abs(np.subtract(got, want))
                          <= 1e-9 * (np.abs(want) + size))
            chi2 = [(w * (y - a * s - b) ** 2).sum() for a, b in (got, want)]
            assert chi2[0] <= chi2[1] * (1 + 1e-9) + 1e-12 * (w * y * y).sum()
            clamped += min(want) == 0.0
        assert clamped > 1000

    def test_degenerate_and_fixed_cases_keep_the_start(self):
        y, w = np.array([1.0, 2.0, 3.0]), np.ones(3)
        for s, fit_a, fit_b in ((np.zeros(3), True, True),
                                (np.full(3, 2.0), True, True),
                                (np.zeros(3), True, False),
                                (np.arange(3.0), False, False)):
            assert fitting._solve_affine(y, w, s, 0.7, 0.3, fit_a, fit_b) \
                == (0.7, 0.3)
            assert _clamp_cascade(y, w, s, 0.7, 0.3, fit_a, fit_b) \
                == (0.7, 0.3)


@pytest.fixture(scope="module")
def spectrum_truth():
    # counting statistics chosen so the dip widths actually resolve
    # omega_866 against the (omega_866, scale) ridge
    truth = get_preset("spectrum")
    grid = np.linspace(-TWO_PI * 30e6, TWO_PI * 30e6, 161)
    scale, background = 64000.0, 50.0
    clean = excitation_spectrum(truth, grid, scale=scale,
                                background=background).values
    rng = np.random.default_rng(99)
    noisy = clean + rng.standard_normal(grid.size) * np.sqrt(clean)
    data = DataSet("spectrum", grid, noisy, err=np.sqrt(clean))
    return truth, data, scale, background


class TestFitSpectrum:
    def test_recovers_rabi_and_field(self, spectrum_truth):
        truth, data, scale, background = spectrum_truth
        init = truth.replace(omega_866=truth.omega_866 * 1.2, b_field=3.0)
        res = fit_spectrum(data, init,
                           free=("omega_866", "b_field", "scale",
                                 "background"),
                           restarts=3, maxfev=800, seed=1)
        assert res.converged
        assert res.params["omega_866"] == pytest.approx(truth.omega_866,
                                                        rel=0.03)
        assert res.params["b_field"] == pytest.approx(truth.b_field,
                                                      rel=0.08)
        assert res.params["scale"] == pytest.approx(scale, rel=0.1)
        assert res.reduced_chi2() < 1.5
        assert res.experiment.omega_866 == res.params["omega_866"]

    def test_sigma_brackets_truth(self, spectrum_truth):
        truth, data, scale, background = spectrum_truth
        init = truth.replace(omega_866=truth.omega_866 * 1.2, b_field=3.0)
        res = fit_spectrum(data, init,
                           free=("omega_866", "b_field", "scale",
                                 "background"),
                           restarts=3, maxfev=800, seed=1)
        assert res.sigma is not None
        assert set(res.sigma) == set(res.params)
        assert all(v > 0 for v in res.sigma.values())
        pull = abs(res.params["omega_866"] - truth.omega_866) \
            / res.sigma["omega_866"]
        assert pull < 5.0
        assert res.cov.shape == (4, 4)

    def test_affine_only_is_a_linear_solve(self, spectrum_truth):
        truth, data, scale, background = spectrum_truth
        res = fit_spectrum(data, truth, free=("scale", "background"),
                           restarts=1)
        assert res.nfev == 1
        assert res.params["scale"] == pytest.approx(scale, rel=0.05)
        assert res.params["background"] == pytest.approx(background, abs=15.0)
        assert res.dof == len(data) - 2

    def test_linear_case_covariance_is_weighted_regression(
            self, spectrum_truth):
        truth, data, _, _ = spectrum_truth
        res = fit_spectrum(data, truth, free=("scale", "background"),
                           restarts=1)
        shape = excitation_spectrum(truth, data.x).values
        x = np.column_stack([shape, np.ones_like(shape)])
        expected = np.linalg.inv(x.T @ (x / data.err[:, None] ** 2))
        np.testing.assert_allclose(res.cov, expected, rtol=1e-8)
        assert res.sigma["scale"] == pytest.approx(
            math.sqrt(expected[0, 0]), rel=1e-8)

    def test_same_seed_same_restarts(self, spectrum_truth):
        truth, data, _, _ = spectrum_truth
        # halved errors keep chi^2 above the stop target, so every
        # restart runs
        tight = DataSet("spectrum", data.x, data.y, err=0.5 * data.err)
        init = truth.replace(omega_866=truth.omega_866 * 1.2, b_field=3.0)
        fits = [fit_spectrum(tight, init, free=("omega_866", "b_field",
                                                "scale"),
                             restarts=restarts, seed=2)
                for restarts in (3, 3, 1)]
        assert fits[0].params == fits[1].params
        assert fits[0].chi2 == fits[1].chi2
        assert fits[0].nfev == fits[1].nfev > fits[2].nfev

    @pytest.mark.parametrize("free", [("b_field", "scale"),
                                      ("scale", "background")])
    def test_fit_that_never_solves_its_model_raises(self, spectrum_truth,
                                                     free):
        # without a repumper every detuning fails; the fit must not
        # report the penalty as an optimum, on the optimizer path or on
        # the affine-only solve
        truth, data, _, _ = spectrum_truth
        with pytest.raises(NumericalError,
                           match="failed at 161 of 161 detunings"):
            fit_spectrum(data, truth.replace(omega_866=0.0), free=free,
                         restarts=1)

    def test_one_failed_detuning_fails_the_evaluation(self, spectrum_truth,
                                                      monkeypatch):
        def one_flagged(params, grid):
            curve = excitation_spectrum(params, grid)
            curve.ok[7], curve.values[7] = False, math.nan
            return curve

        monkeypatch.setattr(fitting, "excitation_spectrum", one_flagged)
        truth, data, _, _ = spectrum_truth
        for free in (("omega_866", "scale"), ("scale", "background")):
            with pytest.raises(NumericalError,
                               match="failed at 1 of 161 detunings"):
                fit_spectrum(data, truth, free=free, restarts=1)

    def test_rejects_wrong_kind_and_names(self, spectrum_truth):
        truth, data, _, _ = spectrum_truth
        g2data = DataSet("sigma-|sigma+", [0.0, 1e-9], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_spectrum(g2data, truth)
        with pytest.raises(ValueError):
            fit_spectrum(data, truth, free=("eps_init",))
        with pytest.raises(ValueError):
            fit_spectrum(data, truth, free=())
        with pytest.raises(ValueError):
            fit_spectrum(data, truth, free=("scale", "scale"))

    @pytest.mark.parametrize("free, bad", [
        (("omega_866",), {"scale": math.nan}),
        (("omega_866",), {"background": math.inf}),
        (("omega_866", "scale"), {"background": math.nan}),
        (("scale", "background"), {"scale": -math.inf}),
    ])
    def test_non_finite_affine_value_is_rejected_before_any_solve(
            self, spectrum_truth, monkeypatch, free, bad):
        truth, data, _, _ = spectrum_truth

        def unreachable(*args, **kwargs):
            raise AssertionError("the model was solved")

        monkeypatch.setattr(fitting, "excitation_spectrum", unreachable)
        (name, value), = bad.items()
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            fit_spectrum(data, truth, free=free, **bad)


@pytest.fixture(scope="module")
def g2_truth():
    truth = get_preset("weak")
    grid = np.arange(0.0, 400e-9, 2.0e-9)
    minus, plus = g2_pair(truth, "sigma-", grid)
    rng = np.random.default_rng(7)
    sig = 0.25
    sets = []
    for curve, kind in ((minus, "sigma-|sigma-"), (plus, "sigma-|sigma+")):
        y = curve.values + sig * rng.standard_normal(grid.size)
        sets.append(DataSet(kind, grid, y, err=np.full(grid.size, sig)))
    return truth, sets


class TestFitG2Joint:
    def test_joint_recovers_shared_rabi(self, g2_truth):
        truth, sets = g2_truth
        init = truth.replace(omega_397=truth.omega_397 * 1.25,
                             omega_866=truth.omega_866 * 0.8)
        res = fit_g2_joint(sets, init, free=("omega_397", "omega_866"),
                           restarts=2, maxfev=400, seed=3)
        assert res.converged
        assert res.params["omega_397"] == pytest.approx(truth.omega_397,
                                                        rel=0.03)
        assert res.params["omega_866"] == pytest.approx(truth.omega_866,
                                                        rel=0.10)
        assert 0.5 < res.reduced_chi2() < 1.5
        assert res.errors is None
        assert res.dof == 2 * len(sets[0]) - 2

    def test_recovers_error_model(self):
        truth = get_preset("weak")
        em_true = ErrorModel(eps_init=0.10, eps_minus=0.05, eps_plus=0.05)
        grid = np.arange(0.0, 300e-9, 3.0e-9)
        minus, plus = g2_pair(truth, "sigma-", grid, em_true)
        sig = 0.02
        sets = [DataSet("sigma-|sigma-", grid, minus.values,
                        err=np.full(grid.size, sig)),
                DataSet("sigma-|sigma+", grid, plus.values,
                        err=np.full(grid.size, sig))]
        res = fit_g2_joint(sets, truth, free=("eps_init", "eps_minus"),
                           errors=ErrorModel(eps_plus=0.05),
                           restarts=2, maxfev=400, seed=5)
        assert res.errors is not None
        assert res.errors.eps_plus == 0.05  # held fixed
        assert res.params["eps_init"] == pytest.approx(0.10, abs=0.02)
        assert res.params["eps_minus"] == pytest.approx(0.05, abs=0.02)
        assert res.chi2 < res.dof

    @pytest.mark.parametrize("free", [("eps_init",), ("eps_minus",),
                                      ("eps_init", "eps_minus")],
                             ids=["init", "minus", "both"])
    @pytest.mark.parametrize("step", [2e-9, 3e-9, 4e-9])
    @pytest.mark.parametrize("preset", ["weak", "strong"])
    def test_error_fit_leaves_start_on_bound(self, preset, step, free):
        # noiseless data, every free epsilon starts at its lower bound 0;
        # the finite-difference Jacobian there must see the true slope
        truth = get_preset(preset)
        em_true = ErrorModel(eps_init=0.10, eps_minus=0.05, eps_plus=0.05)
        grid = np.arange(0.0, 300e-9, step)
        minus, plus = g2_pair(truth, "sigma-", grid, em_true)
        sets = [DataSet("sigma-|sigma-", grid, minus.values,
                        err=np.full(grid.size, 0.02)),
                DataSet("sigma-|sigma+", grid, plus.values,
                        err=np.full(grid.size, 0.02))]
        start = ErrorModel(**{n: 0.0 if n in free else getattr(em_true, n)
                              for n in ("eps_init", "eps_minus", "eps_plus")})
        res = fit_g2_joint(sets, truth, free=free, errors=start,
                           restarts=1, maxfev=200)
        assert res.chi2 < 1e-12
        for name in free:
            assert res.params[name] == pytest.approx(getattr(em_true, name),
                                                     abs=1e-8)

    def test_grid_without_zero_is_accepted(self):
        truth = get_preset("weak")
        grid = np.arange(1, 60) * 5e-9
        curve = g2_pair(truth, "sigma-", np.concatenate([[0.0], grid]))[1]
        data = DataSet("sigma-|sigma+", grid, curve.values[1:],
                       err=np.full(grid.size, 0.05))
        res = fit_g2_joint(data, truth.replace(
            omega_397=truth.omega_397 * 1.1), free=("omega_397",),
            restarts=1, maxfev=200, seed=1)
        assert res.params["omega_397"] == pytest.approx(truth.omega_397,
                                                        rel=0.02)

    def test_fit_that_never_solves_its_model_raises(self, g2_truth):
        # B = 0 is a dark-state trap: every evaluation fails, the penalty
        # residuals have a zero Jacobian, and least_squares would call
        # the start an optimum
        truth, sets = g2_truth
        with pytest.raises(NumericalError, match="stationary state"):
            fit_g2_joint(sets[:1], truth.replace(b_field=0.0),
                         free=("omega_397", "b_field"), restarts=1)

    @pytest.mark.parametrize("name", fitting.ERROR_PARAMS)
    def test_detection_errors_need_a_pair_curve(self, g2_truth, name,
                                                models_built):
        # a "total" curve is polarization-blind: an epsilon, free or held
        # nonzero, would be a parameter the data cannot see
        truth, (minus, _) = g2_truth
        total = DataSet("total", minus.x, minus.y, err=minus.err)
        with pytest.raises(ValueError,
                           match=re.escape(f"['{name}'] not supported")):
            fit_g2_joint(total, truth, free=("omega_397", name))
        with pytest.raises(ValueError, match=re.escape(
                f"errors ['{name}'] act on conditioned pair curves only")):
            fit_g2_joint([total, total], truth, free=("omega_397",),
                         errors=ErrorModel(**{name: 0.1}))
        assert models_built == []
        # zero errors are no detection errors; beside a pair curve they act
        held = fit_g2_joint(total, truth, free=("omega_397",),
                            errors=ErrorModel(), restarts=1, maxfev=2)
        assert held.errors == ErrorModel()
        joint = fit_g2_joint([total, minus], truth, free=("omega_397",),
                             errors=ErrorModel(**{name: 0.1}), restarts=1,
                             maxfev=2)
        assert getattr(joint.errors, name) == 0.1

    def test_fitted_values_are_plain_floats(self, g2_truth):
        truth, sets = g2_truth
        res = fit_g2_joint(sets, truth, free=("omega_397", "eps_init"),
                           errors=ErrorModel(eps_plus=0.05), restarts=1,
                           maxfev=3)
        assert [type(v) for v in asdict(res.errors).values()] == [float] * 3
        assert res.errors.eps_init == res.params["eps_init"]
        assert type(res.experiment.omega_397) is float
        assert res.experiment.omega_397 == res.params["omega_397"]

    def test_rejects_bad_input(self, g2_truth):
        truth, sets = g2_truth
        sdata = DataSet("spectrum", [0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_g2_joint([sdata], truth)
        with pytest.raises(ValueError):
            fit_g2_joint(sets, truth, free=("scale",))
        with pytest.raises(ValueError):
            fit_g2_joint([], truth)


class TestBudget:
    def test_rejects_bad_restarts_and_maxfev(self, spectrum_truth,
                                             g2_truth):
        truth, data, _, _ = spectrum_truth
        g2_params, sets = g2_truth
        for bad in ({"restarts": 0}, {"restarts": -1}, {"maxfev": 0}):
            with pytest.raises(ValueError):
                fit_spectrum(data, truth, free=("scale", "background"),
                             **bad)
            with pytest.raises(ValueError):
                fit_g2_joint(sets, g2_params, **bad)

    def test_small_maxfev_does_not_converge(self, g2_truth):
        truth, sets = g2_truth
        init = truth.replace(omega_397=truth.omega_397 * 1.25)
        res = fit_g2_joint(sets, init, free=("omega_397", "omega_866"),
                           restarts=1, maxfev=2)
        assert not res.converged

    def test_one_model_per_residual_evaluation(self, g2_truth,
                                               models_built):
        # a pair and a total dataset read the same Model each evaluation
        truth, (minus, plus) = g2_truth
        total = DataSet("total", minus.x, minus.y, err=minus.err)
        res = fit_g2_joint([minus, plus, total], truth.replace(
            omega_397=truth.omega_397 * 1.1), free=("omega_397",),
            restarts=1, maxfev=3)
        assert len(models_built) == res.nfev > 3

    @pytest.mark.parametrize("free", [("omega_866",), ("omega_866", "scale"),
                                      ("scale", "background")])
    def test_one_model_per_spectrum_evaluation(self, spectrum_truth, free,
                                               models_built):
        # the spectrum's anchor solve is the only Model of an evaluation:
        # a scan builds no Model for correlation curves
        truth, data, _, _ = spectrum_truth
        res = fit_spectrum(data, truth.replace(
            omega_866=truth.omega_866 * 1.2), free=free, restarts=1,
            maxfev=3)
        assert len(models_built) == res.nfev
        assert res.nfev > 3 or "omega_866" not in free

    def test_nfev_counts_every_model_solve(self, spectrum_truth, g2_truth,
                                           monkeypatch):
        calls = []

        def counted(func):
            def wrapper(*args, **kwargs):
                calls.append(func.__name__)
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fitting, "excitation_spectrum",
                            counted(excitation_spectrum))
        monkeypatch.setattr(fitting, "g2_pair", counted(g2_pair))
        truth, data, _, _ = spectrum_truth
        init = truth.replace(omega_866=truth.omega_866 * 1.2)
        res = fit_spectrum(data, init, free=("omega_866", "scale"),
                           restarts=1)
        assert res.nfev == calls.count("excitation_spectrum")
        g2_params, sets = g2_truth
        res = fit_g2_joint(sets, g2_params.replace(
            omega_397=g2_params.omega_397 * 1.1), free=("omega_397",),
            restarts=1, maxfev=3)
        # residual evaluations plus the Jacobian steps scipy leaves out
        assert res.nfev == calls.count("g2_pair") > 3


class TestCovariance:
    def test_inverse_of_the_normal_matrix(self):
        cov, sigma = fitting._covariance(np.diag([2.0, 4.0]), ["a", "b"])
        assert np.array_equal(cov, np.diag([0.25, 0.0625]))
        assert sigma == {"a": 0.5, "b": 0.25}

    @pytest.mark.parametrize("jac", [np.diag([np.nan, 1.0]),
                                     np.diag([1.0, 1e-160])])
    def test_non_finite_covariance_gives_no_sigma(self, jac):
        # a NaN column, or J^T J with a subnormal pivot that inv overflows
        assert fitting._covariance(jac, ["a", "b"]) == (None, None)

    @pytest.mark.parametrize("variance", [0.0, -1.0])
    def test_non_positive_variance_gives_no_sigma(self, monkeypatch,
                                                   variance):
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a: np.diag([1.0, variance]))
        assert fitting._covariance(np.eye(2), ["a", "b"]) == (None, None)


class TestDeclaredBounds:
    """Fit bounds and optimizer units come from the parameter classes'
    field declarations; they equal the literal table they replaced."""

    def test_bounds_and_units_of_every_fit_name(self):
        inf = math.inf
        bounds = {
            "omega_397": (0.0, inf), "omega_866": (0.0, inf),
            "delta_397": (-inf, inf), "delta_866": (-inf, inf),
            "b_field": (0.0, inf), "alpha_397": (0.0, math.pi),
            "alpha_866": (0.0, math.pi), "scale": (0.0, inf),
            "background": (0.0, inf), "eps_init": (0.0, 0.5),
            "eps_minus": (0.0, 0.5), "eps_plus": (0.0, 0.5)}
        mhz = TWO_PI * 1e6
        units = {"omega_397": mhz, "omega_866": mhz, "delta_397": mhz,
                 "delta_866": mhz, "b_field": 1.0, "alpha_397": 1.0,
                 "alpha_866": 1.0, "eps_init": 1.0, "eps_minus": 1.0,
                 "eps_plus": 1.0}
        names = (fitting.PHYSICS_PARAMS + fitting.AFFINE_PARAMS
                 + fitting.ERROR_PARAMS)
        assert {n: fitting._BOUNDS[n] for n in names} == bounds
        assert {n: fitting._UNIT[n] for n in units} == units
        assert fitting.ERROR_PARAMS == ("eps_init", "eps_minus", "eps_plus")

    def test_finite_nonzero_bounds_are_in_native_units(self):
        # _minimize evaluates t * unit for t inside bounds / unit; with a
        # unit of 1.0, or a bound of 0 or inf, that product never leaves
        # the declared range, so no value needs clipping
        names = (fitting.PHYSICS_PARAMS + fitting.AFFINE_PARAMS
                 + fitting.ERROR_PARAMS)
        for name in names:
            if any(0.0 < abs(b) < math.inf for b in fitting._BOUNDS[name]):
                assert fitting._UNIT[name] == 1.0, name


# -- the fit layer, frozen ------------------------------------------------

_MHZ = TWO_PI * 1e6
_SCALE, _BACKGROUND = 1.6e6, 5000.0


def _frozen_inputs():
    """The benchmark's fit inputs: both weak conditioned curves with
    noise 0.1 on a 2 ns grid to 400 ns, a 161-point Poisson scan of the
    spectrum preset, and the displaced starts of acceptance criterion 10.
    """
    weak, spec = get_preset("weak"), get_preset("spectrum")
    grid = default_grid(400e-9, 2e-9)

    def curves(seed, errors=ErrorModel()):
        rng = np.random.default_rng(seed)
        return [DataSet(c.kind, grid,
                        c.values + rng.normal(0.0, 0.1, grid.size),
                        np.full(grid.size, 0.1))
                for c in g2_pair(weak, "sigma-", grid, errors)]

    axis = np.linspace(-30 * _MHZ, 30 * _MHZ, 161)
    counts = np.random.default_rng(14).poisson(
        excitation_spectrum(spec, axis, _SCALE, _BACKGROUND).values)
    return {
        "weak": weak, "spectrum": spec,
        # a draw whose chi^2 stays above the stop target: every restart runs
        "g2": curves(13),
        "g2_errors": curves(15, ErrorModel(0.10, 0.05, 0.05)),
        "scan": DataSet("spectrum", axis, counts.astype(float)),
        "g2_start": weak.replace(omega_397=7.5 * _MHZ, omega_866=1.8 * _MHZ),
        "spectrum_start": spec.replace(omega_866=2.1 * _MHZ, b_field=2.9),
    }


_FROZEN_CASES = {
    "g2_restarts_1": lambda i: fit_g2_joint(i["g2"], i["g2_start"],
                                            restarts=1),
    "g2_restarts_3": lambda i: fit_g2_joint(i["g2"], i["g2_start"],
                                            restarts=3),
    "g2_errors": lambda i: fit_g2_joint(
        i["g2_errors"], i["weak"], free=("eps_init", "eps_minus"),
        errors=ErrorModel(eps_plus=0.05), restarts=1),
    "spectrum": lambda i: fit_spectrum(i["scan"], i["spectrum_start"],
                                       restarts=1),
    "spectrum_affine": lambda i: fit_spectrum(
        i["scan"], i["spectrum"], free=("scale", "background"), restarts=1),
    "spectrum_held": lambda i: fit_spectrum(
        i["scan"], i["spectrum_start"], free=("omega_866", "b_field"),
        scale=_SCALE, background=_BACKGROUND, restarts=1),
}


def _record(res: FitResult) -> dict:
    return {"params": res.params, "chi2": res.chi2, "sigma": res.sigma,
            "nfev": res.nfev, "converged": res.converged,
            "message": res.message,
            "errors": None if res.errors is None else asdict(res.errors)}


# every field of each fit as the two separate fit bodies returned it
# before they shared one core
_FROZEN_FITS = {
    "g2_restarts_1": {
        "params": {
            "omega_397": 57779580.7228448,
            "omega_866": 8161691.696663501,
        },
        "chi2": 444.83342517112675,
        "sigma": {
            "omega_397": 85104.7452381823,
            "omega_866": 6365.99048386988,
        },
        "nfev": 19,
        "converged": True,
        "message": "`ftol` termination condition is satisfied.",
        "errors": None,
    },
    "g2_restarts_3": {
        "params": {
            "omega_397": 57779580.74210114,
            "omega_866": 8161691.697409546,
        },
        "chi2": 444.8334251710759,
        "sigma": {
            "omega_397": 85104.73994659512,
            "omega_866": 6365.99150594583,
        },
        "nfev": 60,
        "converged": True,
        "message":
            "Both `ftol` and `xtol` termination conditions are satisfied.",
        "errors": None,
    },
    "g2_errors": {
        "params": {
            "eps_init": 0.10133203981051554,
            "eps_minus": 0.04708960380796324,
        },
        "chi2": 398.8883464593926,
        "sigma": {
            "eps_init": 0.002917047553260935,
            "eps_minus": 0.0034318042126046024,
        },
        "nfev": 12,
        "converged": True,
        "message": "`ftol` termination condition is satisfied.",
        "errors": {
            "eps_init": 0.10133203981051554,
            "eps_minus": 0.04708960380796324,
            "eps_plus": 0.05,
        },
    },
    "spectrum": {
        "params": {
            "omega_866": 9480582.201990608,
            "b_field": 3.4985935617649466,
            "scale": 1585874.2837102748,
            "background": 4982.983556561723,
        },
        "chi2": 147.18992039577043,
        "sigma": {
            "omega_866": 67672.18949052056,
            "b_field": 0.000876281243940581,
            "scale": 16142.239834249382,
            "background": 30.812056794983825,
        },
        "nfev": 27,
        "converged": True,
        "message": "`ftol` termination condition is satisfied.",
        "errors": None,
    },
    "spectrum_affine": {
        "params": {
            "scale": 1599382.1895286203,
            "background": 4999.672258871815,
        },
        "chi2": 150.51131625531482,
        "sigma": {
            "scale": 2218.1709309306607,
            "background": 21.736095754738376,
        },
        "nfev": 1,
        "converged": True,
        "message": "profiled affine solve",
        "errors": None,
    },
    "spectrum_held": {
        "params": {
            "omega_866": 9422264.688374426,
            "b_field": 3.4985770449327176,
        },
        "chi2": 147.9359652442371,
        "sigma": {
            "omega_866": 4067.6162415459767,
            "b_field": 0.0008756296186959202,
        },
        "nfev": 27,
        "converged": True,
        "message":
            "Both `ftol` and `xtol` termination conditions are satisfied.",
        "errors": None,
    },
}


@pytest.fixture(scope="module")
def frozen_inputs():
    return _frozen_inputs()


# The g2 fits were frozen on the 64x64 eig of the weak preset.  Its
# sigma-only drive now takes the 32x32 even block, whose eig rounds
# differently, so the last digits of each g2 fit move: by at most 1.9e-7
# of sigma in the parameters, 5.6e-14 relative in chi2 and 5.1e-7
# relative in sigma.  The bounds below hold those moves with margin;
# nfev, converged and the held error values stay exact.
_MOVED_MESSAGES = {
    "g2_restarts_3": "`ftol` termination condition is satisfied.",
}


def _pop_g2_digits(got: dict, want: dict, name: str) -> None:
    """Check and remove the fields of a g2 fit whose last digits follow
    the eig: parameters within 1e-6 of their sigma (held ones exact),
    chi2 within 1e-12 and sigma within 1e-6 relative, and the message,
    frozen unless it is one of _MOVED_MESSAGES."""
    sigma = want["sigma"]
    for field in ("params", "errors"):
        values, frozen = got.pop(field), want.pop(field)
        assert (values is None) == (frozen is None), field
        if frozen is not None:
            assert values.keys() == frozen.keys(), field
            for n, v in frozen.items():
                assert abs(values[n] - v) <= 1e-6 * sigma.get(n, 0.0), n
    assert got.pop("chi2") == pytest.approx(want.pop("chi2"), rel=1e-12)
    values, frozen = got.pop("sigma"), want.pop("sigma")
    assert values.keys() == frozen.keys()
    for n, v in frozen.items():
        assert values[n] == pytest.approx(v, rel=1e-6), n
    frozen = want.pop("message")
    assert got.pop("message") == _MOVED_MESSAGES.get(name, frozen)


class TestFrozenFits:
    @pytest.mark.parametrize("name", sorted(_FROZEN_CASES))
    def test_fields(self, frozen_inputs, name):
        got, want = _record(_FROZEN_CASES[name](frozen_inputs)), \
            dict(_FROZEN_FITS[name])
        if name.startswith("g2_"):
            _pop_g2_digits(got, want, name)
        if name == "spectrum_held":
            # with scale and background held, the covariance reads the
            # optimizer's Jacobian at the optimum in place of solving the
            # model again there: fewer solves, the same sigma to rounding
            assert got.pop("nfev") <= want.pop("nfev")
            sigma, frozen = got.pop("sigma"), want.pop("sigma")
            assert sigma.keys() == frozen.keys()
            for n, v in frozen.items():
                assert sigma[n] == pytest.approx(v, rel=1e-6), n
        assert got == want
