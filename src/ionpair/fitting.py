"""Least-squares parameter estimation from measured curves.

Physics parameters enter only through the eight-level model, so every
residual evaluation re-solves the master equation.  Fits minimize the
residual vector (y - model) / err by bounded trust-region least squares
(scipy.optimize.least_squares, method "dogbox"; Voglis & Lagaris, 2004)
over a few named free parameters, in rescaled coordinates so frequencies
(1e8 rad/s) and angles (order 1) live on the same footing.  For spectra
the affine nuisance pair (scale, background) is profiled out analytically
at every step instead of being searched.
Restarts from perturbed starting points guard against local minima;
uncertainties come from cov = (J^T J)^-1, with J the Jacobian of the
residuals over all free parameters at the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
import scipy.optimize

from .correlations import (SIGMA_MINUS, SIGMA_PLUS, ErrorModel,
                           excitation_spectrum, g2_pair, g2_total)
from .dynamics import Model, NumericalError
from .params import TWO_PI, ExperimentParams

PHYSICS_PARAMS = ("omega_397", "omega_866", "delta_397", "delta_866",
                  "b_field", "alpha_397", "alpha_866")
AFFINE_PARAMS = ("scale", "background")
ERROR_PARAMS = tuple(f.name for f in fields(ErrorModel))

# unit and legal range of each fit parameter: the fields as their class
# declares them (params._quantity), and count-like scale and background
_DECLARED = {f.name: f.metadata
             for c in (ExperimentParams, ErrorModel) for f in fields(c)} \
    | dict.fromkeys(AFFINE_PARAMS, {"unit": None, "range": (0.0, math.inf)})
_BOUNDS = {n: m["range"] for n, m in _DECLARED.items()}

# internal optimizer units: frequencies in 2pi MHz, everything else native
_UNIT = {n: TWO_PI * 1e6 if m["unit"] == "mhz" else 1.0
         for n, m in _DECLARED.items()}

# relative finite-difference step of the Jacobian in optimizer units
_DIFF_STEP = 1e-7

# residual of a point whose model could not be solved
_FAILED = 1e3

# additive spread used when drawing restart points
_RESTART_SCALE = {
    "omega_397": TWO_PI * 2e6, "omega_866": TWO_PI * 0.5e6,
    "delta_397": TWO_PI * 3e6, "delta_866": TWO_PI * 3e6,
    "b_field": 0.5, "alpha_397": 0.1 * math.pi, "alpha_866": 0.1 * math.pi,
    "eps_init": 0.03, "eps_minus": 0.03, "eps_plus": 0.03,
}


@dataclass
class DataSet:
    """One measured curve.

    kind: "spectrum" (x = repumper detuning in rad/s, y = counts),
          "total" (x = delay in s, y = polarization-blind g2), or a
          conditioned pair label "first|second" such as "sigma-|sigma+".
    err:  one-sigma uncertainty per point; defaults to the Poisson
          counting estimate sqrt(max(y, 1)).
    """

    kind: str
    x: np.ndarray
    y: np.ndarray
    err: np.ndarray | None = None

    def __post_init__(self):
        _parse_kind(self.kind)
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ValueError("x and y must be aligned 1-D arrays")
        if self.x.size < 2:
            raise ValueError("need at least two data points")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("data must be finite")
        if self.err is None:
            self.err = np.sqrt(np.maximum(self.y, 1.0))
        else:
            self.err = np.asarray(self.err, dtype=float)
            if self.err.shape != self.y.shape:
                raise ValueError("err must align with y")
            if not np.all(np.isfinite(self.err)) or np.any(self.err <= 0):
                raise ValueError("err must be finite and positive")
        if self.kind != "spectrum":
            if self.x[0] < 0 or np.any(np.diff(self.x) <= 0):
                raise ValueError(
                    "correlation delays must increase from tau >= 0")

    def __len__(self) -> int:
        return int(self.x.size)


@dataclass
class FitResult:
    """Optimum of one fit plus goodness and uncertainty information."""

    params: dict                  # free parameter -> fitted value
    experiment: ExperimentParams  # init with the fitted physics applied
    chi2: float
    dof: int
    cov: np.ndarray | None        # ordered like `params`; None if singular
    sigma: dict | None            # one-sigma errors, sqrt(diag(cov))
    converged: bool
    nfev: int                     # model solves, Jacobian steps included
    message: str
    errors: ErrorModel | None = None

    def reduced_chi2(self) -> float:
        return self.chi2 / self.dof if self.dof > 0 else math.nan


def _parse_kind(kind: str):
    if kind in ("spectrum", "total"):
        return kind, None
    first, sep, second = kind.partition("|")
    if sep and first in (SIGMA_MINUS, SIGMA_PLUS) \
            and second in (SIGMA_MINUS, SIGMA_PLUS):
        return "pair", (first, second)
    raise ValueError(f"unknown dataset kind {kind!r}")


def _check_free(free, allowed) -> tuple:
    free = tuple(free)
    if not free:
        raise ValueError("free parameter list is empty")
    if len(set(free)) != len(free):
        raise ValueError("duplicate free parameter")
    bad = [n for n in free if n not in allowed]
    if bad:
        raise ValueError(f"free parameter(s) {bad} not supported here; "
                         f"allowed: {sorted(allowed)}")
    return free


def _with_physics(params: ExperimentParams, vals: dict) -> ExperimentParams:
    upd = {k: v for k, v in vals.items() if k in PHYSICS_PARAMS}
    return params.replace(**upd) if upd else params


def _check_budget(restarts: int, maxfev: int) -> None:
    if restarts < 1 or maxfev < 1:
        raise ValueError(f"restarts and maxfev must be >= 1, got "
                         f"{restarts} and {maxfev}")


def _clip(name: str, value: float) -> float:
    lo, hi = _BOUNDS[name]
    return min(max(value, lo), hi)


def _perturb(x0, names, rng):
    spread = np.array([_RESTART_SCALE[n] for n in names])
    return x0 + (0.25 * np.abs(x0) + spread) * rng.standard_normal(x0.size)


def _minimize(residuals, x0, names, maxfev, restarts, seed, dof, size):
    """Bounded trust-region least squares in scaled coordinates with
    seeded restarts (starts are clipped into the bounds).

    `residuals` maps a dict of parameter values to the residual vector;
    a NumericalError counts as `size` residuals of _FAILED.  Stops early
    once chi^2 <= dof + sqrt(2 dof) (a statistically perfect fit);
    otherwise keeps the best start.  Returns its values, chi^2, success
    flag, message and the Jacobian d residual / d parameter.
    """
    units = np.array([_UNIT[n] for n in names])
    lo, hi = np.array([_BOUNDS[n] for n in names]).T / units

    def to_vals(t) -> dict:
        return {n: _clip(n, v) for n, v in zip(names, t * units)}

    def fun(t):
        try:
            return residuals(to_vals(t))
        except NumericalError:
            return np.full(size, _FAILED)

    target = dof + math.sqrt(2.0 * max(dof, 1))
    rng = np.random.default_rng(seed)
    x0 = np.asarray(x0, dtype=float)
    best = None
    for k in range(restarts):
        start = x0 if k == 0 else _perturb(x0, names, rng)
        # dogbox keeps a start that sits on a bound; "trf" moves a start
        # at 0 to 1e-10, where the relative step diff_step * |x| is 1e-17
        # and the Jacobian column is round-off
        res = scipy.optimize.least_squares(
            fun, np.clip(start / units, lo, hi), bounds=(lo, hi),
            method="dogbox", diff_step=_DIFF_STEP, max_nfev=maxfev)
        if best is None or res.cost < best.cost:
            best = res
        if 2.0 * best.cost <= target:
            break
    return to_vals(best.x), 2.0 * best.cost, bool(best.success), \
        str(best.message), best.jac / units


def _covariance(jac, names):
    """cov = (J^T J)^-1 for J = d residual / d parameter at the optimum."""
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        return None, None
    diag = np.diag(cov)
    if not np.all(np.isfinite(cov)) or np.any(diag <= 0.0):
        return None, None
    sigma = {nm: math.sqrt(v) for nm, v in zip(names, diag)}
    return cov, sigma


def _solve_affine(y, w, s, a0, b0, fit_a, fit_b):
    """Weighted least-squares scale/background for a fixed shape s.

    The free ones of (a, b) come from one non-negative least-squares
    solve (both are count-like) on the sqrt(w)-weighted columns, with
    the fixed ones held at a0, b0; a degenerate system falls back to
    the initial values.
    """
    free = np.array([fit_a, fit_b])
    if not free.any():
        return a0, b0
    rw = np.sqrt(w)
    cols = rw[:, None] * np.column_stack([s, np.ones_like(s)])
    gram = cols[:, free].T @ cols[:, free]
    if np.linalg.det(gram) <= 1e-14 * np.prod(np.diag(gram)):
        return a0, b0
    ab = np.array([a0, b0], dtype=float)
    ab[free] = scipy.optimize.nnls(
        cols[:, free], rw * y - cols[:, ~free] @ ab[~free])[0]
    return float(ab[0]), float(ab[1])


def fit_spectrum(data: DataSet, params_init: ExperimentParams,
                 free=("omega_866", "b_field", "scale", "background"),
                 scale: float = 1.0, background: float = 0.0,
                 restarts: int = 5, seed: int = 0,
                 maxfev: int = 2000) -> FitResult:
    """Fit the eight-level excitation spectrum to a measured scan.

    data.x is the absolute repumper detuning axis in rad/s; a free
    "delta_866" acts as a calibration offset added to that axis.  When
    "scale" or "background" are free they are profiled out analytically,
    so the optimizer only searches the physics parameters.  `scale` and
    `background` arguments are the fixed values when not free.  The
    covariance takes the affine columns of J analytically and the
    physics columns from one forward difference each.
    """
    if _parse_kind(data.kind)[0] != "spectrum":
        raise ValueError(f"fit_spectrum needs a spectrum dataset, "
                         f"got kind {data.kind!r}")
    free = _check_free(free, PHYSICS_PARAMS + AFFINE_PARAMS)
    _check_budget(restarts, maxfev)
    phys = [n for n in free if n in PHYSICS_PARAMS]
    fit_scale = "scale" in free
    fit_bg = "background" in free
    w = 1.0 / data.err ** 2
    penalty = data.y + _FAILED * data.err   # stands in for failed points
    nfev = 0

    def shape_curve(vals: dict) -> np.ndarray:
        nonlocal nfev
        nfev += 1
        p = _with_physics(params_init, vals)
        grid = data.x + vals.get("delta_866", 0.0)
        return excitation_spectrum(p, grid).values

    def residuals(s: np.ndarray, a: float, b: float) -> np.ndarray:
        return (data.y - np.where(np.isfinite(s), a * s + b, penalty)) \
            / data.err

    def profiled(vals: dict):
        s = shape_curve(vals)
        good = np.isfinite(s)
        if np.any(good):
            a, b = _solve_affine(data.y[good], w[good], s[good],
                                 scale, background, fit_scale, fit_bg)
        else:
            a, b = scale, background
        return residuals(s, a, b), a, b, s

    dof = len(data) - len(free)
    if phys:
        x0 = [getattr(params_init, n) for n in phys]
        vals, _, ok, message, _ = _minimize(
            lambda v: profiled(v)[0], x0, phys, maxfev, restarts, seed,
            dof, len(data))
    else:
        vals, ok, message = {}, True, "profiled affine solve"
    r, a_fit, b_fit, s = profiled(vals)

    good = np.isfinite(s)
    columns = {"scale": np.where(good, -s, 0.0) / data.err,
               "background": np.where(good, -1.0, 0.0) / data.err}
    for n in phys:   # forward differences with the step of _minimize
        h = _DIFF_STEP * max(_UNIT[n], abs(vals[n]))
        h = -h if vals[n] + h > _BOUNDS[n][1] else h
        s_h = shape_curve({**vals, n: vals[n] + h})
        columns[n] = (residuals(s_h, a_fit, b_fit) - r) / h
    cov, sigma = _covariance(np.column_stack([columns[n] for n in free]),
                             free)
    fitted = dict(vals, scale=a_fit, background=b_fit)
    return FitResult(
        params={n: float(fitted[n]) for n in free},
        experiment=_with_physics(params_init, fitted),
        chi2=float(r @ r), dof=dof, cov=cov, sigma=sigma,
        converged=ok, nfev=nfev, message=message)


def fit_g2_joint(datasets, params_init: ExperimentParams,
                 free=("omega_397", "omega_866"),
                 errors: ErrorModel | None = None,
                 restarts: int = 5, seed: int = 0,
                 maxfev: int = 2000) -> FitResult:
    """Joint fit of one or more correlation curves sharing the physics.

    All datasets are predicted from a single parameter set, so e.g. the
    two Rabi frequencies are shared between a sigma-|sigma- and a
    sigma-|sigma+ curve fitted together.  Conditioned-pair datasets may
    carry the three detection error parameters as free names; they apply
    to pair curves only, never to a "total" dataset.  Delay grids are
    used exactly as given (a tau = 0 point is prepended internally when
    missing, the propagator needs it).  The covariance reuses the
    optimizer's Jacobian at the optimum.
    """
    if isinstance(datasets, DataSet):
        datasets = [datasets]
    datasets = list(datasets)
    if not datasets:
        raise ValueError("need at least one dataset")
    # deduplicate model grids so curves sharing first photon and delays
    # cost one propagation per residual evaluation
    grids: dict[bytes, np.ndarray] = {}
    layout = []   # per dataset: (first, second, grid key, slice, data)
    for d in datasets:
        mode, pair = _parse_kind(d.kind)
        if mode == "spectrum":
            raise ValueError("spectrum data belongs in fit_spectrum")
        grid = d.x if d.x[0] == 0.0 else np.concatenate([[0.0], d.x])
        key = grid.tobytes()
        grids.setdefault(key, grid)
        first, second = pair if pair else (None, None)   # None: "total"
        layout.append((first, second, key,
                       slice(grid.size - d.x.size, None), d))
    free = _check_free(free, PHYSICS_PARAMS + ERROR_PARAMS)
    _check_budget(restarts, maxfev)
    base_err = errors if errors is not None else ErrorModel()
    use_err = errors is not None or any(n in ERROR_PARAMS for n in free)

    def error_model(vals: dict) -> ErrorModel:
        return ErrorModel(**{n: vals.get(n, getattr(base_err, n))
                             for n in ERROR_PARAMS})

    nfev = 0

    def residuals(vals: dict) -> np.ndarray:
        nonlocal nfev
        nfev += 1
        p = _with_physics(params_init, vals)
        em = error_model(vals)
        model = Model(p)   # one generator and eig for every curve
        cache: dict = {}
        out = []
        for first, second, gk, sl, d in layout:
            key = (first, gk)
            if key not in cache:
                cache[key] = (g2_total(model, grids[gk]),) if first is None \
                    else g2_pair(model, first, grids[gk], em)
            curve = cache[key][1 if second == SIGMA_PLUS else 0]
            out.append((d.y - curve.values[sl]) / d.err)
        return np.concatenate(out)

    n_points = sum(len(d) for d in datasets)
    dof = n_points - len(free)
    x0 = [getattr(params_init, n) if n in PHYSICS_PARAMS
          else getattr(base_err, n) for n in free]
    vals, chi2, ok, message, jac = _minimize(
        residuals, x0, free, maxfev, restarts, seed, dof, n_points)
    cov, sigma = _covariance(jac, free)
    return FitResult(
        params={n: float(v) for n, v in vals.items()},
        experiment=_with_physics(params_init, vals),
        chi2=chi2, dof=dof, cov=cov, sigma=sigma,
        converged=ok, nfev=nfev, message=message,
        errors=error_model(vals) if use_err else None)
