"""Least-squares parameter estimation from measured curves.

Physics parameters enter only through the eight-level model, so every
residual evaluation re-solves the master equation.  Fits minimize the
residual vector (y - model) / err by bounded trust-region least squares
(scipy.optimize.least_squares, method "dogbox"; Voglis & Lagaris, 2004)
over a few named free parameters, in rescaled coordinates so frequencies
(1e8 rad/s) and angles (order 1) live on the same footing.
fit_spectrum and fit_g2_joint are front-ends of one core, _fit: one
evaluation per point, one affine nuisance pair (scale, background) for
every value, profiled out analytically where free (variable projection;
Golub & Pereyra, Inverse Problems 19, R1, 2003), and one rule for the
free names, read from the data.  Restarts from perturbed starting points
guard against local minima; uncertainties come from cov = (J^T J)^-1,
with J the Jacobian of the residuals over all free parameters at the
optimum, the affine pair held at its fit.  With the pair held throughout
that is the optimizer's own Jacobian; with it profiled the optimizer saw
only (I - P) J, which lacks J along the affine columns, so J is taken
again: those columns analytically, one forward difference per searched
parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .correlations import (SIGMA_MINUS, SIGMA_PLUS, ErrorModel,
                           excitation_spectrum, g2_pair, g2_total)
from .dynamics import Model
from .params import TWO_PI, ExperimentParams, NumericalError, _check_finite

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

# finite-difference step of the Jacobian.  least_squares steps an
# optimizer value t = v / _UNIT by diff_step * t, signed and relative to t
# (sqrt(eps) at t = 0), flipped where it leaves the bounds; the profiled
# fit's re-take at the optimum steps v by _DIFF_STEP * max(_UNIT, |v|),
# forward, flipped at the upper bound.  They agree only for t >= 1.
_DIFF_STEP = 1e-7

# every residual of an evaluation whose model could not be solved
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
        raise ValueError(f"free parameter(s) {bad} not supported by these "
                         f"datasets; allowed: {sorted(allowed)}")
    return free


def _with_physics(params: ExperimentParams, vals: dict) -> ExperimentParams:
    upd = {k: v for k, v in vals.items() if k in PHYSICS_PARAMS}
    return params.replace(**upd) if upd else params


def _perturb(x0, names, rng):
    spread = np.array([_RESTART_SCALE[n] for n in names])
    return x0 + (0.25 * np.abs(x0) + spread) * rng.standard_normal(x0.size)


def _minimize(residuals, x0, names, maxfev, restarts, seed, dof, size):
    """Bounded trust-region least squares in scaled coordinates with
    seeded restarts (starts are clipped into the bounds).

    `residuals` maps a dict of parameter values to the residual vector.
    Here alone an evaluation that raises NumericalError counts as `size`
    residuals of _FAILED; the error is raised again when the best start
    ends on one.  Stops early once chi^2 <= dof + sqrt(2 dof) (a
    statistically perfect fit); otherwise keeps the best start.  Returns
    its values, residual vector, success flag, message and the Jacobian
    d residual / d parameter.
    """
    import scipy.optimize

    units = np.array([_UNIT[n] for n in names])
    lo, hi = np.array([_BOUNDS[n] for n in names]).T / units

    def to_vals(t) -> dict:
        return dict(zip(names, t * units))

    failed = {}   # error per point whose model could not be solved

    def fun(t):
        try:
            return residuals(to_vals(t))
        except NumericalError as exc:
            failed[t.tobytes()] = exc
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
    if best.x.tobytes() in failed:
        raise failed[best.x.tobytes()]
    return to_vals(best.x), best.fun, bool(best.success), \
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
    import scipy.optimize

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


def _fit(datasets, params_init, free, errors, affine, restarts, seed,
         maxfev) -> FitResult:
    """The one fit behind fit_spectrum and fit_g2_joint.

    A spectrum comes from excitation_spectrum, which fails as a whole on
    any flagged detuning; curves come from one Model, built when a curve
    first needs it, with one propagation per first photon and grid.  The
    affine pair is held at `affine` where not free.  Scale and background
    may be free with a spectrum, the detection errors (free, or nonzero
    in `errors`) with a conditioned pair curve.
    """
    kinds = [_parse_kind(d.kind) for d in datasets]
    modes = {mode for mode, _ in kinds}
    free = _check_free(free, PHYSICS_PARAMS
                       + (AFFINE_PARAMS if "spectrum" in modes else ())
                       + (ERROR_PARAMS if "pair" in modes else ()))
    if restarts < 1 or maxfev < 1:
        raise ValueError(f"restarts and maxfev must be >= 1, got "
                         f"{restarts} and {maxfev}")
    base_err = errors if errors is not None else ErrorModel()
    held_eps = [n for n in ERROR_PARAMS if getattr(base_err, n)]
    if held_eps and "pair" not in modes:
        raise ValueError(f"detection errors {held_eps} act on conditioned "
                         f"pair curves only, and no dataset is one")
    for name, value in zip(AFFINE_PARAMS, affine):
        _check_finite(name, value)
    use_err = errors is not None or any(n in ERROR_PARAMS for n in free)

    def error_model(vals: dict) -> ErrorModel:
        return ErrorModel(**{n: float(vals.get(n, getattr(base_err, n)))
                             for n in ERROR_PARAMS})

    # deduplicate model grids so curves sharing first photon and delays
    # cost one propagation per evaluation
    grids: dict[bytes, np.ndarray] = {}
    layout = []   # per dataset: (mode, first, second, grid key, slice)
    for d, (mode, pair) in zip(datasets, kinds):
        grid = d.x if mode == "spectrum" or d.x[0] == 0.0 \
            else np.concatenate([[0.0], d.x])
        key = grid.tobytes()
        grids.setdefault(key, grid)
        layout.append((mode, *(pair or (None, None)), key,
                       slice(grid.size - d.x.size, None)))
    nfev = 0

    def values(vals: dict) -> np.ndarray:
        nonlocal nfev
        nfev += 1
        p = _with_physics(params_init, vals)
        model, cache, out = None, {}, []
        for mode, first, second, gk, sl in layout:
            if mode == "spectrum":   # delta_866 offsets the detuning axis
                curve = excitation_spectrum(
                    p, grids[gk] + vals.get("delta_866", 0.0))
                if not curve.ok.all():
                    raise NumericalError(
                        f"the spectrum model failed at "
                        f"{np.count_nonzero(~curve.ok)} of {curve.ok.size}"
                        f" detunings")
                out.append(curve.values)
                continue
            if model is None:
                model = Model(p)   # one generator and eig for every curve
            if (first, gk) not in cache:
                cache[first, gk] = (g2_total(model, grids[gk]),) \
                    if first is None else g2_pair(model, first, grids[gk],
                                                  error_model(vals))
            out.append(cache[first, gk][1 if second == SIGMA_PLUS else 0]
                       .values[sl])
        return np.concatenate(out)

    y = np.concatenate([d.y for d in datasets])
    err = np.concatenate([d.err for d in datasets])
    w = 1.0 / err ** 2
    fit_a, fit_b = "scale" in free, "background" in free

    def residuals(s: np.ndarray, a: float, b: float) -> np.ndarray:
        return (y - (a * s + b)) / err

    def profiled(vals: dict):
        s = values(vals)
        a, b = _solve_affine(y, w, s, *affine, fit_a, fit_b)
        return residuals(s, a, b), a, b, s

    searched = [n for n in free if n not in AFFINE_PARAMS]
    dof = y.size - len(free)
    if searched:
        x0 = [getattr(params_init, n) if n in PHYSICS_PARAMS
              else getattr(base_err, n) for n in searched]
        vals, r, ok, message, jac = _minimize(
            lambda v: profiled(v)[0], x0, searched, maxfev, restarts, seed,
            dof, y.size)
    else:
        vals, ok, message = {}, True, "profiled affine solve"
    a, b = affine   # held: the optimizer's Jacobian is J
    if fit_a or fit_b:
        # profiled: the optimizer's (I - P) J lacks J along the affine
        # columns, so J is taken again at the optimum with (a, b) held
        r, a, b, s = profiled(vals)
        columns = {"scale": -s / err, "background": -1.0 / err}
        # _DIFF_STEP * max(_UNIT, |v|) forward, flipped at the upper
        # bound; _minimize's step is diff_step * t, signed, t = v / _UNIT.
        # They agree only for t >= 1 (see _DIFF_STEP)
        for n in searched:
            h = _DIFF_STEP * max(_UNIT[n], abs(vals[n]))
            h = -h if vals[n] + h > _BOUNDS[n][1] else h
            s_h = values({**vals, n: vals[n] + h})
            columns[n] = (residuals(s_h, a, b) - r) / h
        jac = np.column_stack([columns[n] for n in free])
    cov, sigma = _covariance(jac, free)
    fitted = dict(vals, scale=a, background=b)
    params = {n: float(fitted[n]) for n in free}
    return FitResult(
        params=params, experiment=_with_physics(params_init, params),
        chi2=float(r @ r), dof=dof, cov=cov, sigma=sigma,
        converged=ok, nfev=nfev, message=message,
        errors=error_model(vals) if use_err else None)


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
    `background` arguments are the fixed values when not free, and must
    be finite in any case.  An evaluation whose model flags any detuning
    raises NumericalError as a whole, as a g2 evaluation does: a scan
    point that fails for every parameter set fails the fit, on every path.
    """
    if data.kind != "spectrum":
        raise ValueError(f"fit_spectrum needs a spectrum dataset, "
                         f"got kind {data.kind!r}")
    return _fit([data], params_init, free, None, (scale, background),
                restarts, seed, maxfev)


def fit_g2_joint(datasets, params_init: ExperimentParams,
                 free=("omega_397", "omega_866"),
                 errors: ErrorModel | None = None,
                 restarts: int = 5, seed: int = 0,
                 maxfev: int = 2000) -> FitResult:
    """Joint fit of one or more correlation curves sharing the physics.

    All datasets are predicted from a single parameter set, so e.g. the
    two Rabi frequencies are shared between a sigma-|sigma- and a
    sigma-|sigma+ curve fitted together.  The three detection error
    parameters, free or as nonzero fixed `errors`, apply to pair curves
    only, never to a "total" dataset, and need one pair curve among the
    datasets.  Delay grids are used exactly as given (a tau = 0 point is
    prepended internally when missing, the propagator needs it).
    """
    datasets = [datasets] if isinstance(datasets, DataSet) else list(datasets)
    if not datasets:
        raise ValueError("need at least one dataset")
    if any(d.kind == "spectrum" for d in datasets):
        raise ValueError("spectrum data belongs in fit_spectrum")
    return _fit(datasets, params_init, free, errors, (1.0, 0.0), restarts,
                seed, maxfev)
