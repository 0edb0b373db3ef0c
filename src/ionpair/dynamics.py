"""Steady states and time evolution of the eight-level master equation.

A Model holds one parameter set's Liouvillian as a real 64x64 matrix R
in the Hermitian operator basis of _real_basis(), its steady state and
the real eigendecompositions of R that its read-outs need, and serves
every read-out of that set: populations, states and the exact
cumulative integrals of the populations for any initial state, and the
steady populations over a scan of the repumper detuning.  It is the only
entry to the master equation; it raises params.NumericalError, or its
subclass below.  It needs numpy only: each decomposition's eigenvectors
are inverted once, and no scipy module is loaded.

The coordinate of rho_ij has the parity c(i) xor c(j) of atom._PARITY.
Without a pi drive R keeps that parity, R = R_even + R_odd: the even
block holds the 8 populations and the 24 same-class coherence
coordinates, the odd block the 32 cross-class ones.  If R has no entry
between them above atom._PARITY_TOL max|R|, the populations' block is
the even one; otherwise it is all 64 coordinates.  Each read-out works
on one coordinate set, populations first: the populations' block, or
all 64 coordinates for a rho0 with cross-class coherences.  The steady
state, the repumper scan and every read-out of a diagonal rho0 take the
populations' block.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import atom
from .atom import N_LEVELS
from .params import NumericalError

# Relative residual allowed on ||L rho_ss|| and on trace conservation.
RESIDUAL_TOL = 1e-10
# Allowed trace error and non-Hermitian part of an initial state.
STATE_TOL = 1e-9


class DegenerateSteadyStateError(NumericalError):
    """The generator has more than one stationary state, e.g. for
    gamma_dp = 0 with a polarization that leaves part of D dark."""


def _check_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("time grid must be a non-empty 1-D array")
    if not np.isfinite(grid).all():
        raise ValueError("time grid must be finite")
    if grid[0] != 0.0:
        raise ValueError("time grid must start at t = 0")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("time grid must be strictly increasing")
    return grid


def _real_basis() -> np.ndarray:
    """Unitary U with vec(rho) = U x for real coordinates x.

    x holds the 8 populations, then sqrt(2) Re and sqrt(2) Im of the 28
    upper coherences rho_ij (i < j).  A Hermitian rho has real x, and a
    generator that keeps rho Hermitian is real in this basis (Havel,
    J. Math. Phys. 44, 534, 2003).  Population k is row k (n + 1) of
    vec(rho) and coordinate k of x, with weight exactly 1.
    """
    n = N_LEVELS
    i, j = np.triu_indices(n, 1)
    re = n + np.arange(i.size)
    im = re + i.size
    u = np.zeros((n * n, n * n), dtype=complex)
    u[np.arange(n) * (n + 1), np.arange(n)] = 1.0
    u[i * n + j, re] = u[j * n + i, re] = np.sqrt(0.5)
    u[i * n + j, im] = 1j * np.sqrt(0.5)
    u[j * n + i, im] = -1j * np.sqrt(0.5)
    return u


_U = _real_basis()
_UH = _U.conj().T
# atom.LIOUVILLIAN_TERMS in the real basis, one flattened row per term
_REAL_TERMS = np.array([(_UH @ term @ _U).real.ravel()
                        for term in atom.LIOUVILLIAN_TERMS])
# The cross-class coordinates, the even ones (populations first), all
# 64, and the entries of R between the two parities
_CROSS = (atom._PARITY[:, None] != atom._PARITY).ravel() @ np.abs(_U) > 0
_EVEN = np.flatnonzero(~_CROSS)
_ALL = np.arange(_U.shape[1])
_BETWEEN = np.flatnonzero(_CROSS[:, None] != _CROSS)
# The delta_866 term, entries +-1 on the Re and Im coordinates of the 16
# coherences between D and the S and P levels, 16 in each parity block.
_D866 = _REAL_TERMS[atom.DELTA_866_TERM].reshape(_U.shape)
_D866_MASK = np.abs(_D866).max(axis=0) > 0.5
# steady_populations' K has eigenvalues within 1.1e-8 max|theta| of 0
# and none other below 0.036 max|theta| (400 random pi-free sets)
_ZERO_POLE = 1e-6


def _check_drift(traces: np.ndarray) -> None:
    drift = np.abs(traces - 1.0).max(initial=0.0)
    if not drift <= RESIDUAL_TOL:
        raise NumericalError(
            f"trace drift {drift:.3e} exceeds {RESIDUAL_TOL:.0e} (relative)")


class Model:
    """The real generator R of one parameter set and its read-outs.

    Model(params) assembles R = sum_k c_k (U^H B_k U) from
    atom.liouvillian_coefficients(params) and the fixed real terms.  On
    the first read-out it finds the populations' block of R: the even
    coordinates if the entries between the parities are at most
    atom._PARITY_TOL max|R| (a pi-free drive; NaN never is), else all 64.
    Every steady-state read-out solves that block; the steady state's
    residual is checked on the whole R.  A propagation works on one
    coordinate set: the populations' block, or all 64 coordinates if
    rho0 has a cross-class part.  Each set's eigendecomposition is
    computed once, when a read-out first needs it, and one real eig
    serves a whole grid (Moler & Van Loan, SIAM Rev. 45, 3, 2003), on
    half its spectrum: x(t) = Re sum_{Im lam >= 0} c v exp(lam t) y0,
    with c = 2 for a complex mode (its conjugate partner) and 1 for a
    real one, and vec(rho(t)) = U x(t) on the set's columns of U.  The
    explicit inverse of the eigenvectors, kept with the spectrum, gives
    any rho0's mode coefficients by one product.  On a uniform grid
    t_k = k dt, exactly as default_grid builds it, exp(lam t) comes from
    a two-level table: with B = ceil(sqrt(n)), exp(lam (jB + i) dt) =
    exp(lam jB dt) exp(lam i dt), two tables of about sqrt(n) rows and
    one product in place of n exps; any other grid takes exp(lam t)
    point by point.  The integral from 0 to t takes expm1(lam t) / lam
    (t if lam = 0) in place of exp(lam t), on every grid, because expm1
    keeps a small |lam t| free of cancellation; on a uniform grid
    expm1(a + b) = expm1(a) expm1(b) + expm1(a) + expm1(b) takes it from
    the same two tables.
    """

    def __init__(self, params):
        self.params = params
        self.real = (atom.liouvillian_coefficients(params)
                     @ _REAL_TERMS).reshape(_U.shape)
        self._spectra: dict[int, tuple] = {}

    @cached_property
    def _block(self) -> np.ndarray:
        """Coordinates of the block of R that holds the populations, first:
        the even ones on a pi-free drive, else all 64."""
        return _EVEN if atom._pi_free(self.real, _BETWEEN) else _ALL

    def _steady_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs on the populations' block, with A = R there
        and population 0's row replaced by the unit-trace row; A x = e_0
        is the steady state."""
        coords = self._block
        a = self.real.take(coords, 0).take(coords, 1)
        a[0] = 0.0
        a[0, :N_LEVELS] = 1.0
        try:
            return np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as exc:
            raise DegenerateSteadyStateError(
                f"singular steady-state system ({exc}): more than one "
                "stationary state, e.g. a dark state")

    @cached_property
    def steady(self) -> np.ndarray:
        """Stationary rho: R x = 0 at unit trace."""
        coords = self._block
        x = np.zeros(len(self.real))
        x[coords] = self._steady_solve(np.eye(coords.size)[0])
        resid = (np.linalg.norm(self.real @ x)
                 / max(np.linalg.norm(self.real, ord=np.inf), 1.0))
        if not resid <= RESIDUAL_TOL:
            raise NumericalError(f"steady-state residual {resid:.3e} "
                                 f"exceeds {RESIDUAL_TOL:.0e}")
        _check_drift(x[:N_LEVELS].sum())
        return (_U @ x).reshape(N_LEVELS, N_LEVELS)

    def _spectrum(self, coords: np.ndarray):
        """(lam, vec, weight, inverse): R's kept half spectrum on coords,
        populations first, one column of vec per mode, and the kept rows
        of the inverse of all its eigenvectors; computed once per set."""
        if coords.size in self._spectra:
            return self._spectra[coords.size]
        try:
            lam, vec = np.linalg.eig(self.real[np.ix_(coords, coords)])
            real, upper = lam.imag == 0.0, lam.imag > 0.0
            # dgeev returns complex eigenvalues as exact conjugate pairs;
            # the populations' coordinates hold the stationary mode
            if 2 * upper.sum() + real.sum() != lam.size or not real.any():
                raise NumericalError(
                    "generator eigenvalues are not conjugate pairs around a "
                    "real stationary mode")
            # L preserves the trace, so its stationary eigenvalue is 0 and
            # every other mode is traceless; eig's round-off (the traces by
            # eps ||R|| / gap) would become trace drift at long delays.
            # Pin the real mode that carries the trace, so no conjugate
            # pair is broken, and project it out of the other modes' traces.
            trace = vec[:N_LEVELS].sum(axis=0)
            pin = np.flatnonzero(real)[np.argmax(np.abs(trace[real]))]
            lam[pin] = 0.0
            share = trace / trace[pin]
            share[pin] = 0.0
            vec -= np.outer(vec[:, pin], share)
            keep = real | upper
            inverse = np.linalg.inv(vec)[keep]
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"eigendecomposition of the generator failed: {exc}")
        self._spectra[coords.size] = (lam[keep], vec[:, keep],
                                      np.where(upper, 2.0, 1.0)[keep], inverse)
        return self._spectra[coords.size]

    def _modes(self, rho0):
        """(lam, vec, coef, coords, x(0)) with x(t) = Re(vec @ (exp(lam t)
        * coef)) on the coordinates coords, after checking rho0 (8x8, unit
        trace, Hermitian): the populations' block of R, or all 64
        coordinates if rho0 has a cross-class part."""
        rho0 = np.asarray(rho0, dtype=complex)
        if rho0.shape != (N_LEVELS, N_LEVELS):
            raise ValueError(f"rho0 must be 8x8, got {rho0.shape}")
        tr0, skew = np.trace(rho0).real, np.abs(rho0 - rho0.conj().T).max()
        if abs(tr0 - 1.0) > STATE_TOL:
            raise ValueError(f"rho0 trace {tr0} is not 1")
        if skew > STATE_TOL:
            raise ValueError(
                f"rho0 is not Hermitian (|rho0 - rho0^H| = {skew:.3e})")
        y0 = (_UH @ rho0.reshape(-1)).real
        coords = _ALL if y0[_CROSS].any() else self._block
        lam, vec, weight, inverse = self._spectrum(coords)
        return lam, vec, weight * (inverse @ y0[coords]), coords, y0[coords]

    def _series(self, rho0, grid, rows: int,
                cumulative: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(x, coords): x(t) on the grid at coords, the first `rows`
        coordinates of the read-out's set, x(0) exact; or, if cumulative,
        its integral from 0 to t, exactly zero within eps t of zero.  The
        trace drift is checked: against 1, or against t for the integral."""
        grid = _check_grid(grid)
        lam, vec, coef, coords, x0 = self._modes(rho0)
        rate = float(np.abs(lam).max())
        if not math.isfinite(float(grid[-1]) * rate):   # Python floats: inf
            raise ValueError(
                f"time t = {grid[-1]:g} s is out of range: t times the "
                f"generator's fastest rate, {rate:.3g}/s, overflows")
        coords = coords[:rows]
        fn = np.expm1 if cumulative else np.exp
        if grid.size > 1 and np.array_equal(
                grid, np.arange(grid.size) * grid[1]):
            # with a = fn(lam jB dt) and b = fn(lam i dt),
            # exp(lam (jB + i) dt) = a b and expm1(...) = a b + a + b
            block = math.isqrt(grid.size - 1) + 1
            a = fn(np.outer(grid[::block], lam))[:, None]
            b = fn(np.outer(grid[:block], lam))
            f = (a * b + a + b if cumulative else a * b).reshape(
                -1, lam.size)[:grid.size]
        else:
            f = fn(np.outer(grid, lam))
        if cumulative:
            # expm1(lam t) / lam, t at lam = 0; numpy's complex expm1
            # keeps a small |lam t| free of cancellation
            f /= np.where(lam == 0.0, 1.0, lam)
            f[:, lam == 0.0] = grid[:, None]
        w = coef[:, None] * vec[:rows].T
        x = f.real @ w.real - f.imag @ w.imag
        if cumulative:  # terms of size t cancel: eps t is round-off
            x[np.abs(x) <= np.finfo(float).eps * grid[:, None]] = 0.0
        else:
            x[0] = x0[:rows]
        traces = x[:, :N_LEVELS].sum(axis=1)
        _check_drift(traces[1:] / grid[1:] if cumulative else traces)
        return x, coords

    def populations(self, rho0: np.ndarray, grid) -> np.ndarray:
        """Populations on the grid, shape (n, 8), without coherences."""
        return self._series(rho0, grid, N_LEVELS)[0]

    def cumulative(self, rho0: np.ndarray, grid) -> np.ndarray:
        """Exact integrals int_0^t of the populations at each grid point
        t, shape (n, 8); a bin integral is a difference of two rows.  One
        within eps t of zero is eigenbasis round-off and reads 0."""
        return self._series(rho0, grid, N_LEVELS, cumulative=True)[0]

    def states(self, rho0: np.ndarray, grid) -> np.ndarray:
        """Density matrices on the grid, shape (n, 8, 8)."""
        x, coords = self._series(rho0, grid, _U.shape[1])
        out = (x @ _U[:, coords].T).reshape(-1, N_LEVELS, N_LEVELS)
        out[0] = rho0
        return out

    def steady_populations(self, delta_866) -> np.ndarray:
        """Steady populations at each repumper detuning, shape (n, 8).

        At detuning d the steady system is A + u P B P^T on the
        populations' block: A is this Model's trace-row system, u = d -
        params.delta_866, B the delta_866 term on the block's coordinates
        P (16 of the 32 on a pi-free drive).  The Woodbury identity
        (Hager, SIAM Rev. 31, 221, 1989) with K = B P^T A^-1 P =
        W diag(theta) W^-1 makes the populations rational in u,

            x(d) = x0 - u Z W diag(1 / (1 + u theta)) W^-1 B P^T x0,

        with x0 = A^-1 e_0 and Z = A^-1 P: one solve, one 16x16 (pi-free)
        or 32x32 eig and one vectorized evaluation serve the whole scan.
        W grows ill-conditioned where poles merge (Zeeman pairs as B -> 0).
        K itself is defective: without the P-D coherences the D populations
        are absorbing, so K has 2x2 Jordan blocks at theta = 0, whose modes
        add nothing to the bounded populations.  eig splits them by
        round-off on the 64-coordinate block (no failure over 20,000
        random pi drives) but can return them unsplit, W singular, on the
        parity block (3 of 30,000 random weak-preset scans, OpenBLAS
        0.3.31); there a basis of null(K^2) replaces their eigenvectors.
        A point where A(d) is singular comes back non-finite; a singular A
        raises DegenerateSteadyStateError, a failed eig NumericalError.
        """
        u = np.ravel(delta_866) - self.params.delta_866
        coords = self._block
        p = np.flatnonzero(_D866_MASK[coords])
        cols = np.concatenate(([0], p))     # e_0, then P
        x = self._steady_solve(np.eye(coords.size)[:, cols])
        bx = _D866.take(coords[p], 0).take(coords[p], 1) @ x[p]
        k = bx[:, 1:]
        try:
            theta, w = np.linalg.eig(k)
            if coords.size < _ALL.size:     # the Jordan blocks at 0
                zero = np.abs(theta) <= _ZERO_POLE * np.abs(theta).max()
                w[:, zero] = np.linalg.svd(k @ k)[2][(~zero).sum():].T
            r = np.linalg.solve(w, bx[:, 0])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"detuning scan factorization failed: {exc}")
        with np.errstate(all="ignore"):
            resolvent = u[:, None] / (1.0 + np.outer(u, theta))
            shift = (resolvent * r) @ (x[:N_LEVELS, 1:] @ w).T
        return x[:N_LEVELS, 0] - shift.real
