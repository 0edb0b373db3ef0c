"""Steady states and time evolution of the eight-level master equation.

A Model holds one parameter set's Liouvillian as a real 64x64 matrix R
in the Hermitian operator basis of _real_basis(), its steady state and
one real eigendecomposition, and serves every read-out of that set.
steady_state(), propagate(), propagate_populations() and integrate()
take any complex generator through Model.from_matrix().
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg

from . import atom
from .atom import N_LEVELS

# Relative residual allowed on ||L rho_ss|| and on trace conservation.
RESIDUAL_TOL = 1e-10
# Allowed trace error and non-Hermitian part of an initial state.
STATE_TOL = 1e-9


class NumericalError(RuntimeError):
    """A linear-algebra step failed to meet its accuracy contract."""


class DegenerateSteadyStateError(NumericalError):
    """The generator has more than one stationary state, e.g. for
    gamma_dp = 0 with a polarization that leaves part of D dark."""


def _check_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("time grid must be a non-empty 1-D array")
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


def _check_drift(traces: np.ndarray) -> None:
    drift = np.abs(traces - 1.0).max()
    if not drift <= RESIDUAL_TOL:
        raise NumericalError(
            f"trace drift {drift:.3e} exceeds {RESIDUAL_TOL:.0e} (relative)")


class Model:
    """The real generator R of one parameter set and its read-outs.

    Model(params) assembles R = sum_k c_k (U^H B_k U) from
    atom.liouvillian_coefficients(params) and the fixed real terms.  The
    steady state and one eigendecomposition are computed on first use
    and shared by every read-out.  One real eig of R serves a whole grid
    (Moler & Van Loan, SIAM Rev. 45, 3, 2003), on half its spectrum:
    x(t) = Re sum_{Im lam >= 0} c v exp(lam t) y0, with c = 2 for a
    complex mode (its conjugate partner) and 1 for a real one, and
    vec(rho(t)) = U x(t).  A window integral takes expm1(lam t) / lam
    (t if lam = 0) in place of exp(lam t).
    """

    def __init__(self, params, real: np.ndarray | None = None):
        self.params = params
        self.real = real if real is not None else (
            atom.liouvillian_coefficients(params) @ _REAL_TERMS
        ).reshape(_U.shape)

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> Model:
        """Model of a complex generator L on row-major vec(rho); a
        ValueError unless L keeps rho Hermitian (R = U^H L U real)."""
        r = _UH @ mat @ _U
        # written so that a NaN generator passes on to eig's NumericalError
        if np.abs(r.imag).max() > RESIDUAL_TOL * max(np.abs(r).max(), 1.0):
            raise ValueError("the generator does not keep rho Hermitian")
        return cls(None, r.real)

    @cached_property
    def steady(self) -> np.ndarray:
        """Stationary rho: R x = 0, population 0's row set to unit trace."""
        a = self.real.copy()
        a[0] = 0.0
        a[0, :N_LEVELS] = 1.0
        try:
            x = np.linalg.solve(a, np.eye(len(a))[0])
        except np.linalg.LinAlgError as exc:
            raise DegenerateSteadyStateError(
                f"singular steady-state system ({exc}): more than one "
                "stationary state, e.g. a dark state")
        resid = (np.linalg.norm(self.real @ x)
                 / max(np.linalg.norm(self.real, ord=np.inf), 1.0))
        if not resid <= RESIDUAL_TOL:
            raise NumericalError(f"steady-state residual {resid:.3e} "
                                 f"exceeds {RESIDUAL_TOL:.0e}")
        _check_drift(x[:N_LEVELS].sum())
        return (_U @ x).reshape(N_LEVELS, N_LEVELS)

    @cached_property
    def _spectrum(self):
        """(lam, vec, weight) of the kept half spectrum, the kept mask
        and the LU factors of all eigenvectors, for any rho0."""
        try:
            lam, vec = np.linalg.eig(self.real)
            real, upper = lam.imag == 0.0, lam.imag > 0.0
            # dgeev returns complex eigenvalues as exact conjugate pairs
            if 2 * upper.sum() + real.sum() != lam.size or not real.any():
                raise NumericalError(
                    "generator eigenvalues are not conjugate pairs around a "
                    "real stationary mode")
            # L preserves the trace, so its steady-state eigenvalue is 0;
            # eig's ~1e-8 round-off would become trace drift at long
            # delays.  Pin a real one, so no conjugate pair is broken.
            cand = np.flatnonzero(real)
            lam[cand[np.argmin(np.abs(lam[cand]))]] = 0.0
            lu = scipy.linalg.lu_factor(vec, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"eigendecomposition of the generator failed: {exc}")
        keep = real | upper
        return (lam[keep], vec[:, keep], np.where(upper, 2.0, 1.0)[keep],
                keep, lu)

    def _modes(self, rho0):
        """(lam, vec, coef) with x(t) = Re(vec @ (exp(lam t) * coef)),
        after checking rho0 (8x8, unit trace, Hermitian)."""
        rho0 = np.asarray(rho0, dtype=complex)
        if rho0.shape != (N_LEVELS, N_LEVELS):
            raise ValueError(f"rho0 must be 8x8, got {rho0.shape}")
        tr0, skew = np.trace(rho0).real, np.abs(rho0 - rho0.conj().T).max()
        if abs(tr0 - 1.0) > STATE_TOL:
            raise ValueError(f"rho0 trace {tr0} is not 1")
        if skew > STATE_TOL:
            raise ValueError(
                f"rho0 is not Hermitian (|rho0 - rho0^H| = {skew:.3e})")
        lam, vec, weight, keep, lu = self._spectrum
        y0 = scipy.linalg.lu_solve(lu, (_UH @ rho0.reshape(-1)).real,
                                   check_finite=False)
        return lam, vec, weight * y0[keep]

    def _series(self, rho0, grid, rows: int) -> np.ndarray:
        """x(t)[:rows] on the grid, x(0) exact, trace drift checked."""
        grid = _check_grid(grid)
        lam, vec, coef = self._modes(rho0)
        # Re(exp(lam t) w) in real arithmetic: cheaper than a complex exp
        decay = np.exp(np.outer(grid, lam.real))
        phase = np.outer(grid, lam.imag)
        w = coef[:, None] * vec[:rows].T
        x = (decay * np.cos(phase)) @ w.real - (decay * np.sin(phase)) @ w.imag
        x[0] = (_UH[:rows] @ np.ravel(rho0)).real
        _check_drift(x[:, :N_LEVELS].sum(axis=1))
        return x

    def populations(self, rho0: np.ndarray, grid) -> np.ndarray:
        """Populations on the grid, shape (n, 8), without coherences."""
        return self._series(rho0, grid, N_LEVELS)

    def states(self, rho0: np.ndarray, grid) -> np.ndarray:
        """Density matrices on the grid, shape (n, 8, 8)."""
        out = (self._series(rho0, grid, _U.shape[0]) @ _U.T).reshape(
            -1, N_LEVELS, N_LEVELS)
        out[0] = rho0
        return out

    def integral(self, rho0: np.ndarray, t_end: float) -> np.ndarray:
        """Exact window integral int_0^t_end rho(t) dt, 8x8."""
        if not t_end > 0.0:
            raise ValueError(f"integration window must be positive, got {t_end}")
        lam, vec, coef = self._modes(rho0)
        phi = np.full(lam.shape, t_end, dtype=complex)
        nz = lam != 0.0
        phi[nz] = np.expm1(lam[nz] * t_end) / lam[nz]
        x = (vec @ (phi * coef)).real
        _check_drift(x[:N_LEVELS].sum() / t_end)
        return (_U @ x).reshape(N_LEVELS, N_LEVELS)


def steady_state(mat: np.ndarray, check_unique: bool = False) -> np.ndarray:
    """Model.from_matrix(mat).steady.  With check_unique=True an SVD
    first confirms the nullspace is one-dimensional, raising
    DegenerateSteadyStateError otherwise."""
    model = Model.from_matrix(mat)
    if check_unique:
        s = np.linalg.svd(model.real, compute_uv=False)
        # one singular value ~0 is the steady state itself
        if s[-2] < 1e-8 * s[0]:
            raise DegenerateSteadyStateError(
                "steady state is not unique (second singular value "
                f"{s[-2]:.3e} vs largest {s[0]:.3e})")
    return model.steady


def _modes(mat: np.ndarray, rho0):
    return Model.from_matrix(mat)._modes(rho0)


def propagate(mat: np.ndarray, rho0: np.ndarray, grid) -> np.ndarray:
    """Evolve rho0 over the grid (from 0, strictly increasing, not
    necessarily uniform); shape (n, 8, 8).  See Model."""
    return Model.from_matrix(mat).states(rho0, grid)


def propagate_populations(mat: np.ndarray, rho0: np.ndarray,
                          grid) -> np.ndarray:
    """populations(propagate(mat, rho0, grid)), shape (n, 8), without
    building the coherences."""
    return Model.from_matrix(mat).populations(rho0, grid)


def integrate(mat: np.ndarray, rho0: np.ndarray, t_end: float) -> np.ndarray:
    """Exact window integral of propagate(): int_0^t_end rho(t) dt, 8x8;
    NumericalError unless its trace equals t_end to RESIDUAL_TOL."""
    return Model.from_matrix(mat).integral(rho0, t_end)


def populations(states: np.ndarray) -> np.ndarray:
    """Real diagonal of each density matrix in a propagate() result."""
    return np.einsum("kii->ki", states).real
