"""Steady states and time evolution of the eight-level master equation."""

from __future__ import annotations

import numpy as np

from .atom import N_LEVELS

# Relative residual allowed on ||L rho_ss|| and on trace conservation.
RESIDUAL_TOL = 1e-10


class NumericalError(RuntimeError):
    """A linear-algebra step failed to meet its accuracy contract."""


class DegenerateSteadyStateError(NumericalError):
    """The generator has more than one stationary state.

    Happens for decoupled parameter corners, e.g. gamma_dp = 0 with a
    polarization that leaves part of the D manifold dark.
    """


def steady_state(mat: np.ndarray, check_unique: bool = False) -> np.ndarray:
    """Unique stationary density matrix of the generator.

    Solves L v = 0 with one row replaced by the trace condition.  The
    result is verified to be stationary to RESIDUAL_TOL (relative to the
    spectral scale of L); a failed check raises NumericalError.  With
    check_unique=True an SVD confirms the nullspace is one-dimensional
    first, raising DegenerateSteadyStateError otherwise.
    """
    n = N_LEVELS
    scale = np.linalg.norm(mat, ord=np.inf)
    if check_unique:
        s = np.linalg.svd(mat, compute_uv=False)
        # one singular value ~0 is the steady state itself
        if s[-2] < 1e-8 * s[0]:
            raise DegenerateSteadyStateError(
                "steady state is not unique (second singular value "
                f"{s[-2]:.3e} vs largest {s[0]:.3e})")
    a = mat.copy()
    trace_row = np.zeros(n * n, dtype=complex)
    trace_row[:: n + 1] = 1.0
    a[0] = trace_row
    b = np.zeros(n * n, dtype=complex)
    b[0] = 1.0
    try:
        v = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSteadyStateError(f"singular steady-state system: {exc}")
    rho = v.reshape(n, n)
    rho = 0.5 * (rho + rho.conj().T)
    resid = np.linalg.norm(mat @ rho.reshape(-1)) / max(scale, 1.0)
    if not np.isfinite(resid) or resid > RESIDUAL_TOL:
        raise NumericalError(
            f"steady-state residual {resid:.3e} exceeds {RESIDUAL_TOL:.0e}")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > RESIDUAL_TOL:
        raise NumericalError(f"steady-state trace {tr} deviates from 1")
    return rho


def _check_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("time grid must be a non-empty 1-D array")
    if grid[0] != 0.0:
        raise ValueError("time grid must start at t = 0")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("time grid must be strictly increasing")
    return grid


def _eigenbasis(mat: np.ndarray, rho0):
    """(lam, V, V^-1 vec(rho0)) with mat = V diag(lam) V^-1; checks rho0."""
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (N_LEVELS, N_LEVELS):
        raise ValueError(f"rho0 must be 8x8, got {rho0.shape}")
    tr0 = np.trace(rho0).real
    if abs(tr0 - 1.0) > 1e-9:
        raise ValueError(f"rho0 trace {tr0} is not 1")
    try:
        lam, vec = np.linalg.eig(mat)
        # L preserves the trace, so its steady-state eigenvalue is exactly
        # 0; eig returns it as ~1e-8 round-off, which exp(lam t) would
        # turn into trace drift at long delays
        lam[np.argmin(np.abs(lam))] = 0.0
        return lam, vec, np.linalg.solve(vec, rho0.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition of the generator failed: {exc}")


def propagate(mat: np.ndarray, rho0: np.ndarray, grid) -> np.ndarray:
    """Evolve rho0 over the given time grid; returns shape (n, 8, 8).

    The grid must start at zero and increase strictly; it need not be
    uniform.  One eigendecomposition serves every point, vec(rho(t)) =
    V exp(lam t) V^-1 vec(rho0) (Moler & Van Loan, SIAM Rev. 45, 3, 2003).
    """
    grid = _check_grid(grid)
    lam, vec, y0 = _eigenbasis(mat, rho0)
    out = ((np.exp(np.outer(grid, lam)) * y0) @ vec.T).reshape(
        grid.size, N_LEVELS, N_LEVELS)
    out[0] = rho0

    drift = np.abs(np.einsum("kii->k", out).real - 1.0).max()
    if not drift <= RESIDUAL_TOL:
        raise NumericalError(
            f"trace drift {drift:.3e} exceeds {RESIDUAL_TOL:.0e} during propagation")
    return out


def integrate(mat: np.ndarray, rho0: np.ndarray, t_end: float) -> np.ndarray:
    """Exact window integral of propagate(): int_0^t_end rho(t) dt, 8x8.

    Eigenmode lam contributes expm1(lam t_end) / lam, or t_end if lam = 0.
    NumericalError unless the trace equals t_end to RESIDUAL_TOL.
    """
    if not t_end > 0.0:
        raise ValueError(f"integration window must be positive, got {t_end}")
    lam, vec, y0 = _eigenbasis(mat, rho0)
    phi = np.full(lam.shape, t_end, dtype=complex)
    nz = lam != 0.0
    phi[nz] = np.expm1(lam[nz] * t_end) / lam[nz]
    out = (vec @ (phi * y0)).reshape(N_LEVELS, N_LEVELS)
    drift = abs(np.trace(out).real / t_end - 1.0)
    if not drift <= RESIDUAL_TOL:
        raise NumericalError(
            f"window integral trace off by {drift:.3e} (relative)")
    return out


def populations(states: np.ndarray) -> np.ndarray:
    """Real diagonal of each density matrix in a propagate() result."""
    return np.einsum("kii->ki", states).real
