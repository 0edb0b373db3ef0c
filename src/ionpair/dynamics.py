"""Steady states and time evolution of the eight-level master equation.

Time evolution works in a real Hermitian operator basis: the 8
populations and sqrt(2) Re, sqrt(2) Im of the 28 upper coherences.
The Liouvillian keeps rho Hermitian, so it is a real 64x64 matrix R
there, and one real eigendecomposition of R serves a whole time grid.
R's complex eigenvalues come in conjugate pairs, so only the half with
Im lam >= 0 is evaluated, each complex mode counted twice.
propagate() expands the full states, propagate_populations() reads only
the 8 population rows, and integrate() gives exact window integrals.
"""

from __future__ import annotations

import numpy as np

from .atom import N_LEVELS

# Relative residual allowed on ||L rho_ss|| and on trace conservation.
RESIDUAL_TOL = 1e-10
# Allowed trace error and non-Hermitian part of an initial state.
STATE_TOL = 1e-9


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


def _modes(mat: np.ndarray, rho0):
    """(lam, vec, coef) with x(t) = Re(vec @ (exp(lam t) * coef)).

    x are the real coordinates of rho(t) (see _real_basis).  R = U^H L U
    is real, so its eigenvalues come in conjugate pairs; only modes with
    Im lam >= 0 are kept, and a complex mode's coefficient is doubled to
    stand for its conjugate partner.  Checks rho0 (shape, unit trace,
    Hermitian) and that L keeps rho Hermitian.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (N_LEVELS, N_LEVELS):
        raise ValueError(f"rho0 must be 8x8, got {rho0.shape}")
    tr0 = np.trace(rho0).real
    if abs(tr0 - 1.0) > STATE_TOL:
        raise ValueError(f"rho0 trace {tr0} is not 1")
    skew = np.abs(rho0 - rho0.conj().T).max()
    if skew > STATE_TOL:
        raise ValueError(
            f"rho0 is not Hermitian (|rho0 - rho0^H| = {skew:.3e})")
    r = _UH @ mat @ _U
    # written so that a NaN generator passes on to eig's NumericalError
    if np.abs(r.imag).max() > RESIDUAL_TOL * max(np.abs(r).max(), 1.0):
        raise ValueError("the generator does not keep rho Hermitian")
    try:
        lam, vec = np.linalg.eig(r.real)
        real = lam.imag == 0.0
        upper = lam.imag > 0.0
        # dgeev returns complex eigenvalues as exact conjugate pairs
        if 2 * upper.sum() + real.sum() != lam.size or not real.any():
            raise NumericalError(
                "generator eigenvalues are not conjugate pairs around a "
                "real stationary mode")
        # L preserves the trace, so its steady-state eigenvalue is exactly
        # 0; eig returns it as ~1e-8 round-off, which exp(lam t) would
        # turn into trace drift at long delays.  Only a real eigenvalue
        # is pinned, so no conjugate pair is broken.
        cand = np.flatnonzero(real)
        lam[cand[np.argmin(np.abs(lam[cand]))]] = 0.0
        y0 = np.linalg.solve(vec, (_UH @ rho0.reshape(-1)).real)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition of the generator failed: {exc}")
    keep = real | upper
    return lam[keep], vec[:, keep], np.where(upper, 2.0, 1.0)[keep] * y0[keep]


def _series(mat: np.ndarray, rho0, grid, rows) -> np.ndarray:
    """The given rows of x(t) at each grid point, shape (n, rows)."""
    grid = _check_grid(grid)
    lam, vec, coef = _modes(mat, rho0)
    # Re(exp(lam t) w) in real arithmetic: cheaper than a complex exp
    decay = np.exp(np.outer(grid, lam.real))
    phase = np.outer(grid, lam.imag)
    w = coef[:, None] * vec[rows].T
    return (decay * np.cos(phase)) @ w.real - (decay * np.sin(phase)) @ w.imag


def _check_drift(traces: np.ndarray) -> None:
    drift = np.abs(traces - 1.0).max()
    if not drift <= RESIDUAL_TOL:
        raise NumericalError(
            f"trace drift {drift:.3e} exceeds {RESIDUAL_TOL:.0e} during propagation")


def propagate(mat: np.ndarray, rho0: np.ndarray, grid) -> np.ndarray:
    """Evolve rho0 over the given time grid; returns shape (n, 8, 8).

    The grid must start at zero and increase strictly; it need not be
    uniform.  One eigendecomposition serves every point (Moler & Van
    Loan, SIAM Rev. 45, 3, 2003).  It is taken of the real generator
    R = U^H L U in the Hermitian basis of _real_basis, on half its
    spectrum: x(t) = Re sum_{Im lam >= 0} c v exp(lam t) y0, with c = 2
    for a complex mode (its conjugate partner) and 1 for a real one, and
    vec(rho(t)) = U x(t).
    """
    out = (_series(mat, rho0, grid, slice(None)) @ _U.T).reshape(
        -1, N_LEVELS, N_LEVELS)
    out[0] = rho0
    _check_drift(np.einsum("kii->k", out).real)
    return out


def propagate_populations(mat: np.ndarray, rho0: np.ndarray,
                          grid) -> np.ndarray:
    """populations(propagate(mat, rho0, grid)), shape (n, 8), read from
    the 8 population rows of the eigenvectors only; the coherences are
    never built.  Same grid and trace-drift checks as propagate()."""
    pops = _series(mat, rho0, grid, slice(N_LEVELS))
    pops[0] = np.diagonal(rho0).real
    _check_drift(pops.sum(axis=1))
    return pops


def integrate(mat: np.ndarray, rho0: np.ndarray, t_end: float) -> np.ndarray:
    """Exact window integral of propagate(): int_0^t_end rho(t) dt, 8x8.

    On the same half spectrum as propagate(), mode lam contributes
    expm1(lam t_end) / lam, or t_end if lam = 0, and the real part of
    the sum is mapped back through U.  NumericalError unless the trace
    equals t_end to RESIDUAL_TOL.
    """
    if not t_end > 0.0:
        raise ValueError(f"integration window must be positive, got {t_end}")
    lam, vec, coef = _modes(mat, rho0)
    phi = np.full(lam.shape, t_end, dtype=complex)
    nz = lam != 0.0
    phi[nz] = np.expm1(lam[nz] * t_end) / lam[nz]
    x = (vec @ (phi * coef)).real
    drift = abs(x[:N_LEVELS].sum() / t_end - 1.0)
    if not drift <= RESIDUAL_TOL:
        raise NumericalError(
            f"window integral trace off by {drift:.3e} (relative)")
    return (_U @ x).reshape(N_LEVELS, N_LEVELS)


def populations(states: np.ndarray) -> np.ndarray:
    """Real diagonal of each density matrix in a propagate() result."""
    return np.einsum("kii->ki", states).real
