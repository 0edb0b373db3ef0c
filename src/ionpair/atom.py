"""Eight-level structure of a single trapped Ca+ ion and its Liouvillian.

Levels are indexed 0..7:

    0  S1/2, m=-1/2        4  D3/2, m=-3/2
    1  S1/2, m=+1/2        5  D3/2, m=-1/2
    2  P1/2, m=-1/2        6  D3/2, m=+1/2
    3  P1/2, m=+1/2        7  D3/2, m=+3/2

A 397 nm laser drives S<->P and an 866 nm laser drives D<->P; the P level
decays spontaneously into both ground manifolds.  Everything is written
in a frame rotating with both lasers, so the Hamiltonian is
time-independent: the S diagonal carries delta_397 plus the Zeeman shift,
the D diagonal carries delta_866 plus its shift, and P carries only its
shift.

Conventions fixed here and relied on throughout the package:

* Zeeman shift of level i is +g_i * m_i * mu_B * B (rad/s), i.e. a
  positive field raises positive-m sublevels.  sigma- photons on the
  397 branch then belong to the |3> -> |2> decay (P,-1/2 -> S,+1/2).
* Linear laser polarization at angle alpha to the quantization axis
  decomposes into a_pi = cos(alpha), a_sigma+- = -+ sin(alpha)/sqrt(2).
* The laser coupling matrix element is
  <upper| H |lower> = Omega * a_q(alpha) * A_c, with A_c the
  Clebsch-Gordan amplitude of the channel.  With this normalization a
  closed two-level transition of unit amplitude driven on resonance
  oscillates at Omega.
* vec(rho) is row-major: element 8*i + j holds rho[i, j].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import TWO_PI, ExperimentParams

# Bohr magneton over Planck constant, MHz per gauss.
MU_B_MHZ_PER_G = 1.399624

# Level bookkeeping.
S_MINUS, S_PLUS, P_MINUS, P_PLUS = 0, 1, 2, 3
D_M32, D_M12, D_P12, D_P32 = 4, 5, 6, 7
S_LEVELS = (S_MINUS, S_PLUS)
P_LEVELS = (P_MINUS, P_PLUS)
D_LEVELS = (D_M32, D_M12, D_P12, D_P32)
N_LEVELS = 8

M_J = np.array([-0.5, 0.5, -0.5, 0.5, -1.5, -0.5, 0.5, 1.5])
G_J = np.array([2.0, 2.0, 2.0 / 3.0, 2.0 / 3.0, 0.8, 0.8, 0.8, 0.8])

# Drive parity c(i) = (m_i + 1/2 + [i in P]) mod 2: 0 for S-1/2, P+1/2,
# D-1/2, D+3/2 and 1 for the others.  A sigma coupling joins two levels
# of one class, and decays, Zeeman and detuning terms and dephasing keep
# c(i) xor c(j) of every rho_ij; only a pi coupling joins the classes.
_PARITY = ((M_J + 0.5 + np.isin(np.arange(N_LEVELS), P_LEVELS)) % 2
           ).astype(int)
_CROSS_CLASS = np.flatnonzero(_PARITY[:, None] != _PARITY)
# the cross-class part of a sigma-only drive is the cos(pi/2) residue of
# its angles, 1.6e-17 of the largest entry on the weak preset
_PARITY_TOL = 1e-14


def _pi_free(matrix: np.ndarray, between: np.ndarray = _CROSS_CLASS) -> bool:
    """True if every entry of `matrix` at the flat indices `between` (by
    default an 8x8 level matrix's entries between the parity classes) is
    at most _PARITY_TOL of its largest entry; NaN anywhere makes it False."""
    return bool(np.abs(matrix.take(between)).max()
                <= _PARITY_TOL * np.abs(matrix).max())


# Photon tags used by the trajectory sampler and the binary stream format.
POL_SIGMA_MINUS, POL_PI, POL_SIGMA_PLUS = 0, 1, 2   # tag == q + 1
WL_397, WL_866 = 0, 1

POL_NAMES = {POL_SIGMA_MINUS: "sigma-", POL_PI: "pi", POL_SIGMA_PLUS: "sigma+"}
POL_TAGS = {v: k for k, v in POL_NAMES.items()}
WL_NAMES = {WL_397: "397", WL_866: "866"}
WL_TAGS = {v: k for k, v in WL_NAMES.items()}


@dataclass(frozen=True)
class Transition:
    """One dipole channel |upper> <-> |lower| with spherical component q."""

    branch: str          # "SP" (397 nm) or "DP" (866 nm)
    upper: int
    lower: int
    q: int               # m_upper - m_lower
    amplitude: float     # Clebsch-Gordan amplitude <j_l m_l; 1 q | j_u m_u>

    @property
    def pol_tag(self) -> int:
        return self.q + 1

    @property
    def wl_tag(self) -> int:
        return WL_397 if self.branch == "SP" else WL_866


def _r(x: float) -> float:
    return math.sqrt(x)


# The ten dipole-allowed channels with exact amplitudes.  Signs follow the
# Condon-Shortley phase convention; squared amplitudes per upper level sum
# to 1 on each branch, which normalizes gamma_sp / gamma_dp to the total
# decay rate of either P sublevel.
TRANSITIONS: tuple[Transition, ...] = (
    Transition("SP", P_MINUS, S_MINUS, 0, -_r(1 / 3)),
    Transition("SP", P_MINUS, S_PLUS, -1, +_r(2 / 3)),
    Transition("SP", P_PLUS, S_MINUS, +1, -_r(2 / 3)),
    Transition("SP", P_PLUS, S_PLUS, 0, +_r(1 / 3)),
    Transition("DP", P_MINUS, D_M32, +1, +_r(1 / 2)),
    Transition("DP", P_MINUS, D_M12, 0, -_r(1 / 3)),
    Transition("DP", P_MINUS, D_P12, -1, +_r(1 / 6)),
    Transition("DP", P_PLUS, D_M12, +1, +_r(1 / 6)),
    Transition("DP", P_PLUS, D_P12, 0, -_r(1 / 3)),
    Transition("DP", P_PLUS, D_P32, -1, +_r(1 / 2)),
)


def transition_amplitudes(branch: str) -> tuple[Transition, ...]:
    """Channels of one branch, "SP" or "DP"."""
    if branch not in ("SP", "DP"):
        raise ValueError(f"branch must be 'SP' or 'DP', got {branch!r}")
    return tuple(t for t in TRANSITIONS if t.branch == branch)


def zeeman_shifts(b_field: float) -> np.ndarray:
    """First-order Zeeman shift of each level in rad/s, index order 0..7."""
    return G_J * M_J * TWO_PI * MU_B_MHZ_PER_G * 1e6 * b_field


def polarization_components(alpha: float) -> dict[int, float]:
    """Spherical components {q: a_q} of a linear polarization at angle alpha.

    The components satisfy sum |a_q|^2 = 1 for any alpha.
    """
    s = math.sin(alpha) / math.sqrt(2.0)
    return {-1: +s, 0: math.cos(alpha), +1: -s}


# The S and D projectors; _lowering(t) is channel t's |lower><upper|.
_S_PROJ, _D_PROJ = (np.diag(np.isin(np.arange(N_LEVELS), levels) * 1.0)
                    for levels in (S_LEVELS, D_LEVELS))


def _lowering(t: Transition) -> np.ndarray:
    return np.outer(np.eye(N_LEVELS)[t.lower], np.eye(N_LEVELS)[t.upper])


def build_hamiltonian(params: ExperimentParams) -> np.ndarray:
    """8x8 rotating-frame Hamiltonian in rad/s (hbar = 1)."""
    h = np.diag(zeeman_shifts(params.b_field)).astype(complex)
    h[S_LEVELS, S_LEVELS] += params.delta_397
    h[D_LEVELS, D_LEVELS] += params.delta_866
    couplings = liouvillian_coefficients(params)[3:3 + len(TRANSITIONS)]
    for t, coupling in zip(TRANSITIONS, couplings):
        h[t.upper, t.lower] += coupling
        h[t.lower, t.upper] += coupling
    return h


def collapse_operators(params: ExperimentParams) -> list[np.ndarray]:
    """One sqrt(rate)-weighted jump operator per decay channel, then any
    dephasing operators for finite laser linewidths."""
    rates = {"SP": params.gamma_sp, "DP": params.gamma_dp}
    ops = [math.sqrt(rates[t.branch]) * t.amplitude * _lowering(t)
           for t in TRANSITIONS if rates[t.branch] != 0.0]
    # Laser phase noise dephases the manifold that carries the detuning
    # in this frame; a linewidth gamma gives coherence decay gamma/2.
    return ops + [math.sqrt(lw) * proj for lw, proj in (
        (params.linewidth_397, _S_PROJ), (params.linewidth_866, _D_PROJ))
        if lw > 0.0]


def _commutator(h: np.ndarray) -> np.ndarray:
    """Row-major superoperator of -i[h, rho] for a real symmetric h."""
    return -1j * (np.kron(h, np.eye(N_LEVELS)) - np.kron(np.eye(N_LEVELS), h))


def _dissipator(a: np.ndarray) -> np.ndarray:
    """Row-major superoperator of D[a] for a real a."""
    ada, eye = a.T @ a, np.eye(N_LEVELS)
    return np.kron(a, a) - 0.5 * (np.kron(ada, eye) + np.kron(eye, ada))


# L is linear in 17 coefficients (liouvillian_coefficients): delta_397,
# delta_866 and B, the ten laser couplings in TRANSITIONS order, gamma_sp
# and gamma_dp, and the two linewidths.  Their fixed terms are built once.
LIOUVILLIAN_TERMS = np.array(
    [_commutator(h) for h in (_S_PROJ, _D_PROJ, np.diag(zeeman_shifts(1.0)))]
    + [_commutator(_lowering(t) + _lowering(t).T) for t in TRANSITIONS]
    + [sum(t.amplitude ** 2 * _dissipator(_lowering(t))
           for t in transition_amplitudes(branch)) for branch in ("SP", "DP")]
    + [_dissipator(_S_PROJ), _dissipator(_D_PROJ)])
DELTA_866_TERM = 1


def liouvillian_coefficients(params: ExperimentParams) -> np.ndarray:
    """Weights c with L = sum_k c_k LIOUVILLIAN_TERMS[k]; a coupling is
    Omega * a_q(alpha) * A_c, a dissipator's weight is its rate."""
    omega = {"SP": params.omega_397, "DP": params.omega_866}
    pol = {"SP": polarization_components(params.alpha_397),
           "DP": polarization_components(params.alpha_866)}
    couplings = [omega[t.branch] * pol[t.branch][t.q] * t.amplitude
                 for t in TRANSITIONS]
    return np.array([params.delta_397, params.delta_866, params.b_field,
                     *couplings, params.gamma_sp, params.gamma_dp,
                     params.linewidth_397, params.linewidth_866])


def build_liouvillian(params: ExperimentParams) -> np.ndarray:
    """Full 64x64 generator on row-major vec(rho), all decays included,
    as the weighted sum of the fixed LIOUVILLIAN_TERMS."""
    return np.tensordot(liouvillian_coefficients(params), LIOUVILLIAN_TERMS, 1)
