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


def build_hamiltonian(params: ExperimentParams) -> np.ndarray:
    """8x8 rotating-frame Hamiltonian in rad/s (hbar = 1)."""
    h = np.zeros((N_LEVELS, N_LEVELS), dtype=complex)
    shifts = zeeman_shifts(params.b_field)
    for i in S_LEVELS:
        h[i, i] = shifts[i] + params.delta_397
    for i in P_LEVELS:
        h[i, i] = shifts[i]
    for i in D_LEVELS:
        h[i, i] = shifts[i] + params.delta_866
    pol397 = polarization_components(params.alpha_397)
    pol866 = polarization_components(params.alpha_866)
    for t in TRANSITIONS:
        if t.branch == "SP":
            coupling = params.omega_397 * pol397[t.q] * t.amplitude
        else:
            coupling = params.omega_866 * pol866[t.q] * t.amplitude
        h[t.upper, t.lower] += coupling
        h[t.lower, t.upper] += coupling
    return h


def collapse_operators(params: ExperimentParams) -> list[np.ndarray]:
    """One sqrt(rate)-weighted jump operator per decay channel, then any
    dephasing operators for finite laser linewidths."""
    ops = []
    for t in TRANSITIONS:
        rate = params.gamma_sp if t.branch == "SP" else params.gamma_dp
        if rate == 0.0:
            continue
        a = np.zeros((N_LEVELS, N_LEVELS))
        a[t.lower, t.upper] = math.sqrt(rate) * t.amplitude
        ops.append(a)
    # Laser phase noise dephases the manifold that carries the detuning
    # in this frame; a linewidth gamma gives coherence decay gamma/2.
    if params.linewidth_397 > 0.0:
        proj = np.zeros((N_LEVELS, N_LEVELS))
        for i in S_LEVELS:
            proj[i, i] = math.sqrt(params.linewidth_397)
        ops.append(proj)
    if params.linewidth_866 > 0.0:
        proj = np.zeros((N_LEVELS, N_LEVELS))
        for i in D_LEVELS:
            proj[i, i] = math.sqrt(params.linewidth_866)
        ops.append(proj)
    return ops


def _dissipator(a: np.ndarray) -> np.ndarray:
    """Row-major superoperator of D[a]."""
    eye = np.eye(N_LEVELS)
    ada = a.conj().T @ a
    return (np.kron(a, a.conj())
            - 0.5 * (np.kron(ada, eye) + np.kron(eye, ada.T)))


def build_liouvillian(params: ExperimentParams) -> np.ndarray:
    """Full 64x64 generator on row-major vec(rho), all decays included."""
    h = build_hamiltonian(params)
    eye = np.eye(N_LEVELS)
    mat = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for a in collapse_operators(params):
        mat += _dissipator(a)
    return mat
