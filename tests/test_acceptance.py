"""Acceptance gate: eleven end-to-end checks, one summary line each.

Each test prints a single ``criterion NN PASS/FAIL`` line with the
measured numbers (visible with ``pytest -s``) and then asserts.  Checks
3, 4 and 6 assert headline target values that the exact eight-level
model does not reproduce; they fail by design rather than silently
loosening their tolerances, and each carries a comment stating the
value the model actually gives and why.
"""

import numpy as np
import pytest

from ionpair.correlations import (
    ErrorModel,
    default_grid,
    default_spectrum_grid,
    excitation_spectrum,
    find_dips,
    g2_pair,
    mean_photon_number,
    pair_probability,
    purity,
    purity_curve,
    raman_positions,
    short_time_exponent,
)
from ionpair.correlator import CorrelatorConfig, correlate, correlate_brute_force
from ionpair.dynamics import Model
from ionpair.fitting import DataSet, fit_g2_joint, fit_spectrum
from ionpair.params import TWO_PI, preset_spectrum, preset_strong, preset_weak
from ionpair.trajectory import ClickStream, simulate_emissions
from ionpair import atom

WEAK = preset_weak()
STRONG = preset_strong()
SPECTRUM = preset_spectrum()


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def _band(value: float, target: float, rel: float = 0.15) -> bool:
    return target * (1.0 - rel) <= value <= target * (1.0 + rel)


@pytest.fixture(scope="module")
def weak_pair():
    grid = default_grid(1000e-9, 0.5e-9)
    return g2_pair(WEAK, "sigma-", grid)


def test_criterion_01_weak_conditioned_peaks(weak_pair):
    minus, plus = weak_pair
    tau_m, peak_m = minus.peak()
    tau_p, peak_p = plus.peak()
    ok = (_band(peak_m, 15.6) and 25e-9 <= tau_m <= 33e-9
          and _band(peak_p, 3.1) and _band(tau_p, 400e-9))
    _report(1, ok,
            f"weak peaks: g2(s-) {peak_m:.3f} @ {tau_m * 1e9:.1f} ns "
            f"(15.6+-15% @ 29+-4), g2(s+) {peak_p:.3f} @ {tau_p * 1e9:.1f} ns "
            f"(3.1+-15% near 400)")


def test_criterion_02_strong_peak_and_monotone_rise():
    grid = default_grid(2000e-9, 0.5e-9)
    minus, plus = g2_pair(STRONG, "sigma-", grid)
    tau_m, peak_m = minus.peak()
    steps = np.diff(plus.values)
    # -1e-6 leaves room for float noise on the flat tail, nothing more
    monotone = steps.min() >= -1e-6
    ok = (_band(peak_m, 2.8) and 10e-9 <= tau_m <= 16e-9
          and plus.values.max() <= 1.05 and monotone
          and abs(plus.values[-1] - 1.0) < 0.02)
    _report(2, ok,
            f"strong: g2(s-) {peak_m:.3f} @ {tau_m * 1e9:.1f} ns "
            f"(2.8+-15% @ 13+-3), g2(s+) max {plus.values.max():.4f} "
            f"(<=1.05), min step {steps.min():.1e}, end {plus.values[-1]:.4f}")


def test_criterion_03_short_time_exponents():
    minus, plus = g2_pair(WEAK, "sigma-", default_grid(1.2e-9, 0.02e-9))
    n_m = short_time_exponent(minus)
    n_p = short_time_exponent(plus)
    # The exact model gives n+ = 4.97: the sigma+ population needs two
    # coherent vertices (tau^2 amplitude each) plus one spontaneous pi
    # decay (tau^1 probability) between them, so tau^5, not the tau^4
    # the target assumes by counting only the excitation vertices.
    ok = abs(n_m - 2.0) <= 0.1 and abs(n_p - 4.0) <= 0.2
    _report(3, ok,
            f"exponents on [0.1, 1] ns: n- {n_m:.3f} (2.0+-0.1), "
            f"n+ {n_p:.3f} (4.0+-0.2)")


def test_criterion_04_purity():
    p24 = purity(WEAK, 24e-9)
    p1 = purity(WEAK, 1e-9)
    errors = ErrorModel(eps_init=0.025, eps_minus=0.05, eps_plus=0.018)
    tau_c, curve = purity_curve(WEAK, default_grid(1000e-9, 0.5e-9), errors)
    i_pk = int(np.argmax(curve))
    peak, tau_pk = float(curve[i_pk]), float(tau_c[i_pk])
    p1_err = purity(WEAK, 1e-9, errors)
    # The error model cannot push the purity level below ~16 at these
    # epsilons: equal-amplitude sigma drive pins the two steady P
    # populations equal, and the measured curve is flat near 22.  The
    # location check is left loose so the failure is attributable to
    # the level, which is what the model disagrees on.
    ok = (104.0 <= p24 <= 156.0 and p1 > 1e5
          and 9.0 <= peak <= 11.0 and abs(tau_pk - 24e-9) <= 12e-9
          and 8.3 <= p1_err <= 10.3)
    _report(4, ok,
            f"purity ideal p(24ns) {p24:.1f} (130+-20%), p(1ns) {p1:.3g} "
            f"(>1e5); with errors peak {peak:.2f} @ {tau_pk * 1e9:.0f} ns "
            f"(10+-1 near 24), p(1ns) {p1_err:.2f} (9.3+-1)")


def test_criterion_05_pair_probability():
    exact = abs(pair_probability(10.0) - 10.0 / 11.0)
    prob = pair_probability(purity(WEAK, 24e-9))
    ok = exact < 1e-12 and prob >= 0.99
    _report(5, ok,
            f"pair probability: p=10 -> {pair_probability(10.0):.9f} "
            f"(10/11 exactly, err {exact:.1e}); ideal 24 ns window "
            f"{prob:.6f} (>=0.99)")


def test_criterion_06_photon_budget():
    n_weak = mean_photon_number(WEAK, "sigma-", 24e-9)
    n_strong_24 = mean_photon_number(STRONG, "sigma-", 24e-9)
    n_strong_12 = mean_photon_number(STRONG, "sigma-", 12e-9)
    # The exact conditioned integrals give 0.128 / 0.299 / 0.112,
    # uniformly ~1.6x the targets; the targets are also mutually
    # inconsistent with any stationary rate (they demand a 24 ns / 12 ns
    # ratio of 2.86).  The conditioned definition at least matches the
    # 2.67 ratio; the absolute level does not follow at the coupling
    # convention that criteria 1, 2 and 4 require.
    ok = (_band(n_weak, 0.07) and _band(n_strong_24, 0.2)
          and _band(n_strong_12, 0.07))
    _report(6, ok,
            f"photon budget: weak 24 ns {n_weak:.4f} (0.07+-15%), "
            f"strong 24 ns {n_strong_24:.4f} (0.2+-15%), "
            f"strong 12 ns {n_strong_12:.4f} (0.07+-15%)")


def test_criterion_07_dark_resonances():
    spectrum = excitation_spectrum(SPECTRUM, default_spectrum_grid())
    dips = np.sort(find_dips(spectrum))
    raman = raman_positions(SPECTRUM)
    linewidth = SPECTRUM.gamma_sp + SPECTRUM.gamma_dp
    worst = np.abs(dips - raman).max() if dips.size == raman.size else np.inf
    ok = dips.size == 4 and worst <= linewidth
    _report(7, ok,
            f"dark resonances: {dips.size} dips (need 4), worst offset "
            f"{worst / TWO_PI / 1e6:.3f} MHz vs linewidth "
            f"{linewidth / TWO_PI / 1e6:.1f} MHz")


def test_criterion_08_trajectory_matches_regression():
    emissions = simulate_emissions(WEAK, duration=0.6, seed=2024)
    assert len(emissions) >= 1_000_000
    minus = emissions.select(pol="sigma-", wavelength="397")
    config = CorrelatorConfig(bin_width_ps=4000, window_ps=400_000)
    histo = correlate(minus, None, config)
    counts = histo.counts[config.n_bins // 2:]

    # exact bin integrals of g2(sigma-|sigma-): a sigma- photon leaves
    # the atom in S+1/2, and g2 is rho_P-(tau) / rho_P-(inf)
    model = Model(WEAK)
    herald = np.zeros((8, 8))
    herald[atom.S_PLUS, atom.S_PLUS] = 1.0
    edges_s = np.arange(0, config.window_ps + 1, config.bin_width_ps) / 1e12
    per_bin = (np.diff(model.cumulative(herald, edges_s)[:, atom.P_MINUS])
               / model.steady[atom.P_MINUS, atom.P_MINUS].real)
    expected = histo.rate_a * histo.rate_b * histo.overlap_s * per_bin
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    dof = counts.size
    ok = chi2 / dof < 2.0
    _report(8, ok,
            f"trajectory vs regression: {len(emissions)} events, "
            f"{int(counts.sum())} pairs in {dof} bins, "
            f"chi2/dof {chi2 / dof:.3f} (<2)")


def test_criterion_09_correlator_oracle():
    rng = np.random.default_rng(7)
    for k in range(100):
        n_a = 10_000 if k == 0 else int(rng.integers(0, 10_001))
        duration = int(rng.integers(50_000, 2_000_000))
        ts_a = np.unique(rng.integers(0, duration, size=n_a))
        a = ClickStream(ts_a, np.zeros(ts_a.size, np.uint8),
                        np.zeros(ts_a.size, np.uint8), duration)
        width = int(rng.choice([1, 3, 10, 137, 1000]))
        config = CorrelatorConfig(width, width * int(rng.integers(1, 40)))
        if k % 3 == 0:
            fast = correlate(a, None, config)
            slow = correlate_brute_force(a, None, config)
        else:
            ts_b = np.unique(rng.integers(0, duration,
                                          size=int(rng.integers(0, 10_001))))
            b = ClickStream(ts_b, np.zeros(ts_b.size, np.uint8),
                            np.zeros(ts_b.size, np.uint8), duration)
            fast = correlate(a, b, config)
            slow = correlate_brute_force(a, b, config)
        assert np.array_equal(fast.counts, slow), f"instance {k} differs"
    _report(9, True, "correlator bin-exact vs brute force on 100 instances "
                     "up to 1e4 events")


def test_criterion_10_fit_round_trips():
    # spectrum: Poisson synthetic scan, displaced start
    rng = np.random.default_rng(99)
    axis = np.linspace(-TWO_PI * 30e6, TWO_PI * 30e6, 161)
    scale, background = 64000.0, 200.0
    truth = excitation_spectrum(SPECTRUM, axis, scale, background)
    data = DataSet("spectrum", axis, rng.poisson(truth.values).astype(float))
    start = SPECTRUM.replace(omega_866=TWO_PI * 2.1e6, b_field=2.9)
    res = fit_spectrum(data, start,
                       free=("omega_866", "b_field", "scale", "background"))
    target = {"omega_866": SPECTRUM.omega_866, "b_field": SPECTRUM.b_field,
              "scale": scale, "background": background}
    rel = {k: abs(res.params[k] - target[k]) / target[k] for k in target}

    # joint g2: shared Rabi pair from both conditioned weak curves
    rng = np.random.default_rng(6)
    grid = default_grid(400e-9, 2e-9)
    ideal_m, ideal_p = g2_pair(WEAK, "sigma-", grid)
    sigma = 0.1
    sets = [DataSet(c.kind, grid, c.values + rng.normal(0.0, sigma, grid.size),
                    np.full(grid.size, sigma)) for c in (ideal_m, ideal_p)]
    start = WEAK.replace(omega_397=TWO_PI * 7.5e6, omega_866=TWO_PI * 1.8e6)
    joint = fit_g2_joint(sets, start)
    assert joint.sigma is not None
    pulls = {k: abs(joint.params[k] - getattr(WEAK, k)) / joint.sigma[k]
             for k in ("omega_397", "omega_866")}

    ok = max(rel.values()) < 0.05 and max(pulls.values()) <= 1.0
    _report(10, ok,
            f"fits: spectrum rel errors "
            + " ".join(f"{k} {v:.4f}" for k, v in rel.items())
            + " (<0.05); joint Rabi pulls "
            + " ".join(f"{k} {v:.2f}" for k, v in pulls.items())
            + " (<=1 sigma)")


def test_criterion_11_numerical_hygiene():
    worst_resid = 0.0
    for params in (WEAK, STRONG, SPECTRUM):
        mat = atom.build_liouvillian(params)
        rho = Model(params).steady
        resid = (np.linalg.norm(mat @ rho.reshape(-1))
                 / np.linalg.norm(mat, ord=np.inf))
        worst_resid = max(worst_resid, float(resid))

    rho0 = np.zeros((atom.N_LEVELS, atom.N_LEVELS), dtype=complex)
    rho0[atom.S_PLUS, atom.S_PLUS] = 1.0
    states = Model(WEAK).states(rho0, default_grid(1000e-9, 1e-9))
    drift = float(np.abs(np.einsum("kii->k", states).real - 1.0).max())

    worst_zero = 0.0
    for params in (WEAK, STRONG):
        for first in ("sigma-", "sigma+"):
            minus, plus = g2_pair(params, first, default_grid(10e-9, 1e-9))
            worst_zero = max(worst_zero, float(minus.values[0]),
                             float(plus.values[0]))

    ok = worst_resid < 1e-10 and drift < 1e-10 and worst_zero < 1e-10
    _report(11, ok,
            f"hygiene: steady residual {worst_resid:.1e}, trace drift "
            f"{drift:.1e}, g2(0) {worst_zero:.1e} (all <1e-10)")
