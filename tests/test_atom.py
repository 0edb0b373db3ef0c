"""Level structure, Clebsch-Gordan table and Liouvillian invariants.

The dipole amplitudes are checked against an independent Racah-formula
evaluation written here from scratch, so a transcription error in the
frozen table cannot hide.
"""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionpair import atom
from ionpair.params import (GAMMA_DP_DEFAULT, GAMMA_SP_DEFAULT,
                            ExperimentParams, TWO_PI, get_preset)


# -- independent Clebsch-Gordan oracle (Racah sum, exact rationals) -----

def _fact(x: Fraction) -> int:
    assert x.denominator == 1 and x >= 0
    return math.factorial(int(x))


def cg_oracle(j1, m1, j2, m2, J, M) -> float:
    """<j1 m1; j2 m2 | J M> via the Racah closed form."""
    j1, m1, j2, m2, J, M = (Fraction(x) for x in (j1, m1, j2, m2, J, M))
    if m1 + m2 != M:
        return 0.0
    pref = Fraction(2 * J + 1) \
        * _fact(j1 + j2 - J) * _fact(j1 - j2 + J) * _fact(-j1 + j2 + J) \
        / _fact(j1 + j2 + J + 1)
    pref *= (_fact(J + M) * _fact(J - M) * _fact(j1 + m1) * _fact(j1 - m1)
             * _fact(j2 + m2) * _fact(j2 - m2))
    total = Fraction(0)
    k = 0
    while True:
        args = (j1 + j2 - J - k, j1 - m1 - k, j2 + m2 - k,
                J - j2 + m1 + k, J - j1 - m2 + k)
        if min(args[:3]) < 0:
            break
        if min(args) >= 0:
            denom = _fact(Fraction(k))
            for a in args:
                denom *= _fact(a)
            total += Fraction((-1) ** k, denom)
        k += 1
    val = float(total) * math.sqrt(float(pref))
    return val


JL = {"SP": Fraction(1, 2), "DP": Fraction(3, 2)}


class TestTransitionTable:
    def test_channel_count(self):
        assert len(atom.TRANSITIONS) == 10
        assert len(atom.transition_amplitudes("SP")) == 4
        assert len(atom.transition_amplitudes("DP")) == 6

    def test_amplitudes_match_racah_oracle(self):
        for t in atom.TRANSITIONS:
            ml = Fraction(atom.M_J[t.lower]).limit_denominator(2)
            mu = Fraction(atom.M_J[t.upper]).limit_denominator(2)
            expect = cg_oracle(JL[t.branch], ml, 1, t.q, Fraction(1, 2), mu)
            assert t.amplitude == pytest.approx(expect, abs=1e-14), t

    def test_q_is_m_difference(self):
        for t in atom.TRANSITIONS:
            assert t.q == int(atom.M_J[t.upper] - atom.M_J[t.lower])
            assert abs(t.q) <= 1

    def test_branching_sums_to_one_per_upper_level(self):
        # normalizes gamma_sp/gamma_dp to the total branch rate
        for upper in atom.P_LEVELS:
            for branch in ("SP", "DP"):
                total = sum(t.amplitude ** 2 for t in atom.TRANSITIONS
                            if t.branch == branch and t.upper == upper)
                assert total == pytest.approx(1.0, abs=1e-14)

    def test_pol_and_wavelength_tags(self):
        for t in atom.TRANSITIONS:
            assert t.pol_tag == t.q + 1
            assert t.wl_tag == (atom.WL_397 if t.branch == "SP" else atom.WL_866)

    def test_bad_branch_rejected(self):
        with pytest.raises(ValueError):
            atom.transition_amplitudes("PD")


class TestZeeman:
    def test_hand_computed_shifts_at_3p5_gauss(self):
        # g * m * 1.399624 MHz/G * 3.5 G, worked out by hand
        shifts = atom.zeeman_shifts(3.5) / TWO_PI / 1e6
        assert shifts[atom.S_PLUS] == pytest.approx(4.898684, abs=1e-6)
        assert shifts[atom.S_MINUS] == pytest.approx(-4.898684, abs=1e-6)
        assert shifts[atom.P_PLUS] == pytest.approx(1.6328946667, abs=1e-6)
        assert shifts[atom.D_P32] == pytest.approx(5.8784208, abs=1e-6)
        assert shifts[atom.D_M12] == pytest.approx(-1.9594736, abs=1e-6)

    def test_splittings(self):
        shifts = atom.zeeman_shifts(3.5) / TWO_PI / 1e6
        assert shifts[atom.S_PLUS] - shifts[atom.S_MINUS] == pytest.approx(9.797368)
        assert shifts[atom.P_PLUS] - shifts[atom.P_MINUS] == pytest.approx(3.2657893, abs=1e-6)
        d = shifts[list(atom.D_LEVELS)]
        assert np.diff(d) == pytest.approx(3.9189472 * np.ones(3), abs=1e-6)

    def test_sign_flip_and_zero_field(self):
        b = 1.7
        assert atom.zeeman_shifts(-b) == pytest.approx(-atom.zeeman_shifts(b))
        assert atom.zeeman_shifts(0.0) == pytest.approx(np.zeros(8))


class TestPolarization:
    def test_normalization_any_angle(self):
        rng = np.random.default_rng(7)
        for alpha in rng.uniform(0, math.pi, size=50):
            comp = atom.polarization_components(alpha)
            assert sum(abs(v) ** 2 for v in comp.values()) == pytest.approx(1.0)

    def test_axial_is_pure_pi(self):
        comp = atom.polarization_components(0.0)
        assert comp[0] == pytest.approx(1.0)
        assert comp[-1] == comp[+1] == pytest.approx(0.0)

    def test_perpendicular_has_no_pi(self):
        comp = atom.polarization_components(math.pi / 2)
        assert comp[0] == pytest.approx(0.0, abs=1e-15)
        assert abs(comp[-1]) == pytest.approx(1 / math.sqrt(2))
        assert abs(comp[+1]) == pytest.approx(1 / math.sqrt(2))
        assert comp[-1] == -comp[+1]


def _random_params(rng) -> ExperimentParams:
    return ExperimentParams(
        omega_397=TWO_PI * rng.uniform(0, 30e6),
        omega_866=TWO_PI * rng.uniform(0, 30e6),
        delta_397=TWO_PI * rng.uniform(-40e6, 40e6),
        delta_866=TWO_PI * rng.uniform(-40e6, 40e6),
        b_field=rng.uniform(0, 8.0),
        alpha_397=rng.uniform(0, math.pi),
        alpha_866=rng.uniform(0, math.pi),
    )


class TestHamiltonian:
    def test_hermitian_random_params(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            h = atom.build_hamiltonian(_random_params(rng))
            assert np.allclose(h, h.conj().T, atol=1e-9)

    def test_no_direct_sd_coupling(self):
        h = atom.build_hamiltonian(get_preset("spectrum"))
        for i in atom.S_LEVELS:
            for j in atom.D_LEVELS:
                assert h[i, j] == 0

    def test_perpendicular_drive_leaves_pi_channels_dark(self):
        p = get_preset("weak")  # alpha = pi/2 on both beams
        h = atom.build_hamiltonian(p)
        # pi channels connect equal m: S-1/2 <-> P-1/2 etc.
        assert h[atom.P_MINUS, atom.S_MINUS] == pytest.approx(0.0, abs=1e-6)
        assert h[atom.P_PLUS, atom.S_PLUS] == pytest.approx(0.0, abs=1e-6)
        assert h[atom.P_MINUS, atom.D_M12] == pytest.approx(0.0, abs=1e-6)

    def test_coupling_convention_unit_channel(self):
        # <upper|H|lower> = omega * a_q * A_c, without an extra 1/2
        p = get_preset("weak")
        h = atom.build_hamiltonian(p)
        a_sig_minus = math.sin(p.alpha_397) / math.sqrt(2)
        expect = p.omega_397 * a_sig_minus * math.sqrt(2 / 3)
        assert h[atom.P_MINUS, atom.S_PLUS].real == pytest.approx(expect)

    def test_diagonal_detunings(self):
        p = get_preset("strong")
        h = atom.build_hamiltonian(p)
        shifts = atom.zeeman_shifts(p.b_field)
        assert h[0, 0].real == pytest.approx(shifts[0] + p.delta_397)
        assert h[2, 2].real == pytest.approx(shifts[2])
        assert h[5, 5].real == pytest.approx(shifts[5] + p.delta_866)


def _apply(mat, rho):
    """d(rho)/dt from the 64x64 generator and row-major vec(rho)."""
    return (mat @ rho.reshape(-1)).reshape(8, 8)


class TestLiouvillian:
    def test_trace_preservation_random_params(self):
        # <<I| L = 0: columns of L summed over diagonal positions vanish
        rng = np.random.default_rng(13)
        tr = np.zeros(64)
        tr[::9] = 1.0
        for _ in range(10):
            lv = atom.build_liouvillian(_random_params(rng))
            assert np.abs(tr @ lv).max() < 1e-6  # rad/s scale ~1e8

    def test_hermiticity_preserved_by_generator(self):
        rng = np.random.default_rng(17)
        lv = atom.build_liouvillian(_random_params(rng))
        x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = x + x.conj().T
        drho = _apply(lv, rho)
        assert np.allclose(drho, drho.conj().T, atol=1e-6)

    def test_apply_matches_matrix(self):
        # the superoperator equals the master equation written with 8x8
        # operators: -i[H, rho] + sum_a (a rho a+ - {a+ a, rho} / 2)
        rng = np.random.default_rng(19)
        p = get_preset("weak")
        lv = atom.build_liouvillian(p)
        x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = x @ x.conj().T
        rho /= np.trace(rho)
        h = atom.build_hamiltonian(p)
        direct = -1j * (h @ rho - rho @ h)
        for a in atom.collapse_operators(p):
            ada = a.conj().T @ a
            direct += a @ rho @ a.conj().T - 0.5 * (ada @ rho + rho @ ada)
        assert np.allclose(_apply(lv, rho), direct, rtol=0, atol=1e-6)

    def test_collapse_operator_count(self):
        p = get_preset("weak")
        assert len(atom.collapse_operators(p)) == 10
        p2 = p.replace(linewidth_397=TWO_PI * 0.1e6, linewidth_866=TWO_PI * 0.2e6)
        assert len(atom.collapse_operators(p2)) == 12

    def test_dephasing_decays_coherence_at_half_linewidth(self):
        lw = TWO_PI * 0.3e6
        p = ExperimentParams(omega_397=0, omega_866=0, delta_397=0, delta_866=0,
                             b_field=0.0, gamma_sp=TWO_PI * 20.7e6,
                             gamma_dp=TWO_PI * 1.69e6, linewidth_397=lw)
        lv = atom.build_liouvillian(p)
        rho = np.zeros((8, 8), complex)
        rho[0, 0] = rho[4, 4] = 0.5
        rho[0, 4] = rho[4, 0] = 0.5  # S-D coherence
        drho = _apply(lv, rho)
        assert drho[0, 4] == pytest.approx(-0.5 * lw * rho[0, 4], rel=1e-9)


# -- the affine basis against a per-operator Kronecker build --------------

def _kron_liouvillian(params):
    """Oracle: -i[H, .] plus one Kronecker-built dissipator per collapse
    operator, the direct sum that the fixed basis replaces."""
    h = atom.build_hamiltonian(params)
    eye = np.eye(8)
    mat = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for a in atom.collapse_operators(params):
        ada = a.conj().T @ a
        mat += (np.kron(a, a.conj())
                - 0.5 * (np.kron(ada, eye) + np.kron(eye, ada.T)))
    return mat


def _assert_affine_matches_kron(params):
    ref = _kron_liouvillian(params)
    got = atom.build_liouvillian(params)
    assert got.shape == (64, 64)
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


class TestAffineLiouvillian:
    @pytest.mark.parametrize("preset", ["weak", "strong", "spectrum"])
    def test_presets(self, preset):
        _assert_affine_matches_kron(get_preset(preset))

    @settings(max_examples=60, database=None)
    @given(log10_b=st.floats(-1.0, 1.0),
           delta_397_mhz=st.floats(-40.0, 0.0),
           delta_866_mhz=st.floats(-40.0, 40.0),
           omega_397_mhz=st.floats(1.0, 40.0),
           omega_866_mhz=st.floats(0.5, 20.0),
           alpha_397_pi=st.floats(0.1, 0.9),
           alpha_866_pi=st.floats(0.1, 0.9),
           linewidth_397_mhz=st.sampled_from([0.0, 0.05, 1.0]),
           linewidth_866_mhz=st.sampled_from([0.0, 0.2, 2.0]),
           dark_d=st.booleans())
    def test_random_parameters(self, log10_b, delta_397_mhz, delta_866_mhz,
                               omega_397_mhz, omega_866_mhz, alpha_397_pi,
                               alpha_866_pi, linewidth_397_mhz,
                               linewidth_866_mhz, dark_d):
        # TestRenewalIdentity's ranges, plus linewidths and gamma_dp = 0
        _assert_affine_matches_kron(get_preset("weak").replace(
            b_field=10.0 ** log10_b, delta_397=TWO_PI * delta_397_mhz * 1e6,
            delta_866=TWO_PI * delta_866_mhz * 1e6,
            omega_397=TWO_PI * omega_397_mhz * 1e6,
            omega_866=TWO_PI * omega_866_mhz * 1e6,
            alpha_397=alpha_397_pi * math.pi,
            alpha_866=alpha_866_pi * math.pi,
            linewidth_397=TWO_PI * linewidth_397_mhz * 1e6,
            linewidth_866=TWO_PI * linewidth_866_mhz * 1e6,
            gamma_dp=0.0 if dark_d else GAMMA_DP_DEFAULT))

    def test_terms_are_partial_derivatives(self):
        # each fixed term is dL/dc_k: moving one coefficient by 1 rad/s
        # moves L by exactly that term
        p = get_preset("spectrum")
        base = atom.liouvillian_coefficients(p)
        assert base.shape == (len(atom.LIOUVILLIAN_TERMS),) == (17,)
        assert base[atom.DELTA_866_TERM] == p.delta_866
        moved = np.tensordot(base + np.eye(17)[3], atom.LIOUVILLIAN_TERMS, 1)
        diff = moved - atom.build_liouvillian(p)
        assert np.abs(diff - atom.LIOUVILLIAN_TERMS[3]).max() <= 1e-6
        # the delta_866 term is diagonal: -i on the 32 coherences that
        # pair a D level with an S or P level
        d866 = atom.LIOUVILLIAN_TERMS[atom.DELTA_866_TERM]
        assert np.count_nonzero(d866 - np.diag(np.diagonal(d866))) == 0
        assert np.count_nonzero(np.diagonal(d866)) == 32

    def test_hamiltonian_couplings_are_the_coefficients(self):
        p = get_preset("weak").replace(alpha_397=0.3, alpha_866=1.1)
        h = atom.build_hamiltonian(p)
        c = atom.liouvillian_coefficients(p)
        for k, t in enumerate(atom.TRANSITIONS):
            assert h[t.upper, t.lower] == h[t.lower, t.upper] == c[3 + k]


class TestParamsSerialization:
    def test_round_trip(self, tmp_path):
        p = get_preset("spectrum").replace(linewidth_397=TWO_PI * 0.05e6)
        path = tmp_path / "pars.json"
        p.save(path)
        q = ExperimentParams.load(path)
        for f in ("omega_397", "omega_866", "delta_397", "delta_866",
                  "b_field", "alpha_397", "alpha_866", "gamma_sp", "gamma_dp",
                  "linewidth_397", "linewidth_866"):
            assert getattr(q, f) == pytest.approx(getattr(p, f), rel=1e-9), f

    @settings(max_examples=200, database=None)
    @given(omega=st.tuples(st.floats(0.0, 1e11), st.floats(0.0, 1e11)),
           delta=st.tuples(st.floats(-1e11, 1e11), st.floats(-1e11, 1e11)),
           b_field=st.floats(0.0, 100.0),
           alpha=st.tuples(st.floats(0.0, math.pi), st.floats(0.0, math.pi)),
           gamma=st.tuples(st.floats(1e-3, 1e11), st.floats(0.0, 1e11)),
           linewidth=st.tuples(st.floats(0.0, 1e9), st.floats(0.0, 1e9)))
    def test_json_round_trip_keeps_fingerprint(self, tmp_path_factory, omega,
                                               delta, b_field, alpha, gamma,
                                               linewidth):
        p = ExperimentParams(
            omega_397=omega[0], omega_866=omega[1], delta_397=delta[0],
            delta_866=delta[1], b_field=b_field, alpha_397=alpha[0],
            alpha_866=alpha[1], gamma_sp=gamma[0], gamma_dp=gamma[1],
            linewidth_397=linewidth[0], linewidth_866=linewidth[1])
        path = tmp_path_factory.getbasetemp() / "round_trip.json"
        p.save(path)
        q = ExperimentParams.load(path)
        assert q.fingerprint() == p.fingerprint()
        assert q.to_dict() == p.to_dict()
        for a, b in zip(dataclasses.astuple(q), dataclasses.astuple(p)):
            assert a == pytest.approx(b, rel=1e-15, abs=1e-300)

    def test_missing_decay_rates_take_defaults(self):
        p = ExperimentParams.from_dict({"omega_397_mhz": 9.2,
                                        "omega_866_mhz": 1.3,
                                        "delta_397_mhz": -15.0,
                                        "delta_866_mhz": 5.8})
        assert p.gamma_sp == GAMMA_SP_DEFAULT
        assert p.gamma_dp == GAMMA_DP_DEFAULT
        assert p.linewidth_397 == 0.0 and p.linewidth_866 == 0.0

    def test_presets_save_short_angles(self, tmp_path):
        for name, text in (("weak", "0.5pi"), ("spectrum", "0.46pi")):
            path = tmp_path / f"{name}.json"
            get_preset(name).save(path)
            assert f'"alpha_397": "{text}"' in path.read_text()

    def test_angle_parsing(self):
        from ionpair.params import parse_angle
        assert parse_angle("0.5pi") == pytest.approx(math.pi / 2)
        assert parse_angle("90deg") == pytest.approx(math.pi / 2)
        assert parse_angle("1.2rad") == pytest.approx(1.2)
        assert parse_angle("pi") == pytest.approx(math.pi)
        with pytest.raises(ValueError):
            parse_angle(1.57)  # bare number: unit required
        with pytest.raises(ValueError):
            parse_angle("1.57 radians?")

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentParams(omega_397=-1.0, omega_866=0, delta_397=0, delta_866=0)
        with pytest.raises(ValueError):
            ExperimentParams(omega_397=0, omega_866=0, delta_397=0, delta_866=0,
                             b_field=-2.0)
        with pytest.raises(ValueError):
            ExperimentParams(omega_397=0, omega_866=0, delta_397=0, delta_866=0,
                             alpha_397=4.0)

    @pytest.mark.parametrize("name", [
        f.name for f in dataclasses.fields(ExperimentParams)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, name, bad):
        base = get_preset("weak")
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            base.replace(**{name: bad})

    def test_unknown_and_missing_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentParams.from_dict({"omega_397_mhz": 1, "omega_866_mhz": 1,
                                        "delta_397_mhz": 0, "delta_866_mhz": 0,
                                        "rabi_397": 5})
        with pytest.raises(ValueError, match="missing"):
            ExperimentParams.from_dict({"omega_397_mhz": 1})

    def test_fingerprint_stable_and_sensitive(self):
        a = get_preset("weak")
        assert a.fingerprint() == get_preset("weak").fingerprint()
        b = a.replace(omega_397=a.omega_397 * 1.001)
        assert a.fingerprint() != b.fingerprint()

    def test_presets_exist(self):
        for name in ("weak", "strong", "spectrum"):
            p = get_preset(name)
            assert p.b_field == 3.5
        with pytest.raises(ValueError):
            get_preset("medium")


# -- per-field JSON codec oracle -----------------------------------------
# The codec spelled out one key at a time, as it was before each field
# declared its unit; ExperimentParams.to_dict/from_dict must match it.

def _per_field_to_dict(p: ExperimentParams) -> dict:
    from ionpair.params import _to_mhz, format_angle
    return {
        "omega_397_mhz": _to_mhz(p.omega_397),
        "omega_866_mhz": _to_mhz(p.omega_866),
        "delta_397_mhz": _to_mhz(p.delta_397),
        "delta_866_mhz": _to_mhz(p.delta_866),
        "b_field_gauss": p.b_field,
        "alpha_397": format_angle(p.alpha_397),
        "alpha_866": format_angle(p.alpha_866),
        "gamma_sp_mhz": _to_mhz(p.gamma_sp),
        "gamma_dp_mhz": _to_mhz(p.gamma_dp),
        "linewidth_397_mhz": _to_mhz(p.linewidth_397),
        "linewidth_866_mhz": _to_mhz(p.linewidth_866),
    }


def _per_field_from_dict(data: dict) -> ExperimentParams:
    from ionpair.params import _from_mhz, parse_angle

    def mhz(key, default=None):
        return _from_mhz(float(data[key])) if key in data else default

    kwargs = {
        "omega_397": mhz("omega_397_mhz"),
        "omega_866": mhz("omega_866_mhz"),
        "delta_397": mhz("delta_397_mhz"),
        "delta_866": mhz("delta_866_mhz"),
        "gamma_sp": mhz("gamma_sp_mhz", GAMMA_SP_DEFAULT),
        "gamma_dp": mhz("gamma_dp_mhz", GAMMA_DP_DEFAULT),
        "linewidth_397": mhz("linewidth_397_mhz", 0.0),
        "linewidth_866": mhz("linewidth_866_mhz", 0.0),
    }
    if "b_field_gauss" in data:
        kwargs["b_field"] = float(data["b_field_gauss"])
    for key in ("alpha_397", "alpha_866"):
        if key in data:
            kwargs[key] = parse_angle(data[key])
    return ExperimentParams(**kwargs)


def _saved_bytes(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


class TestParamsDeclarations:
    """Each field's unit and range, declared once, drive the codec and
    the validation."""

    @settings(max_examples=200, database=None)
    @given(omega=st.tuples(st.floats(0.0, 1e11), st.floats(0.0, 1e11)),
           delta=st.tuples(st.floats(-1e11, 1e11), st.floats(-1e11, 1e11)),
           b_field=st.floats(0.0, 100.0),
           alpha=st.tuples(st.floats(0.0, math.pi), st.floats(0.0, math.pi)),
           gamma=st.tuples(st.floats(1e-3, 1e11), st.floats(0.0, 1e11)),
           linewidth=st.tuples(st.floats(0.0, 1e9), st.floats(0.0, 1e9)))
    def test_codec_matches_per_field_oracle(self, omega, delta, b_field,
                                            alpha, gamma, linewidth):
        p = ExperimentParams(
            omega_397=omega[0], omega_866=omega[1], delta_397=delta[0],
            delta_866=delta[1], b_field=b_field, alpha_397=alpha[0],
            alpha_866=alpha[1], gamma_sp=gamma[0], gamma_dp=gamma[1],
            linewidth_397=linewidth[0], linewidth_866=linewidth[1])
        got, want = p.to_dict(), _per_field_to_dict(p)
        assert got == want and list(got) == list(want)
        assert _saved_bytes(got) == _saved_bytes(want)
        text = json.loads(_saved_bytes(got))
        assert ExperimentParams.from_dict(text) == _per_field_from_dict(text)

    def test_partial_files_match_per_field_oracle(self):
        full = get_preset("spectrum").replace(
            b_field=2, linewidth_866=TWO_PI * 0.2e6).to_dict()
        required = ("omega_397_mhz", "omega_866_mhz", "delta_397_mhz",
                    "delta_866_mhz")
        for key in [k for k in full if k not in required]:
            data = {k: v for k, v in full.items() if k != key}
            assert ExperimentParams.from_dict(data) \
                == _per_field_from_dict(data), key
        data = {k: full[k] for k in required}
        assert ExperimentParams.from_dict(data) == _per_field_from_dict(data)

    def test_units_fix_the_keys(self):
        units = {f.name: f.metadata["unit"]
                 for f in dataclasses.fields(ExperimentParams)}
        suffix = {"mhz": "_mhz", "gauss": "_gauss", "angle": ""}
        assert list(get_preset("weak").to_dict()) == [
            name + suffix[unit] for name, unit in units.items()]

    @pytest.mark.parametrize("name, bad, message", [
        ("omega_397", -1.0, r"omega_397 must lie in \[0, inf\], got -1.0"),
        ("omega_866", -1.0, r"omega_866 must lie in \[0, inf\]"),
        ("b_field", -0.5, r"b_field must lie in \[0, inf\], got -0.5"),
        ("alpha_397", 4.0, r"alpha_397 must lie in \[0, 3.14159\], got 4.0"),
        ("alpha_866", -0.1, r"alpha_866 must lie in \[0, 3.14159\]"),
        ("gamma_sp", 0.0, r"gamma_sp must be positive, got 0.0"),
        ("gamma_sp", -1.0, r"gamma_sp must lie in \[0, inf\]"),
        ("gamma_dp", -1.0, r"gamma_dp must lie in \[0, inf\]"),
        ("linewidth_397", -1.0, r"linewidth_397 must lie in \[0, inf\]"),
        ("linewidth_866", -1.0, r"linewidth_866 must lie in \[0, inf\]"),
    ])
    def test_range_errors_name_the_field(self, name, bad, message):
        with pytest.raises(ValueError, match=message):
            get_preset("weak").replace(**{name: bad})

    def test_range_edges_are_legal(self):
        p = get_preset("weak").replace(
            omega_397=0.0, omega_866=0.0, b_field=0.0, alpha_397=0.0,
            alpha_866=math.pi, gamma_dp=0.0)
        q = ExperimentParams.from_dict(p.to_dict())
        assert q.to_dict() == p.to_dict() and q.alpha_866 == math.pi

    @pytest.mark.parametrize("key, value, message", [
        ("omega_397_mhz", "9.2", r"omega_397_mhz: must be a number, got '9.2'"),
        ("gamma_dp_mhz", True, r"gamma_dp_mhz: must be a number, got True"),
        ("b_field_gauss", None, r"b_field_gauss: must be a number, got None"),
        ("alpha_866", 1.57, r"alpha_866: angle 1.57 has no unit"),
        ("alpha_397", "half pi", r"alpha_397: cannot parse angle 'half pi'"),
        ("alpha_397", "90 degrees", r"alpha_397: angle '90 degrees' must end"),
    ])
    def test_decode_errors_name_the_key(self, key, value, message):
        data = {**get_preset("weak").to_dict(), key: value}
        with pytest.raises(ValueError, match=message):
            ExperimentParams.from_dict(data)
