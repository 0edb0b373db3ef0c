"""Command line interface: option parsing, outputs, exit codes."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ionpair
from ionpair import cli, correlations as corr, fitting
from ionpair.cli import _print_fit, main, parse_freq, parse_time, parse_time_ps
from ionpair.correlations import read_table_csv
from ionpair.correlator import (CorrelatorConfig, correlate,
                                correlate_brute_force)
from ionpair.fitting import (AFFINE_PARAMS, ERROR_PARAMS, PHYSICS_PARAMS,
                             FitResult)
from ionpair.params import TWO_PI, format_angle, get_preset, parse_angle
from ionpair.streams import load_stream, save_stream


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _chi2(stdout):
    return float(re.search(r"chi2 = (\S+)", stdout).group(1))


class TestUnitParsing:
    def test_times(self):
        assert parse_time("24ns") == pytest.approx(24e-9)
        assert parse_time("2us") == pytest.approx(2e-6)
        assert parse_time("1.5e-6s") == pytest.approx(1.5e-6)
        assert parse_time("500ps") == pytest.approx(5e-10)
        assert parse_time("10ms") == pytest.approx(1e-2)
        assert parse_time_ps("1ns") == 1000

    def test_bare_number_rejected(self):
        with pytest.raises(ValueError):
            parse_time("5")
        with pytest.raises(ValueError):
            parse_freq("5")
        with pytest.raises(ValueError):
            parse_time("5 minutes")

    @pytest.mark.parametrize("text, ps", [
        ("1ps", 1), ("0.5ns", 500), ("4ns", 4000), ("400ns", 400_000),
        ("50us", 50_000_000), ("600ms", 600_000_000_000),
        ("1s", 1_000_000_000_000)])
    def test_whole_picoseconds(self, text, ps):
        assert parse_time_ps(text) == ps

    # 1.0000000000005s is 0.5 ps, 5e-13 relative, off a whole ps
    @pytest.mark.parametrize("text", ["2.5ps", "1.5ps", "0.4ps", "2.0004ns",
                                      "1.0000000000005s"])
    def test_fractional_picoseconds_rejected(self, text):
        with pytest.raises(ValueError, match=f"time '{text}' is not a "
                                             "whole number of picoseconds"):
            parse_time_ps(text)

    def test_frequencies(self):
        assert parse_freq("-15MHz") == pytest.approx(-TWO_PI * 15e6)
        assert parse_freq("5kHz") == pytest.approx(TWO_PI * 5e3)
        assert parse_freq("2.5hz") == pytest.approx(TWO_PI * 2.5)

    def test_non_finite_rejected(self):
        for text in ("1e999ns", "-1e999s"):
            with pytest.raises(ValueError):
                parse_time(text)
        with pytest.raises(ValueError):
            parse_time_ps("1e999us")
        # finite digits, infinite product with the unit
        for text in ("1e999MHz", "1e308GHz"):
            with pytest.raises(ValueError):
                parse_freq(text)

    @settings(max_examples=200, database=None)
    @given(seconds=st.floats(-1e200, 1e200, allow_nan=False),
           unit=st.sampled_from([("ps", 1e-12), ("ns", 1e-9), ("us", 1e-6),
                                 ("ms", 1e-3), ("s", 1.0)]))
    def test_time_round_trip(self, seconds, unit):
        name, factor = unit
        assert parse_time(f"{seconds / factor!r}{name}") == pytest.approx(
            seconds, rel=1e-15, abs=1e-300)

    @settings(max_examples=200, database=None)
    @given(hz=st.floats(-1e200, 1e200, allow_nan=False),
           unit=st.sampled_from([("Hz", 1.0), ("kHz", 1e3), ("MHz", 1e6),
                                 ("GHz", 1e9), ("mhz", 1e6)]))
    def test_freq_round_trip(self, hz, unit):
        name, factor = unit
        assert parse_freq(f"{hz / factor!r}{name}") == pytest.approx(
            TWO_PI * hz, rel=1e-15, abs=1e-300)

    @settings(max_examples=200, database=None)
    @given(angle=st.floats(0.0, math.pi))
    def test_angle_round_trip(self, angle):
        text = format_angle(angle)
        back = parse_angle(text)
        assert format_angle(back) == text
        assert back == pytest.approx(angle, rel=1e-15, abs=1e-300)
        assert parse_angle(f"{math.degrees(angle)!r}deg") == pytest.approx(
            angle, rel=1e-15, abs=1e-300)
        assert parse_angle(f"{angle!r}rad") == angle


class TestG2Command:
    def test_writes_both_curves(self, capsys, tmp_path):
        out = tmp_path / "g2.csv"
        code, stdout, _ = run(capsys, "g2", "--params", "weak",
                              "--t-max", "200ns", "--dt", "1ns",
                              "-o", str(out))
        assert code == 0
        assert "peak g2" in stdout
        x, cols, meta = read_table_csv(out)
        assert set(cols) == {"sigma-|sigma-", "sigma-|sigma+"}
        assert x[0] == 0.0 and x[-1] == pytest.approx(200.0)
        assert "params" in meta

    def test_total_flag(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, stdout, _ = run(capsys, "g2", "--total",
                              "--t-max", "100ns", "--dt", "1ns",
                              "-o", str(out))
        assert code == 0
        _, cols, _ = read_table_csv(out)
        assert list(cols) == ["total"]

    def test_error_model_keeps_plain_labels(self, capsys, tmp_path):
        out = tmp_path / "g.csv"
        code, stdout, _ = run(capsys, "g2", "--eps-init", "0.02",
                              "--eps-minus", "0.01", "--t-max", "100ns",
                              "--dt", "2ns", "-o", str(out))
        assert code == 0
        assert "sigma-|sigma+: peak g2" in stdout
        _, cols, meta = read_table_csv(out)
        assert list(cols) == ["sigma-|sigma-", "sigma-|sigma+"]
        assert (meta["eps_init"], meta["eps_minus"]) == ("0.02", "0.01")
        assert "eps_plus" not in meta

    def test_total_with_errors_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        for eps in ("--eps-init", "--eps-minus", "--eps-plus"):
            code, _, err = run(capsys, "g2", "--total", eps, "0.01",
                               "--t-max", "100ns", "-o", str(out))
            assert code == 1
            assert "--eps" in err
            assert not out.exists()

    @pytest.mark.parametrize("dt, want", [
        ("0.6ns", [0.0, 0.6]), ("0.4ns", [0.0, 0.4, 0.8]),
        ("0.5ns", [0.0, 0.5, 1.0]), ("1ns", [0.0, 1.0])])
    def test_grid_ends_at_or_below_t_max(self, capsys, tmp_path, dt, want):
        out = tmp_path / "g.csv"
        code, _, _ = run(capsys, "g2", "--t-max", "1ns", "--dt", dt,
                         "-o", str(out))
        assert code == 0
        assert read_table_csv(out)[0] == pytest.approx(want, abs=1e-12)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(capsys, "g2", "--t-max", "100ns", "--dt", "2ns",
                       "-o", str(out))[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestParserReuse:
    """main builds one parser per process; no call leaves state in it."""

    def test_one_parser_per_process(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        before = cli.build_parser.cache_info()
        for _ in range(2):
            assert run(capsys, "g2", "--t-max", "10ns", "--dt", "2ns")[0] == 0
        after = cli.build_parser.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 2)

    def test_total_then_conditioned(self, capsys):
        code, stdout, _ = run(capsys, "g2", "--total", "--t-max", "20ns",
                              "--dt", "2ns")
        assert code == 0 and stdout.startswith("total: peak g2")
        code, stdout, _ = run(capsys, "g2", "--t-max", "20ns", "--dt", "2ns")
        assert code == 0 and "total" not in stdout
        assert [line.split(":")[0] for line in stdout.splitlines()] == [
            "sigma-|sigma-", "sigma-|sigma+"]

    @pytest.mark.parametrize("first, code", [
        (["g2", "--first", "pi"], 1),
        (["g2", "--t-max", "5"], 1),
        (["--help"], 0),
        (["g2", "--help"], 0),
    ])
    def test_valid_command_after_an_early_exit(self, capsys, first, code):
        assert run(capsys, *first)[0] == code
        code, stdout, err = run(capsys, "g2", "--t-max", "20ns",
                                "--dt", "2ns")
        assert code == 0 and err == "" and "sigma-|sigma+" in stdout

    def test_fit_options_do_not_carry_over(self, capsys, tmp_path,
                                           monkeypatch):
        data = tmp_path / "g2.csv"
        assert run(capsys, "g2", "--t-max", "40ns", "--dt", "2ns",
                   "--second", "sigma-", "-o", str(data))[0] == 0
        seen = []
        real = fitting.fit_g2_joint

        def recorded(datasets, params, **kwargs):
            seen.append(kwargs["errors"])
            return real(datasets, params, **kwargs)

        monkeypatch.setattr(cli, "fit_g2_joint", recorded)
        fit = ["fit", "g2", str(data), "--kinds", "sigma-|sigma-",
               "--free", "omega_397", "--restarts", "1", "--maxfev", "20"]
        assert run(capsys, *fit, "--eps-init", "0.02")[0] == 0
        assert run(capsys, *fit)[0] == 0
        assert [e.eps_init for e in seen] == [0.02, 0.0]
        assert seen[1] == corr.ErrorModel()


class TestSpectrumCommand:
    def test_csv_and_dips(self, capsys, tmp_path):
        out = tmp_path / "spec.csv"
        code, stdout, _ = run(capsys, "spectrum", "--params", "spectrum",
                              "--points", "201", "--dips", "-o", str(out))
        assert code == 0
        dips_line = [l for l in stdout.splitlines()
                     if l.startswith("dips_mhz:")][0]
        assert len(dips_line.split()) == 1 + 4   # exactly four dips
        x, cols, meta = read_table_csv(out)
        assert x[0] == pytest.approx(-40.0) and x[-1] == pytest.approx(40.0)
        assert np.all(cols["ok"] == 1.0)
        assert np.all(cols["rate"] >= 0.0)

    def test_window_options(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, "spectrum", "--lo", "-10MHz",
                         "--hi", "10MHz", "--points", "21", "-o", str(out))
        assert code == 0
        x, _, _ = read_table_csv(out)
        assert x[0] == pytest.approx(-10.0) and x.size == 21


class TestPurityCommand:
    def test_reports_metrics(self, capsys):
        code, stdout, _ = run(capsys, "purity", "--params", "weak",
                              "--t-window", "24ns")
        assert code == 0
        val = float([l for l in stdout.splitlines()
                     if l.startswith("pair purity")][0].split("=")[1])
        assert val == pytest.approx(128.2, rel=0.01)
        assert "pair probability" in stdout
        assert "mean sigma-" in stdout
        # four "name = value" lines, the form benchmark scripts parse
        assert len(re.findall(r"= (\S+)$", stdout, re.M)) == 4

    def test_window_off_the_grid_and_invalid(self, capsys):
        code, stdout, _ = run(capsys, "purity", "--t-window", "24.3ns")
        assert code == 0
        assert "p(24.3 ns)" in stdout
        code, _, err = run(capsys, "purity", "--t-window", "0ns")
        assert code == 1
        assert "window" in err
        # at 1 fs round-off leaves an integral negative: no ratio
        code, stdout, err = run(capsys, "purity", "--t-window", "1e-15s")
        assert (code, stdout) == (3, "")
        assert "lost in round-off" in err

    def test_short_window_prints_the_digits_it_has(self, capsys):
        # a 40 ps window on strong holds about 1e-8 photons per polarization
        code, stdout, _ = run(capsys, "purity", "--params", "strong",
                              "--t-window", "40ps")
        assert code == 0
        assert "pair purity p(0.04 ns) = " in stdout
        printed = [float(v) for v in re.findall(
            r"^mean sigma. photons in window = (\S+)$", stdout, re.M)]
        exact = [corr.mean_photon_number(get_preset("strong"), pol, 40e-12)
                 for pol in ("sigma-", "sigma+")]
        assert printed == pytest.approx(exact, rel=1e-3)
        assert min(exact) > 1e-9

    def test_builds_no_g2_curve(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("purity built a g2 curve")

        for name in ("g2_pair", "g2_conditioned", "g2_total"):
            monkeypatch.setattr(corr, name, refuse)
        out = tmp_path / "p.csv"
        code, stdout, _ = run(capsys, "purity", "--t-max", "100ns",
                              "--dt", "1ns", "-o", str(out))
        assert code == 0
        printed = float(re.search(r"p\(24 ns\) = (\S+)", stdout).group(1))
        tau, cols, meta = read_table_csv(out)
        assert tau.size == 100 and tau[0] == pytest.approx(1.0)
        assert cols["purity"][tau == 24.0][0] == pytest.approx(printed,
                                                               abs=1e-4)
        assert meta["command"] == "purity"


class TestSimulateAndCorrelate:
    def test_raw_stream_round_trip(self, capsys, tmp_path):
        out = tmp_path / "em.clk"
        code, stdout, _ = run(capsys, "simulate", "--duration", "2ms",
                              "--seed", "5", "-o", str(out))
        assert code == 0
        s = load_stream(out)
        assert len(s) > 1000
        assert "emitted" in stdout

    def test_deterministic_per_seed(self, capsys, tmp_path):
        a, b = tmp_path / "a.clk", tmp_path / "b.clk"
        for out in (a, b):
            assert run(capsys, "simulate", "--duration", "1ms",
                       "--seed", "9", "-o", str(out))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_detect_and_correlate(self, capsys, tmp_path):
        out = tmp_path / "run.clk"
        code, _, _ = run(capsys, "simulate", "--duration", "5ms",
                         "--seed", "2", "--detect", "0.5", "-o", str(out))
        assert code == 0
        d1 = tmp_path / "run-1.clk"
        d2 = tmp_path / "run-2.clk"
        assert d1.exists() and d2.exists()
        assert np.all(load_stream(d1).pol == 0)

        corr_csv = tmp_path / "corr.csv"
        code, stdout, _ = run(capsys, "correlate", str(d1), str(d2),
                              "--bin", "8ns", "--window", "400ns",
                              "-o", str(corr_csv))
        assert code == 0
        x, cols, meta = read_table_csv(corr_csv)
        assert x.size == 100
        assert cols["counts"].sum() == float(meta["total_pairs"])
        assert "pairs =" in stdout
        assert (meta["pol_a"], meta["pol_b"]) == ("any", "any")

    def test_autocorrelate_single_stream(self, capsys, tmp_path):
        out = tmp_path / "em.clk"
        run(capsys, "simulate", "--duration", "2ms", "--seed", "3",
            "-o", str(out))
        code, stdout, _ = run(capsys, "correlate", str(out),
                              "--pol-a", "sigma-", "--pol-b", "sigma-",
                              "--bin", "10ns", "--window", "500ns")
        assert code == 0
        assert "pairs =" in stdout

    @pytest.mark.parametrize("side", ["--pol-a", "--pol-b"])
    def test_one_sided_filter_drops_self_pairs(self, capsys, tmp_path, side):
        # one file: a sigma- click must not pair with itself even when
        # only one side is filtered; the oracle is brute force on the two
        # selections minus the clicks they share
        out, csv_out = tmp_path / "em.bin", tmp_path / "c.csv"
        assert run(capsys, "simulate", "--params", "weak", "--duration",
                   "1ms", "--seed", "3", "-o", str(out))[0] == 0
        code, stdout, _ = run(capsys, "correlate", str(out), "--bin", "1ns",
                              "--window", "4ns", side, "sigma-",
                              "-o", str(csv_out))
        assert code == 0
        stream = load_stream(out)
        picked = stream.select(pol="sigma-")
        sides = (stream, picked) if side == "--pol-b" else (picked, stream)
        config = CorrelatorConfig(bin_width_ps=1000, window_ps=4000)
        want = correlate_brute_force(*sides, config)
        zero = config.window_ps // config.bin_width_ps
        want[zero] -= len(picked)
        x, cols, meta = read_table_csv(csv_out)
        assert x[zero] == 0.5 and len(picked) > 100
        assert cols["counts"][zero] == want[zero]
        assert np.array_equal(cols["counts"], want)
        assert int(meta["total_pairs"]) == want.sum()
        assert f"pairs = {want.sum()}," in stdout

    def test_wavelength_selects_before_correlating(self, capsys, tmp_path):
        # a raw stream keeps its 866 events, so both filters select some
        out = tmp_path / "em.clk"
        assert run(capsys, "simulate", "--duration", "2ms", "--seed", "4",
                   "-o", str(out))[0] == 0
        stream = load_stream(out)
        config = CorrelatorConfig(bin_width_ps=10_000, window_ps=500_000)
        totals = {}
        for wavelength in ("397", "866"):
            csv_out = tmp_path / f"c{wavelength}.csv"
            code, stdout, _ = run(capsys, "correlate", str(out),
                                  "--wavelength", wavelength,
                                  "--bin", "10ns", "--window", "500ns",
                                  "-o", str(csv_out))
            assert code == 0
            pairs = int(re.search(r"pairs = (\d+),", stdout).group(1))
            want = correlate(stream.select(wavelength=wavelength),
                             None, config).total_pairs
            assert pairs == want > 0
            assert read_table_csv(csv_out)[2]["wavelength"] == wavelength
            totals[wavelength] = pairs
        csv_out = tmp_path / "c.csv"
        code, stdout, _ = run(capsys, "correlate", str(out), "--bin", "10ns",
                              "--window", "500ns", "-o", str(csv_out))
        assert code == 0
        assert read_table_csv(csv_out)[2]["wavelength"] == "any"
        assert int(re.search(r"pairs = (\d+),", stdout).group(1)) \
            > max(totals.values())

    def test_header_records_overlap_and_polarizations(self, capsys,
                                                      tmp_path):
        # with the rates, what expected counts per bin need
        out, csv_out = tmp_path / "em.clk", tmp_path / "c.csv"
        run(capsys, "simulate", "--duration", "2ms", "--seed", "3",
            "-o", str(out))
        code, stdout, _ = run(capsys, "correlate", str(out),
                              "--pol-a", "sigma-", "--pol-b", "sigma+",
                              "--bin", "10ns", "--window", "500ns",
                              "-o", str(csv_out))
        assert code == 0
        _, cols, meta = read_table_csv(csv_out)
        assert (meta["pol_a"], meta["pol_b"]) == ("sigma-", "sigma+")
        overlap = float(meta["overlap_s"])
        assert 0.0 < overlap <= 2e-3
        assert f"overlap = {overlap:.4f} s" in stdout
        assert cols["counts"].sum() == float(meta["total_pairs"]) > 0


# fitted values and one-sigma errors of each unit: MHz, angle, gauss and
# plain numbers (an affine and a detection-error parameter)
_FIT_VALUES = {"omega_866": TWO_PI * 1.3e6, "alpha_397": 0.46 * math.pi,
               "b_field": 3.5, "scale": 64000.0, "eps_init": 0.025}
_FIT_SIGMAS = {"omega_866": TWO_PI * 0.0123e6, "alpha_397": 0.0123,
               "b_field": 0.0456, "scale": 789.0, "eps_init": 0.0031}


class TestFitReport:
    """_print_fit's text, pinned for every unit."""

    def _report(self, capsys, sigma, converged=True):
        _print_fit(FitResult(params=_FIT_VALUES, experiment=get_preset("weak"),
                             chi2=12.345, dof=7, cov=None, sigma=sigma,
                             converged=converged, nfev=42, message=""))
        return capsys.readouterr().out

    def test_with_sigma(self, capsys):
        assert self._report(capsys, _FIT_SIGMAS) == (
            "converged: chi2 = 12.35 over 7 dof (reduced 1.764), nfev = 42\n"
            "  omega_866 = 2pi x 1.3 MHz +- 2pi x 0.0123 MHz\n"
            "  alpha_397 = 0.46pi +- 0.0123 rad\n"
            "  b_field = 3.5 G +- 0.0456 G\n"
            "  scale = 64000 +- 789\n"
            "  eps_init = 0.025 +- 0.0031\n")

    def test_without_sigma(self, capsys):
        assert self._report(capsys, None, converged=False) == (
            "did not converge: chi2 = 12.35 over 7 dof (reduced 1.764), "
            "nfev = 42\n"
            "  omega_866 = 2pi x 1.3 MHz\n"
            "  alpha_397 = 0.46pi\n"
            "  b_field = 3.5 G\n"
            "  scale = 64000\n"
            "  eps_init = 0.025\n")

    def test_every_fit_name_has_a_format(self, capsys):
        names = PHYSICS_PARAMS + AFFINE_PARAMS + ERROR_PARAMS
        values = dict.fromkeys(names, 0.25)
        _print_fit(FitResult(params=values, experiment=get_preset("weak"),
                             chi2=1.0, dof=1, cov=None, sigma=values,
                             converged=True, nfev=1, message=""))
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [l.split(" = ")[0].strip() for l in lines] == list(names)
        assert sum(l.endswith("MHz") for l in lines) == 4
        assert sum(l.endswith("rad") for l in lines) == 2
        assert sum(l.endswith(" G") for l in lines) == 1


class TestFitCommand:
    def test_spectrum_affine_fit(self, capsys, tmp_path):
        spec = tmp_path / "spec.csv"
        run(capsys, "spectrum", "--params", "spectrum", "--points", "81",
            "--scale", "2000", "--background", "20", "-o", str(spec))
        code, stdout, _ = run(capsys, "fit", "spectrum", str(spec),
                              "--params", "spectrum",
                              "--free", "scale,background",
                              "--restarts", "1")
        assert code == 0
        assert "converged" in stdout
        scale_line = [l for l in stdout.splitlines() if "scale =" in l][0]
        assert float(scale_line.split("=")[1].split("+-")[0]) == \
            pytest.approx(2000.0, rel=0.01)

    def test_g2_fit_roundtrip(self, capsys, tmp_path):
        data = tmp_path / "g2.csv"
        run(capsys, "g2", "--params", "weak", "--first", "sigma-",
            "--second", "sigma-", "--t-max", "200ns", "--dt", "2ns",
            "-o", str(data))
        saved = tmp_path / "fitted.json"
        code, stdout, _ = run(capsys, "fit", "g2", str(data),
                              "--params", "weak", "--kinds", "sigma-|sigma-",
                              "--free", "omega_397", "--restarts", "1",
                              "--maxfev", "150", "--save-params", str(saved))
        assert code == 0
        assert saved.exists()
        truth = get_preset("weak")
        from ionpair.params import ExperimentParams
        fitted = ExperimentParams.load(saved)
        assert fitted.omega_397 == pytest.approx(truth.omega_397, rel=0.01)

    def test_small_maxfev_reports_no_convergence(self, capsys, tmp_path):
        data = tmp_path / "g2.csv"
        run(capsys, "g2", "--params", "weak", "--first", "sigma-",
            "--second", "sigma-", "--t-max", "100ns", "--dt", "2ns",
            "-o", str(data))
        code, stdout, _ = run(capsys, "fit", "g2", str(data),
                              "--params", "strong", "--kinds", "sigma-|sigma-",
                              "--free", "omega_397", "--restarts", "1",
                              "--maxfev", "1")
        assert code == 0
        assert stdout.startswith("did not converge")

    def test_g2_fit_reads_the_kinds_column(self, capsys, tmp_path):
        # both curves in one file, the second one named by --kinds
        data = tmp_path / "g.csv"
        errors = ["--eps-init", "0.02", "--eps-minus", "0.01"]
        run(capsys, "g2", *errors, "--t-max", "200ns", "--dt", "2ns",
            "-o", str(data))
        code, stdout, _ = run(capsys, "fit", "g2", str(data), *errors,
                              "--kinds", "sigma-|sigma+",
                              "--free", "omega_397", "--restarts", "1")
        assert code == 0
        assert _chi2(stdout) < 1e-6

    def test_g2_fit_reads_the_only_data_column(self, capsys, tmp_path):
        data = tmp_path / "g.csv"
        grid = corr.default_grid(200e-9, 2e-9)
        _, plus = corr.g2_pair(get_preset("weak"), "sigma-", grid)
        corr.write_table_csv(data, grid * 1e9, {"g2": plus.values},
                             "tau_ns")
        code, stdout, _ = run(capsys, "fit", "g2", str(data),
                              "--kinds", "sigma-|sigma+",
                              "--free", "omega_397", "--restarts", "1")
        assert code == 0
        assert _chi2(stdout) < 1e-6

    def test_g2_fit_without_its_column_is_input_error(self, capsys,
                                                      tmp_path):
        data = tmp_path / "g.csv"
        run(capsys, "g2", "--second", "both", "--t-max", "100ns",
            "--dt", "2ns", "-o", str(data))
        code, _, err = run(capsys, "fit", "g2", str(data), "--kinds", "total",
                           "--free", "omega_397", "--restarts", "1")
        assert code == 2
        assert "'total'" in err
        assert "sigma-|sigma-, sigma-|sigma+" in err

    @pytest.mark.parametrize("extra", [
        ["--free", "omega_397,eps_init"],
        ["--free", "omega_397", "--eps-init", "0.3"]])
    def test_total_fit_takes_no_detection_errors(self, capsys, tmp_path,
                                                 extra):
        # as `g2 --total` refuses --eps-*: the polarization-blind curve
        # cannot see a detection error, free or held
        data = tmp_path / "tot.csv"
        run(capsys, "g2", "--total", "--t-max", "100ns", "--dt", "2ns",
            "-o", str(data))
        code, stdout, err = run(capsys, "fit", "g2", str(data),
                                "--kinds", "total", "--restarts", "1",
                                *extra)
        assert code == 1 and stdout == ""
        assert err.startswith("error: ") and "'eps_init'" in err

    def test_g2_fit_without_a_covariance_prints_no_sigma(self, capsys,
                                                         tmp_path):
        # eps_plus acts on sigma+ second photons only: a lone
        # sigma-|sigma- curve leaves its Jacobian column zero, so J^T J
        # is singular and no parameter gets a +- uncertainty
        data = tmp_path / "g.csv"
        run(capsys, "g2", "--second", "sigma-", "--t-max", "200ns",
            "--dt", "2ns", "-o", str(data))
        fit = ["fit", "g2", str(data), "--kinds", "sigma-|sigma-",
               "--restarts", "1"]
        code, stdout, _ = run(capsys, *fit, "--free", "omega_397")
        assert code == 0 and "omega_397 = " in stdout and "+-" in stdout
        code, stdout, _ = run(capsys, *fit, "--free", "omega_397,eps_plus")
        assert code == 0
        assert "omega_397 = " in stdout and "eps_plus = " in stdout
        assert "+-" not in stdout

    @pytest.mark.parametrize("extra", [
        ["--eps-init", "0.3"], ["--eps-minus", "0.1"], ["--eps-plus", "0.1"],
        ["--kinds", "sigma-|sigma-"], ["second.csv"]])
    def test_spectrum_fit_rejects_g2_options(self, capsys, tmp_path, extra):
        spec = tmp_path / "spec.csv"
        run(capsys, "spectrum", "--params", "spectrum", "--points", "21",
            "-o", str(spec))
        code, _, err = run(capsys, "fit", "spectrum", str(spec), *extra,
                           "--params", "spectrum", "--free", "omega_866")
        assert code == 1
        assert extra[0] in err

    @pytest.mark.parametrize("extra", [["--scale", "5"],
                                       ["--background", "3"]])
    def test_g2_fit_rejects_spectrum_options(self, capsys, tmp_path, extra):
        data = tmp_path / "g2.csv"
        run(capsys, "g2", "--second", "sigma-", "--t-max", "100ns",
            "--dt", "2ns", "-o", str(data))
        code, _, err = run(capsys, "fit", "g2", str(data),
                           "--kinds", "sigma-|sigma-", "--free", "omega_397",
                           *extra)
        assert code == 1
        assert extra[0] in err

    def test_kinds_mismatch_is_usage_error(self, capsys, tmp_path):
        data = tmp_path / "g2.csv"
        run(capsys, "g2", "--t-max", "100ns", "--dt", "2ns", "-o", str(data))
        code, _, err = run(capsys, "fit", "g2", str(data), str(data),
                           "--kinds", "total", "--free", "omega_397")
        assert code == 1
        assert "kinds" in err


# the '# key = value' lines and the column row of each command's -o
# table, in file order
_GRID = ("--t-max", "10ns", "--dt", "1ns")
_WEAK = "# params = 575aea4f230a"
_PAIRS = "tau_ns,sigma-|sigma-,sigma-|sigma+"
_STREAM_A = ("# channel = 1\n# duration_ps = 200000\n"
             "timestamp_ps,pol,wavelength\n" + "".join(
                 f"{t},{('sigma-', 'sigma+')[i % 2]},397\n" for i, t in
                 enumerate((1000, 5000, 12000, 30000, 45000, 61000, 90000,
                            120000, 150000, 190000))))
_STREAM_B = ("# channel = 2\n# duration_ps = 200000\n"
             "timestamp_ps,pol,wavelength\n" + "".join(
                 f"{t},sigma+,397\n" for t in (3000, 8000, 20000, 33000,
                                               70000, 100000, 140000,
                                               170000)))


def _correlate_header(pol_a, rate_a, rate_b, pairs):
    return ["# bin_ps = 2000", "# command = correlate", "# flagged = False",
            "# overlap_s = 2e-07", f"# pol_a = {pol_a}", "# pol_b = any",
            f"# rate_a = {rate_a}", f"# rate_b = {rate_b}",
            f"# total_pairs = {pairs}", "# wavelength = any",
            "# window_ps = 20000", "tau_ns,counts,g2"]


class TestProvenanceHeader:
    """Every -o table keeps its header: the command, its settings and the
    parameter fingerprint, sorted by key, then the column row."""

    @pytest.mark.parametrize("argv, header", [
        (("g2", *_GRID), ["# command = g2", "# first = sigma-", _WEAK,
                          _PAIRS]),
        (("g2", "--total", *_GRID), ["# command = g2", "# first = -", _WEAK,
                                     "tau_ns,total"]),
        (("g2", "--eps-init", "0.02", *_GRID),
         ["# command = g2", "# eps_init = 0.02", "# first = sigma-", _WEAK,
          _PAIRS]),
        (("spectrum", "--points", "5"),
         ["# background = 0.0", "# command = spectrum", _WEAK,
          "# scale = 1.0", "delta_866_mhz,rate,ok"]),
        (("purity", *_GRID), ["# command = purity", _WEAK, "tau_ns,purity"]),
        (("correlate", "a.csv"),
         _correlate_header("any", 50000000, 50000000, 12)),
        (("correlate", "a.csv", "b.csv", "--pol-a", "sigma-"),
         _correlate_header("sigma-", 25000000, 40000000, 10)),
    ], ids=["g2", "g2-total", "g2-eps", "spectrum", "purity", "correlate",
            "correlate-pol"])
    def test_header(self, capsys, tmp_path, argv, header):
        (tmp_path / "a.csv").write_text(_STREAM_A)
        (tmp_path / "b.csv").write_text(_STREAM_B)
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        if argv[0] == "correlate":
            argv += ["--bin", "2ns", "--window", "20ns"]
        out = tmp_path / "out.csv"
        code, stdout, _ = run(capsys, *argv, "-o", str(out))
        assert code == 0
        assert stdout.endswith(f"wrote {out}\n")
        lines = out.read_text().splitlines()
        assert lines[:len(header)] == header
        assert not lines[len(header)].startswith("#")


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert run(capsys, "bogus")[0] == 1
        assert run(capsys, "g2", "--t-max", "nonsense")[0] == 1
        assert run(capsys, "correlate")[0] == 1
        # degenerate grid geometry
        assert run(capsys, "g2", "--t-max", "1ns", "--dt", "2ns")[0] == 1

    def test_missing_input_file(self, capsys, tmp_path):
        assert run(capsys, "correlate", str(tmp_path / "no.clk"))[0] == 2
        assert run(capsys, "g2", "--params",
                   str(tmp_path / "no.json"))[0] == 2

    def test_malformed_stream_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.clk"
        bad.write_bytes(b"not a stream at all")
        assert run(capsys, "correlate", str(bad))[0] == 2

    def test_numerical_failure(self, capsys, tmp_path):
        # zero field traps the atom in dark D superpositions
        p = get_preset("weak").replace(b_field=0.0)
        path = tmp_path / "b0.json"
        p.save(path)
        code, _, err = run(capsys, "g2", "--params", str(path),
                           "--t-max", "100ns", "--dt", "1ns")
        assert code == 3
        assert "numerical" in err

    def test_fit_that_never_solves_its_model(self, capsys, tmp_path):
        # every model evaluation at B = 0 fails: no "converged" line and
        # no saved parameters
        data, p0, out = (tmp_path / n for n in ("g.csv", "b0.json",
                                                "out.json"))
        assert run(capsys, "g2", "--t-max", "400ns", "--dt", "2ns",
                   "-o", str(data))[0] == 0
        get_preset("weak").replace(b_field=0.0).save(p0)
        code, stdout, err = run(capsys, "fit", "g2", str(data), "--params",
                                str(p0), "--kinds", "sigma-|sigma-",
                                "--free", "omega_397,b_field",
                                "--restarts", "1", "--save-params", str(out))
        assert code == 3
        assert "numerical failure" in err
        assert "converged" not in stdout
        assert not out.exists()

    @pytest.mark.parametrize("free", ["b_field,scale", "scale,background"])
    def test_spectrum_fit_that_never_solves_its_model(self, capsys,
                                                      tmp_path, free):
        # without a repumper every detuning fails, on the optimizer path
        # and on the affine-only solve alike
        scan, dark, out = (tmp_path / n for n in ("scan.csv", "dark.json",
                                                  "out.json"))
        assert run(capsys, "spectrum", "--params", "spectrum",
                   "-o", str(scan))[0] == 0
        get_preset("spectrum").replace(omega_866=0.0).save(dark)
        code, stdout, err = run(capsys, "fit", "spectrum", str(scan),
                                "--params", str(dark), "--free", free,
                                "--restarts", "1", "--save-params", str(out))
        assert code == 3
        assert "the spectrum model failed at 401 of 401 detunings" in err
        assert "converged" not in stdout
        assert not out.exists()

    def test_failed_selftest_check_exits_4(self, capsys, monkeypatch):
        def wrong(a, b, config):
            return np.zeros(config.n_bins, dtype=np.int64)

        monkeypatch.setattr(cli, "correlate_brute_force", wrong)
        code, stdout, _ = run(capsys, "selftest")
        assert code == 4
        assert "FAIL - fast correlator equals brute force" in stdout
        assert "1 check(s) failed" in stdout
        assert stdout.count("ok   - ") == len(cli._selftest_checks()) - 1

    def test_correlate_of_an_empty_selection_warns(self, capsys, tmp_path):
        # a detector arm keeps 397 nm light only
        out = tmp_path / "run.bin"
        assert run(capsys, "simulate", "--duration", "1ms", "--seed", "3",
                   "--detect", "0.5", "-o", str(out))[0] == 0
        code, stdout, err = run(capsys, "correlate",
                                str(tmp_path / "run-1.bin"),
                                "--wavelength", "866", "--bin", "10ns",
                                "--window", "500ns")
        assert code == 0
        assert "warning: a stream is empty inside the overlap" in err
        assert stdout.startswith("pairs = 0, rate_a = 0.0000e+00 /s")

    def test_non_increasing_binary_stream_names_the_file(self, capsys,
                                                         tmp_path):
        path = tmp_path / "bad.bin"
        events = np.zeros(3, dtype=[("ts", "<u8"), ("pol", "u1"),
                                    ("wl", "u1")])
        events["ts"] = [10, 30, 20]
        path.write_bytes(b"IONCLK1" + np.array([0], "<u4").tobytes()
                         + np.array([3, 100], "<u8").tobytes()
                         + events.tobytes())
        code, _, err = run(capsys, "correlate", str(path))
        assert code == 2
        assert err == f"error: {path}: timestamps must be strictly " \
                      "increasing\n"

    @pytest.mark.parametrize("pol, wl, message", [
        ([7, 0], [0, 5], "polarization tag 7 is not 0, 1 or 2"),
        ([1, 2], [0, 5], "wavelength tag 5 is not 0 or 1")])
    def test_out_of_range_tag_names_the_file(self, capsys, tmp_path, pol,
                                             wl, message):
        path = tmp_path / "bad.clk"
        events = np.zeros(2, dtype=[("ts", "<u8"), ("pol", "u1"),
                                    ("wl", "u1")])
        events["ts"], events["pol"], events["wl"] = [1, 3], pol, wl
        path.write_bytes(b"IONCLK1" + np.array([0], "<u4").tobytes()
                         + np.array([2, 10], "<u8").tobytes()
                         + events.tobytes())
        code, stdout, err = run(capsys, "correlate", str(path), "--bin",
                                "1ps", "--window", "4ps", "--pol-a",
                                "sigma-")
        assert code == 2
        assert stdout == ""
        assert err == f"error: {path}: {message}\n"

    def test_nan_parameter_file_is_malformed_input(self, capsys, tmp_path):
        # json reads a bare NaN; it must fail as a bad file, not as a
        # numerical failure deep in the steady-state solve
        data = get_preset("weak").to_dict()
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({**data, "omega_397_mhz": math.nan}))
        assert "NaN" in path.read_text()
        code, _, err = run(capsys, "purity", "--params", str(path))
        assert code == 2
        assert "omega_397 must be finite" in err

    def test_dark_trajectory_fails_in_one_line(self, capsys, tmp_path):
        # at zero field the walk reaches a D level with a dark part; the
        # sampler must say so before its table search overflows
        p = get_preset("weak").replace(b_field=0.0)
        path = tmp_path / "b0.json"
        p.save(path)
        out = tmp_path / "x.clk"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "simulate", "--params", str(path),
                               "--duration", "1ms", "-o", str(out))
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        assert "dark state" in err and "zero magnetic field" in err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (("g2", "--t-max", "5"),
         "argument --t-max: time '5' needs a unit suffix (ps/ns/us/ms/s)"),
        (("g2", "--t-max", "1e999ns"),
         "argument --t-max: '1e999ns' overflows to inf"),
        (("purity", "--t-window", "24"),
         "argument --t-window: time '24' needs a unit suffix"),
        (("spectrum", "--lo", "5"),
         "argument --lo: frequency '5' needs a unit suffix"),
        (("correlate", "a.clk", "--bin", "2.5ps"),
         "argument --bin: time '2.5ps' is not a whole number of picoseconds"),
        (("correlate", "a.clk", "--bin", "1.5ps", "--window", "3ps"),
         "argument --bin: time '1.5ps' is not a whole number"),
        (("correlate", "a.clk", "--bin", "0.4ps"),
         "argument --bin: time '0.4ps' is not a whole number"),
        (("correlate", "a.clk", "--window", "2.0004ns"),
         "argument --window: time '2.0004ns' is not a whole number"),
        (("g2", "--dt", "0ns"), "need finite t_max >= dt > 0"),
        # finite in seconds, not in picoseconds or in steps
        (("correlate", "a.clk", "--window", "1e300s"),
         "argument --window: time '1e300s' overflows to inf ps"),
        (("correlate", "a.clk", "--bin", "1e300s"),
         "argument --bin: time '1e300s' overflows to inf ps"),
        (("g2", "--t-max", "1e300s", "--dt", "2ns"),
         "t_max=1e+300 over dt=2e-09 is not a finite number of steps"),
    ])
    def test_unit_arguments_say_what_is_wrong(self, capsys, args, message):
        code, out, err = run(capsys, *args)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err

    def test_grid_too_large_to_allocate(self, capsys, monkeypatch):
        def no_memory(t_max, dt):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(corr, "default_grid", no_memory)
        for command in ("g2", "purity"):
            code, _, err = run(capsys, command, "--t-max", "1s",
                               "--dt", "1ps")
            assert code == 1, command
            assert "1000000000001 points" in err

    def test_sizes_too_large_to_allocate(self, capsys, monkeypatch,
                                         tmp_path):
        # numpy's own refusal, raised before any large request is made
        def refuse(name, size):
            real = getattr(np, name)

            def alloc(*args, **kwargs):
                if size(*args, **kwargs) > 10**9:
                    raise MemoryError("Unable to allocate 727. GiB")
                return real(*args, **kwargs)
            monkeypatch.setattr(np, name, alloc)

        refuse("linspace", lambda start, stop, num=50, *_, **__: num)
        refuse("zeros", lambda shape, *_, **__: np.prod(shape))
        stream = tmp_path / "run.csv"
        stream.write_text("timestamp_ps,pol,wavelength\n10,pi,397\n")
        for argv, size in (
                (["spectrum", "--points", "100000000000"],
                 "100000000000 points"),
                (["correlate", str(stream), "--bin", "1ps",
                  "--window", "10s"], "20000000000000 bins")):
            code, _, err = run(capsys, *argv)
            assert code == 1, argv
            assert err.count("\n") == 1 and err.startswith("error:")
            assert size in err and "memory" in err

    @pytest.mark.parametrize("key, value, field", [
        ("omega_397_mhz", -1.0, "omega_397 must lie in [0, inf]"),
        ("omega_866_mhz", -0.5, "omega_866 must lie in [0, inf]"),
        ("delta_397_mhz", math.inf, "delta_397 must be finite"),
        ("delta_866_mhz", -math.inf, "delta_866 must be finite"),
        ("b_field_gauss", -3.5, "b_field must lie in [0, inf]"),
        ("alpha_397", "1.5pi", "alpha_397 must lie in [0, 3.14159]"),
        ("alpha_866", "-10deg", "alpha_866 must lie in [0, 3.14159]"),
        ("gamma_sp_mhz", 0.0, "gamma_sp must be positive"),
        ("gamma_dp_mhz", -1.69, "gamma_dp must lie in [0, inf]"),
        ("linewidth_397_mhz", -0.1, "linewidth_397 must lie in [0, inf]"),
        ("linewidth_866_mhz", -0.1, "linewidth_866 must lie in [0, inf]"),
        ("omega_397_mhz", "9.2", "omega_397_mhz: must be a number"),
        ("delta_866_mhz", "5.8MHz", "delta_866_mhz: must be a number"),
        ("b_field_gauss", "3.5", "b_field_gauss: must be a number"),
        ("gamma_sp_mhz", [20.7], "gamma_sp_mhz: must be a number"),
        ("alpha_397", 0.5, "alpha_397: angle 0.5 has no unit"),
    ])
    def test_bad_parameter_file_names_the_field(self, capsys, tmp_path, key,
                                                value, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**get_preset("weak").to_dict(),
                                    key: value}))
        code, out, err = run(capsys, "purity", "--params", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and field in err and str(path) in err

    @pytest.mark.parametrize("key, value, file_units, internal", [
        ("omega_397_mhz", -1,
         "omega_397_mhz must lie in [0, inf], got -1.0",
         "omega_397 must lie in [0, inf], got -6283185.307179586"),
        ("b_field_gauss", -3.5,
         "b_field_gauss must lie in [0, inf], got -3.5",
         "b_field must lie in [0, inf], got -3.5"),
        ("alpha_397", "1.5pi",
         "alpha_397 must lie in [0.0pi, 1.0pi], got 1.5pi",
         "alpha_397 must lie in [0, 3.14159], got 4.71238898038469"),
    ], ids=["mhz", "gauss", "angle"])
    def test_parameter_file_range_error_in_file_units(
            self, capsys, tmp_path, key, value, file_units, internal):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**get_preset("weak").to_dict(),
                                    key: value}))
        code, out, err = run(capsys, "purity", "--params", str(path))
        assert code == 2 and out == "" and err.count("\n") == 1
        assert f"{file_units}; internally {internal}" in err

    def test_malformed_csv_names_the_file_line(self, capsys, tmp_path):
        table = tmp_path / "scan.csv"
        table.write_text("# command = spectrum\ndelta_866_mhz,counts\n"
                         "-1,10\n\n0,11,12\n")
        code, _, err = run(capsys, "fit", "spectrum", str(table),
                           "--free", "scale")
        assert code == 2
        assert "found at line 5" in err and str(table) in err
        stream = tmp_path / "arm.csv"
        stream.write_text("timestamp_ps,pol,wavelength\n10,pi,397\n"
                          "# note\n20,pi,398\n")
        code, _, err = run(capsys, "correlate", str(stream))
        assert code == 2
        assert "'398' to uint8 at line 4, column 3" in err

    def test_malformed_stream_csv(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        head = "timestamp_ps,pol,wavelength\n"
        for text in ("# channel = x\n" + head + "10,pi,397\n",
                     "# duration_ps = x\n" + head + "10,pi,397\n",
                     head + "10,sigma-,397,junk\n",
                     head + "10,sigma-\n"):
            path.write_text(text)
            code, _, err = run(capsys, "correlate", str(path))
            assert code == 2, text
            assert err.count("\n") == 1 and str(path) in err

    @pytest.mark.parametrize("text, reason", [
        ("not json {\n", "not valid JSON"),
        ("[1, 2, 3]\n", "expected a JSON object"),
    ], ids=["not-json", "array"])
    def test_parameter_file_not_a_json_object(self, capsys, tmp_path, text,
                                              reason):
        path = tmp_path / "p.json"
        path.write_text(text)
        code, out, err = run(capsys, "g2", "--params", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read parameters from {path}: "
                              f"{reason}")
        assert err.count(str(path)) == 1

    def test_table_errors_name_the_file_once(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("# command = g2\ntau_ns,total\n")
        code, _, err = run(capsys, "fit", "g2", str(empty),
                           "--free", "omega_397")
        assert code == 2
        assert err == f"error: cannot read {empty}: no tabular data found\n"
        headless = tmp_path / "headless.csv"
        headless.write_text("# only = comments\n")
        code, _, err = run(capsys, "fit", "spectrum", str(headless),
                           "--free", "scale")
        assert code == 2
        assert err == f"error: cannot read {headless}: no header row\n"
        code, _, err = run(capsys, "correlate", str(headless))
        assert code == 2
        assert err == f"error: {headless}: no header row\n"

    @pytest.mark.parametrize("mode, head", [
        ("g2", "tau_ns,g2,g2"), ("spectrum", "delta_866_mhz,rate,ok,rate")])
    def test_repeated_table_column_names_the_file_once(self, capsys,
                                                       tmp_path, mode, head):
        # a fit of the last of two same-named columns would exit 0
        path = tmp_path / "dup.csv"
        width = head.count(",")
        path.write_text(head + "\n" + "".join(
            f"{x}" + ",1" * width + "\n" for x in range(5)))
        extra = ["--kinds", "total"] if mode == "g2" else []
        code, out, err = run(capsys, "fit", mode, str(path), *extra,
                             "--free", "omega_397")
        name = head.rsplit(",", 1)[1]
        assert code == 2 and out == ""
        assert err == (f"error: cannot read {path}: column {name!r} "
                       "appears more than once\n")
        assert err.count(str(path)) == 1

    def test_missing_fit_table_names_the_file_once(self, capsys, tmp_path):
        path = tmp_path / "missing.csv"
        code, out, err = run(capsys, "fit", "g2", str(path),
                             "--free", "omega_397")
        assert code == 2 and out == ""
        assert err == f"error: cannot read {path}: No such file or directory\n"
        assert err.count(str(path)) == 1

    def test_parameter_directory_names_it_once(self, capsys, tmp_path):
        code, out, err = run(capsys, "g2", "--params", str(tmp_path))
        assert code == 2 and out == ""
        assert err == (f"error: cannot read parameters from {tmp_path}: "
                       "Is a directory\n")
        assert err.count(str(tmp_path)) == 1

    def test_every_spectrum_point_failed(self, capsys, tmp_path):
        # without a repumper no steady state is unique, so every point
        # is flagged; only --dips turns that into a failure
        path = tmp_path / "no866.json"
        path.write_text(json.dumps({**get_preset("weak").to_dict(),
                                    "omega_866_mhz": 0}))
        code, out, err = run(capsys, "spectrum", "--params", str(path),
                             "--points", "5")
        assert code == 0 and out == ""
        assert err == "warning: 5 of 5 points failed to solve\n"
        code, out, err = run(capsys, "spectrum", "--params", str(path),
                             "--points", "5", "--dips")
        assert code == 3 and out == ""
        assert err.splitlines()[-1] == ("numerical failure: spectrum "
                                        "contains failed points; cannot "
                                        "locate dips")

    def test_fit_g2_on_decreasing_delays_names_the_file(self, capsys,
                                                         tmp_path):
        path = tmp_path / "decr.csv"
        path.write_text("tau_ns,total\n2,1.0\n1,0.5\n0,0.1\n")
        code, _, err = run(capsys, "fit", "g2", str(path),
                           "--free", "omega_397")
        assert code == 2
        assert err == (f"error: {path}: correlation delays must increase "
                       "from tau >= 0\n")

    def test_negative_stream_timestamp(self, capsys, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("timestamp_ps,pol,wavelength\n-5,pi,397\n10,pi,397\n")
        code, _, err = run(capsys, "correlate", str(path))
        assert code == 2
        assert err == f"error: {path}: timestamps must be non-negative\n"

    def test_bad_fit_budget(self, capsys, tmp_path):
        spec = tmp_path / "spec.csv"
        run(capsys, "spectrum", "--params", "spectrum", "--points", "21",
            "-o", str(spec))
        for option in ("--restarts", "--maxfev"):
            code, _, err = run(capsys, "fit", "spectrum", str(spec),
                               "--params", "spectrum",
                               "--free", "scale,background", option, "0")
            assert code == 1
            assert option[2:] in err

    def test_non_finite_quantities(self, capsys, tmp_path):
        out = tmp_path / "x.clk"
        for argv in (["g2", "--t-max", "1e999ns"],
                     ["purity", "--t-window", "1e999ns"],
                     ["spectrum", "--lo", "1e999MHz", "--points", "5"],
                     ["simulate", "--duration", "1e999ns",
                      "--max-events", "10", "-o", str(out)]):
            code, _, err = run(capsys, *argv)
            assert code == 1, argv
            assert "1e999" in err
        assert not out.exists()

    def test_window_whose_exponent_overflows(self, capsys):
        # t max|lam| is inf at 1e300 s: a usage error before any expm1,
        # not a numerical failure; at 1e200 s the model still answers
        code, stdout, err = run(capsys, "purity", "--t-window", "1e300s")
        assert (code, stdout) == (1, "")
        assert err.startswith("error: time t = 1e+300 s is out of range")
        code, stdout, _ = run(capsys, "purity", "--t-window", "1e200s")
        assert code == 0
        assert "p(1e+209 ns) = 1.0000" in stdout

    @pytest.mark.parametrize("flag, value, field", [
        ("--dark-rate", "nan", "dark_rate must be finite"),
        ("--dark-rate", "inf", "dark_rate must be finite"),
        ("--crosstalk", "nan", "crosstalk must be finite"),
        ("--detect", "1.5", "efficiency must lie in [0, 1]"),
        ("--detect", "nan", "efficiency must be finite"),
        ("--crosstalk", "2", "crosstalk must lie in [0, 1]"),
    ])
    def test_bad_detector_setting_names_the_field(self, capsys, tmp_path,
                                                  flag, value, field):
        # checked before the sampler runs, so nothing is emitted
        out = tmp_path / "x.clk"
        code, stdout, err = run(capsys, "simulate", "--duration", "10us",
                                "--detect", "0.5", flag, value,
                                "-o", str(out))
        assert code == 1 and field in err
        assert "emitted" not in stdout
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--scale", "nan"],
        ["spectrum", "--background", "inf", "--dips"],
        ["spectrum", "--scale", "inf", "--dips"],
    ])
    def test_non_finite_spectrum_scale_or_background(self, capsys, tmp_path,
                                                     argv):
        out = tmp_path / "s.csv"
        code, stdout, err = run(capsys, *argv, "--points", "21",
                                "-o", str(out))
        name = argv[1][2:]
        assert code == 1
        assert err == f"error: {name} must be finite, got {argv[2]}\n"
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--scale", "-inf"], "scale must be finite, got -inf"),
        (["spectrum", "--background", "-nan"],
         "background must be finite, got nan"),
        (["g2", "--eps-init", "-inf"], "eps_init must be finite, got -inf"),
    ])
    def test_negative_non_finite_value_reaches_the_check(self, capsys,
                                                         tmp_path, argv,
                                                         message):
        # "-inf" is an option value, not an unknown option
        out = tmp_path / "o.csv"
        code, stdout, err = run(capsys, *argv, "-o", str(out))
        assert code == 1
        assert err == f"error: {message}\n"
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("free, option, value", [
        ("omega_866", "--scale", "nan"),
        ("omega_866,scale", "--background", "nan"),
        ("scale,background", "--scale", "inf"),
    ])
    def test_non_finite_fit_scale_or_background(self, capsys, tmp_path,
                                                free, option, value):
        spec, saved = tmp_path / "spec.csv", tmp_path / "fit.json"
        run(capsys, "spectrum", "--params", "spectrum", "--points", "21",
            "-o", str(spec))
        code, stdout, err = run(capsys, "fit", "spectrum", str(spec),
                                "--params", "spectrum", "--free", free,
                                option, value, "--save-params", str(saved))
        assert code == 1
        assert err == f"error: {option[2:]} must be finite, got {value}\n"
        assert stdout == "" and not saved.exists()

    def test_dark_rate_beyond_the_timestamps(self, capsys, tmp_path):
        # the expected dark count is checked before numpy's Poisson draw,
        # which rejects so large a mean with its own message
        code, out, err = run(capsys, "simulate", "--duration", "10us",
                             "--detect", "0.5", "--dark-rate", "1e300",
                             "-o", str(tmp_path / "x.clk"))
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: dark rate ")
        assert "1e+300/s" in err and "picosecond timestamps" in err
        assert not list(tmp_path.iterdir())

    def test_dark_counts_too_many_to_allocate(self, capsys, monkeypatch,
                                              tmp_path):
        # numpy's refusal inside detect, raised before any large request
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(cli, "detect", no_memory)
        code, _, err = run(capsys, "simulate", "--duration", "100ms",
                           "--detect", "0.5", "--dark-rate", "1e11",
                           "-o", str(tmp_path / "x.clk"))
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: --dark-rate")
        assert "1e+10 dark counts" in err and "memory" in err
        assert not list(tmp_path.iterdir())

    def test_bad_event_cap(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--duration", "1us",
                           "--max-events", "0", "-o", str(tmp_path / "x.bin"))
        assert code == 1
        assert "max_events" in err
        assert not (tmp_path / "x.bin").exists()

    def test_empty_spectrum_scan(self, capsys, tmp_path):
        out = tmp_path / "spec.csv"
        for extra in ([], ["--dips"]):
            code, _, err = run(capsys, "spectrum", "--points", "0",
                               "-o", str(out), *extra)
            assert code == 1
            assert "--points" in err
            assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "g2", "--help")[0] == 0

    def test_selftest_passes(self, capsys):
        code, stdout, _ = run(capsys, "selftest")
        assert code == 0
        assert "all checks passed" in stdout

    def test_purity_and_selftest_build_one_model_per_parameter_set(
            self, capsys, models_built):
        weak = get_preset("weak").fingerprint()
        assert run(capsys, "purity", "--params", "weak")[0] == 0
        assert [p.fingerprint() for p in models_built] == [weak]
        models_built.clear()
        assert run(capsys, "selftest")[0] == 0
        assert [p.fingerprint() for p in models_built] == [weak]

    def test_module_entry_point(self, tmp_path):
        # the child imports the same package as this process, also when
        # pytest put it on sys.path rather than PYTHONPATH
        package_root = str(Path(ionpair.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "ionpair.cli", "purity",
             "--t-window", "24ns"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "pair purity" in proc.stdout


class TestPeakLine:
    """The g2 peak delay reads in hundredths of a ns below a declared
    size and in 6 significant digits from it on."""

    def test_fixed_below_the_declared_size(self):
        assert cli._PEAK_FIXED_NS == 1e9
        assert cli._peak_ns(0.0) == "0.00"
        assert cli._peak_ns(28.5e-9) == "28.50"
        assert cli._peak_ns(0.99) == "990000000.00"

    def test_significant_digits_from_the_declared_size(self):
        assert cli._peak_ns(1.0) == "1e+09"
        assert cli._peak_ns(1.2345678) == "1.23457e+09"

    def test_huge_grid_prints_a_short_delay(self, capsys):
        code, stdout, err = run(capsys, "g2", "--t-max", "1e299s",
                                "--dt", "1e298s", "--total")
        assert (code, err) == (0, "")
        assert re.fullmatch(
            r"total: peak g2 = \d\.\d{4} at tau = \d(\.\d+)?e\+30\d ns\n",
            stdout)


# -- grammar fuzz --------------------------------------------------------
#
# Each option value is drawn from edge values one time in four, else
# from valid ones.  Valid values keep a grid, a scan or a fit to
# milliseconds, and no pair of values makes a grid that numpy would
# allocate rather than refuse (20 ns over 1e-30 s is 2e22 points).  "@"
# values name the files of _fuzz_files.

def _pool(valid, edge):
    return st.integers(0, 3).flatmap(
        lambda k: st.sampled_from(edge if k == 0 else valid))


_TIME = _pool(("20ns", "2ns"), ("0ns", "-5ns", "nanns", "infns", "1e300s",
                                "1e-30s", "5", "5MHz"))
_FREQ = _pool(("10MHz", "-10MHz"), ("0MHz", "nanMHz", "infMHz", "1e300MHz",
                                    "1e-30MHz", "5", "5ns"))
_FLOAT = _pool(("0", "0.01"), ("-1", "nan", "inf", "1e300", "1e-30", "x"))
_INT_EDGE = ("0", "-1", "nan", "1e300", "2.5")
_PARAMS = _pool(("weak", "strong", "spectrum", "@params"),
                ("nope", "@empty", "@badjson", "@nanjson", "@dir",
                 "@missing"))
_OUTPUT = _pool(("@out",), ("@dir", "@nodir"))
_NOT_A_TABLE = ("@empty", "@header", "@dir", "@missing", "@params")
_STREAM = _pool(("@clk", "@csv"), ("@empty", "@header", "@dir", "@missing",
                                   "@g2"))
_EPS = {"--eps-init": _FLOAT, "--eps-minus": _FLOAT, "--eps-plus": _FLOAT}
_FIT = {"--restarts": _pool(("1",), _INT_EDGE),
        "--maxfev": _pool(("1", "2"), _INT_EDGE)}   # never the defaults


def _argv(command, positional=(), required=None, optional=None):
    """argv strategy: command, positional values (None drops one), every
    `required` option and any subset of the `optional` ones; an option
    whose pool is None is a flag."""
    options = st.fixed_dictionaries(required or {}, optional={
        name: st.none() if pool is None else pool
        for name, pool in (optional or {}).items()})
    return st.tuples(st.tuples(*positional), options).map(
        lambda drawn: [*command, *(p for p in drawn[0] if p is not None),
                       *(item for name, value in drawn[1].items()
                         for item in ((name,) if value is None
                                      else (name, value)))])


_ARGV = st.one_of(
    _argv(["g2"], optional={
        "--params": _PARAMS, "--first": _pool(("sigma-", "sigma+"), ("pi",)),
        "--second": st.sampled_from(("sigma-", "sigma+", "both")),
        "--total": None, "--t-max": _TIME, "--dt": _TIME, "-o": _OUTPUT,
        **_EPS}),
    _argv(["purity"], optional={
        "--params": _PARAMS, "--t-window": _TIME, "--t-max": _TIME,
        "--dt": _TIME, "-o": _OUTPUT}),
    _argv(["spectrum"], optional={
        "--params": _PARAMS, "--lo": _FREQ, "--hi": _FREQ,
        "--points": _pool(("3", "1"), _INT_EDGE), "--scale": _FLOAT,
        "--background": _FLOAT, "--dips": None, "-o": _OUTPUT}),
    _argv(["correlate"], (_STREAM, st.one_of(st.none(), _STREAM)), optional={
        "--bin": _TIME, "--window": _TIME,
        "--pol-a": _pool(("sigma-", "pi", "sigma+"), ("x",)),
        "--pol-b": st.sampled_from(("sigma-", "sigma+")),
        "--wavelength": st.sampled_from(("397", "866")), "-o": _OUTPUT}),
    _argv(["fit", "spectrum"], (_pool(("@spectrum",), _NOT_A_TABLE),), {
        "--free": _pool(("omega_866", "scale,background"),
                        ("nope", ",", "eps_init")), **_FIT}, {
        "--params": _PARAMS, "--seed": _pool(("1",), _INT_EDGE),
        "--scale": _FLOAT, "--background": _FLOAT}),
    _argv(["fit", "g2"], (_pool(("@g2",), _NOT_A_TABLE),), {
        "--free": _pool(("omega_397", "omega_397,eps_init"),
                        ("nope", ",", "scale")), **_FIT}, {
        "--params": _PARAMS, "--kinds": _pool(
            ("total", "sigma-|sigma-"), ("sigma-|sigma-,sigma-|sigma+",
                                         "nope")), **_EPS}))


def _fuzz_files(root: Path) -> dict[str, str]:
    """Pool key -> path of every fixture file the grammar names."""
    files = {key: root / name for key, name in (
        ("@params", "p.json"), ("@empty", "empty.csv"),
        ("@badjson", "bad.json"), ("@nanjson", "nan.json"),
        ("@dir", "adir"), ("@missing", "missing.csv"),
        ("@out", "out.csv"), ("@nodir", "nodir/out.csv"),
        ("@g2", "g2.csv"), ("@spectrum", "spec.csv"),
        ("@header", "header.csv"), ("@clk", "a.clk"),
        ("@csv", "a.csv"))}
    weak = get_preset("weak")
    weak.save(files["@params"])
    files["@empty"].write_text("")
    files["@badjson"].write_text("{")
    files["@nanjson"].write_text(json.dumps(
        {**weak.to_dict(), "omega_397_mhz": math.nan}))
    files["@dir"].mkdir()
    minus, plus = corr.g2_pair(weak, "sigma-",
                               corr.default_grid(20e-9, 2e-9))
    corr.write_table_csv(files["@g2"], minus.tau * 1e9, {
        "sigma-|sigma-": minus.values, "sigma-|sigma+": plus.values,
        "total": 0.5 * (minus.values + plus.values)}, "tau_ns")
    axis = corr.default_spectrum_grid(points=9)
    corr.write_table_csv(files["@spectrum"], axis / TWO_PI / 1e6, {
        "spectrum": corr.excitation_spectrum(
            get_preset("spectrum"), axis).values}, "delta_866_mhz")
    files["@header"].write_text("tau_ns,total\n")
    files["@csv"].write_text(_STREAM_A)
    save_stream(files["@clk"], load_stream(files["@csv"]))
    return {key: str(path) for key, path in files.items()}


def _main_in_bounds(argv: list[str], files: dict[str, str]) -> None:
    """cli.main on argv, its @keys replaced by files, returns 0-3, raises
    nothing and lets no warning escape; a nonzero exit ends in one line
    of error, after any warning: lines."""
    argv = [files.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert code in (0, 1, 2, 3), (argv, code)
    if code:
        *warned, last = err.getvalue().splitlines() or [""]
        assert last.startswith(("error: ", "numerical failure: ")) and all(
            line.startswith("warning: ") for line in warned), (argv, warned,
                                                                last)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    return _fuzz_files(tmp_path_factory.mktemp("fuzz"))


class TestGrammarFuzz:
    """The exit-code contract over the argument grammar of g2, purity,
    spectrum, correlate and fit.  The examples share one process, so
    those that follow one on the same parameter set read the Model it
    kept."""

    @settings(max_examples=300, database=None)
    @given(argv=_ARGV)
    def test_main_exits_in_contract(self, fuzz_files, argv):
        _main_in_bounds(argv, fuzz_files)

    @pytest.mark.parametrize("command", [["g2"], ["purity", "-o", "@out"]])
    def test_grid_whose_ns_axis_overflows(self, capsys, fuzz_files,
                                          command):
        # found by the grammar: at the spectrum preset's fastest rate,
        # 1.7e8/s, the model takes t = 1e300 s, and tau * 1e9 overflowed
        # into the ns column and the peak line
        argv = [fuzz_files.get(a, a) for a in command]
        code, stdout, err = run(capsys, *argv, "--params", "spectrum",
                                "--t-max", "1e300s", "--dt", "1e300s")
        assert (code, stdout) == (1, "")
        assert err == ("error: --t-max 1e+300 s overflows in ns, the unit "
                       "of every delay column\n")

    def test_purity_without_output_prints_no_ns_axis(self, capsys):
        code, stdout, err = run(capsys, "purity", "--params", "spectrum",
                                "--t-max", "1e300s", "--dt", "1e300s")
        assert (code, err) == (0, "")
        assert stdout.startswith("pair purity p(24 ns) = ")

    @pytest.mark.parametrize("free", ["scale,background", "omega_866,scale"])
    def test_free_scale_may_start_anywhere(self, capsys, fuzz_files, free):
        # a free scale is profiled: its initial value is not in chi2
        code, stdout, err = run(capsys, "fit", "spectrum",
                                fuzz_files["@spectrum"], "--free", free,
                                "--restarts", "1", "--maxfev", "1",
                                "--scale", "1e300")
        assert (code, err) == (0, "")
        assert "\n  scale = " in stdout

    def test_held_scale_that_overflows_chi2(self, capsys, fuzz_files):
        # found by the grammar: least_squares warned of overflow in its
        # cost and the fit went on
        code, stdout, err = run(capsys, "fit", "spectrum",
                                fuzz_files["@spectrum"], "--free",
                                "omega_866", "--restarts", "1",
                                "--maxfev", "1", "--scale", "1e300")
        assert (code, stdout) == (1, "")
        assert err == ("error: chi2 on this data and its err overflows at "
                       "scale 1e+300 and background 0\n")
