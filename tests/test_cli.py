"""Command line interface: option parsing, outputs, exit codes."""

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
from ionpair import correlations as corr
from ionpair.cli import _print_fit, main, parse_freq, parse_time, parse_time_ps
from ionpair.correlations import read_table_csv
from ionpair.fitting import (AFFINE_PARAMS, ERROR_PARAMS, PHYSICS_PARAMS,
                             FitResult)
from ionpair.params import TWO_PI, format_angle, get_preset, parse_angle
from ionpair.streams import load_stream


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

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(capsys, "g2", "--t-max", "100ns", "--dt", "2ns",
                       "-o", str(out))[0] == 0
        assert a.read_bytes() == b.read_bytes()


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

    def test_builds_no_g2_curve(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("purity built a g2 curve")

        for name in ("g2_pair", "g2_conditioned", "g2_total"):
            monkeypatch.setattr(corr, name, refuse)
        out = tmp_path / "p.csv"
        code, stdout, _ = run(capsys, "purity", "--t-max", "100ns",
                              "--dt", "1ns", "-o", str(out))
        assert code == 0
        printed = float(re.search(r"p\(24\.0 ns\) = (\S+)", stdout).group(1))
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

    @pytest.mark.parametrize("flag, value, field", [
        ("--dark-rate", "nan", "dark_rate must be finite"),
        ("--dark-rate", "inf", "dark_rate must be finite"),
        ("--crosstalk", "nan", "crosstalk must be finite"),
        ("--detect", "1.5", "efficiency must lie in [0, 1]"),
    ])
    def test_bad_detector_setting_names_the_field(self, capsys, tmp_path,
                                                  flag, value, field):
        out = tmp_path / "x.clk"
        code, _, err = run(capsys, "simulate", "--duration", "10us",
                           "--detect", "0.5", flag, value, "-o", str(out))
        assert code == 1 and field in err
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
