"""Command line interface: option parsing, outputs, exit codes."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ionpair
from ionpair.cli import main, parse_freq, parse_time, parse_time_ps
from ionpair.correlations import read_table_csv
from ionpair.params import TWO_PI, get_preset
from ionpair.streams import load_stream


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_autocorrelate_single_stream(self, capsys, tmp_path):
        out = tmp_path / "em.clk"
        run(capsys, "simulate", "--duration", "2ms", "--seed", "3",
            "-o", str(out))
        code, stdout, _ = run(capsys, "correlate", str(out),
                              "--pol-a", "sigma-", "--pol-b", "sigma-",
                              "--bin", "10ns", "--window", "500ns")
        assert code == 0
        assert "pairs =" in stdout


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

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "g2", "--help")[0] == 0

    def test_selftest_passes(self, capsys):
        code, stdout, _ = run(capsys, "selftest")
        assert code == 0
        assert "all checks passed" in stdout

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
