"""The two benchmark workloads and the four parts they are made of.

Each workload drives ``ionpair.cli.main`` in-process as a closed loop
from one client: a command starts only after the previous one returned.
A pass is one round of the workload's timed commands on inputs made from
(seed, pass index) before the pass starts; output checks run after it.

model   = fit + sweep: the master-equation, correlation and fitting layers
    fit        a joint g2 fit and a spectrum fit from displaced starts
    sweep      five characterisation commands per random weak-preset point
clicks  = clickloop + replay: the sampler, stream and correlator layers
    clickloop  simulate + detect + write 600 ms of light, then correlate
    replay     correlate recorded detector arms at four geometries
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np
from scipy.integrate import cumulative_trapezoid

from ionpair import correlations as corr
from ionpair import streams
from ionpair.correlator import (CorrelatorConfig, correlate,
                                correlate_brute_force)
from ionpair.params import TWO_PI, preset_spectrum, preset_weak
from ionpair.trajectory import ClickStream


class SetupError(RuntimeError):
    """A set-up or warm-up command failed; the run cannot measure."""


def read_table(path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """('# key = value' meta, columns) of a CSV the program wrote."""
    meta: dict[str, str] = {}
    rows: list[list[str]] = []
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
            elif line.strip():
                rows.append(next(csv.reader([line])))
    header, body = rows[0], rows[1:]
    data = np.array([[float(c) for c in row] for row in body])
    return meta, {name: data[:, j] for j, name in enumerate(header)}


def _floats(text: str, pattern: str) -> list[float]:
    return [float(m) for m in re.findall(pattern, text, flags=re.M)]


def _rel(value: float, truth: float) -> float:
    return abs(value - truth) / abs(truth)


class Workload:
    """Protocol shared by the four workloads."""

    name = ""
    unit = ""                        # what work_per_s counts

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def rng(self, k: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, k])

    def must(self, run, argv):
        res = run(argv)
        if res.rc != 0:
            raise SetupError(f"{' '.join(argv)} exited {res.rc}: "
                             f"{res.stderr.strip()}")
        return res

    def setup(self, run) -> None:
        """Make the inputs shared by all passes."""

    def warmup(self, run) -> None:
        """One untimed run so lazy set-up ends before timing starts."""

    def commands(self, k: int) -> list[tuple[str, list[str]]]:
        """Write pass k's inputs; return its (label, argv) commands."""
        raise NotImplementedError

    def check(self, k: int, results: dict) -> dict[str, str]:
        """Failed output checks of pass k, as label -> reason."""
        raise NotImplementedError

    def work(self, k: int, results: dict) -> tuple[float, float]:
        """(units of work done, seconds spent doing it) in pass k."""
        return 1.0, sum(r.seconds for r in results.values())

    def final_check(self) -> list[str]:
        """Checks that need only be made once per run."""
        return []


# -- fit -----------------------------------------------------------------

class Fit(Workload):
    """Joint g2 fit and spectrum fit back to the parameters.

    The slowest path a user runs; fitting, correlations and
    dynamics.propagate do all of its work.  Both fits start from the
    displaced points of acceptance criterion 10 and run one Nelder-Mead start
    (--restarts 1): with the default five, about one noise realization in
    six leaves chi2 above the stop target and buys four extra starts,
    which makes a per-seed time too bimodal to compare.  The spectrum
    counts are 25 times those of criterion 10 so that the statistical
    error of every free parameter (1 % for scale) sits far inside the 5 %
    truth check.
    """

    name = "fit"
    unit = "fits"
    G2_NOISE = 0.1
    SCALE, BACKGROUND = 1.6e6, 5000.0
    KINDS = ("sigma-|sigma-", "sigma-|sigma+")

    def setup(self, run):
        self.g2_truth = preset_weak()
        self.spec_truth = preset_spectrum()
        self.grid = corr.default_grid(400e-9, 2e-9)
        minus, plus = corr.g2_pair(self.g2_truth, "sigma-", self.grid)
        self.curves = (minus.values, plus.values)
        self.axis = np.linspace(-TWO_PI * 30e6, TWO_PI * 30e6, 161)
        self.spectrum = corr.excitation_spectrum(
            self.spec_truth, self.axis, self.SCALE, self.BACKGROUND).values
        self.g2_truth.replace(omega_397=TWO_PI * 7.5e6,
                              omega_866=TWO_PI * 1.8e6).save(
            self.path("g2_start.json"))
        self.spec_truth.replace(omega_866=TWO_PI * 2.1e6, b_field=2.9).save(
            self.path("spectrum_start.json"))

    def _write_inputs(self, rng):
        for kind, values, name in zip(self.KINDS, self.curves,
                                      ("g2_minus.csv", "g2_plus.csv")):
            noisy = values + rng.normal(0.0, self.G2_NOISE, values.size)
            corr.write_table_csv(
                self.path(name), self.grid * 1e9,
                {kind: noisy, "err": np.full(values.size, self.G2_NOISE)},
                "tau_ns")
        corr.write_table_csv(
            self.path("spectrum.csv"), self.axis / TWO_PI / 1e6,
            {"counts": rng.poisson(self.spectrum).astype(float)},
            "delta_866_mhz")

    def warmup(self, run):
        self._write_inputs(self.rng(2**32 - 1))
        self.must(run, ["fit", "spectrum", self.path("spectrum.csv"),
                        "--params", self.path("spectrum_start.json"),
                        "--free", "omega_866", "--restarts", "1",
                        "--maxfev", "10"])
        self.must(run, ["g2", "--params", self.path("g2_start.json"),
                        "--t-max", "40ns", "--dt", "2ns"])

    def commands(self, k):
        self._write_inputs(self.rng(k))
        for name in ("g2_fit.json", "spectrum_fit.json"):
            Path(self.path(name)).unlink(missing_ok=True)
        return [
            ("fit_g2", ["fit", "g2", self.path("g2_minus.csv"),
                        self.path("g2_plus.csv"),
                        "--params", self.path("g2_start.json"),
                        "--kinds", ",".join(self.KINDS),
                        "--free", "omega_397,omega_866", "--restarts", "1",
                        "--save-params", self.path("g2_fit.json")]),
            ("fit_spectrum", ["fit", "spectrum", self.path("spectrum.csv"),
                              "--params", self.path("spectrum_start.json"),
                              "--free", "omega_866,b_field,scale,background",
                              "--restarts", "1",
                              "--save-params",
                              self.path("spectrum_fit.json")]),
        ]

    def check(self, k, results):
        mhz = TWO_PI * 1e6
        expect = {
            "fit_g2": ("g2_fit.json", {
                "omega_397_mhz": self.g2_truth.omega_397 / mhz,
                "omega_866_mhz": self.g2_truth.omega_866 / mhz}, {}),
            "fit_spectrum": ("spectrum_fit.json", {
                "omega_866_mhz": self.spec_truth.omega_866 / mhz,
                "b_field_gauss": self.spec_truth.b_field},
                {"scale": self.SCALE, "background": self.BACKGROUND}),
        }
        failed = {}
        for label, (saved, physics, printed) in expect.items():
            res = results[label]
            if not res.stdout.startswith("converged"):
                failed[label] = "fit did not converge"
                continue
            try:
                with open(self.path(saved), encoding="utf-8") as fh:
                    got = json.load(fh)
            except (OSError, ValueError) as exc:
                failed[label] = f"no saved parameters: {exc}"
                continue
            for key, truth in physics.items():
                if not _rel(got[key], truth) <= 0.05:
                    failed[label] = f"{key} {got[key]} vs truth {truth}"
            for key, truth in printed.items():
                found = _floats(res.stdout, rf"^\s*{key} = (\S+)")
                if len(found) != 1 or not _rel(found[0], truth) <= 0.05:
                    failed[label] = f"{key} {found} vs truth {truth}"
        return failed

    def work(self, k, results):
        return 2.0, sum(r.seconds for r in results.values())


# -- sweep ---------------------------------------------------------------

class Sweep(Workload):
    """Five characterisation commands per weak-preset parameter point.

    The same parameter set feeds five commands on long grids at one BLAS
    thread, which shows per-parameter-set reuse (purity alone builds the
    Liouvillian three times) and the single-thread cost of propagating
    2001-point grids.  The many short commands expose cli and params
    overhead.  Each pass draws new points with B in [1, 6] G and
    delta_397 in [-20, -10] MHz, so no pass repeats an earlier input.
    """

    name = "sweep"
    unit = "points"
    POINTS = 6                       # parameter points per pass
    LABELS = ("g2_both", "g2_total", "g2_errors", "purity", "spectrum_dips")

    def _point(self, params, name):
        params.save(self.path(name))
        return self.path(name)

    def _argvs(self, p, tag):
        return [
            ("g2_both", ["g2", "--params", p, "--second", "both",
                         "-o", self.path(f"g2_{tag}.csv")]),
            ("g2_total", ["g2", "--params", p, "--total"]),
            ("g2_errors", ["g2", "--params", p, "--eps-init", "0.02",
                           "--eps-minus", "0.01", "--eps-plus", "0.01"]),
            ("purity", ["purity", "--params", p]),
            ("spectrum_dips", ["spectrum", "--params", p, "--dips",
                               "-o", self.path(f"spectrum_{tag}.csv")]),
        ]

    def warmup(self, run):
        p = self._point(preset_weak(), "warm.json")
        for _, argv in self._argvs(p, "warm"):
            self.must(run, argv)

    def commands(self, k):
        # a Latin hypercube, so that every pass covers both ranges
        # evenly: a point's cost grows about 1.7x from 1 to 6 G
        rng, n = self.rng(k), self.POINTS
        b_fields = 1.0 + 5.0 * (np.arange(n) + rng.random(n)) / n
        deltas = -20.0 + 10.0 * (rng.permutation(n) + rng.random(n)) / n
        cmds = []
        for j in range(n):
            params = preset_weak().replace(
                b_field=b_fields[j], delta_397=TWO_PI * deltas[j] * 1e6)
            for name in (f"g2_{j}.csv", f"spectrum_{j}.csv"):
                Path(self.path(name)).unlink(missing_ok=True)
            p = self._point(params, f"point_{j}.json")
            cmds += [(f"{label}#{j}", argv)
                     for label, argv in self._argvs(p, str(j))]
        return cmds

    def check(self, k, results):
        failed = {}
        for j in range(self.POINTS):
            point = {label: results[f"{label}#{j}"] for label in self.LABELS}
            for label, why in self._check_point(j, point).items():
                failed[f"{label}#{j}"] = why
        return failed

    def _check_point(self, j, results):
        failed = {}
        for label, res in results.items():
            if re.search(r"\b(nan|inf)\b", res.stdout, flags=re.I):
                failed[label] = "non-finite value printed"
        try:
            _, g2 = read_table(self.path(f"g2_{j}.csv"))
            values = np.array([g2["sigma-|sigma-"], g2["sigma-|sigma+"]])
            if g2["tau_ns"].size != 2001 or g2["tau_ns"][0] != 0.0:
                failed["g2_both"] = "unexpected delay grid"
            elif not np.all(np.isfinite(values)):
                failed["g2_both"] = "non-finite g2"
            elif np.any(np.abs(values[:, 0]) > 1e-9):
                failed["g2_both"] = f"g2(0) = {values[:, 0]} on sigma channels"
        except (OSError, KeyError, ValueError, IndexError) as exc:
            failed["g2_both"] = f"unreadable output: {exc!r}"
        counts = {"g2_total": 1, "g2_errors": 2}
        for label, n in counts.items():
            if len(_floats(results[label].stdout, r"peak g2 = (\S+)")) != n:
                failed[label] = "missing peak lines"
        if len(_floats(results["purity"].stdout, r"= (\S+)$")) != 4:
            failed["purity"] = "missing purity lines"
        try:
            _, spec = read_table(self.path(f"spectrum_{j}.csv"))
            out = results["spectrum_dips"].stdout
            dips = re.search(r"^dips_mhz:(.*)$", out, flags=re.M)
            raman = re.search(r"^raman_mhz:(.*)$", out, flags=re.M)
            if spec["rate"].size != 401 or not np.all(spec["ok"] == 1.0) \
                    or not np.all(np.isfinite(spec["rate"])):
                failed["spectrum_dips"] = "failed spectrum points"
            elif not dips or not raman or \
                    len(dips.group(1).split()) != len(raman.group(1).split()):
                failed["spectrum_dips"] = "dip count differs from raman count"
        except (OSError, KeyError, ValueError, IndexError) as exc:
            failed["spectrum_dips"] = f"unreadable output: {exc!r}"
        return failed

    def work(self, k, results):
        return float(self.POINTS), sum(r.seconds for r in results.values())


# -- clickloop -----------------------------------------------------------

CLICK_ARGS = ["--params", "weak", "--detect", "0.5", "--dark-rate", "200"]
DARK_RATE = 200.0
DURATION_S = 0.6


class ClickLoop(Workload):
    """Simulate, detect and write 600 ms of light, then correlate arm 1.

    About 1.17 M events flow through the jump loop, detect and the binary
    writes; trajectory does most of the work and the master-equation and
    fitting layers do none.
    """

    name = "clickloop"
    unit = "events"

    def setup(self, run):
        # regression-theorem prediction for the sigma-sigma- histogram
        model = corr.g2_conditioned(preset_weak(), "sigma-", "sigma-",
                                    corr.default_grid(400e-9, 0.5e-9))
        self.model_tau = model.tau
        self.model_excess = cumulative_trapezoid(model.values - 1.0,
                                                 model.tau, initial=0.0)

    def warmup(self, run):
        self.must(run, ["simulate", *CLICK_ARGS, "--duration", "2ms",
                        "--seed", "1", "-o", self.path("warm.bin")])
        self.must(run, ["correlate", self.path("warm-1.bin"), "--bin", "4ns",
                        "--window", "400ns"])

    def commands(self, k):
        for name in ("run-1.bin", "run-2.bin", "hist.csv"):
            Path(self.path(name)).unlink(missing_ok=True)
        return [
            ("simulate", ["simulate", *CLICK_ARGS, "--duration", "600ms",
                          "--seed", str(self.seed * 1000 + k),
                          "-o", self.path("run.bin")]),
            ("correlate", ["correlate", self.path("run-1.bin"),
                           "--bin", "4ns", "--window", "400ns",
                           "-o", self.path("hist.csv")]),
        ]

    def events(self, results) -> int:
        found = _floats(results["simulate"].stdout, r"^emitted (\d+) photons")
        return int(found[0]) if found else 0

    def check(self, k, results):
        failed = {}
        if self.events(results) < 1_000_000:
            failed["simulate"] = "fewer than 1e6 emitted photons"
        try:
            meta, hist = read_table(self.path("hist.csv"))
            rate_a, rate_b = float(meta["rate_a"]), float(meta["rate_b"])
            tau = hist["tau_ns"] * 1e-9
            counts = hist["counts"][tau > 0]
            width = 4e-9
            edges = np.append(tau[tau > 0] - width / 2, tau[-1] + width / 2)
            excess = np.diff(np.interp(edges, self.model_tau,
                                       self.model_excess))
            # dark counts are uncorrelated: they dilute the excess by the
            # squared signal fraction of the arm
            signal = 1.0 - DARK_RATE / rate_a
            expected = rate_a * rate_b * DURATION_S * (
                signal ** 2 * excess + np.diff(edges))
            red = float(((counts - expected) ** 2 / expected).sum()) \
                / counts.size
            if not red < 2.0:
                failed["correlate"] = f"chi2/dof {red:.3f} against the " \
                                      "regression theorem"
        except (OSError, KeyError, ValueError, IndexError) as exc:
            failed["correlate"] = f"unreadable output: {exc!r}"
        return failed

    def work(self, k, results):
        return float(self.events(results)), results["simulate"].seconds


# -- replay --------------------------------------------------------------

class Replay(Workload):
    """Correlate recorded detector arms: the lab-data path.

    Set-up records both arms with the seeded simulate + detect and
    mirrors arm 1 as CSV.  streams reads and correlator do the timed
    work; the sampler does none.  The +-50 us windows (about 6 M pairs
    each) are the only inputs above the correlator's 4 M-pair chunk, and
    the three of them keep correlate the larger part of a pass next to
    the CSV read.
    """

    name = "replay"
    unit = "pairs"
    GEOMETRIES = {            # label -> (arm b or None, bin, window)
        "auto_4ns": (None, "4ns", "400ns"),
        "cross_1ns": ("run-2.bin", "1ns", "2us"),
        "auto_10ns": (None, "10ns", "50us"),
        "cross_10ns": ("run-2.bin", "10ns", "50us"),
    }

    def setup(self, run):
        self.must(run, ["simulate", *CLICK_ARGS, "--duration", "600ms",
                        "--seed", str(self.seed), "-o", self.path("run.bin")])
        arm = streams.read_stream(self.path("run-1.bin"))
        streams.write_stream_csv(self.path("run-1.csv"), arm)

    def warmup(self, run):
        self.must(run, ["correlate", self.path("run-2.bin"), "--bin", "4ns",
                        "--window", "400ns"])

    def commands(self, k):
        for name in ("auto_csv.csv", "auto_bin.csv"):
            Path(self.path(name)).unlink(missing_ok=True)
        cmds = [("auto_4ns_csv", ["correlate", self.path("run-1.csv"),
                                  "--bin", "4ns", "--window", "400ns",
                                  "-o", self.path("auto_csv.csv")])]
        for label, (other, width, window) in self.GEOMETRIES.items():
            argv = ["correlate", self.path("run-1.bin")]
            if other:
                argv.append(self.path(other))
            argv += ["--bin", width, "--window", window]
            if label == "auto_4ns":
                argv += ["-o", self.path("auto_bin.csv")]
            cmds.append((label, argv))
        cmds.append(("auto2_10ns", ["correlate", self.path("run-2.bin"),
                                    "--bin", "10ns", "--window", "50us"]))
        return cmds

    def pairs(self, res) -> int:
        found = _floats(res.stdout, r"^pairs = (\d+),")
        return int(found[0]) if found else 0

    def check(self, k, results):
        failed = {label: "no pairs reported" for label, res in results.items()
                  if self.pairs(res) <= 0}
        try:
            _, from_csv = read_table(self.path("auto_csv.csv"))
            _, from_bin = read_table(self.path("auto_bin.csv"))
            if not np.array_equal(from_csv["counts"], from_bin["counts"]):
                failed["auto_4ns_csv"] = "CSV and binary reads disagree"
        except (OSError, KeyError, ValueError, IndexError) as exc:
            failed["auto_4ns_csv"] = f"unreadable output: {exc!r}"
        return failed

    def work(self, k, results):
        return (float(sum(self.pairs(r) for r in results.values())),
                sum(r.seconds for r in results.values()))

    def final_check(self):
        """correlate is bin-exact against the brute-force oracle on a
        prefix of the recorded arms, for every timed geometry."""
        a = streams.read_stream(self.path("run-1.bin"))
        b = streams.read_stream(self.path("run-2.bin"))
        cut = int(a.timestamps_ps[3000])

        def prefix(s):
            keep = s.timestamps_ps < cut
            return ClickStream(s.timestamps_ps[keep], s.pol[keep],
                               s.wavelength[keep], cut, s.channel)

        a, b = prefix(a), prefix(b)
        problems = []
        to_ps = {"ns": 1000, "us": 1_000_000}
        for label, (other, width, window) in self.GEOMETRIES.items():
            cfg = CorrelatorConfig(int(width[:-2]) * to_ps[width[-2:]],
                                   int(window[:-2]) * to_ps[window[-2:]])
            second = b if other else None
            if not np.array_equal(correlate(a, second, cfg).counts,
                                  correlate_brute_force(a, second, cfg)):
                problems.append(f"{label}: correlate differs from brute force")
        return problems


# -- the two workloads ----------------------------------------------------

class Composite(Workload):
    """A workload whose pass runs the passes of its parts in turn.

    Each part keeps its files in its own subdirectory and its command
    labels gain the part's name as a prefix ("sweep.purity#3").
    work_per_s is the rate of one part, RATE_PART, so that a part which
    takes the smaller share of wall_s still has a metric of its own.
    """

    PARTS: tuple = ()
    RATE_PART = ""

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.parts = []
        for cls in self.PARTS:
            (workdir / cls.name).mkdir(parents=True, exist_ok=True)
            self.parts.append(cls(seed, workdir / cls.name))

    def _split(self, results) -> dict[str, dict]:
        out: dict[str, dict] = {part.name: {} for part in self.parts}
        for label, res in results.items():
            name, _, rest = label.partition(".")
            out[name][rest] = res
        return out

    def setup(self, run):
        for part in self.parts:
            part.setup(run)

    def warmup(self, run):
        for part in self.parts:
            part.warmup(run)

    def commands(self, k):
        return [(f"{part.name}.{label}", argv) for part in self.parts
                for label, argv in part.commands(k)]

    def check(self, k, results):
        split = self._split(results)
        return {f"{part.name}.{label}": why for part in self.parts
                for label, why in part.check(k, split[part.name]).items()}

    def part_rates(self, k, results) -> dict[str, float]:
        """Each part's units of work per second of its own commands."""
        split = self._split(results)
        rates = {}
        for part in self.parts:
            units, busy = part.work(k, split[part.name])
            rates[part.name] = units / busy if busy > 0 else 0.0
        return rates

    def work(self, k, results):
        part = next(p for p in self.parts if p.name == self.RATE_PART)
        return part.work(k, self._split(results)[part.name])

    def final_check(self):
        return [f"{part.name}: {why}" for part in self.parts
                for why in part.final_check()]


class Model(Composite):
    """The master-equation path: fits back to parameters, then the
    characterisation of fresh parameter points.  wall_s is mostly the
    fits; work_per_s is sweep points per second of the sweep commands."""

    name = "model"
    unit = "sweep points"
    PARTS = (Fit, Sweep)
    RATE_PART = "sweep"


class Clicks(Composite):
    """The click-stream path: record and correlate new light, then
    replay recorded arms.  wall_s is mostly the sampler; work_per_s is
    pairs histogrammed per second of the replay commands, reads included."""

    name = "clicks"
    unit = "replay pairs"
    PARTS = (ClickLoop, Replay)
    RATE_PART = "replay"


WORKLOADS = {w.name: w for w in (Model, Clicks)}
