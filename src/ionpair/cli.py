"""Command line front end.

Subcommands
-----------
g2         conditioned or polarization-blind correlation curves
spectrum   steady-state excitation spectrum versus repumper detuning
purity     pair purity and photon-number summary for one window
simulate   Monte Carlo click streams, optionally through the detector model
correlate  coincidence histogram of recorded click streams
fit        parameter estimation from spectrum or correlation CSV data
selftest   quick internal consistency battery

Times take a unit suffix (ps, ns, us, ms, s), frequencies a cyclic one
(Hz, kHz, MHz, GHz, converted to angular internally) and angles need
pi, rad or deg.  The --params argument is a preset name or a JSON file.
Outputs are plain CSV with '# key = value' provenance headers and are
byte-identical between runs for equal inputs.

Exit codes: 0 success, 1 usage error, 2 unreadable or malformed input
file, 3 numerical failure, 4 selftest failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import atom, correlations as corr, fitting
from .correlator import CorrelatorConfig, correlate, correlate_brute_force
from .dynamics import Model
from .fitting import DataSet, fit_g2_joint, fit_spectrum
from .params import (PRESETS, TWO_PI, ExperimentParams, NumericalError,
                     _to_mhz, get_preset)
from .streams import (StreamFormatError, load_stream, read_stream,
                      save_stream, write_stream)
from .trajectory import (ClickStream, DetectionConfig, DetectorChannel,
                         detect, simulate_emissions)

_TIME_UNITS = {"ps": 1e-12, "ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
_FREQ_UNITS = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}


class _InputError(Exception):
    pass


def _reason(exc: Exception) -> str:
    """The text of `exc`, without the file name an OSError's text adds."""
    return getattr(exc, "strerror", None) or str(exc)


class _UnitError(ValueError, argparse.ArgumentTypeError):
    """A bad unit argument: argparse prints an ArgumentTypeError's text,
    where for a plain ValueError it prints only "invalid ... value"."""


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2); the contract here is exit code 1 for usage
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # accept unit-suffixed negatives such as "--lo -10MHz" and the
        # non-finite "-inf"/"-nan" as values, which the checks then judge
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)",
                                                   re.IGNORECASE)


def _with_unit(text, what, units, factor=1.0, flags=0) -> float:
    """factor times the number in `text` times its required unit."""
    m = re.fullmatch(r"\s*([+-]?[\d.]+(?:[eE][+-]?\d+)?)\s*(%s)\s*"
                     % "|".join(units), str(text), flags)
    if not m:
        raise _UnitError(
            f"{what} {text!r} needs a unit suffix ({'/'.join(units)})")
    value = factor * float(m.group(1)) * next(
        v for k, v in units.items() if k.lower() == m.group(2).lower())
    if not math.isfinite(value):
        raise _UnitError(f"{text!r} overflows to {value}")
    return value


def parse_time(text: str) -> float:
    """'24ns' -> 2.4e-8; the unit suffix is required."""
    return _with_unit(text, "time", _TIME_UNITS)


def parse_time_ps(text: str) -> int:
    """'1ns' -> 1000; the time must be a whole number of picoseconds to
    within the parse's round-off, 4 eps."""
    ps = parse_time(text) / 1e-12
    if not math.isfinite(ps):
        raise _UnitError(f"time {text!r} overflows to {ps} ps")
    if abs(ps - round(ps)) > 4.0 * np.finfo(float).eps * abs(ps):
        raise _UnitError(f"time {text!r} is not a whole number of "
                         "picoseconds")
    return round(ps)


def parse_freq(text: str) -> float:
    """'-15MHz' -> -2 pi 15e6 rad/s; the unit suffix is required."""
    return _with_unit(text, "frequency", _FREQ_UNITS, TWO_PI, re.IGNORECASE)


def _load_params(spec: str) -> ExperimentParams:
    if spec in PRESETS:
        return get_preset(spec)
    if not Path(spec).exists():
        raise _InputError(
            f"{spec!r} is neither a preset ({', '.join(sorted(PRESETS))}) "
            f"nor an existing parameter file")
    try:
        return ExperimentParams.load(spec)
    except (ValueError, OSError) as exc:
        raise _InputError(
            f"cannot read parameters from {spec}: {_reason(exc)}")


@contextmanager
def _sized(request: str):
    """A MemoryError inside is a usage error naming the `request`."""
    try:
        yield
    except MemoryError:
        raise ValueError(f"{request}, more than fits in memory") from None


def _grid(args, ns: bool) -> np.ndarray:
    """The --t-max / --dt delay grid; ns if its delays are printed or
    written in ns, which must then be finite."""
    with _sized(f"--t-max {args.t_max:g} s at --dt {args.dt:g} s needs a "
                f"grid of {corr._steps(args.t_max, args.dt) + 1} points"):
        grid = corr.default_grid(args.t_max, args.dt)
    if ns and not math.isfinite(args.t_max * 1e9):  # Python floats: inf
        raise ValueError(f"--t-max {args.t_max:g} s overflows in ns, the "
                         "unit of every delay column")
    return grid


def _errors(args) -> corr.ErrorModel:
    """The --eps-* detection error model."""
    return corr.ErrorModel(args.eps_init, args.eps_minus, args.eps_plus)


def _save(args, x, columns, x_label, params=None, **meta) -> None:
    """Write the -o table, if given, headed by command, params and meta."""
    if args.output:
        if params is not None:
            meta["params"] = params.fingerprint()
        corr.write_table_csv(args.output, x, columns, x_label,
                             meta={"command": args.command, **meta})
        print(f"wrote {args.output}")


# -- g2 ------------------------------------------------------------------

# A peak delay of this many ns or more prints in 6 significant digits,
# not in hundredths of a ns with up to 300 digits before the point
_PEAK_FIXED_NS = 1e9


def _peak_ns(tau: float) -> str:
    ns = tau * 1e9
    return f"{ns:.2f}" if ns < _PEAK_FIXED_NS else f"{ns:.6g}"


def cmd_g2(args) -> int:
    errors = _errors(args)
    # the column names do not carry the errors, the header does
    eps = {k: v for k, v in asdict(errors).items() if v}
    if args.total and eps:
        raise ValueError("--total is polarization-blind and takes no "
                         "--eps-* detection errors")
    params = _load_params(args.params)
    grid = _grid(args, ns=True)
    if args.total:
        curves = [corr.g2_total(params, grid)]
    else:
        minus, plus = corr.g2_pair(params, args.first, grid, errors)
        curves = {"sigma-": [minus], "sigma+": [plus],
                  "both": [minus, plus]}[args.second]
    for c in curves:
        tau, peak = c.peak()
        print(f"{c.kind}: peak g2 = {peak:.4f} at tau = {_peak_ns(tau)} ns")
    _save(args, grid * 1e9, {c.kind: c.values for c in curves}, "tau_ns",
          params, first="-" if args.total else args.first, **eps)
    return 0


# -- spectrum ------------------------------------------------------------

def cmd_spectrum(args) -> int:
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    params = _load_params(args.params)
    with _sized(f"--points asks for a spectrum of {args.points} points"):
        grid = corr.default_spectrum_grid(args.lo, args.hi, args.points)
        sc = corr.excitation_spectrum(params, grid, scale=args.scale,
                                      background=args.background)
    bad = int(np.sum(~sc.ok))
    if bad:
        print(f"warning: {bad} of {sc.ok.size} points failed to solve",
              file=sys.stderr)
    if args.dips:
        dips = corr.find_dips(sc)
        raman = corr.raman_positions(params)
        print("dips_mhz:", " ".join(f"{_to_mhz(d):.3f}" for d in dips))
        print("raman_mhz:", " ".join(f"{_to_mhz(r):.3f}" for r in raman))
    _save(args, _to_mhz(grid), {"rate": sc.values, "ok": sc.ok.astype(float)},
          "delta_866_mhz", params, scale=args.scale,
          background=args.background)
    return 0


# -- purity --------------------------------------------------------------

def cmd_purity(args) -> int:
    params = _load_params(args.params)
    grid = _grid(args, ns=bool(args.output))     # only -o reads it
    p = corr.purity(params, args.t_window)
    print(f"pair purity p({args.t_window * 1e9:g} ns) = {p:.4f}")
    print(f"pair probability p/(1+p) = {corr.pair_probability(p):.6f}")
    for pol in ("sigma-", "sigma+"):
        n = corr.mean_photon_number(params, pol, args.t_window)
        print(f"mean {pol} photons in window = {n:#.4g}")
    if args.output:
        tau, curve = corr.purity_curve(params, grid)
        _save(args, tau * 1e9, {"purity": curve}, "tau_ns", params)
    return 0


# -- simulate ------------------------------------------------------------

def cmd_simulate(args) -> int:
    params = _load_params(args.params)
    if args.detect is not None:   # checked before any sampling
        arm = lambda pol: DetectorChannel(args.detect, pol,
                                          crosstalk=args.crosstalk,
                                          dark_rate=args.dark_rate)
        config = DetectionConfig(channel_1=arm("sigma-"),
                                 channel_2=arm("sigma+"))
    emissions = simulate_emissions(params, args.duration, args.seed,
                                   max_events=args.max_events)
    print(f"emitted {len(emissions)} photons in "
          f"{emissions.duration_s * 1e3:.3f} ms "
          f"({emissions.rate():.3e} /s)")
    if args.detect is None:
        save_stream(args.output, emissions)
        print(f"wrote {args.output}")
        return 0
    with _sized(f"--dark-rate {args.dark_rate:g}/s over "
                f"{emissions.duration_s:g} s expects "
                f"{args.dark_rate * emissions.duration_s:g} dark counts "
                "per arm"):
        d1, d2 = detect(emissions, config, args.seed)
    out = Path(args.output)
    for tag, stream in (("1", d1), ("2", d2)):
        path = out.with_name(f"{out.stem}-{tag}{out.suffix}")
        save_stream(path, stream)
        print(f"wrote {path} ({len(stream)} clicks, "
              f"{stream.meta['accepted_pol']})")
    return 0


# -- correlate -----------------------------------------------------------

def cmd_correlate(args) -> int:
    config = CorrelatorConfig(bin_width_ps=args.bin, window_ps=args.window)
    streams = [load_stream(p) for p in (args.stream_a, args.stream_b)
               if p is not None]
    if args.wavelength:
        streams = [s.select(wavelength=args.wavelength) for s in streams]
    with _sized(f"--window {args.window} ps at --bin {args.bin} ps needs a "
                f"histogram of {config.n_bins} bins"):
        # without stream_b both sides are one object: no self pairs
        gram = correlate(streams[0], streams[-1], config,
                         pol_a=args.pol_a, pol_b=args.pol_b)
    if gram.flagged:
        print("warning: a stream is empty inside the overlap, "
              "values are unnormalized", file=sys.stderr)
    print(f"pairs = {gram.total_pairs}, rate_a = {gram.rate_a:.4e} /s, "
          f"rate_b = {gram.rate_b:.4e} /s, overlap = {gram.overlap_s:.4f} s")
    _save(args, gram.config.bin_centers_ps() / 1000.0,
          {"counts": gram.counts.astype(float), "g2": gram.values}, "tau_ns",
          bin_ps=config.bin_width_ps, window_ps=config.window_ps,
          total_pairs=gram.total_pairs, rate_a=f"{gram.rate_a:.10g}",
          rate_b=f"{gram.rate_b:.10g}", overlap_s=f"{gram.overlap_s:.10g}",
          pol_a=args.pol_a or "any", pol_b=args.pol_b or "any",
          wavelength=args.wavelength or "any", flagged=gram.flagged)
    return 0


# -- fit -----------------------------------------------------------------

def _read_fit_table(path, kind, x_unit):
    try:
        x, columns, meta = corr.read_table_csv(path)
    except (OSError, ValueError) as exc:
        raise _InputError(f"cannot read {path}: {_reason(exc)}")
    err = columns.pop("err", None)
    candidates = [k for k in columns if k != "ok"]
    if kind not in columns and len(candidates) != 1:
        raise _InputError(
            f"{path}: no column named {kind!r} and no single data column "
            f"to use instead; found: {', '.join(candidates) or 'none'}")
    label = kind if kind in columns else candidates[0]
    try:
        return DataSet(kind, x * x_unit, columns[label], err=err)
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}")


# value and one-sigma text of a fitted parameter by its declared unit
_FIT_TEXT = {
    "mhz": (lambda v: f"2pi x {_to_mhz(v):.6g} MHz",
            lambda s: f"2pi x {_to_mhz(s):.3g} MHz"),
    "angle": (lambda v: f"{v / math.pi:.10g}pi", lambda s: f"{s:.3g} rad"),
    "gauss": (lambda v: f"{v:.5g} G", lambda s: f"{s:.3g} G"),
    None: (lambda v: f"{v:.6g}", lambda s: f"{s:.3g}"),
}


def _print_fit(res) -> None:
    state = "converged" if res.converged else "did not converge"
    print(f"{state}: chi2 = {res.chi2:.2f} over {res.dof} dof "
          f"(reduced {res.reduced_chi2():.3f}), nfev = {res.nfev}")
    for name, value in res.params.items():
        sig = res.sigma.get(name) if res.sigma else None
        text, sig_text = _FIT_TEXT[fitting._DECLARED[name]["unit"]]
        err = "" if sig is None else f" +- {sig_text(sig)}"
        print(f"  {name} = {text(value)}{err}")


def cmd_fit(args) -> int:
    params = _load_params(args.params)
    budget = dict(free=args.free, restarts=args.restarts, seed=args.seed,
                  maxfev=args.maxfev)
    if args.mode == "spectrum":
        data = _read_fit_table(args.data, "spectrum", TWO_PI * 1e6)
        res = fit_spectrum(data, params, scale=args.scale,
                           background=args.background, **budget)
    else:
        kinds = [k.strip() for k in args.kinds.split(",")]
        if len(kinds) != len(args.data):
            raise ValueError(f"--kinds lists {len(kinds)} entries for "
                             f"{len(args.data)} data files")
        datasets = [_read_fit_table(p, k, 1e-9)
                    for p, k in zip(args.data, kinds)]
        res = fit_g2_joint(datasets, params, errors=_errors(args), **budget)
    _print_fit(res)
    if args.save_params:
        res.experiment.save(args.save_params)
        print(f"wrote {args.save_params}")
    return 0


# -- selftest ------------------------------------------------------------

def _selftest_checks():
    import tempfile

    # every check of the weak preset reads this one model
    weak = Model(get_preset("weak"))

    def amplitudes_close():
        for upper in atom.P_LEVELS:
            for branch, gamma in (("SP", 1.0), ("DP", 1.0)):
                tot = sum(t.amplitude ** 2 for t in atom.TRANSITIONS
                          if t.upper == upper and t.branch == branch)
                assert abs(tot - gamma) < 1e-12, (upper, branch, tot)

    def liouvillian_traceless():
        lmat = atom.build_liouvillian(weak.params)
        rng = np.random.default_rng(0)
        r = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = r @ r.conj().T
        rho /= np.trace(rho)
        drho = (lmat @ rho.reshape(-1)).reshape(8, 8)
        # L entries are ~1e8/s, so the cancellation is relative
        assert abs(np.trace(drho)) < 1e-12 * np.linalg.norm(lmat)

    def steady_state_sane():
        rho = weak.steady
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert np.all(np.diag(rho).real > -1e-12)

    def g2_long_time_limit():
        grid = np.linspace(0.0, 80e-6, 161)
        c = corr.g2_conditioned(weak, "sigma-", "sigma+", grid)
        assert abs(c.values[-1] - 1.0) < 1e-3, c.values[-1]

    def weak_peak_regression():
        c = corr.g2_conditioned(weak, "sigma-", "sigma-")
        tau, peak = c.peak()
        assert abs(peak - 16.49) < 0.5, peak
        assert abs(tau - 28.5e-9) < 3e-9, tau

    def correlator_matches_brute_force():
        rng = np.random.default_rng(3)
        ts = np.cumsum(rng.integers(1, 2000, size=400))
        s = ClickStream(ts, np.zeros(400), np.zeros(400),
                        duration_ps=int(ts[-1]) + 1)
        cfg = CorrelatorConfig(bin_width_ps=500, window_ps=10_000)
        assert np.array_equal(correlate(s, None, cfg).counts,
                              correlate_brute_force(s, None, cfg))

    def stream_round_trip():
        rng = np.random.default_rng(4)
        ts = np.cumsum(rng.integers(1, 1000, size=100))
        s = ClickStream(ts, rng.integers(0, 3, 100), rng.integers(0, 2, 100),
                        duration_ps=int(ts[-1]) + 1, channel=1)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "chk.clk"
            write_stream(path, s)
            back = read_stream(path)
        assert np.array_equal(back.timestamps_ps, s.timestamps_ps)
        assert np.array_equal(back.pol, s.pol)

    def sampler_rate_matches_master_equation():
        p = weak.params
        em = simulate_emissions(p, 5e-3, seed=1)
        rho = weak.steady
        want = (p.gamma_sp + p.gamma_dp) * (rho[2, 2].real + rho[3, 3].real)
        assert abs(em.rate() / want - 1.0) < 0.05, em.rate() / want

    return [
        ("decay amplitudes close to unity per level", amplitudes_close),
        ("liouvillian preserves trace", liouvillian_traceless),
        ("steady state is a unit-trace density matrix", steady_state_sane),
        ("conditioned g2 approaches 1 at long delay", g2_long_time_limit),
        ("weak-drive peak regression", weak_peak_regression),
        ("fast correlator equals brute force", correlator_matches_brute_force),
        ("binary stream round trip", stream_round_trip),
        ("jump sampler rate matches master equation",
         sampler_rate_matches_master_equation),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as exc:   # report, keep going
            failures += 1
            print(f"FAIL - {name}: {exc}")
        else:
            print(f"ok   - {name}")
    if failures:
        print(f"{failures} check(s) failed")
        return 4
    print("all checks passed")
    return 0


# -- parser --------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args keeps no state in it, and
    building it anew per main() call cost about 2 ms and left hundreds of
    objects for the cyclic garbage collector."""
    parser = _Parser(prog="ionpair",
                     description="Polarization-correlated photon pairs "
                                 "from a single driven ion")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--params", default="weak",
                       help="preset name (weak/strong/spectrum) or JSON file")

    def add_errors(p):
        p.add_argument("--eps-init", type=float, default=0.0)
        p.add_argument("--eps-minus", type=float, default=0.0)
        p.add_argument("--eps-plus", type=float, default=0.0)

    def add_grid(p):
        p.add_argument("--t-max", type=parse_time, default=1000e-9)
        p.add_argument("--dt", type=parse_time, default=0.5e-9)

    def add_scaling(p):
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--background", type=float, default=0.0)

    p = sub.add_parser("g2", help="correlation curves")
    add_params(p)
    p.add_argument("--first", choices=("sigma-", "sigma+"), default="sigma-")
    p.add_argument("--second", choices=("sigma-", "sigma+", "both"),
                   default="both")
    p.add_argument("--total", action="store_true",
                   help="polarization-blind g2 instead of conditioned")
    add_grid(p)
    add_errors(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_g2)

    p = sub.add_parser("spectrum", help="excitation spectrum")
    add_params(p)
    p.add_argument("--lo", type=parse_freq, default=-TWO_PI * 40e6)
    p.add_argument("--hi", type=parse_freq, default=TWO_PI * 40e6)
    p.add_argument("--points", type=int, default=401)
    add_scaling(p)
    p.add_argument("--dips", action="store_true",
                   help="also report dark-resonance dip positions")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("purity", help="pair purity metrics")
    add_params(p)
    p.add_argument("--t-window", type=parse_time, default=24e-9)
    add_grid(p)
    p.add_argument("-o", "--output",
                   help="write the purity-versus-window curve")
    p.set_defaults(func=cmd_purity)

    p = sub.add_parser("simulate", help="Monte Carlo click streams")
    add_params(p)
    p.add_argument("--duration", type=parse_time, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-events", type=int, default=None)
    p.add_argument("--detect", type=float, default=None, metavar="EFFICIENCY",
                   help="split through two sigma analyzers; writes "
                        "OUT-1/OUT-2 instead of the raw stream")
    p.add_argument("--crosstalk", type=float, default=0.0)
    p.add_argument("--dark-rate", type=float, default=0.0,
                   help="dark counts per second per arm")
    p.add_argument("-o", "--output", required=True,
                   help=".clk binary or .csv text")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("correlate", help="histogram recorded streams")
    p.add_argument("stream_a")
    p.add_argument("stream_b", nargs="?", default=None,
                   help="omit to autocorrelate stream_a")
    p.add_argument("--bin", type=parse_time_ps, default=1000,
                   help="bin width (time with unit, whole ps)")
    p.add_argument("--window", type=parse_time_ps, default=2_000_000,
                   help="correlation window (time with unit, whole ps)")
    p.add_argument("--pol-a", choices=("sigma-", "pi", "sigma+"))
    p.add_argument("--pol-b", choices=("sigma-", "pi", "sigma+"))
    p.add_argument("--wavelength", choices=("397", "866"))
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("fit", help="parameter estimation")
    p.set_defaults(func=cmd_fit)
    modes = p.add_subparsers(dest="mode", required=True)

    def add_fit_options(p):
        add_params(p)
        p.add_argument("--free", required=True,
                       type=lambda text: tuple(
                           n.strip() for n in text.split(",") if n.strip()),
                       help="comma-separated free parameter names, e.g. "
                            "omega_866,b_field,scale")
        p.add_argument("--restarts", type=int, default=5,
                       help="optimizer starts, the first from --params and "
                            "the rest perturbed from it (>= 1)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--maxfev", type=int, default=2000,
                       help="model-solve budget per start, not counting "
                            "finite-difference Jacobian steps (>= 1)")
        p.add_argument("--save-params",
                       help="write fitted parameters as JSON")

    p = modes.add_parser("spectrum", help="fit an excitation spectrum")
    p.add_argument("data", help="spectrum CSV data file")
    add_fit_options(p)
    add_scaling(p)

    p = modes.add_parser("g2", help="jointly fit correlation curves")
    p.add_argument("data", nargs="+", help="CSV data file(s)")
    add_fit_options(p)
    p.add_argument("--kinds", default="total",
                   help="per-file dataset kinds, e.g. "
                        "'sigma-|sigma-,sigma-|sigma+'")
    add_errors(p)

    p = sub.add_parser("selftest", help="internal consistency battery")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:      # argparse --help
        return int(exc.code or 0)
    except (_InputError, OSError, StreamFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
