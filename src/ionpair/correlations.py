"""Conditioned photon-pair correlation functions and derived observables.

All correlations refer to blue (397 nm) photons emitted on the two sigma
channels.  A sigma- photon comes from the |P,-1/2> -> |S,+1/2> decay and
leaves the atom in |S,+1/2>; a sigma+ photon mirrors it.  Detecting the
first photon therefore prepares a known ground state, and the correlation
g2(first, second, tau) is the rate of second-channel emission at delay
tau after that preparation, normalized to its steady-state value:

    g2(tau) = rho_P(tau | prepared) / rho_P(infinity)

where rho_P is the population of the P sublevel feeding the second
channel.  The sigma branching factors cancel in the ratio.
Every quantity is a read-out of a dynamics.Model, the excitation
spectrum that of one Model at an anchor repumper detuning.
"""

from __future__ import annotations

import csv
import functools
import math
import re
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import atom
from .atom import P_MINUS, P_PLUS
from .dynamics import Model, NumericalError
from .params import ExperimentParams, _check_fields, _quantity

SIGMA_MINUS = "sigma-"
SIGMA_PLUS = "sigma+"

# The two 397 sigma channels (atom.Transition rows) by polarization.
_CHANNEL = {atom.POL_NAMES[t.pol_tag]: t
            for t in atom.transition_amplitudes("SP") if t.q != 0}


def _check_pol(pol: str) -> str:
    if pol not in (SIGMA_MINUS, SIGMA_PLUS):
        raise ValueError(f"polarization must be 'sigma-' or 'sigma+', got {pol!r}")
    return pol


def _check_feeding_population(value: float, level: str) -> float:
    """Guard the g2 normalization against dark-state trapping.

    At B = 0 the degenerate D manifold holds superpositions decoupled
    from any single repumper polarization; a laser polarization that
    leaves a level uncoupled (say a pure pi repumper and D(+-3/2)) traps
    the atom at any field.  The steady P population is then numerically
    zero and the normalized correlation is meaningless.
    """
    if value < 1e-12:
        raise NumericalError(
            f"steady {level} population {value:.2e} is consistent with "
            "zero; the atom is trapped in a dark state (zero magnetic "
            "field, or a laser polarization that leaves a level uncoupled)")
    return value


@dataclass
class CorrelationCurve:
    """A sampled g2(tau) curve with its conditioning labels."""

    tau: np.ndarray          # delays in seconds, starting at 0
    values: np.ndarray
    kind: str                # e.g. "sigma-|sigma+" (first|second) or "total"
    meta: dict = field(default_factory=dict)

    def peak(self) -> tuple[float, float]:
        """(tau, value) of the global maximum."""
        i = int(np.argmax(self.values))
        return float(self.tau[i]), float(self.values[i])


def default_grid(t_max: float = 1000e-9, dt: float = 0.5e-9) -> np.ndarray:
    if not (0 < dt <= t_max < math.inf):     # also rejects NaN
        raise ValueError(
            f"need finite t_max >= dt > 0, got t_max={t_max}, dt={dt}")
    n = int(round(t_max / dt))
    return np.arange(n + 1) * dt


def _window(t_window: float) -> list[float]:
    """The grid [0, t_window] of one counting window."""
    if not 0.0 < t_window < math.inf:
        raise ValueError(
            f"window must be positive and finite, got {t_window}")
    return [0.0, t_window]


def _heralded(w: float) -> np.ndarray:
    """Ground state after a first photon that was sigma- with probability
    w: w |S+1/2><S+1/2| + (1 - w) |S-1/2><S-1/2|."""
    rho = np.zeros((atom.N_LEVELS, atom.N_LEVELS), dtype=complex)
    ground = [_CHANNEL[SIGMA_MINUS].lower, _CHANNEL[SIGMA_PLUS].lower]
    rho[ground, ground] = w, 1.0 - w
    return rho


def _model(x: ExperimentParams | Model) -> Model:
    """Every read-out below takes a parameter set or its shared Model."""
    return x if isinstance(x, Model) else Model(x)


@dataclass(frozen=True)
class ErrorModel:
    """Three-parameter detection imperfection model.

    eps_init:  probability that the heralding first photon projected the
               atom into the wrong ground state.
    eps_minus: fraction of the measured sigma- curve fed by true sigma+
               light (polarizer leakage on the second photon).
    eps_plus:  mirror image for the measured sigma+ curve.
    """

    eps_init: float = _quantity(None, 0.0, 0.5, default=0.0)
    eps_minus: float = _quantity(None, 0.0, 0.5, default=0.0)
    eps_plus: float = _quantity(None, 0.0, 0.5, default=0.0)

    def __post_init__(self):
        _check_fields(self)


def _feeding(model: Model, grid: np.ndarray | None, first: str | None = None,
             errors: ErrorModel = ErrorModel(), cumulative: bool = False):
    """(grid as an array, w, g-, g+) after propagating _heralded(w) over
    the grid (default_grid() if None).

    g- = rho_P-(tau) / rho_P-(inf) and g+ = rho_P+(tau) / rho_P+(inf),
    or their exact integrals from 0 to tau if cumulative, as measured
    through `errors` after a `first` photon (see g2_pair).  first=None
    prepares the steady branching w = rho_P- / (rho_P- + rho_P+), the
    ground mixture a polarization-blind first photon leaves behind.
    """
    steady = np.real(np.diag(model.steady))
    p_minus = _check_feeding_population(steady[P_MINUS], "P(-1/2)")
    p_plus = _check_feeding_population(steady[P_PLUS], "P(+1/2)")
    if first is None:
        weight = p_minus / (p_minus + p_plus)
    else:
        wrong = errors.eps_init
        weight = 1.0 - wrong if _check_pol(first) == SIGMA_MINUS else wrong
    grid = default_grid() if grid is None else grid
    read = model.cumulative if cumulative else model.populations
    pops = read(_heralded(weight), grid)    # validates the grid
    gm, gp = pops[:, P_MINUS] / p_minus, pops[:, P_PLUS] / p_plus
    return (np.asarray(grid, dtype=float), weight,
            (1.0 - errors.eps_minus) * gm + errors.eps_minus * gp,
            (1.0 - errors.eps_plus) * gp + errors.eps_plus * gm)


def g2_pair(params: ExperimentParams | Model, first: str,
            grid: np.ndarray | None = None,
            errors: ErrorModel = ErrorModel()
            ) -> tuple[CorrelationCurve, CorrelationCurve]:
    """Both conditioned curves (second = sigma-, sigma+) after one
    detected `first` photon; a single propagation serves both.

    `errors` gives the curves as measured: eps_init mixes the prepared
    ground state, eps_minus/eps_plus mix the two ideal second-photon
    curves.  Each curve's meta records the epsilons.
    """
    model = _model(params)
    grid, _, *values = _feeding(model, grid, first, errors)
    meta = {"params": model.params.fingerprint(), **asdict(errors)}
    return tuple(CorrelationCurve(tau=grid.copy(), values=v,
                                  kind=f"{first}|{second}", meta=dict(meta))
                 for second, v in zip((SIGMA_MINUS, SIGMA_PLUS), values))


def g2_conditioned(params: ExperimentParams | Model, first: str, second: str,
                   grid: np.ndarray | None = None) -> CorrelationCurve:
    """g2(tau) for a `second` photon at delay tau after a `first` photon."""
    _check_pol(second)
    minus, plus = g2_pair(params, first, grid)
    return minus if second == SIGMA_MINUS else plus


def g2_total(params: ExperimentParams | Model,
             grid: np.ndarray | None = None) -> CorrelationCurve:
    """Polarization-blind g2 of the 397 sigma fluorescence.

    The first photon projects the atom into a ground mixture weighted by
    the steady feeding populations; the second is either sigma channel,
    with the same weights.
    """
    model = _model(params)
    grid, w, gm, gp = _feeding(model, grid)
    return CorrelationCurve(tau=grid.copy(), values=w * gm + (1.0 - w) * gp,
                            kind="total",
                            meta={"params": model.params.fingerprint()})


# -- short-time behaviour ----------------------------------------------

def short_time_exponent(curve: CorrelationCurve,
                        window: tuple[float, float] = (0.1e-9, 1.0e-9)) -> float:
    """Log-log slope of g2 over the given delay window."""
    lo, hi = window
    mask = (curve.tau >= lo) & (curve.tau <= hi)
    if mask.sum() < 4:
        raise ValueError(
            f"need at least 4 samples in [{lo}, {hi}] s, have {int(mask.sum())}")
    vals = curve.values[mask]
    if np.any(vals <= 0.0):
        raise ValueError("g2 must be positive over the fit window")
    slope, _ = np.polyfit(np.log(curve.tau[mask]), np.log(vals), 1)
    return float(slope)


def short_time_grid(dt: float = 0.02e-9, t_max: float = 1.2e-9) -> np.ndarray:
    return default_grid(t_max, dt)


# -- pair purity --------------------------------------------------------

def purity_curve(params: ExperimentParams | Model,
                 grid: np.ndarray | None = None,
                 errors: ErrorModel = ErrorModel()
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Ratio of integrated sigma- to sigma+ correlations versus window
    length, p(T) = int_0^T g2(sigma-|sigma-) / int_0^T g2(sigma-|sigma+),
    exact at each T of the grid (default_grid() if None); `errors` as
    in g2_pair.  Returns (grid[1:], p): the ratio is undefined at T = 0.
    """
    grid, _, im, ip = _feeding(_model(params), grid, SIGMA_MINUS, errors,
                               cumulative=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return grid[1:].copy(), im[1:] / ip[1:]


def purity(params: ExperimentParams | Model, t_window: float,
           errors: ErrorModel = ErrorModel()) -> float:
    """p(T) of purity_curve for one coincidence window length T > 0."""
    return float(purity_curve(params, _window(t_window), errors)[1][0])


def pair_probability(p: float) -> float:
    """Probability that the partner photon carries the opposite
    polarization, p/(1+p)."""
    if p < 0:
        raise ValueError("purity ratio must be non-negative")
    if math.isinf(p):
        return 1.0
    return p / (1.0 + p)


# -- photon budget ------------------------------------------------------

def emission_rate(params: ExperimentParams | Model, pol: str) -> float:
    """Steady-state emission rate (photons/s) of one 397 sigma channel."""
    t = _CHANNEL[_check_pol(pol)]
    model = _model(params)
    return t.amplitude ** 2 * model.params.gamma_sp \
        * model.steady[t.upper, t.upper].real


def mean_photon_number(params: ExperimentParams | Model, pol: str,
                       t_window: float) -> float:
    """Expected number of `pol` photons within t_window after a detected
    `pol` photon.

    The detection prepares the corresponding ground state, so this is the
    exact integral of the channel rate Gamma_sp * A^2 * rho_P(tau), A the
    channel amplitude (the last row of Model.cumulative on [0, t_window]),
    not t_window times the steady rate.
    """
    t = _CHANNEL[_check_pol(pol)]
    model = _model(params)
    occupation = model.cumulative(_heralded(float(pol == SIGMA_MINUS)),
                                  _window(t_window))[-1, t.upper]
    return float(t.amplitude ** 2 * model.params.gamma_sp * occupation)


# -- excitation spectrum ------------------------------------------------

@dataclass
class SpectrumCurve:
    """Fluorescence rate versus repumper detuning."""

    delta_866: np.ndarray    # rad/s
    values: np.ndarray       # scale * (P population) + background
    ok: np.ndarray           # per-point solver success
    meta: dict = field(default_factory=dict)


def excitation_spectrum(params: ExperimentParams, delta_grid: np.ndarray,
                        scale: float = 1.0, background: float = 0.0
                        ) -> SpectrumCurve:
    """Steady 397 fluorescence for each repumper detuning in delta_grid.

    The P population comes from one Model at the anchor detuning d0 and
    its read-out Model.steady_populations, a rational function of the
    detuning in the real Hermitian basis.  d0 lies one P linewidth beyond
    every two-photon resonance delta_397 + zeeman(S) - zeeman(D), where
    the steady state can be degenerate (dark states at B = 0), so a
    degenerate resonance flags only the points on it.  The scan's
    eigenvectors grow ill-conditioned as B -> 0, where Zeeman pairs of
    poles merge: the deviation from a direct solve stays below 1e-10 of
    the curve maximum for B >= 0.05 G and grows at smaller fields.

    A point whose fluorescence is non-finite or below -1e-9 is flagged in
    `ok` and carries NaN; if the anchor solve or the eigendecomposition
    fails (no unique steady state, e.g. omega_866 = 0), every point is
    flagged.  Failures never raise.
    """
    delta_grid = np.asarray(delta_grid, dtype=float)
    d0 = (params.delta_397 + np.ptp(atom.zeeman_shifts(params.b_field))
          + params.gamma_sp + params.gamma_dp)
    try:
        pops = Model(params.replace(delta_866=d0)).steady_populations(
            delta_grid)
    except NumericalError:
        fluor = np.full(delta_grid.size, np.nan)
    else:
        fluor = pops[:, P_MINUS] + pops[:, P_PLUS]
    ok = np.isfinite(fluor) & (fluor >= -1e-9)
    values = np.where(ok, background + scale * fluor, np.nan)
    return SpectrumCurve(delta_866=delta_grid.copy(), values=values, ok=ok,
                         meta={"params": params.fingerprint(),
                               "scale": scale, "background": background})


def default_spectrum_grid(lo: float = -2.0 * math.pi * 40e6,
                          hi: float = 2.0 * math.pi * 40e6,
                          points: int = 401) -> np.ndarray:
    return np.linspace(lo, hi, points)


def raman_positions(params: ExperimentParams) -> np.ndarray:
    """Repumper detunings (rad/s) satisfying the two-photon resonance
    delta_397 + zeeman(S) = delta_866 + zeeman(D) for the four S/D pairs
    connected purely by sigma transitions (m_D - m_S in {-2, 0, +2}).

    Only these support a trapped dark superposition when the drive has no
    or weak pi component, so exactly four dips appear in the spectrum.
    """
    shifts = atom.zeeman_shifts(params.b_field)
    return np.sort([params.delta_397 + shifts[s] - shifts[d]
                    for s in atom.S_LEVELS for d in atom.D_LEVELS
                    if abs(atom.M_J[d] - atom.M_J[s]) in (0.0, 2.0)])


def find_dips(spectrum: SpectrumCurve, min_prominence: float = 0.1) -> np.ndarray:
    """Detunings (rad/s) of the dark-resonance dips.

    A dip counts when its prominence exceeds min_prominence of the full
    curve swing.  Shallower ripples occur at two-photon conditions whose
    S/D pair couples to both P sublevels at once; no trapped dark state
    exists there and the fluorescence only partially drops.  Positions
    are refined with a parabola through the minimum and its neighbours.
    """
    import scipy.signal

    v = spectrum.values
    x = spectrum.delta_866
    if np.any(~spectrum.ok):
        raise NumericalError("spectrum contains failed points; cannot locate dips")
    swing = v.max() - v.min()
    if swing <= 0.0:
        return np.array([])
    idx, _ = scipy.signal.find_peaks(-v, prominence=min_prominence * swing)
    dips = []
    for i in idx:
        denom = v[i - 1] - 2.0 * v[i] + v[i + 1]
        offset = 0.5 * (v[i - 1] - v[i + 1]) / denom if denom > 0 else 0.0
        dips.append(x[i] + offset * (x[i + 1] - x[i]))
    return np.array(dips)


# -- CSV serialization --------------------------------------------------
# Tables and click streams share one layout, written and parsed only
# here: '# key = value' meta lines, a csv header row, one record a line.

def _write_csv(path, header: list[str], row: str, cells: np.ndarray,
               meta: dict | None = None) -> None:
    """Meta by key, the header, then the body as one `row` % call per
    record of the 2-D `cells`: "%.10g" % v == f"{v:.10g}"."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key in sorted(meta or {}):
            fh.write(f"# {key} = {meta[key]}\n")
        csv.writer(fh).writerow(header)
        fh.write(row * len(cells) % tuple(np.ravel(cells).tolist()))


def _read_csv(path, dtype=None, converters=None):
    """(meta, header, records): meta from the '#' lines before the
    header, records by one np.loadtxt into `dtype`, by default a float
    per header cell.  Blank lines and later '#' lines are skipped; a
    rejected row is reported by its line number in the file."""
    meta: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = filter(None, map(str.strip, fh))
        for line in lines:
            if not line.startswith("#"):
                break
            key, eq, val = line[1:].partition("=")
            if eq:
                meta[key.strip()] = val.strip()
        else:
            raise ValueError(f"{path}: no header row")
        header = next(csv.reader([line]))
        if dtype is None:
            dtype = [(f"c{j}", "f8") for j in range(len(header))]
        parse = functools.partial(np.loadtxt, dtype=dtype, delimiter=",",
                                  quotechar='"', converters=converters,
                                  ndmin=1)
        with warnings.catch_warnings():   # no rows: empty, not a warning
            warnings.simplefilter("ignore", UserWarning)
            try:
                records = parse(lines)
            except ValueError as exc:
                text = str(exc).split("; use `usecols`")[0]
                bad = _first_bad_line(path, parse)
                raise ValueError(re.sub(r"at row \d+", f"at line {bad}",
                                        text)) from None
    return meta, header, records


def _first_bad_line(path, parse) -> int:
    """File line number of the first body row that `parse` rejects; rows
    fail on their own, so halving the body finds it in about one parse."""
    with open(path, "r", encoding="utf-8") as fh:
        body = [(n, s) for n, line in enumerate(fh, 1) if (s := line.strip())]
    body = body[1 + next(i for i, (_, s) in enumerate(body) if s[0] != "#"):]
    while len(body) > 1:
        half = body[:len(body) // 2]
        try:
            parse([s for _, s in half])
            body = body[len(half):]
        except ValueError:
            body = half
    return body[0][0]


def write_table_csv(path, x: np.ndarray, columns: dict[str, np.ndarray],
                    x_label: str, meta: dict | None = None) -> None:
    """Write aligned columns with '# key = value' provenance comments."""
    for label, col in columns.items():
        if len(col) != len(x):
            raise ValueError(f"column {label!r} length mismatch")
    _write_csv(path, [x_label, *columns],
               ",".join(["%.10g"] * (1 + len(columns))) + "\r\n",
               np.column_stack([x, *columns.values()]), meta)


def read_table_csv(path) -> tuple[np.ndarray, dict[str, np.ndarray], dict]:
    """Inverse of write_table_csv: (x, columns, meta)."""
    meta, header, records = _read_csv(path)
    if not len(records):
        raise ValueError(f"{path}: no tabular data found")
    columns = {name: records[f"c{j}"]
               for j, name in enumerate(header[1:], 1)}
    return records["c0"], columns, meta
