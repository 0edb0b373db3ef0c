"""Experiment parameters: laser drives, magnetic field, decay rates.

All internal values are SI angular frequencies (rad/s), tesla-free gauss
for the field, and radians for polarization angles.  The JSON file format
uses spectroscopist units instead (MHz for frequencies divided by 2*pi,
gauss, and angle strings with an explicit "pi" or "deg" suffix).
Each field declares its unit and legal range once, in its _quantity.
The unit fixes the JSON key (<name>_mhz, <name>_gauss or the bare angle
name) and codec; validation errors name the field.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

# Natural decay rates of the two emission branches, rad/s.
GAMMA_SP_DEFAULT = TWO_PI * 20.7e6
GAMMA_DP_DEFAULT = TWO_PI * 1.69e6


def parse_angle(text: str | float | int) -> float:
    """Parse an angle given as "<x>pi", "<x>deg" or "<x>rad" into radians.

    Bare numbers are rejected on purpose: every angle in a parameter file
    must carry its unit.
    """
    if isinstance(text, (int, float)):
        raise ValueError(
            f"angle {text!r} has no unit; write e.g. \"0.5pi\" or \"90deg\""
        )
    s = str(text).strip().lower()
    for suffix, factor in (("pi", math.pi), ("deg", math.pi / 180.0), ("rad", 1.0)):
        if s.endswith(suffix):
            body = s[: -len(suffix)].strip()
            if body in ("", "-", "+"):
                body += "1"
            try:
                return float(body) * factor
            except ValueError:
                raise ValueError(f"cannot parse angle {text!r}") from None
    raise ValueError(f"angle {text!r} must end in \"pi\", \"deg\" or \"rad\"")


def format_angle(value_rad: float) -> str:
    """Render an angle in radians as a "<x>pi" string.

    x is the shortest repr of value_rad / pi, so parse_angle maps the text
    back to an angle that renders to the same text.
    """
    return f"{value_rad / math.pi!r}pi"


def _to_mhz(omega: float) -> float:
    return omega / TWO_PI / 1e6


def _from_mhz(mhz: float) -> float:
    """Angular frequency that _to_mhz maps back onto `mhz`, if any.

    mhz * 2 pi * 1e6 can land an ulp or two off every float that converts
    back to `mhz`, so a saved file would load to parameters that save to
    a different file; the nearest neighbours that convert back are taken
    instead.
    """
    omega = mhz * TWO_PI * 1e6
    down = math.nextafter(omega, -math.inf)
    up = math.nextafter(omega, math.inf)
    for cand in (omega, down, up, math.nextafter(down, -math.inf),
                 math.nextafter(up, math.inf)):
        if _to_mhz(cand) == mhz:
            return cand
    return omega


def _number(value) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"must be a number, got {value!r}")
    return float(value)


# unit -> (JSON key suffix, encoder, decoder) of a field's file value
_CODEC = {
    "mhz": ("_mhz", _to_mhz, lambda v: _from_mhz(_number(v))),
    "gauss": ("_gauss", lambda v: v, _number),
    "angle": ("", format_angle, parse_angle),
}


def _quantity(unit: str | None = None, lo: float = -math.inf,
              hi: float = math.inf, **default):
    """A dataclass field with values in [lo, hi] and a `unit`: a _CODEC
    key, or None for a plain number."""
    return dataclasses.field(metadata={"unit": unit, "range": (lo, hi)},
                             **default)


def _check_fields(obj) -> None:
    """Each _quantity field of `obj` must be finite and within its range."""
    for f in dataclasses.fields(obj):
        if "range" not in f.metadata:
            continue
        v = getattr(obj, f.name)
        lo, hi = f.metadata["range"]
        if not math.isfinite(v):   # NaN passes every comparison
            raise ValueError(f"{f.name} must be finite, got {v}")
        if not lo <= v <= hi:
            raise ValueError(f"{f.name} must lie in [{lo:g}, {hi:g}], got {v}")


@dataclass(frozen=True)
class ExperimentParams:
    """Laser and field settings for the eight-level ion model.

    omega_397, omega_866:  Rabi frequencies of the two drives, rad/s.
        These multiply the polarization and angular factors directly, so a
        two-level transition with unit amplitude oscillates at omega.
    delta_397, delta_866:  laser detunings from the unshifted transition,
        rad/s (negative = red).
    b_field:               magnetic field along the quantization axis, gauss;
        the level ordering fixes its direction, so it is not negative.
    alpha_397, alpha_866:  angle between each laser's linear polarization
        and the quantization axis, radians.  pi/2 drives pure sigma+/sigma-.
    gamma_sp, gamma_dp:    spontaneous rates of the P->S and P->D branches.
    linewidth_397, linewidth_866:  laser linewidths (FWHM, rad/s) applied
        as pure dephasing; zero by default.

    Each field's _quantity gives its file unit and legal range [lo, hi];
    every value must be finite, and gamma_sp positive.
    """

    omega_397: float = _quantity("mhz", 0.0)
    omega_866: float = _quantity("mhz", 0.0)
    delta_397: float = _quantity("mhz")
    delta_866: float = _quantity("mhz")
    b_field: float = _quantity("gauss", 0.0, default=3.5)
    alpha_397: float = _quantity("angle", 0.0, math.pi, default=math.pi / 2)
    alpha_866: float = _quantity("angle", 0.0, math.pi, default=math.pi / 2)
    gamma_sp: float = _quantity("mhz", 0.0, default=GAMMA_SP_DEFAULT)
    gamma_dp: float = _quantity("mhz", 0.0, default=GAMMA_DP_DEFAULT)
    linewidth_397: float = _quantity("mhz", 0.0, default=0.0)
    linewidth_866: float = _quantity("mhz", 0.0, default=0.0)

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.gamma_sp <= 0:
            raise ValueError(f"gamma_sp must be positive, got {self.gamma_sp}")

    def replace(self, **changes) -> "ExperimentParams":
        return dataclasses.replace(self, **changes)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """Spectroscopist-unit dict, the on-disk JSON layout."""
        out = {}
        for f in dataclasses.fields(self):
            suffix, encode, _ = _CODEC[f.metadata["unit"]]
            out[f.name + suffix] = encode(getattr(self, f.name))
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentParams":
        keys = {f.name + _CODEC[f.metadata["unit"]][0]: f
                for f in dataclasses.fields(cls)}
        unknown = set(data) - set(keys)
        if unknown:
            raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        missing = {k for k, f in keys.items()
                   if f.default is dataclasses.MISSING} - set(data)
        if missing:
            raise ValueError(f"missing parameter keys: {sorted(missing)}")
        kwargs = {}
        for key, f in keys.items():
            if key in data:
                try:
                    kwargs[f.name] = _CODEC[f.metadata["unit"]][2](data[key])
                except ValueError as exc:
                    raise ValueError(f"{key}: {exc}") from None
        return cls(**kwargs)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ExperimentParams":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected a JSON object")
        return cls.from_dict(data)

    def fingerprint(self) -> str:
        """Short stable hash of the physical settings, for output provenance.

        It hashes the file layout, so parameters loaded from a saved file
        keep the fingerprint of the parameters that were saved.
        """
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


# -- presets ------------------------------------------------------------
#
# The two photon-pair settings drive both lasers perpendicular to the
# field so only sigma transitions are excited.  The spectrum preset uses
# tilted polarizations so that pi components keep all dark states coupled.

def preset_weak() -> ExperimentParams:
    """Weakly saturating drives: deep antibunching, slow repump tail."""
    return ExperimentParams(
        omega_397=TWO_PI * 9.2e6,
        omega_866=TWO_PI * 1.3e6,
        delta_397=-TWO_PI * 15.0e6,
        delta_866=TWO_PI * 5.8e6,
    )


def preset_strong() -> ExperimentParams:
    """Saturating drives: Rabi oscillation visible in the pair correlation."""
    return ExperimentParams(
        omega_397=TWO_PI * 20.2e6,
        omega_866=TWO_PI * 20.3e6,
        delta_397=-TWO_PI * 15.0e6,
        delta_866=TWO_PI * 5.8e6,
    )


def preset_spectrum() -> ExperimentParams:
    """Excitation-spectrum setting with slightly tilted polarizations.

    delta_866 is the scan variable and defaults to zero here.
    """
    return ExperimentParams(
        omega_397=TWO_PI * 9.9e6,
        omega_866=TWO_PI * 1.5e6,
        delta_397=-TWO_PI * 15.0e6,
        delta_866=0.0,
        alpha_397=0.46 * math.pi,
        alpha_866=0.40 * math.pi,
    )


PRESETS = {
    "weak": preset_weak,
    "strong": preset_strong,
    "spectrum": preset_spectrum,
}


def get_preset(name: str) -> ExperimentParams:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
