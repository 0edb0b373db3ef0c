"""Span recorder for the traced benchmark run.

The benchmark records spans from its own files: it replaces the public
functions of each ionpair module with thin wrappers for the duration of
a traced pass and puts the originals back afterwards.  Nothing under
src/ changes.  A function is wrapped at every module that binds it,
because fitting, cli and correlations import names directly, so
``ionpair.fitting.g2_pair`` and ``ionpair.correlations.g2_pair`` are the
same wrapper.  ``scipy.linalg.expm`` is wrapped only as dynamics sees it.

A span holds its name, start, end, parent and the identifier of the CLI
command it belongs to.  Spans stay in memory; the caller writes them
out when the run ends.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from contextlib import contextmanager

# Spans that evaluate the physics model once; counted under a fit span
# as that fit's model evaluations (Hessian evaluations included).
MODEL_SPANS = ("correlations.g2_pair", "correlations.g2_total",
               "correlations.apply_error_model",
               "correlations.excitation_spectrum")
FIT_SPANS = ("fitting.fit_g2_joint", "fitting.fit_spectrum")


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _main_extra(a, r):
    return {"failed": int(r != 0)}


def _propagate_extra(a, r):
    return {"grid_points": len(a["grid"])}


def _spectrum_extra(a, r):
    return {"points": int(r.values.size), "failed_points": int((~r.ok).sum())}


def _fit_extra(a, r):
    return {"nfev": int(r.nfev)}


def _simulate_extra(a, r):
    return {"events": len(r)}


def _detect_extra(a, r):
    return {"clicks": len(r[0]) + len(r[1])}


def _write_extra(a, r):
    return {"bytes": _size(a["path"])}


def _read_extra(a, r):
    return {"bytes": _size(a["path"]), "rows": len(r)}


def _correlate_extra(a, r):
    first, second = a["a"], a.get("b")
    extra = 0 if second is None or second is first else len(second)
    return {"pairs": int(r.total_pairs), "clicks_in": len(first) + extra}


# span name -> (defining module, attribute, extra counters from the
# bound arguments and the return value)
TARGETS = {
    "cli.main": ("ionpair.cli", "main", _main_extra),
    "params.load": ("ionpair.params", "ExperimentParams.load", None),
    "params.fingerprint": ("ionpair.params", "ExperimentParams.fingerprint",
                           None),
    "atom.build_liouvillian": ("ionpair.atom", "build_liouvillian", None),
    "dynamics.steady_state": ("ionpair.dynamics", "steady_state", None),
    "dynamics.propagate": ("ionpair.dynamics", "propagate", _propagate_extra),
    "correlations.g2_pair": ("ionpair.correlations", "g2_pair", None),
    "correlations.g2_total": ("ionpair.correlations", "g2_total", None),
    "correlations.apply_error_model": ("ionpair.correlations",
                                       "apply_error_model", None),
    "correlations.mean_photon_number": ("ionpair.correlations",
                                        "mean_photon_number", None),
    "correlations.excitation_spectrum": ("ionpair.correlations",
                                         "excitation_spectrum",
                                         _spectrum_extra),
    "correlations.find_dips": ("ionpair.correlations", "find_dips", None),
    "correlations.write_table_csv": ("ionpair.correlations",
                                     "write_table_csv", None),
    "correlations.read_table_csv": ("ionpair.correlations",
                                    "read_table_csv", None),
    "fitting.fit_g2_joint": ("ionpair.fitting", "fit_g2_joint", _fit_extra),
    "fitting.fit_spectrum": ("ionpair.fitting", "fit_spectrum", _fit_extra),
    "trajectory.simulate_emissions": ("ionpair.trajectory",
                                      "simulate_emissions", _simulate_extra),
    "trajectory.detect": ("ionpair.trajectory", "detect", _detect_extra),
    "streams.write_stream": ("ionpair.streams", "write_stream", _write_extra),
    "streams.read_stream": ("ionpair.streams", "read_stream", _read_extra),
    "streams.read_stream_csv": ("ionpair.streams", "read_stream_csv",
                                _read_extra),
    "correlator.correlate": ("ionpair.correlator", "correlate",
                             _correlate_extra),
}
EXPM_SPAN = "dynamics.expm"


class Span:
    __slots__ = ("name", "start", "end", "parent", "cmd", "extra")

    def __init__(self, name, start, end, parent, cmd, extra=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent      # index into the span list, -1 for a root
        self.cmd = cmd            # shared by the spans of one CLI command
        self.extra = extra

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "cmd": self.cmd,
                "extra": self.extra or {}}


class _View:
    """Stands in for a module inside one importer, overriding some names."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _ionpair_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ionpair"
                                  or name.startswith("ionpair."))]


class Tracer:
    """Records spans while installed; see ``installed``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []   # targets the program no longer has
        self._stack: list[int] = []
        self._cmd = -1
        self._cmd_count = 0

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, extra):
        sig = inspect.signature(fn) if extra else None
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent < 0:          # a root span starts a new command
                self._cmd = self._cmd_count
                self._cmd_count += 1
            span = Span(name, 0.0, 0.0, parent, self._cmd)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = time.perf_counter()
                span.extra = {"raised": 1}
                if name == "cli.main":
                    span.extra["failed"] = 1
                raise
            finally:
                stack.pop()
            span.end = time.perf_counter()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.extra = extra(bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- patching --------------------------------------------------------

    def _patch_targets(self, undo):
        modules = _ionpair_modules()
        for name, (modname, attr, extra) in TARGETS.items():
            owner_name, _, leaf = attr.rpartition(".")
            owner = sys.modules.get(modname)
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            if owner is None or not hasattr(owner, leaf):
                self.missing.append(name)
                continue
            if isinstance(owner, type):
                # method or classmethod: patch the class dict only
                raw = owner.__dict__.get(leaf)
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, extra))
                else:
                    new = self._wrap(name, raw, extra)
                undo.append((owner, leaf, raw))
                setattr(owner, leaf, new)
                continue
            original = getattr(owner, leaf)
            wrapped = self._wrap(name, original, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def _patch_expm(self, undo):
        dynamics = sys.modules.get("ionpair.dynamics")
        if dynamics is None:
            self.missing.append(EXPM_SPAN)
            return
        import scipy
        import scipy.linalg
        expm = scipy.linalg.expm
        wrapped = self._wrap(EXPM_SPAN, expm, None)
        # dynamics may bind expm itself, scipy.linalg or scipy; each gets
        # a stand-in that leads to the wrapper, so no other caller of
        # scipy.linalg.expm is recorded
        linalg_view = _View(scipy.linalg, expm=wrapped)
        swaps = {id(expm): wrapped, id(scipy.linalg): linalg_view,
                 id(scipy): _View(scipy, linalg=linalg_view)}
        for key, value in list(vars(dynamics).items()):
            new = swaps.get(id(value))
            if new is not None:
                undo.append((dynamics, key, value))
                setattr(dynamics, key, new)

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then put
        every original binding back, also when the block raises."""
        undo: list[tuple] = []
        self.missing = []
        try:
            self._patch_targets(undo)
            self._patch_expm(undo)
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)


# -- analysis ------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted((max(spans[c].start, s.start),
                            min(spans[c].end, s.end)) for c in children[i])
        covered = 0.0
        lo = hi = None
        for a, b in intervals:
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


def span_table(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self time and summed extra counters,
    plus model_evals for each fit (model spans below a fit span)."""
    table: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        for key, value in (s.extra or {}).items():
            row[key] = row.get(key, 0) + value
    for s in spans:
        if s.name not in MODEL_SPANS:
            continue
        p = s.parent
        while p >= 0:
            if spans[p].name in FIT_SPANS:
                row = table[spans[p].name]
                row["model_evals"] = row.get("model_evals", 0) + 1
                break
            p = spans[p].parent
    return table
