"""Tests of the benchmark itself.

Not collected by the repository's test suite (the file name does not
match test_*.py); run them with

    python -m pytest perfbench/bench_tests.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import catalog  # noqa: E402
import ionpair.cli  # noqa: E402,F401  (loads every ionpair module)
from ionpair import correlations, dynamics  # noqa: E402
from ionpair.params import ExperimentParams, preset_weak  # noqa: E402
from tracing import Span, Tracer, self_times, span_table  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings() -> dict:
    snap = {(m.__name__, k): v for m in tracing._ionpair_modules()
            for k, v in vars(m).items()}
    for key in ("load", "fingerprint"):
        snap[("ExperimentParams", key)] = ExperimentParams.__dict__[key]
    return snap


def _traced_work(tmp_path):
    grid = correlations.default_grid(20e-9, 2e-9)
    correlations.g2_pair(preset_weak(), "sigma-", grid)
    path = tmp_path / "p.json"
    preset_weak().save(path)
    ExperimentParams.load(path).fingerprint()


def test_wrappers_restore_every_binding(tmp_path):
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        during = _bindings()
        wrapped = during[("ionpair.correlations", "g2_pair")]
        assert wrapped is not before[("ionpair.correlations", "g2_pair")]
        # bound by name in fitting: the same wrapper there
        assert during[("ionpair.fitting", "g2_pair")] is wrapped
        assert during[("ionpair.correlations", "propagate")] \
            is during[("ionpair.dynamics", "propagate")]
        assert dynamics.scipy is not scipy
        _traced_work(tmp_path)
    assert tracer.missing == []
    names = [s.name for s in tracer.spans]
    for name in ("correlations.g2_pair", "dynamics.propagate",
                 "dynamics.expm", "params.load", "params.fingerprint"):
        assert name in names
    expm = next(s for s in tracer.spans if s.name == "dynamics.expm")
    assert tracer.spans[expm.parent].name == "dynamics.propagate"

    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert dynamics.scipy is scipy

    count = len(tracer.spans)
    _traced_work(tmp_path)
    assert len(tracer.spans) == count


def test_wrappers_restore_after_an_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 4.0, 0, 0),      # overlaps a: covered once
        Span("c", 9.0, 12.0, 0, 0),     # runs past the root's end
        Span("leaf", 1.5, 2.5, 1, 0),
    ]
    # root is covered by [1, 4] and [9, 10]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 3.0, 1.0])


def test_span_table_counts_model_evaluations_under_fits():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 0, {"failed": 0}),
        Span("fitting.fit_spectrum", 1.0, 9.0, 0, 0, {"nfev": 2}),
        Span("correlations.excitation_spectrum", 1.0, 2.0, 1, 0,
             {"points": 5, "failed_points": 0}),
        Span("correlations.excitation_spectrum", 2.0, 3.0, 1, 0,
             {"points": 5, "failed_points": 1}),
        Span("correlations.excitation_spectrum", 9.5, 9.8, 0, 0,
             {"points": 5, "failed_points": 0}),
    ]
    table = span_table(spans)
    assert table["fitting.fit_spectrum"]["model_evals"] == 2
    assert table["fitting.fit_spectrum"]["self_s"] == pytest.approx(6.0)
    assert table["correlations.excitation_spectrum"]["calls"] == 3
    assert table["correlations.excitation_spectrum"]["failed_points"] == 1
    assert table["cli.main"]["self_s"] == pytest.approx(10.0 - 8.0 - 0.3)
    layers = catalog.per_layer_metrics([table], len(spans), 0.01)
    assert layers["fitting.fit_spectrum.nfev"] == 2
    assert layers["correlations.excitation_spectrum.points"] == 15
    assert layers["correlator.correlate.pairs_per_s"] == 0.0


def test_runner_scales_a_command_by_the_clock_around_it():
    from worker import Runner

    class Clock:
        def __init__(self):
            self.samples = [0.5 * catalog.CLOCK_REF_S]

        def maybe(self):
            self.samples.append(1.5 * catalog.CLOCK_REF_S)

    class Cli:
        @staticmethod
        def main(argv):
            print(" ".join(argv))
            return 0

    res = Runner(Cli, Clock())(["g2", "--total"])
    assert res.rc == 0 and res.stdout == "g2 --total\n"
    # mean host speed 1.0 x reference: the scaled time equals the raw one
    assert res.seconds == pytest.approx(res.raw_seconds)


def test_catalog_matches_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == catalog.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == catalog.PER_LAYER
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert workloads == list(catalog.OWN_METRICS)


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "model",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_with_its_unit(trace, key):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 5
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    table = "\n".join(lines[:-1])
    for name, unit in want.items():
        assert any(name in ln and ln.rstrip().endswith(unit)
                   for ln in table.splitlines()), name
        assert np.isfinite(result["metrics"][name]["value"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
