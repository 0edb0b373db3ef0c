"""Names and units of every metric the benchmark reports.

BENCHMARK.json lists the same names and units; bench_tests.py checks
that the two agree.  End-to-end metrics come from the untraced run,
per-layer metrics from the traced run.
"""

from __future__ import annotations

import statistics

# name -> unit.  work_per_s is the rate of one part of each workload, the
# part that takes the smaller share of its wall_s: sweep points per
# second of the sweep commands (model) and coincidence pairs per second
# of the replay commands, reads included (clicks).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# The host speed that timings are reported at: a time of worker.HostClock's
# kernel between the fast (7.5 ms) and slow (10.5 ms) phases of the
# 2-core machine the benchmark was tuned on (OpenBLAS 0.3.31, one BLAS
# thread).  That machine's speed moved by up to 50 % from one phase to
# the next, lasting from under a second to minutes: measured pass times
# of the same work spread up to 44 % (IQR/median) over five runs, and
# 3-8 % once scaled by the kernel time next to each command.  Per-layer
# self times are not scaled.
CLOCK_REF_S = 0.009
# The statistic of a run's samples that the result line reports: the
# median pass, the median of the cold starts for set-up.
REPORTED = {"setup_s": "median", "wall_s": "median", "work_per_s": "median",
            "peak_rss_mb": "max"}

# The names each workload prints for its own metrics, next to the
# shared ones above: (printed name, source, unit).  "cmd:<label>" is
# the median time of one timed command, "rate:<part>" the median rate
# of one part per pass.
OWN_METRICS = {
    "model": [("fit_g2_s", "cmd:fit.fit_g2", "s"),
              ("fit_spectrum_s", "cmd:fit.fit_spectrum", "s"),
              ("param_points_per_s", "rate:sweep", "1/s")],
    "clicks": [("events_per_s", "rate:clickloop", "1/s"),
               ("pairs_per_s", "rate:replay", "1/s")],
}

# Per-layer metrics, per pass of the workload, grouped by module.
PER_LAYER = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.main.failed": "count",
    "params.load.self_s": "s",
    "params.fingerprint.calls": "count",
    "atom.build_liouvillian.calls": "count",
    "atom.build_liouvillian.self_s": "s",
    "dynamics.steady_state.calls": "count",
    "dynamics.steady_state.self_s": "s",
    "dynamics.propagate.calls": "count",
    "dynamics.propagate.self_s": "s",
    "dynamics.propagate.grid_points": "count",
    "dynamics.expm.calls": "count",
    "dynamics.expm.self_s": "s",
    "dynamics.expm_per_propagate": "1",
    "correlations.g2_pair.calls": "count",
    "correlations.g2_pair.self_s": "s",
    "correlations.g2_total.calls": "count",
    "correlations.g2_total.self_s": "s",
    "correlations.apply_error_model.calls": "count",
    "correlations.apply_error_model.self_s": "s",
    "correlations.mean_photon_number.calls": "count",
    "correlations.mean_photon_number.self_s": "s",
    "correlations.excitation_spectrum.calls": "count",
    "correlations.excitation_spectrum.self_s": "s",
    "correlations.excitation_spectrum.points": "count",
    "correlations.excitation_spectrum.failed_points": "count",
    "correlations.find_dips.self_s": "s",
    "correlations.write_table_csv.self_s": "s",
    "correlations.read_table_csv.self_s": "s",
    "fitting.fit_g2_joint.self_s": "s",
    "fitting.fit_g2_joint.nfev": "count",
    "fitting.fit_g2_joint.model_evals": "count",
    "fitting.fit_spectrum.self_s": "s",
    "fitting.fit_spectrum.nfev": "count",
    "fitting.fit_spectrum.model_evals": "count",
    "trajectory.simulate_emissions.self_s": "s",
    "trajectory.simulate_emissions.events": "count",
    "trajectory.simulate_emissions.events_per_s": "1/s",
    "trajectory.detect.self_s": "s",
    "trajectory.detect.clicks": "count",
    "streams.write_stream.self_s": "s",
    "streams.write_stream.bytes": "B",
    "streams.read_stream.self_s": "s",
    "streams.read_stream.bytes": "B",
    "streams.read_stream_csv.self_s": "s",
    "streams.read_stream_csv.bytes": "B",
    "streams.read_stream_csv.rows": "count",
    "correlator.correlate.calls": "count",
    "correlator.correlate.self_s": "s",
    "correlator.correlate.pairs": "count",
    "correlator.correlate.pairs_per_s": "1/s",
    "correlator.correlate.clicks_in": "count",
    "trace.spans": "count",
    "trace.overhead": "1",
}
# rate name -> (span, counter): counter per second of the span's self time
_RATES = {
    "trajectory.simulate_emissions.events_per_s":
        ("trajectory.simulate_emissions", "events"),
    "correlator.correlate.pairs_per_s": ("correlator.correlate", "pairs"),
}


def per_layer_metrics(tables: list[dict], spans_first: int,
                      overhead: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, per pass of the workload.

    ``tables`` holds one span table per traced pass (tracing.span_table).
    Counts come from the first traced pass, whose inputs depend on the
    seed alone, so they repeat exactly between runs.  Times and rates are
    medians over all traced passes.
    """
    def stat(table, span, key):
        return table.get(span, {}).get(key, 0)

    first = tables[0]
    out: dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        if name in _RATES:
            span, key = _RATES[name]
            out[name] = statistics.median(
                stat(t, span, key) / stat(t, span, "self_s")
                if stat(t, span, "self_s") > 0 else 0.0 for t in tables)
        elif name == "dynamics.expm_per_propagate":
            props = stat(first, "dynamics.propagate", "calls")
            out[name] = (stat(first, "dynamics.expm", "calls") / props
                         if props else 0.0)
        elif name == "trace.spans":
            out[name] = spans_first
        elif name == "trace.overhead":
            out[name] = overhead
        else:
            span, _, key = name.rpartition(".")
            if unit == "s":
                out[name] = statistics.median(
                    stat(t, span, key) for t in tables)
            else:
                out[name] = stat(first, span, key)
    return out


def high_percentile(n: int):
    """Highest of p90/p95/p99 with at least ten samples beyond it."""
    best = None
    for p in (90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


def summarize(samples: list[float]) -> dict:
    """Median, extremes, the highest percentile with >= 10 samples beyond
    it (or None), and the sample count."""
    out = {"median": statistics.median(samples), "min": min(samples),
           "max": max(samples), "n": len(samples), "p": None,
           "p_value": None}
    p = high_percentile(len(samples))
    if p is not None:
        out["p"] = p
        out["p_value"] = statistics.quantiles(samples, n=100)[p - 1]
    return out
