"""ionpair benchmark: two workloads timed end to end and per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload model --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

A single workload prints a table and, as its last line, one JSON object
with "correct", "attempted", "failed" and "metrics": the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  "all"
runs every workload untraced and traced, prints the combined table with
the tracing overhead, and exits 1 if any output check failed.

Each workload runs in fresh processes (worker.py) with its BLAS thread
count set in the environment before numpy loads.  setup_s is the median
over three cold starts: the measuring process and a set-up-only process
before and after it.  Timings are scaled to a reference host speed,
measured by a fixed kernel between commands (worker.HostClock); the
table also prints them unscaled.
Results and spans land in .perfbench/ at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402

WORKLOADS = ("model", "clicks")
# Every workload pins one BLAS thread: at the default pool (nproc
# threads) the tiny 64x64 BLAS calls of propagate make fit times vary by
# 13-17 % between runs on a shared 2-core machine.  "all" also runs model
# once at the default pool (None) to show what the threads cost.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker(workload, seed, seconds, trace, extra, deadline, blas) -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env.pop(var, None)
        if blas is not None:
            env[var] = blas
    workdir = OUT / "work" / f"{workload}-{seed}-{os.getpid()}-{time.time_ns()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", str(workdir), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time before a worker started")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded the run time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def measure(workload, seed, seconds, trace, deadline,
            blas=BLAS_THREADS) -> dict:
    """Run one workload; return its summary.

    Timings are at the reference host speed (worker.HostClock); the
    measured set-up and pass times are kept under "raw".
    """
    def probe():
        return _worker(workload, seed, seconds, 0, ["--setup-only"],
                       deadline, blas)

    label = workload if blas == BLAS_THREADS else f"{workload}-default-blas"
    tag = f"{label}-seed{seed}-trace{trace}"
    extra = ["--spans", str(OUT / "spans" / f"{tag}.json")] if trace else []
    # set-up probes before and after the measuring run sample the
    # machine's speed at different moments
    setups = [probe()] if not trace else []
    res = _worker(workload, seed, seconds, trace, extra, deadline, blas)
    setups.append(res)
    if not trace:
        setups.append(probe())

    passes = res["passes"] + res["traced_passes"]
    attempted = sum(len(p["commands"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes) + len(res["final_failures"])
    summary = {
        "workload": workload, "label": label, "seed": seed, "trace": trace,
        "seconds": seconds, "unit": res["unit"],
        "env": dict(res["env"], git_commit=git_commit()),
        "attempted": attempted, "failed": failed,
        "failures": [f"pass {p['pass']} {cmd}: {why}"
                     for p in passes for cmd, why in p["failed"].items()]
        + res["final_failures"],
        "clock": {"reference_s": catalog.CLOCK_REF_S,
                  "run_s": res["clock_s"], "samples": res["clock_samples"],
                  "setup_s": [s["setup_clock_s"] for s in setups]},
        "raw": {"setup_s": [s["setup_raw_s"] for s in setups],
                "wall_s": [p["wall_raw"] for p in res["passes"]]},
        "samples": {
            "setup_s": [s["setup_s"] for s in setups],
            "wall_s": [p["wall"] for p in res["passes"]],
            "work_per_s": [p["rate"] for p in res["passes"]],
            "units": [p["units"] for p in res["passes"]],
            "part_rates": {name: [p["part_rates"][name]
                                  for p in res["passes"]]
                           for name in res["passes"][0]["part_rates"]},
            "peak_rss_mb": [res["peak_rss_mb"]],
        },
        "commands": {},
    }
    for p in res["passes"]:
        for cmd, secs in p["commands"].items():
            summary["commands"].setdefault(cmd, []).append(secs)
    if trace:
        summary["layers"] = res["layers"]
        summary["span_table"] = res["span_table"]
        summary["missing_targets"] = res["missing_targets"]
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def end_to_end(summary) -> dict[str, dict]:
    return {name: catalog.summarize(summary["samples"][name])
            for name in catalog.END_TO_END}


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def print_table(summary) -> None:
    w = summary["workload"]
    print(f"== {summary['label']}  seed={summary['seed']}  "
          f"trace={summary['trace']}  seconds={summary['seconds']}  "
          f"(work unit: {summary['unit']})")
    print("env: " + json.dumps(summary["env"], sort_keys=True))
    if summary["trace"]:
        for name, unit in catalog.PER_LAYER.items():
            print(f"  {name:<48} {_fmt(summary['layers'][name]):>14} {unit}")
        if summary["missing_targets"]:
            print("  not found in the program: "
                  + ", ".join(summary["missing_targets"]))
    else:
        stats = end_to_end(summary)
        rows = [(name, stats[name], unit)
                for name, unit in catalog.END_TO_END.items()]
        for name, source, unit in catalog.OWN_METRICS[w]:
            if source.startswith("cmd:"):
                st = catalog.summarize(summary["commands"][source[4:]])
            elif source.startswith("rate:"):
                st = catalog.summarize(
                    summary["samples"]["part_rates"][source[5:]])
            else:
                st = stats[source]
            rows.append((name, st, unit))
        print(f"  {'metric':<20} {'median':>12} {'p_hi':>16} {'min':>12} "
              f"{'max':>12}    n  unit")
        for name, st, unit in rows:
            p_hi = (f"p{st['p']}={_fmt(st['p_value'])}" if st["p"]
                    else "-")
            print(f"  {name:<20} {_fmt(st['median']):>12} {p_hi:>16} "
                  f"{_fmt(st['min']):>12} {_fmt(st['max']):>12} "
                  f"{st['n']:>4}  {unit}")
        reported = ", ".join(f"{n} {s}" for n, s in catalog.REPORTED.items())
        print(f"  result line reports: {reported}")
        clock, raw = summary["clock"], summary["raw"]
        print(f"  host clock: {_fmt(clock['run_s'])} s median kernel over "
              f"{clock['samples']} samples, {_fmt(clock['reference_s'])} s "
              f"reference; at set-up "
              + " ".join(_fmt(c) for c in clock["setup_s"]))
        print("  unscaled medians: " + ", ".join(
            f"{name} {_fmt(statistics.median(values))}"
            for name, values in raw.items()))
    ratio = summary["failed"] / summary["attempted"]
    print(f"  {'failed_ops_ratio':<20} {_fmt(ratio):>12} "
          f"({summary['failed']} of {summary['attempted']} commands)  1")
    for why in summary["failures"][:20]:
        print(f"  FAILED {why}")


def result_line(summaries) -> dict:
    metrics = {}
    for s in summaries:
        prefix = f"{s['label']}." if len(summaries) > 1 else ""
        if s["trace"]:
            values = {n: (s["layers"][n], u)
                      for n, u in catalog.PER_LAYER.items()}
        else:
            stats = end_to_end(s)
            values = {n: (stats[n][catalog.REPORTED[n]], u)
                      for n, u in catalog.END_TO_END.items()}
        for name, (value, unit) in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="ignored with --workload all, which runs both")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ionpair" / "__init__.py").is_file():
        print(f"error: no ionpair sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: need --seed >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    try:
        if args.workload == "all":
            summaries = []
            for w in WORKLOADS:
                for trace in (0, 1):
                    deadline = time.monotonic() + RUN_LIMIT_S
                    summaries.append(measure(w, args.seed, args.seconds,
                                             trace, deadline))
                    print_table(summaries[-1])
            summaries.append(measure("model", args.seed, args.seconds, 0,
                                     time.monotonic() + RUN_LIMIT_S,
                                     blas=None))
            print_table(summaries[-1])
        else:
            deadline = time.monotonic() + RUN_LIMIT_S
            summaries = [measure(args.workload, args.seed, args.seconds,
                                 args.trace, deadline)]
            print_table(summaries[0])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    line = result_line(summaries)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
