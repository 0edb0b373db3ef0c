"""One workload in one fresh process; started by run.py.

run.py sets the BLAS thread variables in this process's environment
before it starts, so the OpenBLAS pool has its final size when numpy is
first imported.  Nothing here imports numpy before the set-up timer
starts: set-up time covers the cold import of ionpair.cli, the input
generation and one warm-up command.

Set-up and pass times leave out the time of the host clock's samples
(HostClock), which are taken between commands; the clock's median over
set-up and over the passes are reported next to them.

Prints one JSON line: set-up time, per-pass samples, failures, the
environment record and, for a traced run, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
# host-clock samples at the end of set-up, next to those between its
# commands
SETUP_CLOCK_SAMPLES = 4


class Result:
    """One command's outcome.  ``seconds`` is its time at the reference
    host speed, ``raw_seconds`` its time as measured."""

    __slots__ = ("rc", "seconds", "raw_seconds", "stdout", "stderr")

    def __init__(self, rc, seconds, raw_seconds, stdout, stderr):
        self.rc, self.seconds, self.raw_seconds = rc, seconds, raw_seconds
        self.stdout, self.stderr = stdout, stderr


class Runner:
    """Calls ionpair.cli.main in-process and times each command.

    After a command the host clock takes a sample if one is due, outside
    the command's time.  The command's time is scaled to the reference
    host speed by the mean of the clock samples on either side of it: the
    latest one before it started and the latest one after it ended.
    """

    def __init__(self, cli, clock):
        self.cli = cli
        self.clock = clock

    def __call__(self, argv) -> Result:
        before = self.clock.samples[-1]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                # looked up per call, so a traced pass sees the wrapper
                rc = self.cli.main(list(argv))
            except Exception:      # a crash is a failed command
                rc = -1
                traceback.print_exc(file=err)
            seconds = time.perf_counter() - start
        self.clock.maybe()
        speed = (before + self.clock.samples[-1]) / 2
        return Result(rc, seconds * catalog.CLOCK_REF_S / speed, seconds,
                      out.getvalue(), err.getvalue())


class HostClock:
    """Times a fixed reference kernel between commands.

    The shared host changes speed by up to 50 % over a second to minutes,
    for all code alike: pure Python, small BLAS and vectorised numpy
    slowed together in probes.  The kernel's time next to a command
    measures the host's speed while the command ran; timings are scaled
    by catalog.CLOCK_REF_S over it.  The kernel mixes the kinds of work
    the program does: interpreted loops (cli, Nelder-Mead, the jump
    loop), 64x64 products (propagate) and sorts and cumulative sums over
    arrays (correlator).  About 9 ms every quarter second.
    """

    INTERVAL_S = 0.25

    def __init__(self):
        import numpy as np
        start = time.perf_counter()
        rng = np.random.default_rng(20091125)
        self.np = np
        # orthogonal, so repeated products neither grow nor decay
        self.rot = np.linalg.qr(rng.normal(size=(64, 64)))[0]
        self.data = rng.random(100_000)
        self.samples: list[float] = []
        self.spent = 0.0
        self.sample()
        self.spent = time.perf_counter() - start

    def sample(self) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i
        m = self.rot
        for _ in range(300):
            m = m @ self.rot
        for _ in range(2):
            self.np.cumsum(self.np.sort(self.data))
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += end - start
        self.last = end

    def maybe(self) -> None:
        if time.perf_counter() - self.last >= self.INTERVAL_S:
            self.sample()

    def median(self) -> float:
        return statistics.median(self.samples)


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library mapped into this process."""
    import ctypes
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return found
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = int(fn())
                break
    return found


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_setting": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def _run_pass(wl, run, clock, k, results_out):
    cmds = wl.commands(k)
    spent = clock.spent
    start = time.perf_counter()
    results = {label: run(argv) for label, argv in cmds}
    wall_raw = time.perf_counter() - start - (clock.spent - spent)
    failed = {label: f"exit code {res.rc}: {res.stderr.strip()[-300:]}"
              for label, res in results.items() if res.rc != 0}
    for label, reason in wl.check(k, results).items():
        failed.setdefault(label, reason)
    units, busy = wl.work(k, results)
    results_out.append({
        "pass": k, "wall": sum(r.seconds for r in results.values()),
        "wall_raw": wall_raw,
        "rate": units / busy if busy > 0 else 0.0,
        "units": units,
        "part_rates": wl.part_rates(k, results),
        "commands": {label: r.seconds for label, r in results.items()},
        "failed": failed,
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ionpair.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: ionpair imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, SetupError
    clock = HostClock()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    run = Runner(cli, clock)
    try:
        try:
            wl.setup(run)
            wl.warmup(run)
        except SetupError as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 3
        for _ in range(SETUP_CLOCK_SAMPLES):
            clock.sample()
        setup = {"setup_raw_s": time.perf_counter() - start - clock.spent,
                 "setup_clock_s": clock.median()}
        setup["setup_s"] = (setup["setup_raw_s"] * catalog.CLOCK_REF_S
                            / setup["setup_clock_s"])
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        del clock.samples[:-1]

        untraced: list[dict] = []
        traced: list[dict] = []
        tables: list[dict] = []
        spans_first = 0
        all_spans: list[dict] = []
        tracer = None
        if args.trace:
            import tracing
        loop_start = time.perf_counter()
        k = 0
        while True:
            if not args.trace:
                _run_pass(wl, run, clock, k, untraced)
            else:
                # the same inputs untraced and traced, alternating the order
                tracer = tracing.Tracer()
                if k % 2:
                    with tracer.installed():
                        _run_pass(wl, run, clock, k, traced)
                    _run_pass(wl, run, clock, k, untraced)
                else:
                    _run_pass(wl, run, clock, k, untraced)
                    with tracer.installed():
                        _run_pass(wl, run, clock, k, traced)
                tables.append(tracing.span_table(tracer.spans))
                if k == 0:
                    spans_first = len(tracer.spans)
                all_spans.extend(dict(s.as_dict(), pass_index=k)
                                 for s in tracer.spans)
            k += 1
            if time.perf_counter() - loop_start >= args.seconds:
                break
        clock.sample()
        problems = wl.final_check()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "unit": wl.unit, **setup, "peak_rss_mb": rss_mb,
        "clock_s": clock.median(),
        "clock_samples": len(clock.samples),
        "passes": untraced, "traced_passes": traced,
        "final_failures": problems,
        "env": environment(args.seed),
    }
    if args.trace:
        overhead = (statistics.median(p["wall"] for p in traced)
                    / statistics.median(p["wall"] for p in untraced) - 1.0)
        out["layers"] = catalog.per_layer_metrics(tables, spans_first,
                                                  overhead)
        out["span_table"] = tables[0]
        out["missing_targets"] = tracer.missing
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(all_spans, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
