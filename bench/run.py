"""robustsurv benchmark.

Run from the repository root:

    python3 bench/run.py --workload mc_contaminated --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all            # every workload, one table
    python3 bench/run.py --regenerate              # rewrite bench/reference/

A run builds the workload's inputs from ``--seed``, runs ops one after
another in this single process (closed loop, one client) for ``--seconds``
seconds, checks every output, and prints one JSON object as its last line.

BENCHMARK.json lists mc_contaminated and veteran_session, which between them
reach every layer.  large_n runs with ``--workload large_n`` and in
``--workload all`` but is not listed: a third listed workload would force
runs too short for mc_contaminated, whose per-replication cost is
heavy-tailed, to give steady figures within the time all runs may take.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
splits the time: an untraced phase of half of ``--seconds`` (and at least
TRACE_MIN_OPS ops), then a replay of exactly those ops with the span tracer
installed (see tracing.py).  It checks that the replay gives the same
outputs, restores every wrapped attribute, and reports the per-layer metrics.
Spans go to ``bench/out/spans_<workload>.tsv``.

Outputs are compared with ``bench/reference/<workload>.json``, generated at
the parent commit.  Every run re-runs the reference ops of the default seed
and compares them: the report CSV plus the estimates and p-values of Monte
Carlo replications chosen so that their fits take every solver path, theta
and sigma of the large-n fits (both samples, both alphas), and each CLI
command's CSVs (numbers to 1e-6 relative with a 1e-9 absolute floor, text
exactly); CLI commands of the timed phase are compared too.  A mismatch counts as a
failed op and makes the run exit with status 1.

``--workload all`` runs each workload in its own process and writes the
results with machine information to ``bench/out/results.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
WORKLOADS = ("mc_contaminated", "large_n", "veteran_session")
SETUP_REPEATS = 3
# the import in a fresh interpreter varies more than the rest of set-up
IMPORT_REPEATS = 7
# traced runs cover at least this many ops, so that estimator.fit.p99 has
# ten fits beyond it on mc_contaminated; the exact counts use this prefix
TRACE_MIN_OPS = {"mc_contaminated": 500, "large_n": 10, "veteran_session": 12}
C_HAT_SIZES = (1_000, 10_000, 100_000)

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "cpu_ms_per_op": "ms",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# printed (with their sample count) but not part of the result object: on a
# host that flips between two speeds, a latency percentile jumps between the
# two speed modes, and its run-to-run spread exceeded the largest bound
PRINTED_ONLY = ("op_p50_ms", "op_p90_ms", "fail_rate")
LAYER_UNITS = {
    "data.simulate.ms_per_call": "ms",
    "data.ingest.ms_per_call": "ms",
    "kmpl.kmpl_fit.calls_per_fit": "count",
    "kmpl.kmpl_fit.ms_per_call": "ms",
    "model.weighted_integrals.calls_per_fit.p50": "count",
    "model.weighted_integrals.calls_per_fit.p99": "count",
    "model.weighted_integrals.us_per_call": "us",
    "model.pointwise.calls_per_fit": "count",
    "model.pointwise.ms_per_fit": "ms",
    "estimator.fit.p50_ms": "ms",
    "estimator.fit.p99_ms": "ms",
    "estimator.fit.self_share": "fraction",
    "estimator.path_share.newton": "fraction",
    "estimator.path_share.newton-restart": "fraction",
    "estimator.path_share.simplex": "fraction",
    "estimator.n_iter.p50": "count",
    "estimator.n_iter.p99": "count",
    "varest.covariance_estimate.ms_per_call": "ms",
    "varest.c_hat.scaling_slope": "log/log",
    "hypothesis.wald_statistic.us_per_call": "us",
    "hypothesis.wald_statistic.failures": "count",
    "twosample.ms_per_call": "ms",
    "influence.ms_per_call": "ms",
    "montecarlo.self_share": "fraction",
    "cli.main.self_ms_per_op": "ms",
    "trace.overhead_ratio": "ratio",
}
# span-name prefix each per-layer metric is measured from; a workload that
# never calls it takes the metric from the probe ops instead
PROBED = {
    "data.simulate.ms_per_call": "data.simulate",
    "data.ingest.ms_per_call": "data.ingest",
    "twosample.ms_per_call": "twosample",
    "influence.ms_per_call": "influence",
    "montecarlo.self_share": "montecarlo",
    "cli.main.self_ms_per_op": "cli",
}


def _use_checkout_sources() -> None:
    if not (SRC / "robustsurv" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/robustsurv not found; run from a robustsurv checkout")
    # single-threaded BLAS: one process on a shared two-core machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def _import_seconds() -> float:
    """Import time of robustsurv in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import robustsurv; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True
    )
    return float(done.stdout.strip())


def make_workload(name: str, seed: int, run_dir: str, small: bool = False):
    import workloads

    if name == "mc_contaminated":
        return workloads.McContaminated(seed)
    if name == "large_n":
        return workloads.LargeN(seed, n=2_000) if small else workloads.LargeN(seed)
    if name == "veteran_session":
        return workloads.VeteranSession(seed, run_dir)
    raise ValueError(f"unknown workload {name!r}")


def load_reference(name: str) -> list:
    with open(BENCH / "reference" / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


class Ledger:
    """Op outcomes of one run: failures and reference mismatches."""

    def __init__(self, stored):
        self.stored = stored
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, wl, k, output, reason, expected=None) -> None:
        """Count op k; ``reason`` says why the program failed it, if it did."""
        self.attempted += 1
        if expected is not None and not wl.matches(_jsonable(output), expected):
            self.problems.append(f"{wl.name} op {k}: output differs from the stored reference")
            reason = "reference mismatch"
        self.failed += bool(reason)


def _jsonable(output):
    return json.loads(json.dumps(output))


def timed_phase(wl, seconds: float, min_ops: int, ledger: Ledger, keep: bool):
    """Closed loop for ``seconds`` (and at least ``min_ops`` ops); returns
    per-op wall latencies, per-op CPU times and, if ``keep``, the outputs
    (kept only for the traced replay, so memory does not grow with ops)."""
    latencies, cpu, outputs = [], [], []
    clock, cpu_clock = time.perf_counter, time.process_time
    start = clock()
    k = 0
    while k < min_ops or clock() - start < seconds:
        c0, t0 = cpu_clock(), clock()
        result = wl.op(k)
        t1, c1 = clock(), cpu_clock()
        latencies.append(t1 - t0)
        cpu.append(c1 - c0)
        output, reason = wl.inspect(k, result)
        if keep:
            outputs.append(output)
        ledger.record(wl, k, output, reason, wl.expected(k, ledger.stored))
        k += 1
    return latencies, cpu, outputs


def _setup(name, seed, run_dir, small):
    """Build the inputs and run the warm-up op, SETUP_REPEATS times."""
    times, wl = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = make_workload(name, seed, run_dir, small)
        wl.warmup()
        times.append(time.perf_counter() - t0)
    return wl, statistics.median(times)


def _reference_run(name, run_dir, ledger) -> None:
    import workloads

    wl = make_workload(name, workloads.DEFAULT_SEED, run_dir)
    for k, stored in zip(wl.reference_ks, ledger.stored, strict=True):
        output, reason = wl.reference_output(k)
        ledger.record(wl, k, output, reason, stored)


def c_hat_slope(sizes=C_HAT_SIZES) -> float:
    """Log-log slope of c_hat time over sample size (median of repeats)."""
    import numpy as np
    from robustsurv import varest
    from robustsurv.data import SyntheticDesign, simulate
    from robustsurv.model import WEIBULL, FamilySpec, mdpde_psi
    import workloads

    design = SyntheticDesign(
        lifetime=FamilySpec("weibull", workloads.TRUTH),
        censoring_mean=workloads.CENSORING_MEAN, seed=workloads.DEFAULT_SEED,
    )
    theta = np.array(workloads.TRUTH)

    def psi(x, th):
        return mdpde_psi(WEIBULL, th, 0.5, x)

    medians = []
    for n in sizes:
        sample = simulate(design, n)
        times, spent = [], 0.0
        while len(times) < 5 or spent < 0.1:
            t0 = time.perf_counter()
            varest.c_hat(sample, psi, theta)
            times.append(time.perf_counter() - t0)
            spent += times[-1]
        medians.append(statistics.median(times))
    slope, _ = np.polyfit(np.log(sizes), np.log(medians), 1)
    return float(slope)


def _e2e_metrics(latencies, cpu, build_s, lines) -> dict:
    import numpy as np

    import_s = statistics.median([_import_seconds() for _ in range(IMPORT_REPEATS)])
    n_ops = len(latencies)
    lines.append(f"  setup_s = import {import_s:.4f} s + build and warm-up {build_s:.4f} s")
    lines.append(f"  op latency percentiles from {n_ops} ops")
    return {
        "setup_s": import_s + build_s,
        "ops_per_s": n_ops / sum(latencies),
        "cpu_ms_per_op": 1e3 * sum(cpu) / n_ops,
        "op_p50_ms": 1e3 * float(np.percentile(latencies, 50)),
        "op_p90_ms": 1e3 * float(np.percentile(latencies, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _layer_metrics(wl, latencies, outputs, min_ops, ledger, run_dir, sizes, lines) -> dict:
    """Replay the untraced ops with the tracer installed, then derive the
    per-layer metrics from its spans."""
    from tracing import Tracer, installed_wrappers, layer_metrics, reached

    tracer, traced = Tracer(), []
    with tracer:
        for k in range(len(latencies)):
            tracer.op = k
            t0 = time.perf_counter()
            result = wl.op(k)
            traced.append(time.perf_counter() - t0)
            output, reason = wl.inspect(k, result)
            ledger.record(wl, k, output, reason, wl.expected(k, ledger.stored))
            if output != outputs[k]:
                ledger.problems.append(f"{wl.name} op {k}: traced output differs from untraced")
    probe = Tracer()
    _probe(probe, run_dir)
    left = installed_wrappers()
    if left:
        ledger.problems.append(f"wrappers left installed: {left}")
    metrics = layer_metrics(tracer.spans, min_ops)
    probed = layer_metrics(probe.spans, min_ops)
    for metric, layer in PROBED.items():
        if not reached(tracer.spans, layer):
            metrics[metric] = probed[metric]
            lines.append(f"  {metric} from probe ops ({wl.name} does not call {layer})")
    metrics["varest.c_hat.scaling_slope"] = c_hat_slope(sizes)
    metrics["trace.overhead_ratio"] = sum(latencies) / sum(traced)
    tracer.write(OUT / f"spans_{wl.name}.tsv")
    lines.append(f"  {len(tracer.spans)} spans; exact counts over the first {min_ops} ops")
    return metrics


def run_workload(name, seed, seconds, trace, *, small=False, min_ops=None, sizes=C_HAT_SIZES):
    """One benchmark run; returns the report lines and the result object."""
    OUT.mkdir(exist_ok=True)
    run_dir = str(OUT / f"run-{os.getpid()}")
    if min_ops is None:
        min_ops = TRACE_MIN_OPS[name] if trace else 1
    try:
        wl, build_s = _setup(name, seed, run_dir, small)
        ledger = Ledger(load_reference(name))
        phase = seconds / 2 if trace else seconds
        latencies, cpu, outputs = timed_phase(wl, phase, min_ops, ledger, keep=bool(trace))
        lines = [f"{name}: seed {seed}, {len(latencies)} ops in {sum(latencies):.2f} s"]
        if trace:
            units = LAYER_UNITS
            metrics = _layer_metrics(wl, latencies, outputs, min_ops, ledger, run_dir, sizes, lines)
        else:
            units = E2E_UNITS
            metrics = _e2e_metrics(latencies, cpu, build_s, lines)
        _reference_run(name, run_dir, ledger)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics["fail_rate"] = ledger.failed / ledger.attempted
    shown = {m: {"value": metrics[m], "unit": u} for m, u in {**units, "fail_rate": "fraction"}.items()}
    lines.extend(f"  {m:<44s} {v['value']:.6g} {v['unit']}" for m, v in shown.items())
    lines.append(f"  {ledger.failed} of {ledger.attempted} ops failed")
    lines.extend(f"  PROBLEM: {p}" for p in ledger.problems)
    lines.append("all metrics: " + json.dumps(shown))
    return lines, {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m: v for m, v in shown.items() if m not in PRINTED_ONLY},
    }


def _probe(tracer, run_dir) -> None:
    """Trace a few ops of the workloads that reach the layers in PROBED."""
    import workloads

    with tracer:
        for name, count in (("mc_contaminated", 10), ("veteran_session", 12)):
            wl = make_workload(name, workloads.DEFAULT_SEED, run_dir)
            for k in range(count):
                wl.op(k)


def regenerate() -> None:
    import workloads

    OUT.mkdir(exist_ok=True)
    run_dir = str(OUT / f"run-{os.getpid()}")
    try:
        for name in WORKLOADS:
            print(f"regenerating reference outputs for {name}", flush=True)
            wl = make_workload(name, workloads.DEFAULT_SEED, run_dir)
            outputs = [_jsonable(wl.reference_output(k)[0]) for k in wl.reference_ks]
            path = BENCH / "reference" / f"{name}.json"
            record = {"workload": name, "seed": workloads.DEFAULT_SEED,
                      "ops": list(wl.reference_ks), "outputs": outputs}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
            print(f"wrote {path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def machine_info() -> dict:
    import numpy
    import scipy

    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run_all(seed, seconds, trace) -> int:
    """Every workload in its own process; one table and bench/out/results.json."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True,
        )
        print(done.stdout, end="")
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exited with status {done.returncode}")
            return done.returncode
        lines = done.stdout.splitlines()
        results[name] = json.loads(lines[-1])
        results[name]["metrics"] = json.loads(
            next(ln for ln in lines if ln.startswith("all metrics: ")).split(": ", 1)[1]
        )
    OUT.mkdir(exist_ok=True)
    record = {"seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_info(), "results": results}
    with open(OUT / "results.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"\n{'metric':<44s}" + "".join(f"{w:>18s}" for w in WORKLOADS) + "  unit")
    for metric, first in results[WORKLOADS[0]]["metrics"].items():
        cells = "".join(f"{results[w]['metrics'][metric]['value']:>18.6g}" for w in WORKLOADS)
        print(f"{metric:<44s}{cells}  {first['unit']}")
    print(f"wrote {(OUT / 'results.json').relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="robustsurv benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the reference seed, 20170829)")
    parser.add_argument("--seconds", type=float, default=50.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: replay the ops traced and report per-layer metrics")
    parser.add_argument("--regenerate", action="store_true",
                        help="rewrite the stored reference outputs from this checkout")
    args = parser.parse_args(argv)
    _use_checkout_sources()
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if args.regenerate:
        regenerate()
        return 0
    if args.workload == "all":
        return run_all(seed, args.seconds, args.trace)
    lines, result = run_workload(args.workload, seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
