"""grouppc benchmark: one workload per invocation, or every workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]   # every workload
    python3 bench/run.py --smoke                           # minimal sizes
    python3 bench/run.py --repeat 10 --out FILE            # seeds 1..10

Run from the repository root; the program is imported from ./src.  A run
prints its run record and every metric by name, unit and direction, and
ends with one JSON line {"correct", "attempted", "failed", "metrics"}
holding the metrics BENCHMARK.json names: the end-to-end ones with
--trace 0, the per-layer ones with --trace 1.  Files go to .bench_work/.
"""

from __future__ import annotations

import argparse
import ctypes
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

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("study-small", "cli-compare", "prior-tables")

#: explicit unit and better-direction; other names follow SUFFIXES
UNITS = {
    "inference.grid_cells": ("count", "lower"),
    "io.rows_read": ("count", "lower"),
    "trace.spans": ("count", "lower"),
    "prior_mass_err": ("ratio", "lower"),
    "host_speed_factor": ("ratio", "lower"),
}
SUFFIXES = (("_per_s", "1/s", "higher"), ("_calls", "count", "lower"),
            ("_tail_pct", "pct", "higher"), ("_tail_n", "count", "higher"),
            ("_s", "s", "lower"), ("_mb", "MB", "lower"),
            ("_nats", "nats", "lower"), ("_ratio", "ratio", "lower"))

#: per-layer metrics named by the benchmark's design; reported as 0 when a
#: workload never enters that function
LAYER_METRICS = (
    "inference.fit_s", "inference.self_s", "inference.grid_cells",
    "inference.cells_per_s", "inference.loglik_eval_s",
    "corr.precision_matrix_calls", "corr.precision_matrix_s",
    "corr.log_det_calls", "corr.log_det_s", "corr.log_det_from_internal_s",
    "corr.dlogdet_dinternal_s", "corr.self_s",
    "design.spacings_calls", "design.all_spacings_calls",
    "design.all_spacings_s", "design.fingerprint_s", "design.self_s",
    "pcprior.from_quantile_s", "pcprior.log_density_internal_s",
    "pcprior.value_internal_calls", "pcprior.invert_internal_s",
    "pcprior.density_grid_s", "pcprior.quantile_s", "pcprior.sample_s",
    "pcprior.normalization_mass_s", "pcprior.self_s",
    "io.read_dataset_calls", "io.read_dataset_s", "io.rows_read",
    "io.write_fit_s", "io.write_grid_s", "io.write_dataset_s", "io.self_s",
    "cli.startup_s", "cli.self_s", "simulate.simulate_dataset_s",
    "simulate.self_s", "trace.overhead_s",
)

#: report name of the generic `ops_per_s`, per workload
ALIASES = {"study-small": "fits_per_s", "cli-compare": "commands_per_s",
           "prior-tables": "prior_ops_per_s"}
#: report-name prefix of each op kind (the part before any ":")
TAIL_PREFIX = {"fit": "fit", "compare": "compare", "fit_cli": "fit_cli",
               "elicit": "prior"}


def spec(name):
    """(unit, better) of a metric, or None for a name nobody declared."""
    if name in UNITS:
        return UNITS[name]
    for suffix, unit, better in SUFFIXES:
        if name.endswith(suffix):
            return unit, better
    return None


def tail(samples):
    """Highest of p50..p99.9 with at least ten samples above it, or None."""
    x = np.asarray(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        value = float(np.percentile(x, pct))
        if int((x > value).sum()) >= 10:
            return pct, value
    return None


def run_record(args):
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": "small" if args.small else "full",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "commit": _commit(), "platform": platform.platform(),
    }
    return record


def _blas_threads():
    """Thread count of the loaded OpenBLAS, read through its C API."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _import_grouppc():
    sys.path.insert(0, str(ROOT / "src"))
    import grouppc
    import grouppc.cli
    import grouppc.io
    return grouppc


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _wall(argv, **kwargs):
    start = time.perf_counter()
    subprocess.run(argv, check=True, capture_output=True, timeout=170, **kwargs)
    return time.perf_counter() - start


def setup_time(args, work, count):
    """Median wall time of fresh processes that import grouppc and generate.

    Returns (as measured, divided by the host speed around each probe).
    """
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        argv.append("--small")
    from workloads import HostClock
    clock = HostClock()
    walls, scaled = [], []
    for i in range(count):
        before = clock.sample()
        walls.append(_wall(argv + ["--work", str(work / f"probe{i}")]))
        scaled.append(walls[-1] * 2.0 / (before + clock.sample()))
    return statistics.median(walls), statistics.median(scaled)


def cli_startup(count=3):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return statistics.median(
        _wall([sys.executable, "-m", "grouppc.cli", "--help"], env=env)
        for _ in range(count))


def loop_metrics(workload, ops, wall):
    """End-to-end metrics of the timed cycles, under generic and issue names.

    The issue names hold wall times as measured; the generic `op_p50_s` and
    `ops_per_s` come from times divided by the host speed (see HostClock).
    Op kinds "elicit:<case>" pool into one "prior" distribution for the
    median and tail, and also get a median per case.
    """
    out = {}
    pooled = {}
    for kind, samples in ops.times.items():
        group, _, case = kind.partition(":")
        prefix = TAIL_PREFIX[group]
        pooled.setdefault(prefix, []).extend(samples)
        if case:
            out[f"{prefix}_{case}_p50_s"] = statistics.median(samples)
    for prefix, samples in pooled.items():
        out[f"{prefix}_p50_s"] = statistics.median(samples)
        found = tail(samples)
        if found:
            out[f"{prefix}_tail_s"] = found[1]
            out[f"{prefix}_tail_pct"] = found[0]
            out[f"{prefix}_tail_n"] = len(samples)
    if ops.scaled.get(workload.main_op):
        out["op_p50_s"] = statistics.median(ops.scaled[workload.main_op])
    done = sum(len(v) for v in ops.times.values())
    if done:
        out[ALIASES[workload.name]] = done / wall
        out["ops_per_s"] = done / ops.scaled_wall
    out["fail_ratio"] = ops.failed / max(ops.attempted, 1)
    return out


def run_workload(args):
    from workloads import WORKLOADS, HostClock, Ops
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report = {}
    if not args.trace:
        setup = setup_time(args, work, 1 if args.small else 3)
    gp = _import_grouppc()
    record = run_record(args)
    workload = WORKLOADS[args.workload](gp, ROOT, args.seed, work / "run",
                                        args.small)
    ops = Ops()
    if args.trace:
        from spans import Tracer
        start = time.perf_counter()
        workload.generate()
        workload.cycle(ops, 0)
        plain = time.perf_counter() - start
        tracer = Tracer()
        tracer.install(gp)
        try:
            start = time.perf_counter()
            workload.generate()
            workload.cycle(ops, 1)
            traced = time.perf_counter() - start
        finally:
            tracer.uninstall()
        layers = tracer.summary()
        tracer.write(work / "spans.npz")
    else:
        workload.generate()
        workload.in_process = False
        ops.clock = HostClock()
        start = time.perf_counter()
        k = 0
        while (k < workload.min_cycles
               or time.perf_counter() - start < args.seconds):
            workload.cycle(ops, k)
            k += 1
        ops.close()
        wall = time.perf_counter() - start - ops.clock.spent
        report.update(loop_metrics(workload, ops, wall))
        report["peak_rss_mb"] = _peak_rss_mb()
        report["setup_wall_s"], report["setup_s"] = setup
        report["host_speed_factor"] = statistics.median(ops.clock.samples)

    checks, failures, findings = workload.check()
    report.update(checks)
    if args.trace:
        for name in LAYER_METRICS:
            report[name] = layers.get(name, 0)
        report.update(layers)
        report["inference.cells_per_s"] = (
            layers.get("inference.grid_cells", 0) / layers["inference.fit_s"]
            if layers.get("inference.fit_s") else 0.0)
        evals = workload.loglik_evals
        report["inference.loglik_eval_s"] = statistics.median(evals) if evals else 0.0
        report["cli.startup_s"] = cli_startup()
        report["trace.overhead_s"] = traced - plain
    failures += ops.errors
    return record, report, failures, findings, ops, work


def final_line(report, trace, ops, failures):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in contract["per_layer" if trace else "end_to_end"]]
    metrics = {}
    for name in names:
        if name not in report:
            raise KeyError(f"metric {name} was not measured")
        metrics[name] = {"value": report[name], "unit": spec(name)[0]}
    return {"correct": not failures, "attempted": ops.attempted,
            "failed": ops.failed, "metrics": metrics}


def print_report(record, report, failures, findings):
    print("# run record " + json.dumps(record, sort_keys=True))
    print(f"# {'metric':<36} {'value':>16}  {'unit':<6} better")
    for name in sorted(report):
        unit, better = spec(name) or ("?", "?")
        print(f"  {name:<36} {report[name]:>16.6g}  {unit:<6} {better}")
    for text in findings:
        print("# finding: " + text)
    for text in failures:
        print("# check failed: " + text)


def single(args):
    record, report, failures, findings, ops, work = run_workload(args)
    print_report(record, report, failures, findings)
    result = final_line(report, args.trace, ops, failures)
    (work / "result.json").write_text(json.dumps(
        {"record": record, "report": report, "failures": failures,
         "findings": findings, "op_times": ops.times, "result": result},
        indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


def _child(workload, seed, seconds, trace, small=False):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if small:
        argv.append("--small")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    work = ROOT / ".bench_work" / f"{workload}-s{seed}-t{trace}"
    return proc.stdout, json.loads((work / "result.json").read_text())


def run_all(args):
    """Every workload in its own fresh process; prints each report."""
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            stdout, _ = _child(name, args.seed, args.seconds, trace)
            print(f"## {name} trace={trace}")
            print(stdout, end="")
    return 0


def smoke(args):
    """Minimal sizes: every metric declared, no op failed, checks pass."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in contract["end_to_end"] + contract["per_layer"]}
    problems = []
    for name, entry in declared.items():
        if spec(name) != (entry["unit"], entry["better"]):
            problems.append(f"BENCHMARK.json {name}: {entry} != {spec(name)}")
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            _, saved = _child(name, 1, 1, trace, small=True)
            tag = f"{name} trace={trace}"
            for metric in saved["report"]:
                if spec(metric) is None:
                    problems.append(f"{tag}: {metric} has no unit or direction")
            result = saved["result"]
            if result["failed"] or not result["correct"]:
                problems.append(f"{tag}: {saved['failures']}")
            print(f"{tag}: {result['attempted']} ops, "
                  f"{len(saved['report'])} metrics, correct={result['correct']}")
    for text in problems:
        print("smoke: " + text)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def repeat(args):
    """Seeds 1..N per workload; median, quartiles and spread of each metric.

    The spread is the distance between the quartiles over the median.
    With --out, also one traced run (seed 1) per workload, and everything
    is saved as JSON.
    """
    summary = {}
    for name in [args.workload] if args.workload else WORKLOAD_NAMES:
        values = {}
        record = None
        for seed in range(1, args.repeat + 1):
            _, saved = _child(name, seed, args.seconds, 0)
            record = saved["record"]
            for metric, value in saved["report"].items():
                values.setdefault(metric, []).append(value)
        rows = {}
        for metric, xs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(xs, n=4)
            rows[metric] = {"median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / med if med else None,
                            "values": xs}
            spread = rows[metric]["spread"]
            print(f"{name:<13} {metric:<28} median {med:<12.6g} "
                  f"spread {spread if spread is None else round(spread, 4)}")
        summary[name] = {"record": record, "metrics": rows}
        if args.out:
            summary[name]["traced_seed_1"] = _child(name, 1, args.seconds, 1)[1]
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="minimal input sizes (used by --smoke)")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "grouppc").is_dir():
        print(f"error: no grouppc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        from workloads import WORKLOADS
        WORKLOADS[args.workload](_import_grouppc(), ROOT, args.seed,
                                 Path(args.work), args.small).generate()
        return 0
    if args.smoke:
        return smoke(args)
    if args.all:
        return run_all(args)
    if args.repeat:
        return repeat(args)
    if not args.workload:
        parser.error("--workload is required")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
