#!/usr/bin/env python3
"""tenkit benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload cp-recovery --seed 1 --seconds 28 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 runs a fixed number of
operations with spans around tenkit's public functions and reports the
per-layer metrics. --workload all runs every workload, each in its own
process, and prints every metric by name with its unit. --record FILE
appends each run's result and provenance to FILE as a JSON line, and
--compare PARENT.jsonl CHANGE.jsonl prints a verdict for every workload and
end-to-end metric. The last line of a run is its result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
NPROC = len(os.sched_getaffinity(0))

# One client, one process, one BLAS thread. An idle BLAS worker thread keeps
# spinning after a threaded call and slowed the next operation by up to 2x,
# depending on timing, on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOAD_NAMES = ("cp-recovery", "tucker-tt", "contract", "cli")


def log(*parts) -> None:
    print(*parts, flush=True)


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def iqr_frac(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# --- provenance -------------------------------------------------------------


def _blas_threads() -> str:
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return "unknown"
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return "unknown"


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int, ops: dict) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "git_commit": commit or "unknown",
        "git_dirty": bool(status) if commit else "unknown",
        "seed": seed,
        "ops": ops,
    }


# --- running operations -----------------------------------------------------


def attempt(op, fn, tracer=None):
    """Run one operation, then its check. Returns (seconds, facts, error)."""
    from workloads import CheckError

    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        result = fn()
    except Exception as exc:  # a raising operation is a failed operation
        return perf_counter() - start, None, f"{op.kind}: raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    try:
        return elapsed, op.check(result), None
    except CheckError as exc:
        return elapsed, None, f"{op.kind}: {exc}"
    except Exception as exc:  # a malformed result can break the oracle itself
        return elapsed, None, f"{op.kind}: check raised {type(exc).__name__}: {exc}"


def measure_setup(workload, seed: int, workdir: Path):
    """Import tenkit in a fresh interpreter and generate the inputs, several times.

    Each repeat is calibrated by reference runs made between the repeats.
    """
    from calibrate import HostSpeed
    from workloads import cli_env

    env = cli_env()
    totals, imports = [], []
    ops = None
    speed = HostSpeed()
    speed.sample(force=True)
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import tenkit"], env=env, check=True, timeout=120)
        imported = perf_counter()
        ops = workload.setup(seed, str(workdir))
        totals.append((start, perf_counter() - start))
        imports.append((start, imported - start))
        speed.sample(force=True)
    totals = [speed.calibrate(*t) for t in totals]
    imports = [speed.calibrate(*t) for t in imports]
    return statistics.median(totals), imports, ops


def report_failures(errors) -> None:
    for err in errors[:5]:
        print(f"FAILED {err}", file=sys.stderr)
    if len(errors) > 5:
        print(f"... and {len(errors) - 5} more failures", file=sys.stderr)


def untraced_run(workload, ops, seconds: float, setup_s: float):
    """Closed loop, one client: each operation starts when the previous one is checked.

    The reference computation runs between operations, at most ten times a
    second, and each operation's time is calibrated by the reference runs
    just before and just after it. Wall-clock figures are reported beside
    the calibrated ones.
    """
    from calibrate import HostSpeed

    unit = workload.stop_unit or len(ops)
    attempt(ops[0], ops[0].run)  # warm-up, not counted
    speed = HostSpeed()
    speed.sample(force=True)
    done, errors = [], []
    deadline = perf_counter() + seconds
    i = 0
    while True:
        unit_start = perf_counter()
        for _ in range(unit):
            op = ops[i % len(ops)]
            i += 1
            start = perf_counter()
            elapsed, got, err = attempt(op, op.run)
            speed.sample()
            if err:
                errors.append(err)
            done.append((op.kind, start, elapsed, got, err))
        now = perf_counter()
        # stop only at a unit boundary, and before a unit that would overrun
        if now + (now - unit_start) > deadline:
            break
    speed.sample(force=True)
    calibrated = [speed.calibrate(start, elapsed) for _, start, elapsed, _, _ in done]
    passed = [(kind, t, elapsed, got) for (kind, _, elapsed, got, err), t in zip(done, calibrated) if not err]
    spent, wall_spent = sum(calibrated), sum(elapsed for _, _, elapsed, _, _ in done)
    ok = [t for _, t, _, _ in passed]
    wall_ok = [elapsed for _, _, elapsed, _ in passed]
    facts = [got for *_, got in passed]
    by_op = defaultdict(list)
    for kind, t, _, _ in passed:
        by_op[kind].append(t)
    report_failures(errors)
    attempted = len(ok) + len(errors)
    tail_ms = percentile(ok, workload.tail_pct) * 1e3 if ok else 0.0
    rusage = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "ops_per_s": metric(len(ok) / spent, "1/s"),
        "op_p50_ms": metric(percentile(ok, 50.0) * 1e3 if ok else 0.0, "ms"),
        "op_tail_ms": metric(tail_ms, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(rusage).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "failed_frac": len(errors) / attempted,
        "tail_percentile": workload.tail_pct,
        "tail_beyond": sum(1 for t in ok if t * 1e3 > tail_ms),
        "measured_s": wall_spent,
        "p50_ms_by_kind": {kind: round(statistics.median(t) * 1e3, 3) for kind, t in by_op.items()},
        "ref_p50_ms": statistics.median(speed.refs) * 1e3,
        "ref_iqr_frac": iqr_frac(speed.refs),
        "wall_ops_per_s": len(wall_ok) / wall_spent,
        "wall_op_p50_ms": percentile(wall_ok, 50.0) * 1e3 if wall_ok else 0.0,
        "wall_op_tail_ms": percentile(wall_ok, workload.tail_pct) * 1e3 if wall_ok else 0.0,
    }
    recovered = [f["recovered"] for f in facts if "recovered" in f]
    if recovered:
        extra["recovered_frac"] = sum(recovered) / len(recovered)
    return not errors, attempted, len(errors), metrics, extra


# --- traced run ---------------------------------------------------------------

CALL_COUNTS = ("factor.pinv", "factor.svd", "products.tensor_product", "io.read_tensor", "io.write_tensor")
SELF_TIMES = (
    "factor.pinv", "factor.svd", "decomp.cp_als", "decomp.hosvd", "decomp.truncated_hosvd",
    "decomp.tt_svd", "decomp.tt_orthogonalize", "products.multi_mode_product",
    "products.tt_pair_product", "products.tensor_product", "network.evaluate",
    "network.plan.exhaustive", "network.plan.greedy", "network.parse_network",
    "io.read_tensor", "io.write_tensor", "io.loads_tensor", "io.dumps_tensor",
    "decomp.write_model", "decomp.read_model", "cli.main",
)
MODULE_SELF_TIMES = ("core", "elementwise")
CLI_SUBCOMMANDS = ("info", "reshape", "decompose", "contract", "verify")


def aggregate(spans) -> dict:
    """Per span name: calls, self seconds, inclusive seconds, summed notes."""
    from tracer import self_times

    agg = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for (name, start, end, _, note), own in zip(spans, self_times(spans)):
        row = agg[name]
        row[0] += 1
        row[1] += own
        row[2] += end - start
        row[3] += note or 0
    return agg


def cp_sweeps(spans) -> int:
    """Sweeps over all restarts: one pinv per mode per sweep; a cp_als span notes the order."""
    pinv_under = Counter(
        parent for name, _, _, parent, _ in spans
        if name == "factor.pinv" and parent >= 0 and spans[parent][0] == "decomp.cp_als"
    )
    return sum(n // spans[p][4] for p, n in pinv_under.items())


def layer_metrics(spans_a, spans_b, per_op, imports, overhead) -> dict:
    """Counts come from the first traced pass (the second must match); times are the mean of both."""
    agg_a, agg_b = aggregate(spans_a), aggregate(spans_b)
    out = {}

    def mean_ms(col, name):
        return (agg_a[name][col] + agg_b[name][col]) / 2 * 1e3

    for name in CALL_COUNTS:
        out[f"{name}.calls"] = metric(agg_a[name][0], "count")
    for name in SELF_TIMES:
        out[f"{name}.self_ms"] = metric(mean_ms(1, name), "ms")
    for module in MODULE_SELF_TIMES:
        total = sum(row[1] for agg in (agg_a, agg_b) for name, row in agg.items() if name.startswith(module + "."))
        out[f"{module}.self_ms"] = metric(total / 2 * 1e3, "ms")
    sweeps = cp_sweeps(spans_a)
    kept = sum(facts.get("kept_sweeps", 0) for _, _, facts in per_op)
    recovered = [facts["recovered"] for _, _, facts in per_op if "recovered" in facts]
    out["decomp.cp_als.sweeps"] = metric(sweeps, "count")
    out["decomp.cp_als.kept_sweep_frac"] = metric(kept / sweeps if sweeps else 0.0, "ratio")
    out["decomp.cp_als.recovered_frac"] = metric(sum(recovered) / len(recovered) if recovered else 0.0, "ratio")
    cost = agg_a["network.evaluate"][3] + agg_b["network.evaluate"][3]
    evaluate_s = agg_a["network.evaluate"][2] + agg_b["network.evaluate"][2]
    out["network.evaluate.ns_per_cost"] = metric(evaluate_s * 1e9 / cost if cost else 0.0, "ns")
    ratios = [facts["greedy_ratio"] for _, _, facts in per_op if "greedy_ratio" in facts]
    geo = math.exp(sum(map(math.log, ratios)) / len(ratios)) if ratios else 0.0
    out["network.plan.greedy_cost_ratio"] = metric(geo, "ratio")
    for name in ("io.read_tensor", "io.write_tensor"):
        nbytes = agg_a[name][3] + agg_b[name][3]
        seconds = agg_a[name][2] + agg_b[name][2]
        out[f"{name}.mb_per_s"] = metric(nbytes / seconds / 1e6 if seconds else 0.0, "MB/s")
    out["cli.import_ms"] = metric(statistics.median(imports) * 1e3, "ms")
    for sub in CLI_SUBCOMMANDS:
        times = [t for kind, pair, _ in per_op if kind.split()[0] == sub for t in pair]
        out[f"cli.{sub}.p50_ms"] = metric(statistics.median(times) * 1e3 if times else 0.0, "ms")
    out["trace.op_ms"] = metric(sum(sum(pair) for _, pair, _ in per_op) / 2 * 1e3, "ms")
    out["trace_overhead_frac"] = metric(overhead, "ratio")
    return out


def traced_run(workload, ops, imports):
    """A fixed list of operations, each run once to warm up, then traced,
    untraced and traced again.

    The untraced run, between the two traced ones, gives the tracing
    overhead; the two traced runs must record the same span counts,
    operation by operation.
    """
    from tracer import Tracer

    tracer = Tracer()
    spans_a, spans_b = [], []
    per_op, errors, mismatched = [], [], []
    untraced_s = 0.0
    count = workload.trace_ops or len(ops)
    for i in range(count):
        op = ops[i % len(ops)]
        fn = op.inproc or op.run
        errs, times, counts = [], [], []

        def traced(spans):
            tracer.spans = spans
            first = len(spans)
            elapsed, got, err = attempt(op, fn, tracer)
            times.append(elapsed)
            counts.append(Counter(s[0] for s in spans[first:]))
            errs.append(err)
            return got

        errs.append(attempt(op, fn)[2])  # warm-up
        facts = traced(spans_a) or {}
        elapsed, _, err = attempt(op, fn)
        untraced_s += elapsed
        errs.append(err)
        traced(spans_b)
        errors += [e for e in errs if e][:1]
        if counts[0] != counts[1]:
            mismatched.append(op.kind)
        per_op.append((op.kind, times, facts))
    report_failures(errors)
    for kind in mismatched:
        print(f"span counts differ between two traced runs of {kind}", file=sys.stderr)
    traced_s = sum(sum(times) for _, times, _ in per_op) / 2
    metrics = layer_metrics(spans_a, spans_b, per_op, imports, traced_s / untraced_s - 1.0)
    return not errors and not mismatched, count, len(errors), metrics, (spans_a, spans_b)


def write_spans(path: Path, passes) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "note"], "passes": passes}, fh)


# --- entry points -------------------------------------------------------------


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_s, imports, ops = measure_setup(workload, args.seed, workdir)
        if args.trace:
            correct, attempted, failed, metrics, passes = traced_run(workload, ops, imports)
            spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
            write_spans(spans_path, passes)
            extra = {"spans": str(spans_path.relative_to(ROOT))}
        else:
            correct, attempted, failed, metrics, extra = untraced_run(workload, ops, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    prov = provenance(args.seed, {workload.name: attempted})
    log(f"workload {workload.name}: seed {args.seed}, {attempted} operations, {failed} failed, "
        f"{'traced' if args.trace else 'untraced'}, closed loop with one client")
    for name, m in metrics.items():
        log(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in extra.items():
        log(f"  {name} = {value:.6g}" if isinstance(value, float) else f"  {name} = {value}")
    log("provenance " + json.dumps(prov, sort_keys=True))
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.record:
        record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "result": result, "extra": extra, "provenance": prov}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    log(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record:
            cmd += ["--record", args.record]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric_name}"] = m
    log(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append each run's result and provenance to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two JSON-lines files of recorded runs")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    if not (SRC / "tenkit" / "__init__.py").is_file():
        print(f"perfbench: no tenkit sources under {SRC}; run from a tenkit checkout", file=sys.stderr)
        return 2
    if args.workload is None:
        parser.error("--workload is required")
    if args.record:
        args.record = os.path.abspath(args.record)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
