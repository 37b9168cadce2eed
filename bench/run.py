"""mergosim benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --compare DIR_A DIR_B
    python3 bench/run.py --ladder

A run generates the workload's inputs from the seed, times set-up in
fresh processes, makes one untimed warm-up pass that the costly
correctness gates check, then runs closed-loop passes for the given
seconds. With --trace 0 it prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes and prints the
per-layer metrics of the traced ones.

End-to-end times are host-speed scaled. On a shared 2-vCPU host the
same code ran up to 60% slower for seconds at a time, in wall and CPU
time alike, so medians of raw seconds moved 20-40% between runs. A fixed reference task (summary.reference_task) is timed before
and after every pass and set-up probe, and each time is reported as
raw seconds x REFERENCE_S / the mean of those two reference times.
Raw figures stay in the full report. The last stdout line is the
result record; the full report, with the machine block, goes to
bench/results/. The program is imported from src/ next to this
directory and nowhere else.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# One BLAS thread: on a shared two-core host a second OpenBLAS thread
# made the same n = 441 evolve pass 14-25x slower whenever another
# process held a core, while one thread stayed within a few percent.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORK_DIR = os.path.join(BENCH_DIR, "work")

# Bench-local modules import numpy, so they follow the BLAS settings.
from summary import (REFERENCE_S, machine_block,  # noqa: E402
                     quartiles, reference_task, request_latencies)
from tracer import (PER_LAYER, REPEATING_COUNTS, Tracer,  # noqa: E402
                    layer_metrics, span_rows)
from workloads import WORKLOADS, make_workload  # noqa: E402

SETUP_PROBES = 9
MIN_PASSES = 3


def import_program():
    """Import mergosim from this checkout's src/, or exit with an error."""
    sys.path.insert(0, SRC)
    try:
        import mergosim
    except ImportError as exc:
        sys.exit(f"bench: cannot import mergosim from {SRC}: {exc}")
    if not os.path.abspath(mergosim.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: mergosim resolved outside {SRC}: "
                 f"{mergosim.__file__}")
    return mergosim


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=RESULTS_DIR,
                        help="directory for the full run reports")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare two directories of run reports")
    parser.add_argument("--ladder", action="store_true",
                        help="time layer entry points on the size ladder")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.compare or args.ladder) and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def setup_probe(args) -> None:
    """Child-process mode: time import plus set-up, print it, exit."""
    import_program()
    workload = make_workload(args.workload, args.seed, args.work_dir, ROOT)
    workload.setup_probe()
    print(json_dumps({"setup_s": time.perf_counter() - _T0}))


def json_dumps(payload, **kwargs) -> str:
    return json.dumps(payload, sort_keys=True, **kwargs)


def host_scale(before: float, after: float) -> float:
    """Factor that scales a time measured between two reference task
    timings to the reference task's nominal speed."""
    return REFERENCE_S / (0.5 * (before + after))


def measure_setup(args, work_dir: str):
    """Set-up times of fresh processes, raw and host-speed scaled, and
    any probe failures."""
    raw, scaled, failures = [], [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--work-dir", work_dir]
    for _ in range(SETUP_PROBES):
        before = reference_task()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120, cwd=ROOT)
        except subprocess.TimeoutExpired:
            failures.append("set-up probe timed out")
            continue
        after = reference_task()
        try:
            value = json.loads(proc.stdout.strip().splitlines()[-1])[
                "setup_s"]
        except (IndexError, KeyError, ValueError):
            failures.append(f"set-up probe exit {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
            continue
        raw.append(value)
        scaled.append(value * host_scale(before, after))
    return raw, scaled, failures


def timed_passes(workload, first, seconds: float, trace: bool):
    """Closed-loop passes until the deadline; traced runs alternate.
    Returns them with the reference task times taken between them."""
    tracer = Tracer() if trace else None
    untraced, traced, last_spans = [], [], []
    in_order, references = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        enough = len(untraced) >= MIN_PASSES and (
            not trace or len(traced) >= MIN_PASSES)
        if enough and time.perf_counter() >= deadline:
            break
        use_trace = trace and k % 2 == 1
        k += 1
        gc.collect()
        references.append(reference_task())
        if not use_trace:
            result = workload.run_pass()
            untraced.append(result)
        else:
            tracer.reset()
            patches = tracer.install()
            root = tracer.open("bench.pass")
            try:
                result = workload.run_pass(tracer)
            finally:
                tracer.close(root)
                patches.undo()
            result.layers = layer_metrics(tracer.spans, tracer.counters,
                                          result.artifact_bytes)
            result.layers["trace.wall_s"] = result.wall_s
            last_spans = tracer.spans
            traced.append(result)
        workload.gate(result, first)
        in_order.append(result)
    references.append(reference_task())
    for p, before, after in zip(in_order, references, references[1:]):
        p.scale = host_scale(before, after)
    return untraced, traced, last_spans, references


def end_to_end(untraced, setup_values) -> dict:
    """Gated metrics; every time in them is host-speed scaled."""
    p50, tail, level, kinds, samples = request_latencies(untraced)
    walls = [p.wall_s * p.scale for p in untraced]
    rates = [p.ops / w for p, w in zip(untraced, walls)]

    def entry(values, unit, note=None):
        q1, med, q3 = quartiles(values)
        row = {"value": med, "unit": unit, "samples": len(values),
               "q1": q1, "q3": q3}
        if note:
            row["note"] = note
        return row

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": entry(setup_values or [0.0], "s",
                         "median of fresh-process set-up probes"),
        "wall_s": entry(walls, "s", "median pass, set-up included"),
        "ops_per_s": entry(rates, "1/s", "median over passes"),
        "request_p50_s": {
            "value": p50, "unit": "s", "samples": kinds,
            "note": "median over a pass's requests of their medians"},
        "request_tail_s": {
            "value": tail, "unit": "s", "samples": samples, "level": level,
            "note": "highest quantile with >= 10 samples beyond it"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB", "samples": 1,
                        "note": "ru_maxrss of the benchmark process"},
    }


def per_layer(untraced, traced) -> tuple[dict, list]:
    """Medians of the traced passes' layer figures, plus count checks."""
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        values = [p.layers.get(name, 0.0) for p in traced]
        metrics[name] = {"value": statistics.median(values), "unit": unit,
                         "samples": len(values)}
    # like wall_s, the overhead compares host-speed scaled passes
    metrics["trace.overhead_s"]["value"] = (
        statistics.median(p.wall_s * p.scale for p in traced)
        - statistics.median(p.wall_s * p.scale for p in untraced))
    failures = []
    for name in REPEATING_COUNTS:
        seen = sorted({p.layers[name] for p in traced})
        if len(seen) > 1:
            failures.append(f"{name} differs between traced passes: {seen}")
    return metrics, failures


def run_workload(args) -> int:
    import_program()

    work_dir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-"
                                      f"{args.trace}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        workload = make_workload(args.workload, args.seed, work_dir, ROOT)
        workload.prepare()
        setup_raw, setup_values, run_failures = measure_setup(args,
                                                              work_dir)
        first = workload.run_pass(capture=True)
        workload.gate_first(first)
        workload.gate(first, first)
        untraced, traced, spans, references = timed_passes(
            workload, first, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = end_to_end(untraced, setup_values)
    report = {"kind": "run", "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "op": workload.op, "machine": machine_block(BLAS_THREADS),
              "load_model": "closed loop, one client",
              "passes": {"untraced": len(untraced), "traced": len(traced)},
              "diagnostics": workload.diagnostics,
              "pass_wall_s": [p.wall_s for p in untraced],
              "pass_scale": [p.scale for p in untraced],
              "host_speed": {"reference_nominal_s": REFERENCE_S,
                             "reference_s": quartiles(references)},
              "raw": {"setup_s": quartiles(setup_raw or [0.0]),
                      "wall_s": quartiles(p.wall_s for p in untraced)},
              "end_to_end": metrics}
    if args.trace:
        layers, count_failures = per_layer(untraced, traced)
        run_failures += count_failures
        report["per_layer"] = layers
        report["closure"] = {
            "note": "host-speed scaled, like wall_s",
            "untraced_wall_s": metrics["wall_s"]["value"],
            "layer_self_sum_s": statistics.median(
                p.layers["trace.layer_self_sum_s"] * p.scale
                for p in traced),
            "overhead_s": layers["trace.overhead_s"]["value"]}

    attempted = failed = 0
    failures = []
    for p in [first] + untraced + traced:
        for r in p.requests:
            ops = max(r.ops, 1) if r.failures else r.ops
            attempted += ops
            if r.failures:
                failed += ops
                failures.extend(r.failures)
    report.update({"attempted": attempted, "failed": failed,
                   "failed_frac": failed / attempted if attempted else 1.0,
                   "failures": sorted(set(failures + run_failures))[:50]})
    correct = failed == 0 and not run_failures

    os.makedirs(args.results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(args.results, stem + ".json"), "w") as handle:
        handle.write(json_dumps(report, indent=2) + "\n")
    if args.trace:
        with open(os.path.join(args.results, stem + "-spans.jsonl"),
                  "w") as handle:
            for row in span_rows(spans):
                handle.write(json_dumps(row) + "\n")

    print("machine " + json_dumps(report["machine"]))
    print(f"reference task median {report['host_speed']['reference_s'][1]:.6g}"
          f" s (nominal {REFERENCE_S} s); raw wall_s median "
          f"{report['raw']['wall_s'][1]:.6g} s")
    shown = report["per_layer"] if args.trace else metrics
    for name, row in shown.items():
        print(f"{name:36s} {row['value']:>16.6g} {row['unit']}")
    print(f"failed_frac {report['failed_frac']:.6g} "
          f"({failed} of {attempted} ops; op = {workload.op})")
    for line in report["failures"]:
        print(f"FAILED: {line}")
    print(json_dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in shown.items()}}))
    return 0


def run_compare(args) -> int:
    from compare import compare_dirs

    print(compare_dirs(args.compare[0], args.compare[1],
                       os.path.join(ROOT, "BENCHMARK.json")))
    return 0


def run_ladder_mode(args) -> int:
    import_program()
    from ladder import format_rows, run_ladder

    rows = run_ladder()
    print(format_rows(rows))
    os.makedirs(args.results, exist_ok=True)
    with open(os.path.join(args.results, "ladder.json"), "w") as handle:
        handle.write(json_dumps({"kind": "ladder",
                                 "machine": machine_block(BLAS_THREADS),
                                 "rows": rows}, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.compare:
        return run_compare(args)
    if args.ladder:
        return run_ladder_mode(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
