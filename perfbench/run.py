"""Benchmark of sparseattn: predicted-sparse attention, the Pareto sweep and
predictor fitting.

    python3 perfbench/run.py [--workload attend|sweep|fit|all] [--seed N]
                             [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``, the run
length the benchmark fixes; runs compared with each other use that value.

Run from the root of a source checkout; the package is imported from
``src/``.  One workload runs per process.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it is the run record.  With
``--workload all`` each workload runs in a child process in turn and the
last line merges their results, metric names prefixed by the workload.
"""

import os

# One BLAS/OpenMP thread, before numpy is imported anywhere in the process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 600


def import_program():
    """sparseattn from the checkout's ``src/``, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sparseattn", "__init__.py")):
        sys.exit(f"perfbench: no sparseattn sources under {src}")
    sys.path.insert(0, src)
    import sparseattn
    import sparseattn.cli

    if not os.path.abspath(sparseattn.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported sparseattn from {sparseattn.__file__}, not {src}")
    return sparseattn


def git_sha():
    """HEAD of the checkout read from ``.git`` (None outside a git clone)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def timed_ops(wl, seconds, samples, failures, sa, tracer, untraced):
    """Whole rounds of operations until ``seconds`` have passed.

    With a tracer, rounds alternate between traced ones, timed into
    ``samples``, and untraced ones, timed into ``untraced``, so that a drift
    in the machine's speed reaches both alike; the run ends after an
    untraced round.
    """
    op_id = 0
    traced = False
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or traced:
        if tracer is not None:
            traced = not traced
            if traced:
                tracer.install(sa)
        for op in wl.round():
            if traced:
                tracer.op = op_id
            t0 = time.perf_counter()
            try:
                output = op()
            except Exception as exc:  # a failed operation is counted, not fatal
                failures.append(f"operation {op_id}: {type(exc).__name__}: {exc}")
            else:
                (samples if traced or tracer is None else untraced).append(
                    1e3 * (time.perf_counter() - t0))
                wl.record(op_id, output)
            op_id += 1
        if traced:
            tracer.uninstall()


def run_workload(args):
    sa = import_program()
    import numpy

    sys.path.insert(0, HERE)
    import checks
    import spans
    from workloads import WORKLOADS

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = WORKLOADS[args.workload](sa, args.seed, workdir)
    tracer = spans.Tracer() if args.trace else None
    samples, untraced, failures, setup_s = [], [], [], []
    try:
        for _ in range(1 if tracer else wl.setup_reps):
            if tracer:
                tracer.install(sa)
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
            if tracer:
                tracer.uninstall()
        wl.record(0, wl.round()[0]())  # warm-up, not timed
        timed_ops(wl, args.seconds, samples, failures, sa, tracer, untraced)
        rss = peak_rss_mb()
        try:
            quality, problem = wl.check(), None
        except checks.CheckFailed as exc:
            quality, problem = {"recall": 0.0, "sparsity": 0.0, "facts": {}}, str(exc)
        dense_ms = None
        if args.workload == "attend":
            if tracer:
                tracer.op = "reference"
                tracer.install(sa)
            dense_ms = wl.reference(1 if tracer else len(wl.instances))
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(samples) + len(untraced) + len(failures)
    if not samples:
        sys.exit(f"perfbench: every operation failed: {failures[:3]}")
    op_ms = statistics.median(samples)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": sa.backend(), "numpy": numpy.__version__,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "git_sha": git_sha(), "attempted": attempted, "failed": len(failures),
        "failures": failures[:5], "check_failure": problem,
        "samples": {"op_ms": len(samples), "setup_s": len(setup_s)},
        **quality["facts"],
    }
    if dense_ms is not None:
        record["dense_attention_probs_ms"] = dense_ms
        record["op_ms_over_dense"] = op_ms / dense_ms
    if tracer:
        values = tracer.per_layer(len(samples))
        values["trace.op_ms"] = op_ms
        values["trace.overhead_ms"] = op_ms - statistics.median(untraced)
        values["blocks.useful_cell_ratio"] = quality.get("useful_cell_ratio", 0.0)
        metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                   for name, unit in spans.PER_LAYER}
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
        record["untraced_op_ms"] = statistics.median(untraced)
        record["samples"]["untraced_op_ms"] = len(untraced)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "op_ms": {"value": op_ms, "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "recall": {"value": quality["recall"], "unit": "ratio"},
            "sparsity": {"value": quality["sparsity"], "unit": "ratio"},
        }
        record["samples"].update(peak_rss_mb=1, recall=1, sparsity=1)
    correct = problem is None
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


WORKLOAD_NAMES = ("attend", "sweep", "fit")


def run_all(args):
    """Each workload in its own child process, one after the other, so that
    no state and no peak resident memory carries over between them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if not lines:
            sys.exit(f"perfbench: workload {name} printed no result (exit {child.returncode})")
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        for metric, value in result["metrics"].items():
            print(f"{name:7s} {metric:42s} {value['value']:.6g} {value['unit']}")
            merged["metrics"][f"{name}.{metric}"] = value
        print(f"{name:7s} attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}")
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
