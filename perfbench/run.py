#!/usr/bin/env python3
"""oplab benchmark: seeded workloads, oracle-checked, end to end and per layer.

Usage (from the root of a checkout that holds ``src/oplab``):

    python3 perfbench/run.py --workload halfline --seed 1 --seconds 30 --trace 0

Workloads: halfline, halfplane, cli (see perfbench/workloads.py).

``--trace 0`` measures the end-to-end metrics:
  setup_s      median time, in fresh interpreters, to import oplab and build
               the workload inputs (several interpreters per run)
  wall_s       median wall time of one warm pass over the task list
  cpu_s        median user+sys CPU time of a pass (children included)
  task_p50_s   median task latency
  task_tail_s  task latency at the highest rank with ten samples above it
  peak_rss_mb  peak resident memory of the workload process (for cli, of
               its largest child)
``--trace 1`` runs one untraced and two traced passes and reports the
per-layer metrics of the last traced pass; the two traced passes must give
identical deterministic counters.

The workload runs in one child process, a single closed-loop client with
no worker threads, with BLAS threads pinned to 1.  A run makes a fixed
number of passes, sized so that it lasts about ``--seconds`` at the seed
commit.  Every task result is checked
against an oracle after its pass; a task that raises, exits non-zero or
fails its oracle counts in ``failed``.  The last line of standard output is
the JSON result; the lines before it print each metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
TRACES = os.path.join(HERE, "traces")
SETUP_REPEATS = 5
# Seconds one pass takes at the seed commit.  A run makes
# round(--seconds / PASS_SECONDS) passes, so two commits compared with the
# same --seconds measure the same work and the same latency ranks.
PASS_SECONDS = {"halfline": 3.0, "halfplane": 6.0, "cli": 4.0}
CHILD_TIMEOUT_S = 170.0



def metric_units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


# --------------------------------------------------------------------------
# the workload child
# --------------------------------------------------------------------------

def _run_pass(tasks, results, latencies, tracer=None) -> tuple[float, float]:
    """Run every task once; returns (wall, cpu) of the pass."""
    r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    c0 = time.process_time()
    t0 = time.perf_counter()
    for i, task in enumerate(tasks):
        start = time.perf_counter()
        try:
            if tracer is None:
                out = task.run()
            else:
                tracer.task = i
                out = tracer.span("bench", task.label, task.run)
        except Exception as exc:  # a failed task is a result, not a crash
            out = exc
        latencies.append(time.perf_counter() - start)
        results.append((task, out))
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (time.process_time() - c0) + (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return wall, cpu


def _check(results, state) -> None:
    import workloads
    for task, out in results:
        state["attempted"] += 1
        chk = workloads.Checker()
        if isinstance(out, Exception):
            chk.failures.append(f"raised {type(out).__name__}: {out}")
        else:
            try:
                task.check(out, chk)
            except Exception as exc:
                chk.failures.append(f"oracle could not read the result: {exc!r}")
        state["worst"] = max(state["worst"], chk.worst)
        if chk.failures:
            state["failed"] += 1
            state["failures"].append(f"{task.label}: {'; '.join(chk.failures)}")


def _import_time(env) -> float:
    code = "import time; t = time.perf_counter(); import oplab.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=60)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def measure(args) -> dict:
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    env = child_env()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)

    def task_list(trace_dir=None):
        if args.workload == "cli":
            shim = None
            if trace_dir is not None:
                shim = [os.path.join(HERE, "cli_shim.py"), trace_dir]
            return workloads.cli_tasks(inputs, workdir, env, shim)
        return workloads.tasks(inputs)

    state = {"attempted": 0, "failed": 0, "failures": [], "worst": 0.0}
    try:
        # warm-up: the first task of each kind, checked like any other
        seen, warm = set(), []
        for task in task_list():
            if task.kind not in seen:
                seen.add(task.kind)
                warm.append(task)
        results = []
        _run_pass(warm, results, [])
        _check(results, state)

        out = {"seed": args.seed}
        if not args.trace:
            walls, cpus, lat = [], [], []
            for _ in range(max(1, round(args.seconds / PASS_SECONDS[args.workload]))):
                results = []
                wall, cpu = _run_pass(task_list(), results, lat)
                walls.append(wall)
                cpus.append(cpu)
                _check(results, state)
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            out.update(walls=walls, cpus=cpus, latencies=lat,
                       peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0)
        else:
            out.update(trace_pass(args, task_list, state, env))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.update(attempted=state["attempted"], failed=state["failed"],
               failures=state["failures"], worst=state["worst"])
    return out


def trace_pass(args, task_list, state, env) -> dict:
    import tracing

    results = []
    wall_untraced, _ = _run_pass(task_list(), results, [])
    _check(results, state)
    startup = [res.wall_s - res.report["elapsed_s"] for _, res in results
               if getattr(res, "report", None)]

    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        results = []
        if args.workload == "cli":
            trace_dir = os.path.join(WORK, f"cli-trace-{os.getpid()}")
            os.makedirs(trace_dir, exist_ok=True)
            try:
                wall, _ = _run_pass(task_list(trace_dir), results, [], tracer)
                counters, spans = [], []
                for name in sorted(os.listdir(trace_dir)):
                    with open(os.path.join(trace_dir, name)) as fh:
                        doc = json.load(fh)
                    counters.append(doc["counters"])
                    spans.extend(doc["spans"])
                merged = tracing.merge(counters)
            finally:
                shutil.rmtree(trace_dir, ignore_errors=True)
        else:
            tracer.install()
            try:
                wall, _ = _run_pass(task_list(), results, [], tracer)
            finally:
                tracer.uninstall()
            merged, spans = tracer.counters(), tracer.spans
        _check(results, state)
        runs.append((wall, merged, spans))

    (_, first, _), (wall_traced, layers, spans) = runs
    for key in tracing.DETERMINISTIC:
        if first[key] != layers[key]:
            state["attempted"] += 1
            state["failed"] += 1
            state["failures"].append(
                f"determinism: {key} differs between traced passes ({first[key]} vs {layers[key]})")
    os.makedirs(TRACES, exist_ok=True)
    with open(os.path.join(TRACES, f"{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "task"], "spans": spans}, fh)

    layers["cli.import_s"] = _import_time(env)
    layers["cli.startup_s"] = statistics.median(startup) if args.workload == "cli" else 0.0
    layers["cli.commands"] = len(task_list()) if args.workload == "cli" else 0
    layers["trace.overhead_s"] = wall_traced - wall_untraced
    return {"layers": layers, "wall_untraced": wall_untraced, "wall_traced": wall_traced}


# --------------------------------------------------------------------------
# the driver-facing parent
# --------------------------------------------------------------------------

def _tail(samples: list[float]) -> tuple[float, float]:
    """Latency at the highest rank with ten samples above it, and its percentile."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def setup_time(args, env) -> float:
    cmd = [sys.executable, __file__, "--phase", "setup", "--workload", args.workload,
           "--seed", str(args.seed)]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True, timeout=60)
        if i:  # the first start compiles bytecode and fills the file cache
            samples.append(float(out.stdout))
    return statistics.median(samples)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("halfline", "halfplane", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("main", "setup", "measure"), default="main",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "oplab", "__init__.py")):
        print(f"benchmark: no oplab sources under {SRC}", file=sys.stderr)
        return 2
    if args.phase == "setup":
        t0 = time.perf_counter()
        import oplab  # noqa: F401  (set-up cost includes the package import)
        import workloads
        workloads.make_inputs(args.workload, args.seed)
        print(time.perf_counter() - t0)
        return 0
    if args.phase == "measure":
        print(json.dumps(measure(args)))
        return 0

    env = child_env()
    setup_s = setup_time(args, env) if not args.trace else None
    cmd = [sys.executable, __file__, "--phase", "measure", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"benchmark: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if args.trace:
        values = dict(res["layers"], **{"oracle.err_over_tol_max": res["worst"]})
        self_sum = sum(v for k, v in res["layers"].items()
                       if k.endswith(".self_s") and not k.startswith("bench"))
        print(f"traced pass {res['wall_traced']:.4f} s, untraced pass {res['wall_untraced']:.4f} s, "
              f"layer self-time sum {self_sum:.4f} s, harness self time "
              f"{res['layers']['bench.self_s']:.4f} s")
    else:
        lat = res["latencies"]
        tail, pct = _tail(lat)
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(res["walls"]),
            "cpu_s": statistics.median(res["cpus"]),
            "task_p50_s": statistics.median(lat),
            "task_tail_s": tail,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        print(f"{len(res['walls'])} passes of {' '.join(f'{w:.3f}' for w in res['walls'])} s; "
              f"{len(lat)} task samples; task_tail_s is the p{pct:.1f} latency")
    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:.6g} {unit}")
    failed_frac = res["failed"] / max(res["attempted"], 1)
    print(f"  {'failed_frac':<26} {failed_frac:.6g} share ({res['failed']} of {res['attempted']})")
    for reason in res["failures"][:20]:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
