"""twinpdc benchmark: one closed-loop workload, measured in fresh child processes.

    python3 perfbench/run.py --workload spectral|estimators|grid-io --seed N --seconds S --trace 0|1

Run from the repository root.  Prints a summary, the environment and sample
statistics, and as its last line one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  Exits 1 when a check
failed and 2, printing no result, when the benchmark could not run.
See perfbench/README.md.
"""
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
WORKLOADS = ("spectral", "estimators", "grid-io")
SETUP_SAMPLES = 5  # fresh processes whose set-up is timed; the median is reported
DEADLINE_S = 170.0  # every child has ended by then


class BenchError(Exception):
    pass


def child_env():
    """The children's whole environment: the checkout's sources, one BLAS thread per CPU."""
    threads = str(len(os.sched_getaffinity(0)))
    return {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(ROOT / "src"),
            "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
            "PYTHONHASHSEED": "0", "LC_ALL": "C"}


def run_child(args, role, env, deadline):
    cmd = [sys.executable, str(HERE / "child.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), role]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process still running after {DEADLINE_S:g} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{role} process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def select(computed, declared):
    """The declared metrics, in declared order, with the declared units."""
    names = [m["name"] for m in declared]
    if set(computed) != set(names):
        raise BenchError(f"metrics computed {sorted(set(computed) ^ set(names))} "
                         "differ from BENCHMARK.json")
    return {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}


def bench(args):
    if not (ROOT / "src" / "twinpdc" / "__init__.py").is_file():
        raise BenchError(f"no twinpdc sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()
    deadline = time.monotonic() + DEADLINE_S
    # set-up-only processes before and after the measuring one, so that the
    # samples span the run rather than one stretch of the machine's speed
    before = (SETUP_SAMPLES - 1) // 2
    setups = [run_child(args, "setup", env, deadline) for _ in range(before)]
    main = run_child(args, "run", env, deadline)
    setups.append(main)
    setups += [run_child(args, "setup", env, deadline)
               for _ in range(SETUP_SAMPLES - 1 - before)]

    samples = {"setup_s": [s["setup_s"] for s in setups], "wall_s": main["walls"],
               "peak_rss_mb": [main["peak_rss_mb"]]}
    if args.trace:
        computed = dict(main["layers"])
        computed["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        computed["config.load_s"] = statistics.median(s["config_s"] for s in setups)
        metrics = select(computed, spec["per_layer"])
    else:
        metrics = select({k: statistics.median(v) for k, v in samples.items()},
                         spec["end_to_end"])
    for failure in main["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{main['attempted']} operations, {len(main['failures'])} failed")
    print(json.dumps({"environment": {**main["environment"], "child_env": env},
                      "samples": {k: spread(v) for k, v in samples.items()}}))
    print(json.dumps({"correct": not main["failures"], "attempted": main["attempted"],
                      "failed": len(main["failures"]), "metrics": metrics}))
    return 1 if main["failures"] else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        return bench(args)
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
