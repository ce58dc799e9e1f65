"""One benchmark process: set up a workload and, for ROLE 'run', warm it up and time it.

    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE ROLE

run.py starts this script with the environment it records; it prints one
JSON object on stdout.  ROLE 'setup' stops when the inputs are ready.
"""
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

T0 = time.perf_counter()  # set-up time starts here, before twinpdc is imported

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = HERE / "out"
WORK_DIR = HERE / ".work"


def environment():
    import numpy
    import platform
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"cpu_count": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": openblas}


def run_pass(body, inputs, calls):
    """One pass over a body; a call that raises fails its operation and ends the pass."""
    try:
        body(inputs, calls)
    except Exception as exc:  # noqa: BLE001 - reported as a failed operation
        traceback.print_exc()
        calls.failures.append(f"{type(exc).__name__}: {exc}")


def timed_passes(body, inputs, calls, seconds):
    """Untraced passes until together they have taken `seconds`."""
    walls = []
    while sum(walls) < seconds:
        t = time.perf_counter()
        run_pass(body, inputs, calls)
        walls.append(time.perf_counter() - t)
    return walls


def measure(workloads, name, base, seed, inputs, seconds, trace, workdir):
    from tracing import NullTracer, Tracer, coverage, layer_metrics, peak_rss_mb

    prepare, body = workloads.WORKLOADS[name]
    calls = workloads.Calls(NullTracer())
    # warm-up: the same calls on reduced inputs, discarded; it warms every code
    # path without raising the RSS high-water mark of the timed pass
    run_pass(body, prepare(base, seed, True, workdir), calls)
    out = {}
    if trace:
        run_id = f"{name}-seed{seed}-pid{os.getpid()}"
        tracer = calls.tracer = Tracer(run_id)
        with tracer.region(f"workload.{name}") as root:
            run_pass(body, inputs, calls)
        calls.tracer = NullTracer()
    walls = timed_passes(body, inputs, calls, seconds)
    if trace:
        layers = layer_metrics(tracer.spans)
        layers["trace.overhead_s"] = root["end"] - root["start"] - statistics.median(walls)
        layers["trace.coverage"] = coverage(tracer.spans, root["id"])
        # layers this body never calls are timed on the other workloads' reduced inputs
        probe = calls.tracer = Tracer(f"{run_id}-probe")
        for other, (other_prepare, other_body) in workloads.WORKLOADS.items():
            if other != name:
                with probe.region(f"probe.{other}"):
                    run_pass(other_body, other_prepare(base, seed, True, workdir), calls)
        probed = {k: v for k, v in layer_metrics(probe.spans).items() if k not in layers}
        layers.update(probed)
        TRACE_DIR.mkdir(exist_ok=True)
        (TRACE_DIR / f"trace-{name}-seed{seed}.json").write_text(json.dumps(
            {"run": run_id, "layers": layers, "probed": sorted(probed),
             "spans": tracer.spans + probe.spans}, indent=1))
        out["layers"] = layers
    out.update(walls=walls, peak_rss_mb=peak_rss_mb(), attempted=calls.attempted,
               failures=calls.failures, environment=environment())
    return out


def main(argv):
    name, seed, seconds, trace, role = argv[1], int(argv[2]), float(argv[3]), argv[4] == "1", argv[5]
    t = time.perf_counter()
    import twinpdc
    import workloads
    import_s = time.perf_counter() - t
    if not Path(twinpdc.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"twinpdc imported from {twinpdc.__file__}, not from {ROOT / 'src'}")
    t = time.perf_counter()
    base = workloads.configure(seed)
    config_s = time.perf_counter() - t
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        inputs = workloads.WORKLOADS[name][0](base, seed, False, workdir)
        result = {"setup_s": time.perf_counter() - T0, "import_s": import_s,
                  "config_s": config_s}
        if role == "run":
            result.update(measure(workloads, name, base, seed, inputs, seconds, trace, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
