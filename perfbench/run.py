"""Benchmark of the svdwbc library and CLI.

    python3 perfbench/run.py --workload {roots,window,thermo,oracle} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  One process runs the workload's seeded job
list as a closed loop with one client, pass after pass, for about S seconds.
Every job goes through `svdwbc.cli.main(argv)` where a subcommand exists and
through the public library functions otherwise; every output is checked
outside the timed region.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, measured with tracing off;
with --trace 1 they are the per-layer ones, from traced passes that alternate
with untraced ones.  Lines before it report the environment, pass statistics
and any failures.  BLAS runs on one thread.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "svdwbc").is_dir():
    sys.exit(f"no svdwbc sources under {ROOT / 'src'}: run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import svdwbc  # noqa: E402

from calibration import REFERENCE_SECONDS, timed_kernel  # noqa: E402
from harness import Runner, measure, run_pass, tail_percentile  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import PASSES, build_inputs  # noqa: E402

WORKDIR = ROOT / ".bench_work"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


def warm_up(workload, seed):
    """Import is done; run the small pass once so lazy set-up is finished."""
    runner = Runner(WORKDIR, Tracer())
    run_pass(runner, workload, build_inputs(workload, seed, "small"))


def setup_seconds(workload, seed):
    """Median over fresh interpreters of start-up, import and warm-up, as
    (rescaled, raw) seconds; rescaled like job times (see harness)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    scaled, raw = [], []
    kernel_seconds = timed_kernel()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        raw.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        before, kernel_seconds = kernel_seconds, timed_kernel()
        scaled.append(raw[-1] * REFERENCE_SECONDS / ((before + kernel_seconds) / 2))
    return statistics.median(scaled), statistics.median(raw)


def environment(workload, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "svdwbc": svdwbc.__version__,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "workload": workload,
        "seed": seed,
    }


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def main(argv=None, size="full"):
    """Run the benchmark; `size` "small" runs the warm-up sizes (self-test)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    WORKDIR.mkdir(exist_ok=True)

    if args.setup_probe:
        warm_up(args.workload, args.seed)
        return 0

    # set-up time is an end-to-end metric only: traced runs skip the probes
    setup_s, setup_raw_s = (None, None) if args.trace else setup_seconds(args.workload, args.seed)
    warm_up(args.workload, args.seed)
    inputs = build_inputs(args.workload, args.seed, size)
    tracer = Tracer()
    runner = Runner(WORKDIR, tracer)
    untraced, untraced_raw, traced, layer_sets = measure(
        runner, args.workload, inputs, args.seconds, bool(args.trace))
    wall_s = statistics.median(untraced)

    report = {
        "environment": environment(args.workload, args.seed),
        "passes": {"untraced": untraced, "untraced_raw": untraced_raw, "traced": traced},
        "wall_s": {"median": wall_s, "samples": len(untraced),
                   "tail_percentile": tail_percentile(untraced),
                   "raw_median": statistics.median(untraced_raw)},
        "setup_s": {"median": setup_s, "raw_median": setup_raw_s},
        "job_median_s": {name: statistics.median(t) for name, t in runner.job_seconds.items()},
        "failed_frac": runner.failed / runner.attempted,
        "failures": runner.failures,
        "observed": runner.observed,
    }
    if args.trace:
        for s in layer_sets:
            s["trace.overhead_s"] = statistics.median(traced) - wall_s
        metrics = {name: {"value": statistics.median(s[name] for s in layer_sets), "unit": unit}
                   for name, unit in per_layer_units().items()}
        trace_file = WORKDIR / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.records()))
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
