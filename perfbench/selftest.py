"""Self-test of the benchmark at its smallest sizes.

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, prints every metric named
in BENCHMARK.json with its unit and a finite value and no failed job, and
that corrupted job outputs are counted as failed.  Exits 1 on any problem.
"""

import contextlib
import io
import json
import math
import sys

import run  # sets BLAS threads and the import path before numpy loads

from svdwbc import cli, determinant

from harness import Runner, run_pass
from tracing import Tracer
from workloads import build_inputs

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0.01",
                         "--trace", str(trace)], size="small")
    if code != 0:
        raise RuntimeError(f"{workload} --trace {trace} exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_metrics():
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = _result(workload, trace)
            where = f"{workload} --trace {trace}"
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                problems.append(f"{where}: {res['failed']} of {res['attempted']} jobs failed")
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = res["metrics"]
            if set(got) != set(want):
                problems.append(f"{where}: metrics differ, missing {sorted(set(want) - set(got))}"
                                f", extra {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                m = got.get(name, {})
                if m.get("unit") != unit:
                    problems.append(f"{where}: {name} has unit {m.get('unit')!r}, not {unit!r}")
                if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{where}: {name} value {m.get('value')!r} is not a number")
    return problems


def _failed(workload):
    runner = Runner(run.WORKDIR, Tracer())
    run_pass(runner, workload, build_inputs(workload, 0, "small"))
    return runner.failed, runner.attempted


@contextlib.contextmanager
def _replaced(module, name, fn):
    original = getattr(module, name)
    setattr(module, name, fn(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def check_corruption():
    """Each corruption must fail exactly the jobs whose output it touches."""
    problems = []

    def efp_out_of_range(original):
        return lambda *a, **k: original(*a, **k) + 2.0

    def emit_bad_efp(original):
        def emit(payload, out_path):
            if "efp" in payload.get("results", {}):
                payload["results"]["efp"] = float("nan")
            return original(payload, out_path)
        return emit

    def exit_code(original):
        return lambda argv=None: 3

    cases = [
        ("roots: library EFP above 1", determinant, "efp_finite", efp_out_of_range, "roots", 4),
        ("oracle: CLI prints a NaN EFP", cli, "_emit", emit_bad_efp, "oracle", 1),
        ("window: CLI exits non-zero", cli, "main", exit_code, "window", 5),
    ]
    for label, module, name, corrupt, workload, expected in cases:
        with _replaced(module, name, corrupt):
            failed, attempted = _failed(workload)
        if failed != expected:
            problems.append(f"{label}: {failed} of {attempted} jobs failed, expected {expected}")
    failed, attempted = _failed("roots")
    if failed:
        problems.append(f"uncorrupted roots: {failed} of {attempted} jobs failed")
    return problems


def main():
    problems = check_metrics() + check_corruption()
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
