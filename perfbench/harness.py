"""Closed-loop runner: one client runs a workload's job list pass after pass,
timing each job and checking its output outside the timed region.

Job times are rescaled to a fixed machine speed: the calibration kernel runs
before and after every job and, from a SIGALRM handler, every
SAMPLE_INTERVAL_S while it runs.  A job's seconds, less the time spent in
the handler, are multiplied by REFERENCE_SECONDS over the median of those
kernel times, and so are the spans traced inside the job.  Unscaled pass
times are kept for the report.
"""

import io
import json
import math
import signal
import statistics
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from svdwbc import cli

from calibration import REFERENCE_SECONDS, SAMPLE_INTERVAL_S, timed_kernel
from tracing import LAYERS
from workloads import PASSES

MIN_UNTRACED_PASSES = 2


class Runner:
    """Runs jobs, times them, checks them and counts what failed.

    A job fails on a non-zero exit code, an exception, output that is not the
    expected JSON, or a failed output check.  Counts and observations that a
    pass reports through `count` and `observe` are kept per pass.
    """

    def __init__(self, workdir, tracer):
        self.workdir = workdir
        self.tracer = tracer
        self.traced = False
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.job_seconds = defaultdict(list)
        self.pass_seconds = self.pass_raw_seconds = 0.0
        self.counts = Counter()
        self.observed = {}
        self._kernel_seconds = None
        self._samples = []

    def _sample(self, signum, frame):
        self._samples.append(timed_kernel())

    def start_pass(self, traced):
        self.traced = traced
        self.pass_seconds = self.pass_raw_seconds = 0.0
        self.counts = Counter()
        self.observed = {}
        signal.signal(signal.SIGALRM, self._sample)
        self._kernel_seconds = timed_kernel()
        if traced:
            self.tracer.reset()

    def _timed(self, name, fn):
        """(result, error) of fn(), with the job's time and spans recorded."""
        self.attempted += 1
        self.tracer.job = name
        self.tracer.active = self.traced
        self._samples = []
        first_span = len(self.tracer.spans)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = perf_counter()
        try:
            return fn(), None
        except Exception:  # a crashing job is a failed operation, not a crashed benchmark
            return None, traceback.format_exc(limit=3)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - start
            self.tracer.active = False
            elapsed -= sum(self._samples)
            before, self._kernel_seconds = self._kernel_seconds, timed_kernel()
            factor = REFERENCE_SECONDS / statistics.median(
                [before, self._kernel_seconds, *self._samples])
            for span in self.tracer.spans[first_span:]:
                span.factor = factor
            self.pass_raw_seconds += elapsed
            self.pass_seconds += elapsed * factor
            self.job_seconds[name].append(elapsed * factor)

    def _fail(self, name, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{name}: {why}")

    def call(self, name, fn, check=None):
        """Time a library call; returns its value, or None if the job failed."""
        value, error = self._timed(name, fn)
        why = error or (check(value) if check else None)
        if why:
            self._fail(name, why)
            return None
        return value

    def cli(self, name, argv, check):
        """Time `svdwbc <argv>` through cli.main; returns the parsed JSON output,
        or None if the job failed."""
        out, err = io.StringIO(), io.StringIO()

        def invoke():
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    return cli.main(argv)
                except SystemExit as exc:  # argparse exits on bad flags
                    return exc.code

        code, error = self._timed(name, invoke)
        if error is None and code != 0:
            error = f"exit code {code}: {err.getvalue().strip()[-300:]}"
        if error is None:
            try:
                payload = json.loads(out.getvalue())
                error = check(payload)
            except (ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output: {exc!r}"
        if error:
            self._fail(name, error)
            return None
        return payload

    def count(self, name, value=1):
        self.counts[name] += value

    def observe(self, name, value):
        self.observed[name] = value


def run_pass(runner, workload, inputs, traced=False):
    """One pass over the job list; returns its summed job time in seconds,
    (rescaled, raw)."""
    runner.start_pass(traced)
    if traced:
        with runner.tracer.installed():
            PASSES[workload](runner, inputs)
    else:
        PASSES[workload](runner, inputs)
    return runner.pass_seconds, runner.pass_raw_seconds


def measure(runner, workload, inputs, seconds, traced):
    """Passes until `seconds` of wall time would be exceeded by one more.

    Returns the rescaled and raw times of the untraced passes, the rescaled
    times of the traced passes, and one set of per-layer metrics per traced
    pass.  With `traced`, traced passes alternate with untraced ones.
    """
    untraced, untraced_raw, traced_walls, layer_sets = [], [], [], []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        if traced and len(traced_walls) < len(untraced):
            traced_walls.append(run_pass(runner, workload, inputs, traced=True)[0])
            layer_sets.append(layer_metrics(runner))
        else:
            scaled, raw = run_pass(runner, workload, inputs)
            untraced.append(scaled)
            untraced_raw.append(raw)
        last = perf_counter() - pass_start
        enough = len(untraced) >= (1 if traced else MIN_UNTRACED_PASSES)
        if enough and (not traced or traced_walls) and perf_counter() - start + last > seconds:
            return untraced, untraced_raw, traced_walls, layer_sets


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def _slope(xs, ys):
    """Least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    den = sum((a - mx) ** 2 for a in lx)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / den


def layer_metrics(runner):
    """Per-layer metrics of the pass just traced.  A layer that the workload
    does not run reports zero calls and zero time."""
    tr, counts = runner.tracer, runner.counts
    out = {f"{layer}.self_s": tr.self_seconds(layer) for layer in LAYERS}

    out["bethe.solve_bae.calls"] = tr.calls("bethe.solve_bae")
    out["bethe.solve_bae.self_s"] = tr.self_seconds("bethe.solve_bae")
    out["bethe.solve_bae.s_M128"] = _median_or_zero(tr.durations("bethe.solve_bae", M=128))
    sweep = [(M, tr.durations("bethe.solve_bae", M=M, homogeneous=False)) for M in (64, 96, 128)]
    out["bethe.solve_bae.exp_M"] = (
        _slope([M for M, _ in sweep], [statistics.median(d) for _, d in sweep])
        if all(d for _, d in sweep) else 0.0
    )

    efp_self = tr.self_seconds("determinant.efp_finite")
    tuples = sum(s.tag["tuples"] for s in tr.select("determinant.efp_finite"))
    out["determinant.efp_finite.calls"] = tr.calls("determinant.efp_finite")
    out["determinant.efp_finite.self_s"] = efp_self
    out["determinant.efp_finite.tuples"] = tuples
    out["determinant.efp_finite.us_per_tuple"] = 1e6 * efp_self / tuples if tuples else 0.0
    out["determinant.g_coefficient.calls"] = tr.calls("determinant.g_coefficient")
    out["determinant.gaudin_norm.nonfinite"] = counts["determinant.gaudin_norm.nonfinite"]

    out["thermo.solve_density.self_s"] = tr.self_seconds("thermo.solve_density")
    out["thermo.local_densities.self_s"] = tr.self_seconds("thermo.local_densities")
    n3 = tr.select("thermo.efp_thermo", n=3)
    s_n3 = sum(s.duration for s in n3)
    points = sum(s.tag["evaluations"] * s.tag["nodes"] ** 3 for s in n3)
    out["thermo.efp_thermo.s_n3"] = s_n3
    out["thermo.efp_thermo.s_n4"] = sum(tr.durations("thermo.efp_thermo", n=4))
    out["thermo.tensor.ns_per_point"] = 1e9 * s_n3 / points if points else 0.0
    # the n = 4 span's self time is the sampling loop: its local-density
    # solve is a child span
    mc_self = sum(s.self_time for s in tr.select("thermo.efp_thermo", n=4))
    samples = counts["thermo.mc.samples"]
    out["thermo.mc.us_per_sample"] = 1e6 * mc_self / samples if samples else 0.0
    out["thermo.mc.stderr"] = runner.observed.get("thermo.mc.stderr", 0.0)

    out["algebra.monodromy_apply.calls"] = tr.calls("algebra.monodromy_apply")
    for name in ("algebra.monodromy_apply", "algebra.bethe_state",
                 "algebra.correlator_bruteforce", "algebra.partition_bruteforce",
                 "verify.run_battery"):
        out[f"{name}.self_s"] = tr.self_seconds(name)
    return out


def tail_percentile(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    return round(100.0 * (n - 10) / n, 1), sorted(values)[n - 11]
