"""Spans at the package's layer entry points, recorded from outside the package.

A traced pass replaces each entry point listed in ENTRY_POINTS by a wrapper
that records a span (name, job, parent span, start, end).  A span's self time
is its duration minus the time covered by its child spans, so nested calls
(cli.main -> efp_finite -> solve_bae -> bethe_state -> monodromy_apply) are
each charged only for their own work.  COUNTED entry points get a call
counter and no timer: they are called once per ordered tuple of the
finite-size EFP sum, and timing them would shift time between layers.

The scalar helpers algebra.boltzmann_weights and algebra.d_eigenvalue are
deliberately absent: they are called for every vertex weight, up to about a
million times per pass, and a wrapper would cost more than the work it times.
"""

import functools
import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from svdwbc import algebra, bethe, cli, determinant, thermo, verify

_MODULES = {
    "cli": cli,
    "verify": verify,
    "bethe": bethe,
    "determinant": determinant,
    "thermo": thermo,
    "algebra": algebra,
}


def _evaluations(window, eps_schedule):
    """How many times an EFP routine evaluates its window: once when the
    columns are distinct, once per eps point when it splits them."""
    window = [complex(w) for w in window]
    if len(set(window)) == len(window):
        return 1
    return len(eps_schedule or determinant.DEFAULT_EPS_SCHEDULE)


def _solve_bae_tag(n_i, v_i, spec, *args, **kwargs):
    mu = [complex(m) for m in (spec.mu if hasattr(spec, "mu") else spec)]
    return {"M": len(mu), "homogeneous": len(set(mu)) <= 1}


def _efp_finite_tag(roots, k=None, n=None, eps_schedule=None, **kwargs):
    if isinstance(roots, determinant.EfpRequest):
        roots, k, n = roots.roots, roots.k, roots.n
    evals = _evaluations(roots.mu[k:k + n], eps_schedule)
    return {"n": n, "tuples": evals * math.perm(roots.N, n) if n <= roots.N else 0}


def _efp_thermo_tag(n, mu_window, theta, grid, gamma, eps_schedule=None, **kwargs):
    nodes = sum(1 for t, w in zip(theta, grid.w) if t * w != 0)
    return {"n": n, "evaluations": _evaluations(mu_window, eps_schedule), "nodes": nodes}


ENTRY_POINTS = {
    "cli": {"main": None},
    "verify": {"run_battery": None},
    "bethe": {"solve_bae": _solve_bae_tag, "eigenvalue_residual": None,
              "flip_sign_residual": None},
    "determinant": {"efp_finite": _efp_finite_tag, "gaudin_norm": None,
                    "slavnov_scalar_product": None, "scalar_product_ratio": None,
                    "cauchy_det_check": None, "d_action_check": None},
    "thermo": {"solve_density": None, "local_densities": None,
               "efp_thermo": _efp_thermo_tag, "efp_sum_finite": None},
    "algebra": {"monodromy_apply": None, "monodromy": None, "transfer": None,
                "transfer_apply": None, "rtt_residual": None, "bethe_state": None,
                "dual_state": None, "qism_pi": None, "partition_bruteforce": None,
                "correlator_bruteforce": None},
}

COUNTED = {"determinant": ("g_coefficient",)}

LAYERS = tuple(ENTRY_POINTS)


class Span:
    """One call of an entry point.  `factor` rescales its raw seconds to the
    reference machine speed, as the job that contains it was rescaled."""

    __slots__ = ("name", "tag", "job", "parent", "start", "end", "child", "factor")

    def __init__(self, name, tag, job, parent):
        self.name, self.tag, self.job, self.parent = name, tag, job, parent
        self.start = self.end = 0.0
        self.child = 0.0
        self.factor = 1.0

    @property
    def duration(self):
        return (self.end - self.start) * self.factor

    @property
    def self_time(self):
        return (self.end - self.start - self.child) * self.factor


class Tracer:
    """Records spans and call counts while `active`; passes straight through
    otherwise, so output checks run between jobs are never traced."""

    def __init__(self):
        self.active = False
        self.job = None
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def timed(self, name, fn, tag=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, tag(*args, **kwargs) if tag else None, self.job, parent)
            self._stack.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
                self.spans.append(span)

        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        try:
            for layer, names in ENTRY_POINTS.items():
                mod = _MODULES[layer]
                for fname, tag in names.items():
                    saved.append((mod, fname, getattr(mod, fname)))
                    setattr(mod, fname, self.timed(f"{layer}.{fname}", saved[-1][2], tag))
            for layer, names in COUNTED.items():
                mod = _MODULES[layer]
                for fname in names:
                    saved.append((mod, fname, getattr(mod, fname)))
                    setattr(mod, fname, self.counted(f"{layer}.{fname}", saved[-1][2]))
            yield self
        finally:
            for mod, fname, fn in reversed(saved):
                setattr(mod, fname, fn)

    def self_seconds(self, prefix):
        """Self time of all spans whose name is `prefix` or starts with `prefix.`."""
        return sum(s.self_time for s in self.spans
                   if s.name == prefix or s.name.startswith(prefix + "."))

    def calls(self, name):
        return sum(1 for s in self.spans if s.name == name) + self.counts[name]

    def select(self, name, **tag):
        return [s for s in self.spans
                if s.name == name and all(s.tag.get(k) == v for k, v in tag.items())]

    def durations(self, name, **tag):
        return [s.duration for s in self.select(name, **tag)]

    def records(self):
        """Spans as plain dicts, in completion order, with parent indices."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {"name": s.name, "job": s.job, "tag": s.tag,
             "parent": index.get(id(s.parent)) if s.parent is not None else None,
             "start": s.start, "end": s.end, "factor": s.factor, "self": s.self_time}
            for s in self.spans
        ]
