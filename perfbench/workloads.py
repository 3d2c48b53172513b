"""The four workloads: seeded inputs, the job list of one pass, and the
untimed output checks that decide whether a job failed.

Every workload draws its inputs from `np.random.default_rng(seed)`: the
column inhomogeneities mu_k (0.3 N(0, 1), sorted), the distinct EFP windows,
the Monte Carlo seed and the verify seeds.  The package only ever sees the
generated numbers.  Each workload has a "full" size, which is what the
benchmark measures, and a "small" size used for warm-up and the self-test.

Why these workloads (shares of self time from `--trace 1` on a 2-core VM):
- roots:  bethe does about 77% of the work, determinant the rest.  Ground-
  state solves at M = 64, 96 and 128 show the O(N^2) pure-Python
  residual/Jacobian, and the norm on each root set shows the gaudin_norm
  overflow (NaN from M = 64 on, counted as determinant.gaudin_norm.nonfinite).
- window: determinant does about 89%, bethe the rest.  The homogeneous n = 2
  windows go through the eps split, three re-solves and Neville; the
  distinct n = 3 and n = 4 windows loop over N!/(N-n)! ordered tuples.
  M > 12, so no brute force runs.
- thermo: the only workload that runs thermo (99% of the work).  It separates
  the BLAS-bound Nystrom density solve from the Python-bound n = 3 tensor
  and MC loops.
- oracle: algebra does about 74%.  The brute-force battery, partition
  function and correlator at M <= 12; the only workload where algebra and
  verify are entry points.
"""

import math

import numpy as np

from svdwbc import bethe, determinant, thermo
from svdwbc.algebra import AnisotropyParam

GAMMA = 0.6
MU_SCALE = 0.3
# Homogeneous n = 2 at M = 64 against the thermodynamic limit: 0.11026 vs 0.11033.
THERMO_AGREEMENT = 1e-3
BRUTE_FORCE_AGREEMENT = 1e-8
PARTITION_AGREEMENT = 1e-10
MC_MARGIN = 4.0  # standard errors of slack on [0, 1] for a Monte Carlo EFP

SIZES = {
    "roots": {
        "full": {"inhomogeneous": (64, 96, 128), "homogeneous": (128,)},
        "small": {"inhomogeneous": (8, 12, 16), "homogeneous": (16,)},
    },
    "window": {
        "full": {"homogeneous": (32, 64), "distinct": ((3, 20), (4, 16), (4, 20)),
                 "thermo_check_M": 64},
        "small": {"homogeneous": (8, 12), "distinct": ((3, 8), (4, 8), (4, 10)),
                  "thermo_check_M": None},
    },
    "thermo": {
        "full": {"density_points": 512, "points": 256, "samples": 100_000},
        "small": {"density_points": 96, "points": 16, "samples": 2_000},
    },
    "oracle": {
        "full": {"rounds": 3, "verify_M": 6, "partition_M": 12, "efp_M": 12, "efp_n": 3},
        "small": {"rounds": 1, "verify_M": 4, "partition_M": 6, "efp_M": 6, "efp_n": 3},
    },
}


def _mu(rng, M):
    return ",".join(repr(float(v)) for v in np.sort(MU_SCALE * rng.standard_normal(M)))


def _central_k(M, n):
    return (M - n) // 2


# -- output checks: each returns None when the output is right, else why not --

def _efp_in_unit_interval(value, margin=0.0):
    if not math.isfinite(value):
        return f"EFP is not finite: {value}"
    if not -margin <= value <= 1.0 + margin:
        return f"EFP {value} outside [0, 1] (margin {margin:.2e})"
    return None


def _check_roots(payload):
    res, tol = payload["results"], payload["config"]["tol"]
    if len(res["roots"]) != res["M"] // 2:
        return f"{len(res['roots'])} roots for M = {res['M']}"
    worst = max(res["residuals"])
    return None if worst < tol else f"max root residual {worst:.2e} >= tol {tol:.1e}"


def _check_efp_finite(payload, reference=None, agreement=None):
    res = payload["results"]
    why = _efp_in_unit_interval(res["efp"])
    if why is None and res.get("bruteforce") is not None:
        if abs(res["efp"] - res["bruteforce"]) >= BRUTE_FORCE_AGREEMENT:
            why = f"efp {res['efp']} vs brute force {res['bruteforce']}"
    if why is None and reference is not None and abs(res["efp"] - reference) >= agreement:
        why = f"efp {res['efp']} vs thermodynamic limit {reference} (tol {agreement})"
    return why


def _check_efp_thermo(payload):
    res = payload["results"]
    return _efp_in_unit_interval(res["efp"], MC_MARGIN * (res["stderr"] or 0.0))


def _check_density(meta):
    if not abs(meta["filling"] - 0.5) < 1e-6:
        return f"filling {meta['filling']} is not 1/2"
    if not (math.isfinite(meta["rho_tot_0"]) and meta["rho_tot_0"] > 0):
        return f"rho_tot(0) = {meta['rho_tot_0']}"
    return None


def _check_verify(payload):
    if payload["results"]["all_passed"]:
        return None
    return "failed checks: " + ",".join(
        c["check"] for c in payload["results"]["checks"] if not c["passed"])


def _check_partition(payload):
    diff = payload["results"]["relative_difference"]
    return None if diff < PARTITION_AGREEMENT else f"Z vs norm differ by {diff:.2e}"


# -- inputs --------------------------------------------------------------------

def build_inputs(name, seed, size="full"):
    """Everything a workload needs, drawn from `seed`."""
    rng = np.random.default_rng(seed)
    sz = SIZES[name][size]
    if name == "roots":
        lattices = [(M, _mu(rng, M)) for M in sz["inhomogeneous"]]
        return {"lattices": lattices + [(M, "homogeneous") for M in sz["homogeneous"]]}
    if name == "window":
        reference = None
        if sz["thermo_check_M"]:
            gamma = AnisotropyParam(GAMMA)
            grid = thermo.contour_grid(gamma, None, SIZES["thermo"]["full"]["points"])
            theta = thermo.ground_state_theta(grid)
            reference = thermo.efp_thermo(2, [0.0, 0.0], theta, grid, gamma).value
        return {
            "homogeneous": sz["homogeneous"],
            "distinct": [(n, M, _mu(rng, M)) for n, M in sz["distinct"]],
            "thermo_check_M": sz["thermo_check_M"],
            "thermo_reference": reference,
        }
    if name == "thermo":
        return {**sz, "mc_window": _mu(rng, 4), "mc_seed": int(rng.integers(2**31))}
    if name == "oracle":
        return {
            **sz,
            "rounds": [
                {"verify_seed": int(rng.integers(2**31)),
                 "partition_mu": _mu(rng, sz["partition_M"]),
                 "efp_mu": _mu(rng, sz["efp_M"])}
                for _ in range(sz["rounds"])
            ],
        }
    raise ValueError(f"unknown workload {name!r}")


# -- one pass ------------------------------------------------------------------

def _roots_pass(run, inp):
    for M, mu in inp["lattices"]:
        payload = run.cli(f"solve-bae M={M}", ["solve-bae", f"--M={M}", f"--mu={mu}"],
                          _check_roots)
        if payload is None:
            continue
        roots = bethe.BetheRootSet.from_json_dict(payload["results"])
        k = _central_k(M, 1)
        run.call(f"efp_finite n=1 M={M}", lambda: determinant.efp_finite(roots, k, 1),
                 _efp_in_unit_interval)
        norm = run.call(f"gaudin_norm M={M}", lambda: determinant.gaudin_norm(roots))
        run.count("determinant.gaudin_norm.nonfinite",
                  int(norm is not None and not np.isfinite(norm)))


def _window_pass(run, inp):
    jobs = [(2, M, "homogeneous") for M in inp["homogeneous"]] + list(inp["distinct"])
    for n, M, mu in jobs:
        reference = inp["thermo_reference"] if M == inp["thermo_check_M"] else None
        run.cli(
            f"efp-finite n={n} M={M}",
            ["efp-finite", f"--M={M}", f"--n={n}", f"--k={_central_k(M, n)}", f"--mu={mu}"],
            lambda p: _check_efp_finite(p, reference, THERMO_AGREEMENT),
        )


def _thermo_pass(run, inp):
    run.cli("density", ["density", f"--points={inp['density_points']}",
                        f"--out={run.workdir / 'density.csv'}"], _check_density)
    for n in (2, 3):
        run.cli(f"efp-thermo n={n}", ["efp-thermo", f"--n={n}", f"--points={inp['points']}"],
                _check_efp_thermo)
    payload = run.cli(
        "efp-thermo n=4 mc",
        ["efp-thermo", "--n=4", f"--points={inp['points']}", f"--mu-window={inp['mc_window']}",
         f"--samples={inp['samples']}", f"--seed={inp['mc_seed']}"],
        _check_efp_thermo,
    )
    if payload is not None:
        run.count("thermo.mc.samples", payload["config"]["samples"])
        run.observe("thermo.mc.stderr", payload["results"]["stderr"])


def _oracle_pass(run, inp):
    for rnd in inp["rounds"]:
        run.cli("verify", ["verify", f"--M={inp['verify_M']}", f"--seed={rnd['verify_seed']}"],
                _check_verify)
        M = inp["partition_M"]
        run.cli(f"partition M={M}", ["partition", f"--M={M}", f"--mu={rnd['partition_mu']}"],
                _check_partition)
        M, n = inp["efp_M"], inp["efp_n"]
        run.cli(
            f"efp-finite n={n} M={M}",
            ["efp-finite", f"--M={M}", f"--n={n}", f"--k={_central_k(M, n)}",
             f"--mu={rnd['efp_mu']}"],
            _check_efp_finite,
        )


PASSES = {
    "roots": _roots_pass,
    "window": _window_pass,
    "thermo": _thermo_pass,
    "oracle": _oracle_pass,
}
