"""Cross-check battery: every closed formula against its brute-force oracle.

Each check returns a record with the measured residual and the tolerance it
is held to; the battery is the backbone of the `verify` CLI command.
"""

import numpy as np

from . import algebra, bethe, determinant
from .algebra import LatticeSpec


def _record(name, residual, tol, **extra):
    rec = {
        "check": name,
        "residual": float(residual),
        "tolerance": float(tol),
        "passed": bool(residual < tol),
    }
    rec.update(extra)
    return rec


def check_rtt(gamma, seed=42, draws=100, tol=1e-12):
    """Intertwining-relation residual over random parameter pairs at M = 2."""
    rng = np.random.default_rng(seed)
    spec = algebra.homogeneous_spec(2)
    pairs = rng.normal(size=(draws, 4))

    def one(row):
        lam = row[0] + 0.3j * row[1]
        mu = row[2] + 0.3j * row[3]
        return algebra.rtt_residual(lam, mu, spec, gamma)

    worst = max(map(one, pairs))
    return _record("rtt_intertwining", worst, tol, draws=draws, M=2)


def check_commutation(gamma, M=4, seed=42, draws=5, tol=1e-12):
    """[B(lam), B(mu)] = 0 and [T(lam), T(mu)] = 0 as relative max-norms."""
    rng = np.random.default_rng(seed)
    spec = LatticeSpec(M, tuple(0.2 * rng.normal(size=M)))
    worst = 0.0
    for _ in range(draws):
        lam = rng.normal() + 0.3j * rng.normal()
        mu = rng.normal() + 0.3j * rng.normal()
        _, B1, _, _ = algebra.monodromy(lam, spec, gamma)
        _, B2, _, _ = algebra.monodromy(mu, spec, gamma)
        T1 = algebra.transfer(lam, spec, gamma)
        T2 = algebra.transfer(mu, spec, gamma)
        for X, Y in ((B1, B2), (T1, T2)):
            scale = max(np.max(np.abs(X @ Y)), 1e-300)
            worst = max(worst, np.max(np.abs(X @ Y - Y @ X)) / scale)
    return _record("operator_commutation", worst, tol, M=M, draws=draws)


def check_qism(gamma, sizes=(2, 4), seed=42, tol=1e-10):
    """Inverse-scattering representation of the down-projectors, entrywise."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for M in sizes:
        for mu in ((0.0,) * M, tuple(0.25 * rng.normal(size=M))):
            spec = LatticeSpec(M, mu)
            for k in range(1, M + 1):
                d = np.max(np.abs(algebra.qism_pi(k, spec, gamma) - algebra.projector_pi(k, spec)))
                worst = max(worst, d)
    return _record("qism_projector", worst, tol, sizes=list(sizes))


def check_slavnov(gamma, cases=((1, 2), (2, 4), (3, 6)), seed=42, draws=20, tol=1e-8):
    """Scalar-product determinant against direct operator application."""
    rng = np.random.default_rng(seed)

    def one(case):
        N, M = case
        roots = bethe.solve_ground_state(M, gamma)
        spec = roots.spec
        v = algebra.bethe_state(roots.values, spec, gamma)
        worst = 0.0
        for _ in range(draws):
            xi = rng.normal(size=N) * 0.8 + 1j * rng.normal(size=N) * 0.3
            det_val = determinant.slavnov_scalar_product(xi, roots)
            u = algebra.up_state(spec)
            for x in xi:
                u = algebra.monodromy_apply(x, spec, gamma, u, "C", transpose=True)
            brute = complex(u @ v)
            worst = max(worst, abs(det_val - brute) / abs(brute))
        return worst

    worst = max(map(one, cases))
    return _record("slavnov_vs_bruteforce", worst, tol, cases=[list(c) for c in cases], draws=draws)


def check_gaudin(gamma, sizes=(2, 4, 6), tol=1e-8):
    """Norm determinant against the brute-force pairing."""
    worst = 0.0
    for M in sizes:
        roots = bethe.solve_ground_state(M, gamma)
        spec = roots.spec
        brute = complex(
            algebra.dual_state(roots.values, spec, gamma)
            @ algebra.bethe_state(roots.values, spec, gamma)
        )
        worst = max(worst, abs(determinant.gaudin_norm(roots) - brute) / abs(brute))
    return _record("gaudin_vs_bruteforce", worst, tol, sizes=list(sizes))


def check_gaudin_specialization(gamma, M=4, eps=(1e-3, 1e-4, 1e-5), tol=1e-6):
    """Scalar-product determinant specialized xi -> roots, Richardson
    extrapolated in the offset, against the norm determinant."""
    roots = bethe.solve_ground_state(M, gamma)
    vals = [
        determinant.slavnov_scalar_product(roots.values + e, roots) for e in eps
    ]
    extr = determinant.neville_extrapolate(list(eps), vals)
    ref = determinant.gaudin_norm(roots)
    return _record(
        "gaudin_specialization_limit", abs(extr - ref) / abs(ref), tol, eps=list(eps), M=M
    )


def check_d_action(gamma, seed=42, tol=1e-9):
    """Expansion of D-products over B-states, generic rapidities, n <= 2."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for N, n, M in ((1, 1, 2), (2, 1, 4), (2, 2, 4)):
        spec = LatticeSpec(M, tuple(0.2 * rng.normal(size=M)))
        lams = rng.normal(size=N) * 0.5 + 0.25j * rng.normal(size=N)
        extra = rng.normal(size=n) * 0.5 + 0.25j * rng.normal(size=n)
        worst = max(worst, determinant.d_action_check(lams, extra, spec, gamma))
    return _record("d_action_expansion", worst, tol)


def check_efp_finite(gamma, sizes=(4, 6), seed=42, tol=1e-8):
    """Determinant-path emptiness probability against the brute-force
    correlator, every consecutive window, generic distinct inhomogeneities."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for M in sizes:
        mu = tuple(np.sort(0.3 * rng.normal(size=M)))
        spec = LatticeSpec(M, mu)
        roots = bethe.solve_bae(*bethe.ground_state_numbers(M // 2), spec, gamma)
        for n in range(1, M + 1):
            for k in range(0, M - n + 1):
                det_val = determinant.efp_finite(roots, k, n, return_complex=True)
                brute = algebra.correlator_bruteforce(
                    roots.values, spec, gamma, range(k + 1, k + n + 1), return_complex=True
                )
                worst = max(worst, abs(det_val - brute))
    return _record("efp_determinant_vs_bruteforce", worst, tol, sizes=list(sizes))


def check_partition(gamma, sizes=(4, 6), tol=1e-10):
    """Z = <N|R|N> against flip-sign times the norm determinant."""
    worst = 0.0
    for M in sizes:
        roots = bethe.solve_ground_state(M, gamma)
        spec = roots.spec
        z = algebra.partition_bruteforce(roots.values, spec, gamma)
        ref = roots.r_sign * determinant.gaudin_norm(roots)
        worst = max(worst, abs(z - ref) / abs(ref))
    return _record("partition_vs_norm", worst, tol, sizes=list(sizes))


def run_battery(gamma, M=4, seed=42, draws=100, tol=None):
    """Full cross-check battery; per-check default tolerances unless a global
    override is given.  Returns the list of check records."""
    if M % 2 != 0 or M < 2:
        raise ValueError(f"verification requires even M >= 2, got {M}")
    if M > 6:
        raise ValueError(f"the battery checks lattices up to M = 6, got M = {M}")
    ov = (lambda t: t) if tol is None else (lambda t: tol)
    slav_cases = tuple((m // 2, m) for m in (2, 4, 6) if m <= max(M, 2))
    sizes = tuple(m for m in (2, 4, 6) if m <= max(M, 4))
    checks = [
        check_rtt(gamma, seed=seed, draws=draws, tol=ov(1e-12)),
        check_commutation(gamma, M=min(M, 4), seed=seed, tol=ov(1e-12)),
        check_qism(gamma, sizes=tuple(m for m in (2, 4) if m <= M), seed=seed, tol=ov(1e-10)),
        check_slavnov(gamma, cases=slav_cases, seed=seed, tol=ov(1e-8)),
        check_gaudin(gamma, sizes=sizes, tol=ov(1e-8)),
        check_gaudin_specialization(gamma, M=M, tol=ov(1e-6)),
        check_d_action(gamma, seed=seed, tol=ov(1e-9)),
        check_efp_finite(gamma, sizes=tuple(m for m in (4, 6) if m <= M) or (4,), seed=seed, tol=ov(1e-8)),
        check_partition(gamma, sizes=sizes[-2:], tol=ov(1e-10)),
    ]
    return checks
