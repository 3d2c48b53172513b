"""End-to-end acceptance criteria.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single PASS line with the measured figure (run pytest -s to see
them); any failure is a hard test failure.
"""

import time

import numpy as np

from oracles import ground_state_density_closed_form, nystrom_profile
from svdwbc import algebra, bethe, determinant, thermo
from svdwbc.algebra import AnisotropyParam, LatticeSpec, homogeneous_spec

GAMMA = AnisotropyParam(0.6)


def report(num, name, detail):
    print(f"PASS criterion {num:2d} [{name}]: {detail}")


def test_criterion_01_rtt_identity():
    rng = np.random.default_rng(1)
    spec = homogeneous_spec(2)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        lam = rng.normal() + 0.3j * rng.normal()
        mu = rng.normal() + 0.3j * rng.normal()
        worst = max(worst, algebra.rtt_residual(lam, mu, spec, GAMMA))
    elapsed = time.monotonic() - t0
    assert worst < 1e-12
    assert elapsed < 1.0
    report(1, "rtt-intertwining", f"max residual {worst:.2e} < 1e-12, {elapsed:.2f}s")


def test_criterion_02_slavnov_determinant():
    rng = np.random.default_rng(2)
    t0 = time.monotonic()
    worst = 0.0
    for N, M in ((1, 2), (2, 4), (3, 6)):
        roots = bethe.solve_ground_state(M, GAMMA)
        spec = roots.spec
        ket = algebra.bethe_state(roots.values, spec, GAMMA)
        for _ in range(20):
            xi = rng.normal(size=N) * 0.8 + 1j * rng.normal(size=N) * 0.3
            det_val = determinant.slavnov_scalar_product(xi, roots)
            bra = algebra.up_state(spec)
            for x in xi:
                bra = algebra.monodromy_apply(x, spec, GAMMA, bra, "C", transpose=True)
            brute = complex(bra @ ket)
            worst = max(worst, abs(det_val - brute) / abs(brute))
    elapsed = time.monotonic() - t0
    assert worst < 1e-8
    assert elapsed < 30.0
    report(2, "slavnov-vs-bruteforce", f"max rel err {worst:.2e} < 1e-8, {elapsed:.1f}s")


def test_criterion_03_gaudin_norm():
    worst_bf = 0.0
    for M in (2, 4, 6):
        roots = bethe.solve_ground_state(M, GAMMA)
        norm = determinant.gaudin_norm(roots)
        brute = complex(
            algebra.dual_state(roots.values, roots.spec, GAMMA)
            @ algebra.bethe_state(roots.values, roots.spec, GAMMA)
        )
        worst_bf = max(worst_bf, abs(norm - brute) / abs(brute))
    assert worst_bf < 1e-8
    roots = bethe.solve_ground_state(6, GAMMA)
    eps = (1e-3, 1e-4, 1e-5)
    vals = [determinant.slavnov_scalar_product(roots.values + e, roots) for e in eps]
    extr = determinant.neville_extrapolate(list(eps), vals)
    ref = determinant.gaudin_norm(roots)
    spec_err = abs(extr - ref) / abs(ref)
    assert spec_err < 1e-6
    report(3, "gaudin-norm", f"brute {worst_bf:.2e} < 1e-8, specialization {spec_err:.2e} < 1e-6")


def test_criterion_04_qism_projector():
    rng = np.random.default_rng(4)
    worst = 0.0
    for M in (2, 4):
        for mu in ((0.0,) * M, tuple(0.25 * rng.normal(size=M))):
            spec = LatticeSpec(M, mu)
            for k in range(1, M + 1):
                worst = max(
                    worst,
                    np.max(
                        np.abs(algebra.qism_pi(k, spec, GAMMA) - algebra.projector_pi(k, spec))
                    ),
                )
    assert worst < 1e-10
    report(4, "qism-projector", f"max-norm discrepancy {worst:.2e} < 1e-10 at M in {{2,4}}")


def test_criterion_05_d_action_expansion():
    rng = np.random.default_rng(5)
    worst = 0.0
    for N, n, M in ((1, 1, 2), (1, 2, 2), (2, 1, 4), (2, 2, 4)):
        spec = LatticeSpec(M, tuple(0.2 * rng.normal(size=M)))
        lams = rng.normal(size=N) * 0.5 + 0.25j * rng.normal(size=N)
        extra = rng.normal(size=n) * 0.5 + 0.25j * rng.normal(size=n)
        worst = max(worst, determinant.d_action_check(lams, extra, spec, GAMMA))
    assert worst < 1e-9
    report(5, "d-action-expansion", f"max discrepancy {worst:.2e} < 1e-9 (n <= 2, M <= 4)")


def test_criterion_06_finite_size_efp():
    rng = np.random.default_rng(6)
    worst = 0.0
    windows = 0
    for M in (4, 6):
        lattices = [
            tuple(np.sort(0.3 * rng.normal(size=M))),  # generic distinct columns
            (0.0,) * M,  # homogeneous columns, coincident windows
        ]
        for mus in lattices:
            roots = bethe.solve_bae(
                *bethe.ground_state_numbers(M // 2), LatticeSpec(M, mus), GAMMA
            )
            for n in range(1, M + 1):
                for k in range(M - n + 1):
                    det_val = determinant.efp_finite(roots, k, n, return_complex=True)
                    brute = algebra.correlator_bruteforce(
                        roots.values, roots.spec, GAMMA,
                        range(k + 1, k + n + 1), return_complex=True,
                    )
                    worst = max(worst, abs(det_val - brute))
                    windows += 1
    assert worst < 1e-8
    report(6, "finite-size-efp", f"max |det - brute| {worst:.2e} < 1e-8 over {windows} windows")


def test_criterion_07_bethe_solver():
    worst_res, worst_eig, worst_flip, worst_d = 0.0, 0.0, 0.0, 0.0
    rng = np.random.default_rng(7)
    for g_val in (0.3, 0.6, 1.0):
        g = AnisotropyParam(g_val)
        for N in (2, 4, 8):
            roots = bethe.solve_ground_state(2 * N, g)
            worst_res = max(worst_res, roots.max_residual)
            worst_d = max(worst_d, roots.d_product_deviation())
            if 2 * N <= 8:
                for _ in range(3):
                    lam = rng.normal() * 0.5 + 0.2j * rng.normal()
                    worst_eig = max(
                        worst_eig, bethe.eigenvalue_residual(roots, lam)
                    )
            if 2 * N <= algebra.BRUTE_FORCE_MAX_M:
                sign, res = bethe.flip_sign_residual(roots)
                assert sign in (-1, 1)
                worst_flip = max(worst_flip, res)
    assert worst_res < 1e-12
    assert worst_eig < 1e-8
    assert worst_flip < 1e-10
    assert worst_d < 1e-10
    report(
        7,
        "bethe-solver",
        f"residual {worst_res:.2e} < 1e-12, eigenstate {worst_eig:.2e} < 1e-8, "
        f"flip {worst_flip:.2e} < 1e-10",
    )


def test_criterion_08_density_equation():
    g = AnisotropyParam(np.pi / 3)
    t0 = time.monotonic()
    grid = thermo.contour_grid(g, points_per_branch=256)
    # the Nystrom solve itself: solve_density takes this weight in closed form
    prof = nystrom_profile(thermo.ground_state_theta(grid), grid, g)
    xs = np.linspace(-5.0, 5.0, 501)
    got = np.real(np.atleast_1d(prof.rho_tot_at(xs)))
    err = float(np.max(np.abs(got - ground_state_density_closed_form(xs, g))))
    fill = prof.filling()
    elapsed = time.monotonic() - t0
    assert err < 1e-6
    assert abs(fill - 0.5) < 1e-7
    assert elapsed < 5.0
    report(
        8,
        "density-equation",
        f"closed-form err {err:.2e} < 1e-6, filling {fill:.9f}, {elapsed:.2f}s",
    )


def test_criterion_09_multiple_integral_efp():
    t0 = time.monotonic()
    grid = thermo.contour_grid(GAMMA)
    theta = thermo.ground_state_theta(grid)
    r1 = thermo.efp_thermo(1, [0.0], theta, grid, GAMMA)
    assert abs(r1.value - 0.5) < 1e-6
    r2 = thermo.efp_thermo(2, [0.0, 0.0], theta, grid, GAMMA)
    finite = {}
    for M in (8, 10, 12):
        roots = bethe.solve_ground_state(M, GAMMA)
        finite[M] = determinant.efp_finite(roots, 0, 2)
    extr = determinant.neville_extrapolate([1.0 / M for M in finite], list(finite.values()))
    gap = abs(extr - r2.value)
    elapsed = time.monotonic() - t0
    assert gap < 1e-2
    assert elapsed < 300.0
    report(
        9,
        "multiple-integral-efp",
        f"n=1: {r1.value:.8f}, n=2 thermo {r2.value:.6f} vs finite-size {extr:.6f} "
        f"(gap {gap:.2e} < 1e-2), {elapsed:.1f}s",
    )


def test_criterion_10_thermo_row_formula():
    grid = thermo.contour_grid(GAMMA)
    theta = thermo.ground_state_theta(grid)

    def discrepancy(M):
        a = 0.4
        mu = tuple(a * (2 * (np.arange(1, M + 1) - 0.5) / M - 1))
        roots = bethe.solve_bae(
            *bethe.ground_state_numbers(M // 2), LatticeSpec(M, mu), GAMMA
        )
        k = int(np.ceil(0.7 * M)) - 1
        prof = thermo.solve_density(theta, grid, GAMMA, mu=mu)
        return thermo.varphi_prime_thermo_row_check(roots, list(mu[k : k + 2]), prof)

    d8, d16 = discrepancy(8), discrepancy(16)
    assert d16 < d8
    report(10, "thermo-row-formula", f"discrepancy M=8: {d8:.3e} -> M=16: {d16:.3e} (decreasing)")
