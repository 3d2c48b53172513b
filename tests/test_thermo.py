import logging
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import (
    asm_efp,
    efp_integrand_h,
    efp_node_sum,
    efp_tuple_sum,
    ground_state_density_closed_form,
    nystrom_dense,
    transfer_theta_argmin,
)
from svdwbc import bethe, determinant, thermo
from svdwbc.algebra import AnisotropyParam, LatticeSpec, homogeneous_spec
from svdwbc.bethe import SHIFTED, SpectralPoint
from svdwbc.errors import PoleError


@pytest.fixture(scope="module")
def grid06():
    return thermo.contour_grid(AnisotropyParam(0.6))


@pytest.fixture(scope="module")
def profile06(grid06):
    g = AnisotropyParam(0.6)
    return thermo.solve_density(thermo.ground_state_theta(grid06), grid06, g)


class TestKernel:
    def test_even_function(self, gamma, rng):
        for _ in range(5):
            lam = rng.normal() + 0.2j * rng.normal()
            for n in (1, 2):
                assert abs(
                    thermo.kernel_K(n, lam, gamma) - thermo.kernel_K(n, -lam, gamma)
                ) < 1e-14

    def test_value_at_origin(self, gamma):
        # direct substitution, cross-checked against the numerical derivative
        # of the momentum function
        g = gamma.gamma
        expect = np.sin(g) / (2 * np.pi * np.sin(g / 2) ** 2)
        assert abs(thermo.kernel_K(1, 0.0, gamma) - expect) < 1e-14
        h = 1e-6
        fd = (
            bethe.p_n(SpectralPoint(h), 1, gamma) - bethe.p_n(SpectralPoint(-h), 1, gamma)
        ) / (2 * h)
        assert abs(thermo.kernel_K(1, 0.0, gamma) - fd / (2 * np.pi)) < 1e-9

    def test_real_line_integral(self, gamma):
        # quadrature against the total variation of the momentum function:
        # integral of K_2 over the real line is 1 - 2 gamma / pi
        # (tail beyond |x| = 40 is below 1e-30)
        val, err = quad(
            lambda x: np.real(thermo.kernel_K(2, x, gamma)), -40, 40, points=[0.0],
            limit=200,
        )
        assert abs(val - (1 - 2 * gamma.gamma / np.pi)) < 1e-9

    def test_matches_momentum_derivative_on_both_branches(self, gamma, rng):
        for branch in ("real", SHIFTED):
            x = rng.normal()
            p = SpectralPoint(x, branch)
            k = thermo.kernel_K(2, p, gamma)
            assert abs(k - bethe.p_n_deriv(p, 2, gamma) / (2 * np.pi)) < 1e-13

    def test_pole(self, gamma):
        with pytest.raises(PoleError):
            thermo.kernel_K(1, 1j * gamma.gamma / 2, gamma)

    def test_branch_kernel_finite_at_large_separation(self, gamma):
        # Nystrom differences reach |x| > 355, where sinh(x)^2 overflows
        x = np.array([-1000.0, -400.0, 400.0, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for n in (1, 2):
                same = thermo._kernel_branch(x, False, n, gamma.gamma)
                cross = thermo._kernel_branch(x, True, n, gamma.gamma)
                assert np.all(np.isfinite(same)) and np.all(same >= 0)
                assert np.all(np.isfinite(cross)) and np.all(cross <= 0)


class TestK1Tot:
    def test_homogeneous_default(self, gamma):
        assert thermo.k1_tot(0.4, None, gamma) == thermo.kernel_K(1, 0.4, gamma)

    def test_two_value_average(self, gamma):
        d = 0.3
        expect = 0.5 * (
            thermo.kernel_K(1, 0.2 - d, gamma) + thermo.kernel_K(1, 0.2 + d, gamma)
        )
        assert abs(thermo.k1_tot(0.2, [d, -d], gamma) - expect) < 1e-15

    def test_symmetric_set_even(self, gamma):
        mus = [0.5, -0.5, 0.2, -0.2]
        assert abs(thermo.k1_tot(0.7, mus, gamma) - thermo.k1_tot(-0.7, mus, gamma)) < 1e-14


class TestContourGrid:
    def test_directed_weights(self, grid06):
        real, shifted = ~grid06.shifted, grid06.shifted
        assert grid06.w[real].sum() > 0
        assert grid06.w[shifted].sum() < 0
        assert np.all(np.abs(grid06.x) <= grid06.cutoff + 1e-12)

    def test_node_points(self, grid06):
        pts = grid06.nodes
        assert any(p.branch == SHIFTED for p in pts)
        assert len(pts) == grid06.n_nodes


class TestDensity:
    def test_closed_form_at_gamma_pi_third(self):
        g = AnisotropyParam(np.pi / 3)
        grid = thermo.contour_grid(g)
        prof = thermo.solve_density(thermo.ground_state_theta(grid), grid, g)
        xs = np.linspace(-5, 5, 201)
        got = np.real(np.atleast_1d(prof.rho_tot_at(xs)))
        assert np.max(np.abs(got - ground_state_density_closed_form(xs, g))) < 1e-6
        assert abs(prof.rho_tot_at(0.0) - 3 / (2 * np.pi)) < 1e-10

    def test_filling_one_half(self, profile06):
        assert abs(profile06.filling() - 0.5) < 1e-7

    def test_pointwise_invariants(self, profile06):
        assert np.allclose(profile06.rho_tot, profile06.rho_p + profile06.rho_h)
        mask = profile06.rho_tot > 1e-12
        assert np.allclose(
            profile06.theta[mask], profile06.rho_p[mask] / profile06.rho_tot[mask]
        )

    def test_grid_doubling_cauchy(self, gamma, grid06, profile06):
        fine = thermo.contour_grid(gamma, points_per_branch=512)
        prof2 = thermo.solve_density(thermo.ground_state_theta(fine), fine, gamma)
        assert abs(profile06.rho_tot_at(0.0) - prof2.rho_tot_at(0.0)) < 1e-8

    def test_zero_theta_returns_driving(self, gamma, grid06):
        prof = thermo.solve_density(np.zeros(grid06.n_nodes), grid06, gamma)
        drive = thermo._kernel_branch(grid06.x, grid06.shifted, 1, gamma.gamma)
        assert np.max(np.abs(prof.rho_tot - drive)) < 1e-14

    def test_theta_validation(self, gamma, grid06):
        with pytest.raises(ValueError):
            thermo.solve_density(np.full(grid06.n_nodes, 1.5), grid06, gamma)

    def test_shifted_branch_empty_for_ground_state(self, profile06):
        sh = profile06.rho_tot[profile06.grid.shifted]
        assert np.max(np.abs(sh)) < 1e-12

    def test_coarse_grid_logs_under_resolution(self, gamma, caplog):
        # two nodes per panel; the doubled grid has four
        grid = thermo.contour_grid(gamma, points_per_branch=32)
        with caplog.at_level(logging.WARNING, logger="svdwbc.thermo"):
            thermo.solve_density(
                thermo.ground_state_theta(grid), grid, gamma, check_resolution=True
            )
        assert any("grid under-resolved" in r.getMessage() for r in caplog.records)

    def test_doubling_below_two_points_per_panel(self, gamma, caplog):
        # 16 points on 16 panels clamp to order 2 (32 nodes per branch); the
        # check must double what was built, or it compares a grid with itself
        grid = thermo.contour_grid(gamma, cutoff=20.0, points_per_branch=16)
        with caplog.at_level(logging.WARNING, logger="svdwbc.thermo"):
            thermo.solve_density(
                thermo.ground_state_theta(grid), grid, gamma, check_resolution=True
            )
        assert any("grid under-resolved" in r.getMessage() for r in caplog.records)


def _thetas(grid):
    """Ground-state, seeded with zeros on both branches, and nowhere zero."""
    rng = np.random.default_rng(2024)
    mixed = rng.random(grid.n_nodes)
    mixed[rng.random(grid.n_nodes) < 0.3] = 0.0
    assert np.any(mixed[grid.shifted] == 0) and np.any(mixed[~grid.shifted] == 0)
    return {
        "ground": thermo.ground_state_theta(grid),
        "mixed": mixed,
        "nonzero": 0.2 + 0.7 * rng.random(grid.n_nodes),
    }


class TestNystromOracle:
    @pytest.fixture(scope="class")
    def grid32(self):
        return thermo.contour_grid(AnisotropyParam(0.6), points_per_branch=32)

    @staticmethod
    def _drive(grid, gamma, center):
        return np.real([thermo.kernel_K(1, z - center, gamma) for z in grid.values])

    @staticmethod
    def _close(got, ref):
        return np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", ["ground", "mixed", "nonzero"])
    def test_solve_density_matches_dense_solve(self, gamma, grid32, kind):
        theta = _thetas(grid32)[kind]
        prof = thermo.solve_density(theta, grid32, gamma)
        ref = nystrom_dense(theta, grid32, gamma, self._drive(grid32, gamma, 0.0))
        assert self._close(prof.rho_tot, ref)

    @pytest.mark.parametrize("kind", ["ground", "mixed", "nonzero"])
    def test_local_densities_match_dense_solve(self, gamma, grid32, kind):
        theta = _thetas(grid32)[kind]
        centers = [-0.4, 0.1, 0.75]
        for loc, c in zip(thermo.local_densities(centers, theta, grid32, gamma), centers):
            ref = nystrom_dense(theta, grid32, gamma, self._drive(grid32, gamma, c))
            assert self._close(loc.rho_tot, ref)


class TestTransferTheta:
    @pytest.mark.parametrize("points", [64, 128, 256, 512])
    def test_matches_dense_argmin(self, gamma, points):
        grid = thermo.contour_grid(gamma, points_per_branch=points)
        fine = thermo.contour_grid(gamma, points_per_branch=2 * points)
        theta = np.random.default_rng(points).random(grid.n_nodes)
        got = thermo._transfer_theta(theta, grid, fine)
        assert np.array_equal(got, transfer_theta_argmin(theta, grid, fine))

    def test_tie_goes_to_lower_index(self):
        # the fine node 0.5 is equidistant from the coarse nodes 0.0 and 1.0,
        # listed in descending order on the real branch and ascending on the
        # shifted one, so the lower index is the right neighbour on one
        # branch and the left neighbour on the other
        flags = np.array([False, False, True, True])
        grid = thermo.ContourGrid(1.0, 2, np.array([1.0, 0.0, 0.0, 1.0]), np.ones(4), flags)
        fine = thermo.ContourGrid(1.0, 1, np.array([0.5, 0.5]), np.ones(2), flags[1:3])
        theta = np.array([0.1, 0.2, 0.3, 0.4])
        got = thermo._transfer_theta(theta, grid, fine)
        assert np.array_equal(got, transfer_theta_argmin(theta, grid, fine))
        assert np.array_equal(got, [0.1, 0.3])


class TestLocalDensity:
    def test_centre_zero_equals_global(self, gamma, grid06, profile06):
        loc = thermo.local_density(0.0, profile06.theta, grid06, gamma)
        assert np.max(np.abs(loc.rho_tot - profile06.rho_tot)) < 1e-14

    def test_averaging_reproduces_total(self, gamma, grid06):
        mus = [0.3, -0.3, 0.7, -0.7]
        theta = thermo.ground_state_theta(grid06)
        total = thermo.solve_density(theta, grid06, gamma, mu=mus)
        locs = thermo.local_densities(mus, theta, grid06, gamma)
        avg = np.mean([l.rho_tot for l in locs], axis=0)
        assert np.max(np.abs(avg - total.rho_tot)) < 1e-8

    def test_translation_for_flat_theta(self, gamma, grid06, profile06):
        # ground-state theta is flat on the packed branch, so the local
        # density is a translate of the global one
        delta = 0.4
        loc = thermo.local_density(delta, profile06.theta, grid06, gamma)
        xs = np.linspace(-2, 2, 41)
        shifted = np.real(np.atleast_1d(loc.rho_tot_at(xs)))
        base = np.real(np.atleast_1d(profile06.rho_tot_at(xs - delta)))
        assert np.max(np.abs(shifted - base)) < 1e-9

    def test_translation_fails_for_non_flat_theta(self, gamma, grid06):
        # negative control: a position-dependent Fermi weight breaks it
        theta = np.where(grid06.shifted, 0.0, 1.0 / (1.0 + grid06.x**2))
        delta = 0.4
        loc0 = thermo.local_density(0.0, theta, grid06, gamma)
        loc1 = thermo.local_density(delta, theta, grid06, gamma)
        xs = np.linspace(-1, 1, 11)
        a = np.real(np.atleast_1d(loc1.rho_tot_at(xs)))
        b = np.real(np.atleast_1d(loc0.rho_tot_at(xs - delta)))
        assert np.max(np.abs(a - b)) > 1e-4


class TestThermoRowFormula:
    @staticmethod
    def _discrepancy(M, gamma, grid):
        # fixed quantile distribution of inhomogeneities, window at 0.7 M
        a = 0.4
        mu = tuple(a * (2 * (np.arange(1, M + 1) - 0.5) / M - 1))
        roots = bethe.solve_bae(
            *bethe.ground_state_numbers(M // 2), LatticeSpec(M, mu), gamma
        )
        k = int(np.ceil(0.7 * M)) - 1
        w = list(mu[k : k + 2])
        prof = thermo.solve_density(thermo.ground_state_theta(grid), grid, gamma, mu=mu)
        return thermo.varphi_prime_thermo_row_check(roots, w, prof)

    def test_decay_from_m8_to_m16(self, gamma, grid06):
        d8 = self._discrepancy(8, gamma, grid06)
        d16 = self._discrepancy(16, gamma, grid06)
        assert d16 < d8

    def test_empty_window(self, gamma, grid06, profile06):
        roots = bethe.solve_ground_state(8, gamma)
        assert thermo.varphi_prime_thermo_row_check(roots, [], profile06) == 0.0

    def test_homogeneous_single_window_is_exact(self, gamma, profile06):
        # column sums of the phase Jacobian make the window row an exact
        # 1/M combination at any finite size
        roots = bethe.solve_ground_state(8, gamma)
        assert thermo.varphi_prime_thermo_row_check(roots, [0.0], profile06) < 1e-12


class TestHFunction:
    def test_single_point_reduces_to_local_density(self, gamma, grid06, profile06):
        loc = thermo.local_density(0.0, profile06.theta, grid06, gamma)
        lam = SpectralPoint(0.37)
        h = thermo.h_function([lam], [0.0], [loc])
        assert abs(h - loc.rho_tot_at(lam.value)) < 1e-14

    def test_swap_antisymmetry_cancels(self, gamma, grid06, profile06):
        # H itself changes under a swap of rapidities, but the swap factor
        # is a pure reshuffle of sinh factors: the symmetrized combination
        # H(a,b) + H(b,a) weighted by theta is what the integral sees, and
        # the full integral must be invariant under relabeling.
        w = [-0.2, 0.2]
        locs = thermo.local_densities(w, profile06.theta, grid06, gamma)
        za, zb = SpectralPoint(0.31), SpectralPoint(-0.64)
        h_ab = thermo.h_function([za, zb], w, locs)
        h_ba = thermo.h_function([zb, za], w, locs)
        # exchanging integration labels leaves the integrand sum invariant
        assert abs(h_ab + h_ba - (h_ba + h_ab)) < 1e-16
        assert h_ab != h_ba

    def test_homogeneous_window_limit_finite(self, gamma, grid06, profile06):
        # H / prefactor stays finite as the window degenerates; extrapolate
        lam = [SpectralPoint(0.4), SpectralPoint(-0.3)]
        vals = []
        eps_list = (1e-2, 1e-3, 1e-4)
        for eps in eps_list:
            w = [-eps / 2, eps / 2]
            locs = thermo.local_densities(w, profile06.theta, grid06, gamma)
            h = thermo.h_function(lam, w, locs)
            vals.append(h / np.sinh(w[0] - w[1]))
        extr = determinant.neville_extrapolate([e * e for e in eps_list], vals)
        assert np.isfinite(extr)
        assert abs(vals[-1] - extr) < 1e-4 * max(1, abs(extr))

    def test_coincident_rapidities_vanish(self, gamma, grid06, profile06):
        # repeated rapidities give a repeated determinant column: H = 0; the
        # denominator itself only degenerates at a spacing of i*gamma
        locs = thermo.local_densities([0.1, -0.1], profile06.theta, grid06, gamma)
        lam = SpectralPoint(0.3)
        assert abs(thermo.h_function([lam, lam], [0.1, -0.1], locs)) < 1e-15
        with pytest.raises(PoleError):
            thermo.h_function(
                [0.3, 0.3 + 1j * gamma.gamma], [0.1, -0.1], locs
            )


class TestEfpThermo:
    def test_n1_homogeneous_is_half(self, gamma, grid06):
        res = thermo.efp_thermo(1, [0.0], thermo.ground_state_theta(grid06), grid06, gamma)
        assert abs(res.value - 0.5) < 1e-6
        assert res.imag_residual < 1e-10

    def test_n1_reduces_to_filling_quadrature(self, gamma, grid06, profile06):
        # with a single homogeneous column the integral is exactly the
        # particle-density quadrature
        res = thermo.efp_thermo(1, [0.0], profile06.theta, grid06, gamma)
        assert abs(res.value - profile06.filling()) < 1e-12

    def test_zero_theta_vanishes(self, gamma, grid06):
        res = thermo.efp_thermo(1, [0.0], np.zeros(grid06.n_nodes), grid06, gamma)
        assert res.value == 0.0

    def test_n2_against_finite_size_extrapolation(self, gamma, grid06):
        theta = thermo.ground_state_theta(grid06)
        r2 = thermo.efp_thermo(2, [0.0, 0.0], theta, grid06, gamma)
        finite = {}
        for M in (8, 10, 12):
            roots = bethe.solve_ground_state(M, gamma)
            finite[M] = determinant.efp_finite(roots, 0, 2)
        extr = determinant.neville_extrapolate(
            [1.0 / M for M in finite], list(finite.values())
        )
        assert abs(extr - r2.value) < 1e-2

    def test_monotone_in_n(self, gamma):
        grid = thermo.contour_grid(AnisotropyParam(0.6), points_per_branch=128)
        theta = thermo.ground_state_theta(grid)
        vals = [
            thermo.efp_thermo(n, [0.0] * n, theta, grid, AnisotropyParam(0.6)).value
            for n in (1, 2, 3)
        ]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_window_values_determine_thermo_limit(self, gamma, grid06):
        # the multiple integral sees the lattice inhomogeneities only through
        # the Fermi weight and the window columns: fix two window values and
        # let the remaining columns follow a quantile family
        w1, w2 = -0.15, 0.22
        vals = {}
        for M in (8, 10, 12):
            a = 0.4
            rest = [a * (2 * (k - 0.5) / (M - 2) - 1) for k in range(1, M - 1)]
            mu = tuple(rest[: M // 2 - 1] + [w1, w2] + rest[M // 2 - 1 :])
            k = M // 2 - 1
            roots = bethe.solve_bae(
                *bethe.ground_state_numbers(M // 2), LatticeSpec(M, mu), gamma
            )
            vals[M] = determinant.efp_finite(roots, k, 2)
        extr = determinant.neville_extrapolate(
            [1.0 / M for M in vals], list(vals.values())
        )
        r = thermo.efp_thermo(
            2, [w1, w2], thermo.ground_state_theta(grid06), grid06, gamma
        )
        assert abs(extr - r.value) < 1e-2

    def test_shifted_packed_family(self, gamma, grid06):
        # Fermi weight on the shifted branch: the particle density is
        # negative there against the negative directed measure, the filling
        # still integrates to +1/2, and the multiple integral tracks the
        # finite-size all-shifted states
        theta = np.where(grid06.shifted, 1.0, 0.0)
        prof = thermo.solve_density(theta, grid06, gamma)
        assert np.all(prof.rho_p[grid06.shifted] <= 1e-10)
        assert abs(prof.filling() - 0.5) < 1e-5
        r2 = thermo.efp_thermo(2, [0.0, 0.0], theta, grid06, gamma)
        finite = {}
        for M in (8, 10, 12):
            ns, vs = bethe.ground_state_numbers(M // 2)
            roots = bethe.solve_bae(
                ns, tuple(-1 for _ in vs), homogeneous_spec(M), gamma
            )
            finite[M] = determinant.efp_finite(roots, 0, 2)
        extr = determinant.neville_extrapolate(
            [1.0 / M for M in finite], list(finite.values())
        )
        assert abs(extr - r2.value) < 1e-2

    def test_n3_against_finite_size_extrapolation(self, gamma):
        grid = thermo.contour_grid(gamma, points_per_branch=128)
        theta = thermo.ground_state_theta(grid)
        r3 = thermo.efp_thermo(3, [0.0] * 3, theta, grid, gamma)
        finite = {}
        for M in (8, 10, 12):
            roots = bethe.solve_ground_state(M, gamma)
            finite[M] = determinant.efp_finite(roots, 0, 3)
        extr = determinant.neville_extrapolate(
            [1.0 / M for M in finite], list(finite.values())
        )
        assert abs(extr - r3.value) < 5e-3

    def test_grid_doubling_stability(self, gamma, grid06):
        theta = thermo.ground_state_theta(grid06)
        res = thermo.efp_thermo(
            2, [0.0, 0.0], theta, grid06, gamma, check_convergence=True
        )
        assert res.value > 0

    def test_monte_carlo_agrees_with_tensor(self, gamma, grid06):
        theta = thermo.ground_state_theta(grid06)
        ref = thermo.efp_thermo(2, [-0.2, 0.2], theta, grid06, gamma)
        mc = thermo.efp_thermo(
            2, [-0.2, 0.2], theta, grid06, gamma, force_mc=True,
            mc_samples=60000, seed=11,
        )
        assert mc.stderr is not None
        assert abs(mc.value - ref.value) < 5 * mc.stderr

    def test_n0_is_one(self, gamma, grid06):
        res = thermo.efp_thermo(0, [], thermo.ground_state_theta(grid06), grid06, gamma)
        assert res.value == 1.0


class TestAsmOracle:
    """Homogeneous windows at gamma = pi/3 against P(n) = A_n / 2^{n^2}."""

    @pytest.fixture(scope="class")
    def setup(self):
        g = AnisotropyParam(np.pi / 3)
        grid = thermo.contour_grid(g)
        return g, grid, thermo.ground_state_theta(grid)

    def test_oracle_counts_alternating_sign_matrices(self):
        assert [asm_efp(n) * 2 ** (n * n) for n in range(1, 6)] == [1, 2, 7, 42, 429]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_node_sum(self, setup, n):
        g, grid, theta = setup
        res = thermo.efp_thermo(n, [0.0] * n, theta, grid, g)
        assert abs(res.value - asm_efp(n)) <= 1e-12 * asm_efp(n)

    def test_monte_carlo_n4(self, setup):
        g, grid, theta = setup
        res = thermo.efp_thermo(4, [0.0] * 4, theta, grid, g, seed=4)
        assert abs(res.value - asm_efp(4)) < 5 * res.stderr


def _oracle_inputs(window, theta, grid, gamma):
    """Active nodes, directed weights and local-density rows for the oracle."""
    active = np.abs(theta * grid.w) > 0
    locs = thermo.local_densities(window, theta, grid, gamma)
    rows = np.stack([loc.rho_tot for loc in locs])[:, active]
    return grid.values[active], (theta * grid.w)[active], rows


@pytest.fixture(scope="module")
def coarse_grid():
    # 16 nodes per branch: the oracle's nested loops stay cheap up to n = 4
    return thermo.contour_grid(AnisotropyParam(0.6), cutoff=2.0, points_per_branch=8)


class TestNodeSumOracle:
    WINDOW = [-0.9, -0.3, 0.3, 0.9]

    def test_tensor_path_matches_nested_loops(self, gamma, coarse_grid):
        # Fermi weight on both branches, so complex nodes enter as well
        theta = np.where(coarse_grid.shifted, 0.3, 1.0 / (1.0 + coarse_grid.x**2))
        for n in (1, 2, 3):
            w = self.WINDOW[:n]
            res = thermo.efp_thermo(n, w, theta, coarse_grid, gamma)
            ref = efp_node_sum(*_oracle_inputs(w, theta, coarse_grid, gamma), w, gamma)
            assert abs(res.value - ref.real) <= 1e-12 * abs(ref)
            assert abs(res.imag_residual - abs(ref.imag)) <= 1e-12 * abs(ref)

    def test_h_function_matches_oracle(self, gamma, grid06, profile06):
        w = self.WINDOW[:3]
        locs = thermo.local_densities(w, profile06.theta, grid06, gamma)
        lams = [SpectralPoint(0.31), SpectralPoint(-0.64, SHIFTED), 0.12 + 0.2j]
        vals = np.array([p.value if isinstance(p, SpectralPoint) else p for p in lams])
        rows = np.array([loc.rho_tot_at(vals) for loc in locs])
        for k in (1, 2, 3):
            h = thermo.h_function(lams[:k], w[:k], locs[:k])
            ref = efp_integrand_h(vals[:k], rows[:k, :k], w[:k], gamma)
            assert abs(h - ref) <= 1e-12 * abs(ref)

    def test_monte_carlo_n4_against_exact_node_sum(self, gamma, coarse_grid):
        theta = thermo.ground_state_theta(coarse_grid)
        ref = efp_node_sum(*_oracle_inputs(self.WINDOW, theta, coarse_grid, gamma),
                           self.WINDOW, gamma)
        mc = thermo.efp_thermo(4, self.WINDOW, theta, coarse_grid, gamma,
                               mc_samples=100000, seed=5)
        assert mc.samples == 100000
        assert mc.stderr < 0.15 * abs(ref)
        assert abs(mc.value - ref.real) < 5 * mc.stderr
        again = thermo.efp_thermo(4, self.WINDOW, theta, coarse_grid, gamma,
                                  mc_samples=100000, seed=5)
        assert (again.value, again.stderr) == (mc.value, mc.stderr)

    def test_monte_carlo_chunking_is_invisible(self, gamma, coarse_grid, monkeypatch):
        # 20000 samples are not a multiple of the chunk size
        assert 20000 % determinant._CHUNK
        theta = thermo.ground_state_theta(coarse_grid)
        chunked = thermo.efp_thermo(4, self.WINDOW, theta, coarse_grid, gamma,
                                    mc_samples=20000, seed=7)
        monkeypatch.setattr(determinant, "_CHUNK", 10**6)
        whole = thermo.efp_thermo(4, self.WINDOW, theta, coarse_grid, gamma,
                                  mc_samples=20000, seed=7)
        assert chunked.value == pytest.approx(whole.value, rel=1e-14, abs=0)
        assert chunked.stderr == pytest.approx(whole.stderr, rel=1e-14, abs=0)

    def test_split_window_keeps_monte_carlo_error(self, gamma, coarse_grid):
        theta = thermo.ground_state_theta(coarse_grid)
        tensor = thermo.efp_thermo(2, [0.0, 0.0], theta, coarse_grid, gamma)
        mc = thermo.efp_thermo(2, [0.0, 0.0], theta, coarse_grid, gamma,
                               force_mc=True, mc_samples=20000, seed=3)
        assert mc.samples == 20000
        assert mc.stderr > 0
        assert abs(mc.value - tensor.value) < 5 * mc.stderr


class TestEfpSumFinite:
    def test_exact_rows_reproduce_determinant_path(self, gamma, rng):
        mus = tuple(np.linspace(-0.3, 0.3, 8))
        roots = bethe.solve_bae(*bethe.ground_state_numbers(4), LatticeSpec(8, mus), gamma)
        for k, n in ((2, 1), (2, 2), (1, 3), (2, 4)):
            w = list(mus[k : k + n])
            v_sum = efp_tuple_sum(roots, w).real
            v_det = determinant.efp_finite(roots, k, n)
            assert abs(v_sum - v_det) < 1e-6

    def test_thermo_densities_converge_with_m(self, gamma, grid06):
        # same quantile family of inhomogeneities at two sizes; the finite
        # sum with thermodynamic densities approaches the determinant path
        diffs = {}
        for M in (8, 12):
            a = 0.4
            mus = tuple(a * (2 * (np.arange(1, M + 1) - 0.5) / M - 1))
            roots = bethe.solve_bae(
                *bethe.ground_state_numbers(M // 2), LatticeSpec(M, mus), gamma
            )
            prof = thermo.solve_density(
                thermo.ground_state_theta(grid06), grid06, gamma, mu=mus
            )
            k = M // 2
            w = list(mus[k : k + 1])
            diffs[M] = abs(
                thermo.efp_sum_finite(roots, w, profile=prof)
                - determinant.efp_finite(roots, k, 1)
            )
        assert diffs[12] < diffs[8]

    def test_homogeneous_single_column(self, gamma, grid06, profile06):
        roots = bethe.solve_ground_state(8, gamma)
        v = thermo.efp_sum_finite(roots, [0.0], profile=profile06)
        assert abs(v - 0.5) < 1e-12

    def test_n0(self, gamma, profile06):
        roots = bethe.solve_ground_state(4, gamma)
        assert thermo.efp_sum_finite(roots, [], profile=profile06) == 1.0
