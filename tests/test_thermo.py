import dataclasses
import gc
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
    kernel_mp,
    node_sum_n3_direct,
    nystrom_dense,
    nystrom_profile,
    packed_dd_rows_mp,
    packed_density_closed_form,
    transfer_theta_argmin,
)
from svdwbc import bethe, determinant, thermo
from svdwbc.algebra import AnisotropyParam, LatticeSpec, homogeneous_spec
from svdwbc.errors import ConvergenceError, PoleError


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
            bethe.p_n(h, 1, gamma) - bethe.p_n(-h, 1, gamma)
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
        for im in (0.0, 0.5 * np.pi):
            p = rng.normal() + 1j * im
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

    KERNEL_GAMMAS = [0.05, 0.3, 0.6, np.pi / 3, 1.2, 1.5]
    X = np.concatenate([[0.0, 1e-3, -0.02], np.linspace(-30.0, 30.0, 25)])

    @pytest.mark.parametrize("g", KERNEL_GAMMAS)
    def test_branch_kernel_matches_mp_reference(self, g):
        for n in (1, 2):
            for crossed in (False, True):
                ref = kernel_mp(n, self.X, crossed, g)
                got = thermo._kernel_branch(self.X, crossed, n, g)
                assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14
                # the complex kernel agrees away from the branch form too
                lam = self.X[:5] + (0.5j * np.pi if crossed else 0.0)
                cplx = thermo.kernel_K(n, lam, g)
                assert np.max(np.abs(got[:5] - cplx) / np.abs(ref[:5])) <= 1e-14

    @pytest.mark.parametrize("g", KERNEL_GAMMAS)
    def test_mirror_tables_match_mp_reference(self, g, rng):
        xr = np.sort(rng.uniform(0.0, 12.0, 7))[:, None]
        xa = np.sort(rng.uniform(0.0, 12.0, 9))
        ca = rng.normal(size=9)
        col = rng.random(9) < 0.5
        # the direct and mirror tables K_2(xr -+ xa) ca of the even/odd split,
        # at the flag shapes of the callers: per row branch and column, one
        # per entry, and one for nodes that all lie on one branch
        flags = [(np.array([[False], [True]]) ^ col)[:, None, :],
                 rng.random((7, 9)) < 0.5, False, True]
        for crossed in flags:
            for d in (xr - xa, xr + xa):
                table = thermo._kernel_branch(d, crossed, 2, g, ca)
                ref = kernel_mp(2, *np.broadcast_arrays(d, crossed), g) * ca
                assert table.shape == ref.shape
                assert np.max(np.abs(table - ref) / np.abs(ref)) <= 1e-14

    def test_tables_beyond_the_sinh_range(self, gamma):
        # a cutoff of 400 puts |x +- x'| up to 800 on the grid: sinh overflows
        # past 710, where the kernel is exactly 0, and no warning escapes
        grid = thermo.contour_grid(gamma, cutoff=400.0, points_per_branch=128)
        g = gamma.gamma
        x = grid.x[(grid.x > 0) & ~grid.shifted]
        c = grid.w[(grid.x > 0) & ~grid.shifted]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            flags = (np.array([[False], [True]]) ^ np.zeros(len(x), bool))[:, None, :]
            for d in (x[:, None] - x, x[:, None] + x):
                table = thermo._kernel_branch(d, flags, 2, g, c)
                d = np.broadcast_to(np.abs(d), table.shape)
                assert np.all(np.isfinite(table))
                assert np.all(table[d > 710.5] == 0.0)
                assert np.all(table[d < 300] != 0.0)
            assert np.any(x[:, None] + x > 710.5)  # the mirror table overflows
            theta = thermo.ground_state_theta(grid)
            # the Nystrom split builds those tables; the closed form builds none
            assert abs(nystrom_profile(theta, grid, gamma).filling() - 0.5) < 1e-6
            prof = thermo.solve_density(theta, grid, gamma, check_resolution=True)
            assert abs(prof.filling() - 0.5) < 1e-6
            # an off-mirror Fermi weight takes the full occupied block
            skew = np.where(grid.shifted, 0.0, 1.0 / (1.0 + np.exp(-grid.x)))
            assert np.all(np.isfinite(thermo.solve_density(skew, grid, gamma).rho_tot))


class TestK1Tot:
    """The driving term K_1^tot of the total density, thermo._drive."""

    def test_homogeneous_default(self, gamma):
        z = np.array([0.4, 0.4 + 0.3j])
        got = thermo._drive(z, None, gamma.gamma)
        assert np.array_equal(got, thermo._drive(z, (), gamma.gamma))
        assert np.array_equal(got, thermo._drive(z, (0.0,), gamma.gamma))
        # off the contour lines the complex kernel itself, on them its branch form
        assert got[1] == thermo.kernel_K(1, z[1], gamma)
        assert abs(got[0] - thermo.kernel_K(1, z[0], gamma)) < 1e-15

    def test_two_value_average(self, gamma):
        d = 0.3
        z = np.array([0.2, 0.2 + 0.3j])
        expect = 0.5 * (thermo.kernel_K(1, z - d, gamma) + thermo.kernel_K(1, z + d, gamma))
        assert np.max(np.abs(thermo._drive(z, [d, -d], gamma.gamma) - expect)) < 1e-15

    def test_symmetric_set_even(self, gamma):
        mus = [0.5, -0.5, 0.2, -0.2]
        z = np.array([0.7, 0.7 + 0.3j, 0.7 + 0.5j * np.pi])
        drive = thermo._drive(z, mus, gamma.gamma)
        assert np.max(np.abs(drive - thermo._drive(-z, mus, gamma.gamma))) < 1e-14


class TestContourGrid:
    @pytest.mark.parametrize("cutoff", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_cutoff_rejected(self, gamma, cutoff):
        # a NaN cutoff used to build no panel and divide by zero
        with pytest.raises(ValueError, match="cutoff must be finite and positive"):
            thermo.contour_grid(gamma, cutoff=cutoff)

    def test_directed_weights(self, grid06):
        real, shifted = ~grid06.shifted, grid06.shifted
        assert grid06.w[real].sum() > 0
        assert grid06.w[shifted].sum() < 0
        assert np.all(np.abs(grid06.x) <= grid06.cutoff + 1e-12)

    def test_node_points(self, grid06):
        pts = grid06.values
        assert np.array_equal(pts.imag, np.where(grid06.shifted, 0.5 * np.pi, 0.0))
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

    def test_rho_tot_at_complex_points_on_both_branches(self, grid06, profile06):
        # exact at the nodes of both branches; one point reads as in an array
        at = profile06.rho_tot_at(grid06.values)
        assert np.max(np.abs(at - profile06.rho_tot)) < 1e-13
        for i in (0, grid06.n_nodes - 1):  # the first real and the last shifted node
            assert abs(profile06.rho_tot_at(grid06.values[i]) - at[i]) < 1e-15

    @pytest.mark.parametrize("g", [0.3, 0.05])
    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("mu", [None, (0.3, -0.1, 0.5)])
    def test_packed_rho_tot_at_takes_the_closed_form(self, g, packed, mu):
        # on the branch a packed weight fills, rho_tot_at is the closed form:
        # on the default grid the Nystrom interpolant alone is off from
        # rho_tot at the mirror's nodes by 1.45e-5 (g = 0.3) and 2.0e-2
        # (g = 0.05), and at the ground state's by 0.17 (g = 0.05 with mu)
        gamma = AnisotropyParam(g)
        grid = thermo.contour_grid(gamma)
        occ = grid.shifted == packed
        prof = thermo.solve_density(np.where(occ, 1.0, 0.0), grid, gamma, mu)
        assert prof.packed is packed
        assert np.array_equal(prof.rho_tot_at(grid.values[occ]), prof.rho_tot[occ])
        z = np.linspace(-1.5, 1.5, 7) + 0.5j * np.pi * packed
        want = packed_density_closed_form(z.real, gamma, mu, shifted=packed)
        assert np.max(np.abs(prof.rho_tot_at(z) - want)) <= 1e-14 * np.max(np.abs(want))
        if packed:  # the mirror's real branch is the interpolant: drive - K_2 rho_p
            off = prof.rho_tot_at(grid.values[~occ]) - prof.rho_tot[~occ]
            assert np.max(np.abs(off)) < 1e-15

    @pytest.mark.parametrize("mu", [None, (0.3, -0.1, 0.5)])
    def test_ground_state_is_zero_on_the_shifted_line(self, mu):
        # the closed form's 0 at the shifted nodes and at points on that line
        # (Im = pi/2 mod pi); the interpolant read up to 3.5e-4 there with mu
        gamma = AnisotropyParam(0.05)
        grid = thermo.contour_grid(gamma)
        prof = thermo.solve_density(thermo.ground_state_theta(grid), grid, gamma, mu)
        z = np.concatenate([grid.values[grid.shifted], np.linspace(-2.0, 2.0, 9) + 0.5j * np.pi,
                            [0.3 - 0.5j * np.pi]])
        assert np.all(prof.rho_tot_at(z) == 0.0)
        assert prof.rho_tot_at(0.3 + 0.2j) != 0.0  # off both lines: the interpolant

    def test_truncating_cutoff_logs_warning(self, gamma, caplog):
        with caplog.at_level(logging.WARNING, logger="svdwbc.thermo"):
            thermo.contour_grid(gamma)
        assert not any("truncates" in r.getMessage() for r in caplog.records)
        total = (np.pi - gamma.gamma) / np.pi  # integral of K_1 over the real line
        for cutoff in (0.01, 2.0):  # 2.0 is the coarse test grid: logged, not raised
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="svdwbc.thermo"):
                thermo.contour_grid(gamma, cutoff=cutoff, points_per_branch=8)
            (rec,) = [r for r in caplog.records if "truncates the contour" in r.getMessage()]
            inside, _ = quad(lambda x: np.real(thermo.kernel_K(1, x, gamma)), -cutoff, cutoff)
            assert abs(rec.args[1] - (1 - inside / total)) < 1e-12

    def test_truncation_logged_once_per_doubling_check(self, gamma, caplog):
        # the doubled grid of the resolution and convergence checks reuses the
        # checked cutoff, so only the grid the caller built logs the warning
        def truncations():
            return [r for r in caplog.records if "truncates the contour" in r.getMessage()]

        with caplog.at_level(logging.WARNING, logger="svdwbc.thermo"):
            grid = thermo.contour_grid(gamma, cutoff=0.01, points_per_branch=8)
            theta = thermo.ground_state_theta(grid)
            thermo.solve_density(theta, grid, gamma, check_resolution=True)
            assert len(truncations()) == 1
            caplog.clear()
            grid = thermo.contour_grid(gamma, cutoff=0.01, points_per_branch=8)
            thermo.efp_thermo(1, [0.0], theta, grid, gamma, check_convergence=True)
            assert len(truncations()) == 1

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


def _mirror_image(theta, grid):
    """theta with every node at x < 0 given the value of its mirror node;
    contour_grid lists each branch in ascending x, so the mirror of the
    k-th node of a branch is its k-th node from the end."""
    out = np.array(theta, dtype=float)
    for branch in (~grid.shifted, grid.shifted):
        idx = np.flatnonzero(branch)
        out[idx] = np.where(grid.x[idx] > 0, out[idx], out[idx][::-1])
    return out


def _thetas(grid):
    """Ground-state, shifted-branch packed, seeded with zeros on both
    branches (as drawn, and mirror-symmetrized), and nowhere zero."""
    rng = np.random.default_rng(2024)
    mixed = rng.random(grid.n_nodes)
    mixed[rng.random(grid.n_nodes) < 0.3] = 0.0
    assert np.any(mixed[grid.shifted] == 0) and np.any(mixed[~grid.shifted] == 0)
    mirrored = _mirror_image(mixed, grid)
    assert np.any(mirrored[grid.shifted] == 0) and np.any(mirrored[~grid.shifted] == 0)
    return {
        "ground": thermo.ground_state_theta(grid),
        "shifted": np.where(grid.shifted, 1.0, 0.0),
        "mirrored": mirrored,
        "mixed": mixed,
        "nonzero": 0.2 + 0.7 * rng.random(grid.n_nodes),
    }


KINDS = ["ground", "shifted", "mirrored", "mixed", "nonzero"]
PACKED = {"ground", "shifted"}


@pytest.fixture
def factored(monkeypatch):
    """Shapes of the matrices np.linalg.solve factorizes, in call order."""
    shapes, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: shapes.append(a.shape) or solve(a, b))
    return shapes


class TestNystromOracle:
    """The Nystrom solve against the dense oracle.  solve_density and
    local_densities take the packed kinds in closed form, so for those the
    tests reach the solve itself through nystrom_profile."""

    @pytest.fixture(scope="class")
    def grid32(self):
        return thermo.contour_grid(AnisotropyParam(0.6), points_per_branch=32)

    @staticmethod
    def _drive(grid, gamma, center):
        return np.real([thermo.kernel_K(1, z - center, gamma) for z in grid.values])

    @staticmethod
    def _close(got, ref):
        return np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @staticmethod
    def _profile(theta, grid, gamma, kind, mu=None):
        if kind in PACKED:
            return nystrom_profile(theta, grid, gamma, mu)
        return thermo.solve_density(theta, grid, gamma, mu=mu)

    @pytest.mark.parametrize("kind", KINDS)
    def test_solve_density_matches_dense_solve(self, gamma, grid32, kind):
        theta = _thetas(grid32)[kind]
        prof = self._profile(theta, grid32, gamma, kind)
        ref = nystrom_dense(theta, grid32, gamma, self._drive(grid32, gamma, 0.0))
        assert self._close(prof.rho_tot, ref)

    @pytest.mark.parametrize("kind", KINDS)
    def test_uneven_drive_matches_dense_solve(self, gamma, grid32, kind):
        theta = _thetas(grid32)[kind]
        mu = (-0.4, 0.1, 0.75)
        prof = self._profile(theta, grid32, gamma, kind, mu)
        drive = np.mean([self._drive(grid32, gamma, c) for c in mu], axis=0)
        assert self._close(prof.rho_tot, nystrom_dense(theta, grid32, gamma, drive))

    @pytest.mark.parametrize("kind", KINDS)
    def test_local_densities_match_dense_solve(self, gamma, grid32, kind):
        theta = _thetas(grid32)[kind]
        centers = [-0.4, 0.1, 0.75]
        if kind in PACKED:
            locs = [nystrom_profile(theta, grid32, gamma, (c,)) for c in centers]
        else:
            locs = thermo.local_densities(centers, theta, grid32, gamma)
        for loc, c in zip(locs, centers):
            ref = nystrom_dense(theta, grid32, gamma, self._drive(grid32, gamma, c))
            assert self._close(loc.rho_tot, ref)

    @pytest.mark.parametrize("kind", KINDS)
    def test_weights_factor_the_occupied_block(self, gamma, grid32, kind, factored):
        theta = _thetas(grid32)[kind]
        P = np.count_nonzero(theta * grid32.w)
        thermo.solve_density(theta, grid32, gamma)
        thermo.local_densities([-0.4, 0.1, 0.75], theta, grid32, gamma)
        if kind in PACKED:
            # the closed form factorizes nothing; the solve itself takes the
            # occupied block
            assert factored == []
            thermo._nystrom_solve(theta, grid32, gamma.gamma, np.ones(grid32.n_nodes))
            thermo._nystrom_solve(theta, grid32, gamma.gamma, np.ones((grid32.n_nodes, 3)))
        assert factored == [(P, P)] * 2

    def test_custom_grid_off_the_mirror_takes_the_full_block(self, gamma, grid32, factored):
        # the same nodes with the shifted branch moved by half a spacing
        x = np.where(grid32.shifted, grid32.x + 1e-3, grid32.x)
        grid = thermo.ContourGrid(grid32.cutoff, 32, x, grid32.w, grid32.shifted)
        theta = thermo.ground_state_theta(grid)
        prof = nystrom_profile(theta, grid, gamma)
        P = np.count_nonzero(theta * grid.w)
        assert factored == [(P, P)]
        assert self._close(prof.rho_tot, nystrom_dense(theta, grid, gamma,
                                                       self._drive(grid, gamma, 0.0)))

    @pytest.mark.parametrize("kind", ["ground", "mixed"])
    def test_singular_block_is_a_convergence_error(self, gamma, grid32, kind, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(ConvergenceError, match="singular density system"):
            self._profile(_thetas(grid32)[kind], grid32, gamma, kind)


class TestMirrorSplit:
    """contour_grid puts both branches on the same abscissae, each the mirror
    image of itself with no node at 0, graded about x = 0, where efp_thermo
    centres a window on a packed weight."""

    @pytest.mark.parametrize("cutoff", [None, 7.5])
    @pytest.mark.parametrize("points", [8, 33, 256, 1024])
    @pytest.mark.parametrize("g", [0.3, 0.6, 1.2])
    def test_contour_grid_is_mirror_symmetric(self, g, points, cutoff):
        grid = thermo.contour_grid(AnisotropyParam(g), cutoff, points)
        real, shifted = ~grid.shifted, grid.shifted
        assert np.array_equal(grid.x[real], grid.x[shifted])
        for branch in (real, shifted):
            x, w = grid.x[branch], grid.w[branch]
            assert np.all(np.diff(x) > 0)
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
            assert np.all(x != 0)


class TestRhoTotZero:
    """rho_tot(0), the value `density` reports as rho_tot_0 and the doubling
    check compares: the closed form's agrees with the Nystrom solve's, and
    the check takes it from the full solve on the doubled grid."""

    @pytest.mark.parametrize("g", [0.3, 0.6, np.pi / 3, 1.2])
    def test_ground_state_on_the_doubled_grid(self, g):
        # rho_tot(0) is the closed form 1 / (2 gamma); the Nystrom interpolant
        # of the closed form's node values agrees with the Nystrom solve's,
        # measured at 128 nodes per branch: 2.3e-9, 1.4e-12, 2.9e-13 and 3.8e-14
        tol = {0.3: 1e-8, 0.6: 1e-11, np.pi / 3: 1e-12, 1.2: 1e-13}[g]
        gamma = AnisotropyParam(g)
        grid = thermo.contour_grid(gamma, points_per_branch=64)
        theta, fine = thermo._doubled(thermo.ground_state_theta(grid), grid, gamma)
        prof = thermo.solve_density(theta, fine, gamma)
        assert abs(prof.rho_tot_at(0.0) - 1 / (2 * g)) <= 1e-15 / g
        got = dataclasses.replace(prof, packed=None).rho_tot_at(0.0)
        assert abs(got - nystrom_profile(theta, fine, gamma).rho_tot_at(0.0)) <= tol

    @pytest.mark.parametrize("kind", ["ground", "shifted", "mirrored"])
    @pytest.mark.parametrize("mu", [None, (0.3, -0.1, 0.5)])
    def test_symmetric_weights_and_uneven_drives(self, gamma, kind, mu, factored):
        grid = thermo.contour_grid(gamma, points_per_branch=64)
        theta = _thetas(grid)[kind]
        thermo.solve_density(theta, grid, gamma, mu, check_resolution=True)
        if kind in PACKED:
            assert factored == []
        else:
            fine_theta, fine = thermo._doubled(theta, grid, gamma)
            P, P_fine = np.count_nonzero(theta * grid.w), np.count_nonzero(fine_theta * fine.w)
            assert factored == [(P, P), (P_fine, P_fine)]

    def test_off_the_mirror_takes_the_full_solve(self, gamma, factored):
        base = thermo.contour_grid(gamma, points_per_branch=32)
        x = np.where(base.shifted, base.x + 1e-3, base.x)
        grid = thermo.ContourGrid(base.cutoff, 32, x, base.w, base.shifted)
        theta = _thetas(grid)["mixed"]
        fine_theta, fine = thermo._doubled(theta, grid, gamma)
        thermo.solve_density(theta, grid, gamma, (0.3, -0.1), check_resolution=True)
        P, P_fine = np.count_nonzero(theta * grid.w), np.count_nonzero(fine_theta * fine.w)
        assert factored == [(P, P), (P_fine, P_fine)]
        # the ground state off the mirror takes the closed form all the same
        thermo.solve_density(thermo.ground_state_theta(grid), grid, gamma, (0.3, -0.1),
                             check_resolution=True)
        assert len(factored) == 2

    def test_singular_doubled_block_is_a_convergence_error(self, gamma, monkeypatch):
        # the coarse solve factorizes once; the doubled grid's block is the
        # second factorization
        grid = thermo.contour_grid(gamma, points_per_branch=32)
        calls, solve = [], np.linalg.solve

        def singular_second(a, b):
            calls.append(a.shape)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)
        monkeypatch.setattr(np.linalg, "solve", singular_second)
        with pytest.raises(ConvergenceError, match="singular density system"):
            thermo.solve_density(_thetas(grid)["mirrored"], grid, gamma, check_resolution=True)
        assert len(calls) == 2 and calls[1][0] > calls[0][0]


class TestPackedDensity:
    """solve_density on the two packed Fermi weights: the closed form, and
    the Nystrom solve that it replaces tested against it."""

    # (points per branch, tolerance) of each case at the grid that resolves
    # it; measured max |Nystrom - closed form| over both branches, with and
    # without mu: ground <= 1.8e-15 at 1024 points; shifted 4.8e-11 at 0.3
    # (the cutoff's share: 1536 and 2048 points read the same), 2.3e-12 at
    # 0.6, 1.5e-15 at pi/3 and 2.8e-16 at 1.2
    RESOLVED = {
        ("ground", 0.3): (1024, 1e-14), ("ground", 0.6): (1024, 1e-14),
        ("ground", np.pi / 3): (1024, 1e-14), ("ground", 1.2): (1024, 1e-14),
        ("shifted", 0.3): (1536, 1e-10), ("shifted", 0.6): (1024, 1e-11),
        ("shifted", np.pi / 3): (512, 1e-14), ("shifted", 1.2): (512, 1e-14),
    }

    @pytest.mark.parametrize("kind, g", list(RESOLVED))
    @pytest.mark.parametrize("mu", [None, (0.3, -0.1, 0.5)])
    def test_nystrom_matches_closed_forms(self, kind, g, mu):
        points, tol = self.RESOLVED[kind, g]
        gamma = AnisotropyParam(g)
        grid = thermo.contour_grid(gamma, points_per_branch=points)
        theta = _thetas(grid)[kind]
        prof = thermo.solve_density(theta, grid, gamma, mu)
        occ = grid.shifted == (kind == "shifted")
        ref = packed_density_closed_form(grid.x[occ], gamma, mu, kind == "shifted")
        assert np.max(np.abs(prof.rho_tot[occ] - ref)) <= 1e-15 * np.max(np.abs(ref))
        if kind == "ground":
            assert np.all(prof.rho_tot[~occ] == 0.0)
        assert np.max(np.abs(nystrom_profile(theta, grid, gamma, mu).rho_tot - prof.rho_tot)) <= tol

    def test_shifted_packed_filling_is_the_cutoff_tail(self):
        # on the default grid at gamma = 0.3 the Nystrom filling is off from
        # 1/2 by 4.2e-4; the closed form misses only its mass beyond the
        # cutoff L, (1/pi) atan(1 / sinh(pi L / (pi - gamma))) = 1.6e-10
        gamma = AnisotropyParam(0.3)
        grid = thermo.contour_grid(gamma)
        theta = _thetas(grid)["shifted"]
        tail = np.arctan(1 / np.sinh(np.pi * grid.cutoff / (np.pi - 0.3))) / np.pi
        filling = thermo.solve_density(theta, grid, gamma).filling()
        assert 1.5e-10 < tail < 1.7e-10
        assert abs(filling - (0.5 - tail)) < 1e-14
        assert abs(nystrom_profile(theta, grid, gamma).filling() - 0.5) > 4e-4

    @pytest.mark.parametrize("kind", sorted(PACKED))
    def test_packed_weights_make_no_lu_call(self, gamma, grid06, kind, monkeypatch, caplog):
        def no_solve(a, b):
            raise AssertionError("np.linalg.solve called")
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        theta = _thetas(grid06)[kind]
        with caplog.at_level(logging.WARNING, logger="svdwbc.thermo"):
            for mu in (None, (0.3, -0.1, 0.5)):
                prof = thermo.solve_density(theta, grid06, gamma, mu, check_resolution=True)
                assert abs(prof.filling() - 0.5) < 1e-6
            thermo.local_densities([-0.4, 0.75], theta, grid06, gamma)
        assert not caplog.records

    @pytest.mark.parametrize("kind", ["mirrored", "mixed", "nonzero"])
    def test_other_weights_take_the_nystrom_solve(self, gamma, grid06, kind):
        theta = _thetas(grid06)[kind]
        for mu in (None, (0.3, -0.1, 0.5)):
            prof = thermo.solve_density(theta, grid06, gamma, mu)
            assert np.array_equal(prof.rho_tot, nystrom_profile(theta, grid06, gamma, mu).rho_tot)

    @pytest.mark.parametrize("kind", sorted(PACKED))
    def test_small_gamma_does_not_overflow(self, kind):
        # pi x / gamma reaches 1257 at the cutoff, where cosh overflows
        gamma = AnisotropyParam(0.05)
        grid = thermo.contour_grid(gamma, points_per_branch=512)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            prof = thermo.solve_density(_thetas(grid)[kind], grid, gamma, check_resolution=True)
        assert np.all(np.isfinite(prof.rho_tot))
        assert abs(prof.filling() - 0.5) < 1e-9


class TestLegGauss:
    @pytest.mark.parametrize("order", [2, 5, 32, 64])
    def test_cached_rule_is_read_only_legendre(self, order):
        xg, wg = thermo._leggauss(order)
        ref = np.polynomial.legendre.leggauss(order)
        assert np.array_equal(xg, ref[0]) and np.array_equal(wg, ref[1])
        assert not xg.flags.writeable and not wg.flags.writeable
        assert thermo._leggauss(order)[0] is xg
        with pytest.raises(ValueError):
            xg[0] = 0.0


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
    @pytest.mark.parametrize("c", [0.0, 0.4, -0.75])
    def test_is_the_one_column_profile(self, gamma, grid06, profile06, c):
        loc = thermo.local_densities([c], profile06.theta, grid06, gamma)[0]
        ref = thermo.solve_density(profile06.theta, grid06, gamma, mu=[c])
        assert isinstance(loc, thermo.DensityProfile)
        assert loc.mu == ref.mu == (c,)
        for field in ("rho_tot", "rho_p", "rho_h"):
            assert np.max(np.abs(getattr(loc, field) - getattr(ref, field))) < 1e-15
        z = np.array([0.3, -1.2, 0.5 + 0.5j * np.pi, 0.2 + 0.4j])
        assert np.max(np.abs(loc.rho_tot_at(z) - ref.rho_tot_at(z))) < 1e-15

    def test_complex_centres_rejected(self, gamma, grid06, profile06):
        # the branch kernel reads only the real part of a centre, so a
        # complex one would silently solve for its real part
        theta = profile06.theta
        with pytest.raises(ValueError, match="real driving centres"):
            thermo.solve_density(theta, grid06, gamma, mu=[0.1 + 0.2j])
        with pytest.raises(ValueError, match="real driving centres"):
            thermo.local_densities([0.3, 0.1 + 0.2j], theta, grid06, gamma)
        # a rounding-level imaginary part is the real centre
        tiny = thermo.solve_density(theta, grid06, gamma, mu=[0.1 + 1e-14j])
        real = thermo.solve_density(theta, grid06, gamma, mu=[0.1])
        assert np.array_equal(tiny.rho_tot, real.rho_tot)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
    def test_nonfinite_centres_rejected(self, gamma, grid06, profile06, bad):
        theta = profile06.theta
        with pytest.raises(ValueError, match="finite, real driving centres"):
            thermo.solve_density(theta, grid06, gamma, mu=[bad, 0.0])
        with pytest.raises(ValueError, match="finite, real driving centres"):
            thermo.local_densities([0.3, bad], theta, grid06, gamma)

    def test_centre_zero_equals_global(self, gamma, grid06, profile06):
        loc = thermo.local_densities([0.0], profile06.theta, grid06, gamma)[0]
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
        loc = thermo.local_densities([delta], profile06.theta, grid06, gamma)[0]
        xs = np.linspace(-2, 2, 41)
        shifted = np.real(np.atleast_1d(loc.rho_tot_at(xs)))
        base = np.real(np.atleast_1d(profile06.rho_tot_at(xs - delta)))
        assert np.max(np.abs(shifted - base)) < 1e-9

    def test_translation_fails_for_non_flat_theta(self, gamma, grid06):
        # negative control: a position-dependent Fermi weight breaks it
        theta = np.where(grid06.shifted, 0.0, 1.0 / (1.0 + grid06.x**2))
        delta = 0.4
        loc0 = thermo.local_densities([0.0], theta, grid06, gamma)[0]
        loc1 = thermo.local_densities([delta], theta, grid06, gamma)[0]
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


def _h_at(lams, w, locs, gamma):
    """H at one rapidity tuple through determinant._h_tuples, with unit
    weights and the rows of the local densities `locs` at the tuple, and
    the oracle's literal form of H on the same rows."""
    z = np.array(lams, dtype=complex)
    rows = np.array([np.atleast_1d(loc.rho_tot_at(z)) for loc in locs], dtype=complex)
    F = determinant._slot_table(z, np.asarray(w, dtype=complex), gamma.gamma)
    E = determinant._inverse_pairs(determinant._pair_table(z, gamma.gamma))
    h = determinant._h_tuples(np.arange(len(z))[:, None], rows, F, E)[0]
    return h, efp_integrand_h(z, rows, w, gamma)


class TestHFunction:
    def test_single_point_reduces_to_local_density(self, gamma, grid06, profile06):
        loc = thermo.local_densities([0.0], profile06.theta, grid06, gamma)[0]
        lam = 0.37
        h, ref = _h_at([lam], [0.0], [loc], gamma)
        assert abs(h - loc.rho_tot_at(lam)) < 1e-14
        assert abs(h - ref) <= 1e-14 * abs(ref)

    def test_swap_antisymmetry_cancels(self, gamma, grid06, profile06):
        # H itself changes under a swap of rapidities, but the swap factor
        # is a pure reshuffle of sinh factors: the symmetrized combination
        # H(a,b) + H(b,a) weighted by theta is what the integral sees, and
        # the full integral must be invariant under relabeling.
        w = [-0.2, 0.2]
        locs = thermo.local_densities(w, profile06.theta, grid06, gamma)
        za, zb = 0.31, -0.64
        (h_ab, ref_ab), (h_ba, ref_ba) = (_h_at(t, w, locs, gamma) for t in ([za, zb], [zb, za]))
        # exchanging integration labels leaves the integrand sum invariant
        assert abs(h_ab + h_ba - (h_ba + h_ab)) < 1e-16
        assert h_ab != h_ba
        assert abs(h_ab - ref_ab) <= 1e-12 * abs(ref_ab)
        assert abs(h_ba - ref_ba) <= 1e-12 * abs(ref_ba)

    def test_homogeneous_window_limit_finite(self, gamma, grid06, profile06):
        # H / prefactor stays finite as the window degenerates; extrapolate
        lam = [0.4, -0.3]
        vals = []
        eps_list = (1e-2, 1e-3, 1e-4)
        for eps in eps_list:
            w = [-eps / 2, eps / 2]
            locs = thermo.local_densities(w, profile06.theta, grid06, gamma)
            h, ref = _h_at(lam, w, locs, gamma)
            assert abs(h - ref) <= 1e-12 * abs(ref)
            vals.append(h / np.sinh(w[0] - w[1]))
        extr = determinant.neville_extrapolate([e * e for e in eps_list], vals)
        assert np.isfinite(extr)
        assert abs(vals[-1] - extr) < 1e-4 * max(1, abs(extr))

    def test_coincident_rapidities_vanish(self, gamma, grid06, profile06):
        # repeated rapidities give a repeated determinant column: H = 0; the
        # denominator itself only degenerates at a spacing of i*gamma
        locs = thermo.local_densities([0.1, -0.1], profile06.theta, grid06, gamma)
        lam = 0.3
        h, ref = _h_at([lam, lam], [0.1, -0.1], locs, gamma)
        assert h == 0 and abs(ref) < 1e-15
        with pytest.raises(PoleError):
            _h_at([0.3, 0.3 + 1j * gamma.gamma], [0.1, -0.1], locs, gamma)


class TestWindowColumns:
    """efp_thermo and efp_sum_finite take the window columns under the rule
    of the driving centres: finite, with at most a rounding-level imaginary
    part, which is dropped."""

    BAD = [0.1 + 0.3j, np.nan, np.inf, complex(0.1, np.nan)]

    @pytest.mark.parametrize("bad", BAD)
    def test_efp_thermo_rejects(self, gamma, coarse_grid, bad):
        theta = thermo.ground_state_theta(coarse_grid)
        with pytest.raises(ValueError, match="finite, real window columns"):
            thermo.efp_thermo(2, [bad, 0.0], theta, coarse_grid, gamma)

    @pytest.mark.parametrize("bad", BAD)
    def test_efp_sum_finite_rejects(self, gamma, profile06, bad):
        roots = bethe.solve_ground_state(8, gamma)
        with pytest.raises(ValueError, match="finite, real window columns"):
            thermo.efp_sum_finite(roots, [0.0, bad], profile=profile06)

    def test_rounding_level_imaginary_part_dropped(self, gamma, coarse_grid, profile06):
        theta = thermo.ground_state_theta(coarse_grid)
        tiny = thermo.efp_thermo(2, [0.1 + 1e-14j, -0.2], theta, coarse_grid, gamma)
        real = thermo.efp_thermo(2, [0.1, -0.2], theta, coarse_grid, gamma)
        assert tiny == real
        roots = bethe.solve_ground_state(8, gamma)
        assert thermo.efp_sum_finite(roots, [0.1 + 1e-14j], profile06) == thermo.efp_sum_finite(
            roots, [0.1], profile06)


class TestClosedFormRows:
    """_dd_densities on a packed weight: the divided differences of the
    closed form, for any window, with no factorization; for a homogeneous
    window they are its Taylor coefficients."""

    # (points per branch, tolerance) at the grids of TestPackedDensity;
    # measured max |closed form - Nystrom| / max |row| over both branches,
    # n = 1..4 and wbar in {0, 0.3}: ground <= 1.9e-15 at 1024 points;
    # shifted 2.3e-11 at 0.3 (1536 points), 2.2e-12 at 0.6 (1024), 2.9e-15
    # at pi/3 and 3.6e-16 at 1.2 (512); the distinct window below: ground
    # <= 6.8e-15, shifted 2.5e-11, 2.4e-12, 2.7e-15 and 3.5e-15
    RESOLVED = TestPackedDensity.RESOLVED

    @staticmethod
    def _nystrom_rows(w, theta, grid, gamma):
        """The Nystrom rows that _dd_densities takes for a theta that is not packed."""
        dd, pref = determinant.window_dd_rows(grid.values, w, gamma.eta)
        rho = thermo._nystrom_solve(theta, grid, gamma.gamma, np.real(dd / (2j * np.pi)).T)
        return rho.T, pref

    @pytest.mark.parametrize("kind, g", list(RESOLVED))
    def test_rows_match_nystrom(self, kind, g):
        points, tol = self.RESOLVED[kind, g]
        gamma = AnisotropyParam(g)
        grid = thermo.contour_grid(gamma, points_per_branch=points)
        theta = _thetas(grid)[kind]
        for wbar in (0.0, 0.3):
            rows, _, pref = thermo._dd_densities(np.full(4, wbar), theta, grid, gamma)
            ref, ref_pref = self._nystrom_rows(np.full(4, wbar), theta, grid, gamma)
            assert pref == ref_pref
            scale = np.max(np.abs(ref), axis=1, keepdims=True)
            assert np.max(np.abs(rows - ref) / scale) <= tol
            # the rows of a shorter window are the leading ones: bit for bit
            # on the filled branch, to the rounding of the interpolant elsewhere
            occ = theta == 1
            for n in (1, 2, 3):
                head, _, _ = thermo._dd_densities(np.full(n, wbar), theta, grid, gamma)
                assert np.array_equal(head[:, occ], rows[:n, occ])
                assert np.max(np.abs(head - rows[:n]) / scale[:n]) <= 1e-14
        w = np.array([-0.35, -0.1, 0.05, 0.4])
        rows, _, pref = thermo._dd_densities(w, theta, grid, gamma)
        ref, ref_pref = self._nystrom_rows(w, theta, grid, gamma)
        assert pref == ref_pref
        assert np.max(np.abs(rows - ref) / np.max(np.abs(ref), axis=1, keepdims=True)) <= tol

    @staticmethod
    def _oracle_windows(g):
        """Seeded spread windows of 1 to 4 columns, windows with columns
        1e-9 and 1e-4 apart (next to each other and not), and at the
        smallest gamma one whose u_m straddle the node nearest 0.3."""
        rng = np.random.default_rng(2024)
        windows = [0.3 * rng.standard_normal(n) for n in (1, 2, 3, 4) for _ in range(2)]
        windows += [np.array(w) for w in ([0.1, 0.1 + 1e-9, -0.2, 0.4], [0.1, 0.4, 0.1 + 1e-4, -0.2],
                                          [0.2, -0.1, 0.2 + 1e-9], [0.3, 0.3 + 1e-4])]
        if g == 0.05:
            grid = thermo.contour_grid(AnisotropyParam(g), points_per_branch=128)
            node = grid.x[np.argmin(np.abs(grid.x - 0.3))]
            windows.append(node + np.array([-0.02, 0.015, 0.04]))
        return windows

    @pytest.mark.parametrize("kind", sorted(PACKED))
    @pytest.mark.parametrize("g", [0.05, 0.3, 0.6, np.pi / 3, 1.2])
    def test_distinct_rows_match_mp_oracle(self, g, kind):
        # measured max |rows - oracle| / max |row| over these windows: ground
        # <= 3.9e-15, shifted <= 2.3e-14 (the gamma = 0.05 spread windows);
        # the close pairs read at most 1.3e-14 (40 seeds of spread windows:
        # ground <= 1.4e-14, shifted <= 5.6e-14)
        gamma = AnisotropyParam(g)
        grid = thermo.contour_grid(gamma, points_per_branch=128)
        theta = _thetas(grid)[kind]
        occ = theta == 1
        for w in self._oracle_windows(g):
            rows, _, _ = thermo._dd_densities(w, theta, grid, gamma)
            want = packed_dd_rows_mp(grid.x[occ], w, g, kind == "shifted")
            scale = np.max(np.abs(want), axis=1, keepdims=True)
            assert np.max(np.abs(rows[:, occ] - want) / scale) <= 1e-13
            if kind == "ground":
                assert np.all(rows[:, ~occ] == 0.0)

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("g", [0.3, 1.2])
    def test_taylor_coefficients_match_mpmath(self, shifted, g):
        # row k is the k-th Taylor coefficient in t of the one-column density
        # with its column at wbar + log(1 + t) / 2; measured <= 2.9e-15 of the
        # largest coefficient
        mpmath = pytest.importorskip("mpmath")
        wbar, x = 0.3, np.array([-2.0, -0.31, 0.3, 0.37, 1.7, 6.0])
        d = np.pi - g if shifted else g
        rows = thermo._packed_rho(shifted, x, g, (wbar,), 5)
        with mpmath.workdps(40):
            for i, xi in enumerate(x):
                def f(t):
                    y = mpmath.pi * (xi - wbar - mpmath.log(1 + t) / 2) / d
                    return (-1 if shifted else 1) / (2 * d * mpmath.cosh(y))
                want = np.array([float(c) for c in mpmath.taylor(f, 0, 4)])
                assert np.max(np.abs(rows[:, i] - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", sorted(PACKED))
    def test_homogeneous_window_makes_no_lu_call(self, gamma, grid06, kind, monkeypatch):
        theta = _thetas(grid06)[kind]
        roots = bethe.solve_ground_state(8, gamma)
        prof = thermo.solve_density(theta, grid06, gamma)

        def no_solve(a, b):
            raise AssertionError("np.linalg.solve called")
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        for n in (1, 2, 3):
            assert np.isfinite(thermo.efp_thermo(n, [0.2] * n, theta, grid06, gamma).value)
        res = thermo.efp_thermo(4, [0.2] * 4, theta, grid06, gamma, mc_samples=2000)
        assert np.isfinite(res.value)
        if kind == "ground":
            assert np.isfinite(thermo.efp_sum_finite(roots, [0.1, 0.1], prof))

    @pytest.mark.parametrize("kind", sorted(PACKED))
    def test_distinct_windows_make_no_lu_call(self, gamma, grid06, kind, monkeypatch):
        theta = _thetas(grid06)[kind]
        roots = bethe.solve_ground_state(8, gamma)
        prof = thermo.solve_density(theta, grid06, gamma)

        def no_solve(a, b):
            raise AssertionError("np.linalg.solve called")
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        window = [-0.1, 0.2, 0.2 + 1e-9, 0.45]
        for n in (1, 2, 3):
            assert np.isfinite(thermo.efp_thermo(n, window[:n], theta, grid06, gamma).value)
        res = thermo.efp_thermo(4, window, theta, grid06, gamma, mc_samples=2000)
        assert np.isfinite(res.value)
        for n in (2, 3):
            assert np.isfinite(thermo.efp_sum_finite(roots, window[-n:], prof))

    @pytest.mark.parametrize("kind", sorted(PACKED))
    def test_points_follow_rho_tot_at(self, gamma, grid06, kind):
        # row 0 is the one-column density: the closed form on the filled
        # branch, the ground state's 0 on Im = pi/2, the interpolant off the lines
        theta = _thetas(grid06)[kind]
        pts = np.array([0.37, -1.2, 0.37 + 0.5j * np.pi, -1.2 + 0.5j * np.pi, 0.12 + 0.2j])
        _, at, _ = thermo._dd_densities(np.full(3, 0.1), theta, grid06, gamma, pts)
        want = thermo.local_densities([0.1], theta, grid06, gamma)[0].rho_tot_at(pts)
        assert np.max(np.abs(at[0] - want)) <= 1e-14 * np.max(np.abs(want))
        filled = slice(2, 4) if kind == "shifted" else slice(0, 2)
        assert np.array_equal(at[0, filled], want[filled])
        if kind == "ground":
            assert np.all(at[:, 2:4] == 0.0)

    def test_underflowing_rows_sample_without_warnings(self):
        # at gamma = 0.05 the closed-form rows underflow to 0 towards the
        # cutoff, and with them the sampling weights; a RuntimeWarning fails here
        gamma = AnisotropyParam(0.05)
        grid = thermo.contour_grid(gamma)
        theta = thermo.ground_state_theta(grid)
        rows, _, _ = thermo._dd_densities(np.zeros(4), theta, grid, gamma)
        assert np.any(rows[0, ~grid.shifted] == 0.0)
        res = thermo.efp_thermo(4, [0.0] * 4, theta, grid, gamma, mc_samples=4000, seed=1)
        assert np.isfinite(res.value) and np.isfinite(res.stderr)


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

    def test_n0_is_one(self, gamma, grid06):
        res = thermo.efp_thermo(0, [], thermo.ground_state_theta(grid06), grid06, gamma)
        assert res.value == 1.0

    @pytest.mark.parametrize("n", [1, 3])
    def test_packed_window_is_translated(self, n):
        # the packed state is translation invariant, and the grid resolves a
        # window centred at 0: at gamma = 0.05 a window at wbar = 0.3 read
        # 0.01104 at n = 3 where wbar = 0 reads 0.007636
        gamma = AnisotropyParam(0.05)
        grid = thermo.contour_grid(gamma)
        theta = thermo.ground_state_theta(grid)
        for w in (np.zeros(n), np.array([-0.05, 0.02, 0.04])[:n]):
            at_0 = thermo.efp_thermo(n, w, theta, grid, gamma).value
            moved = thermo.efp_thermo(n, w + 0.3, theta, grid, gamma)
            assert abs(moved.value - at_0) <= 1e-10
            assert moved.mu_window == tuple(w + 0.3)

    def test_negative_window_length_rejected(self, gamma, grid06):
        theta = thermo.ground_state_theta(grid06)
        with pytest.raises(ValueError, match="^window length must be >= 0, got n = -1$"):
            thermo.efp_thermo(-1, [], theta, grid06, gamma)


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_rows_reach_the_rounding_floor(self, setup, n):
        # the Nystrom rows left 0.01367187499999995 at n = 3
        g, grid, theta = setup
        assert abs(thermo.efp_thermo(n, [0.0] * n, theta, grid, g).value - asm_efp(n)) <= 1e-15

    def test_monte_carlo_n4(self, setup):
        g, grid, theta = setup
        res = thermo.efp_thermo(4, [0.0] * 4, theta, grid, g, seed=4)
        assert abs(res.value - asm_efp(4)) < 5 * res.stderr

    def test_exact_node_sum_n4(self):
        g = AnisotropyParam(np.pi / 3)
        grid = thermo.contour_grid(g, cutoff=10.0, points_per_branch=96)
        val = _exact_efp([0.0] * 4, thermo.ground_state_theta(grid), grid, g)
        assert abs(val - asm_efp(4)) < 1e-7


def _node_sum_at(z, weight, rows, w, g):
    """determinant._node_sum over the nodes z for the window w, with its
    node and slot tables built here."""
    tables = determinant._node_tables(z, g, len(w))
    return determinant._node_sum(weight, rows, determinant._slot_table(z, w, g), tables)


def _centred(window, theta, grid):
    """The window efp_thermo evaluates: moved to mean 0 on a packed weight."""
    w = np.asarray(window, dtype=float)
    return w - w.mean() if thermo._packed_branch(theta, grid) is not None else w


def _exact_efp(window, theta, grid, gamma):
    """The exact node sum that efp_thermo takes for n <= 3, at any n."""
    w = _centred(window, theta, grid)
    rho, _, pref = thermo._dd_densities(w, theta, grid, gamma)
    active = np.abs(theta * grid.w) > 0
    return pref * _node_sum_at(
        grid.values[active], (theta * grid.w)[active], rho[:, active], w, gamma.gamma
    )


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

    def test_node_sum_n4_matches_nested_loops(self, gamma, coarse_grid):
        # theta on the whole real branch and on the four central nodes of
        # the shifted one: 20 nodes keep the oracle's 116,280 tuples cheap
        x = coarse_grid.x
        theta = np.where(coarse_grid.shifted, 0.3 * (np.abs(x) < 0.3), 1.0 / (1.0 + x**2))
        z, c, rows = _oracle_inputs(self.WINDOW, theta, coarse_grid, gamma)
        assert len(z) == 20
        w = np.array(self.WINDOW)
        l, m = np.triu_indices(4, 1)
        val = _node_sum_at(z, c, rows, w, gamma.gamma) / np.prod(np.sinh(w[l] - w[m]))
        ref = efp_node_sum(z, c, rows, self.WINDOW, gamma)
        assert abs(val - ref) <= 1e-12 * abs(ref)

    def test_n3_symmetric_product_any_weights(self, gamma, coarse_grid):
        # the n = 3 first elimination E diag(weight g) E^T, taken by partial
        # fractions, with zero, negative and complex weights
        x = coarse_grid.x
        theta = np.where(coarse_grid.shifted, 0.3 * (np.abs(x) < 0.3), 1.0 / (1.0 + x**2))
        w = np.array(self.WINDOW[:3])
        z, c, rows = _oracle_inputs(w, theta, coarse_grid, gamma)
        mixed = c.astype(complex)
        mixed[::4] = 0.0
        mixed[1::4] *= -1.0
        mixed[2::4] *= np.exp(2.5j)
        l, m = np.triu_indices(3, 1)
        for weight in (mixed, -c, c * np.exp(-1.0j * np.arange(len(c)))):
            val = _node_sum_at(z, weight, rows, w, gamma.gamma) / np.prod(np.sinh(w[l] - w[m]))
            ref = efp_node_sum(z, weight, rows, w, gamma)
            assert abs(val - ref) <= 1e-12 * abs(ref)

    def test_h_function_matches_oracle(self, gamma, grid06, profile06):
        w = self.WINDOW[:3]
        locs = thermo.local_densities(w, profile06.theta, grid06, gamma)
        lams = [0.31, -0.64 + 0.5j * np.pi, 0.12 + 0.2j]
        vals = np.array(lams)
        rows = np.array([loc.rho_tot_at(vals) for loc in locs])
        for k in (1, 2, 3):
            h, _ = _h_at(lams[:k], w[:k], locs[:k], gamma)
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
        # a coincident window: Monte Carlo against the exact node sum of the
        # same divided-difference rows
        theta = thermo.ground_state_theta(coarse_grid)
        exact = _exact_efp([0.0] * 4, theta, coarse_grid, gamma)
        mc = thermo.efp_thermo(4, [0.0] * 4, theta, coarse_grid, gamma,
                               mc_samples=20000, seed=3)
        assert mc.samples == 20000
        assert mc.stderr > 0
        assert abs(mc.value - exact.real) < 5 * mc.stderr

    def test_vanishing_sampling_weights_rejected(self, gamma, coarse_grid):
        # no occupied node leaves nothing to draw from
        theta = np.zeros(coarse_grid.n_nodes)
        with pytest.raises(ValueError, match="sampling weights"):
            thermo.efp_thermo(4, self.WINDOW, theta, coarse_grid, gamma, mc_samples=64)

    @pytest.mark.parametrize("samples", [-5, 0, 1, 31])
    def test_fewer_samples_than_strata_rejected(self, gamma, coarse_grid, samples):
        theta = thermo.ground_state_theta(coarse_grid)
        with pytest.raises(ValueError, match="samples"):
            thermo.efp_thermo(4, self.WINDOW, theta, coarse_grid, gamma, mc_samples=samples)


class TestGuideSearch:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_searchsorted(self, side, rng):
        q = rng.random(300)
        q[[0, 1, 50, 51, 52, 299]] = 0.0  # zero-probability nodes repeat cdf values
        cdf = np.cumsum(q)
        cdf /= cdf[-1]
        edges = np.arange(thermo._GUIDE + 1) / thermo._GUIDE
        keys = np.concatenate([rng.random(20000), [0.0], edges, cdf])
        keys = np.concatenate([keys, np.nextafter(keys, 0), np.nextafter(keys, 1)])
        want = np.searchsorted(cdf, keys, side)
        assert np.array_equal(thermo._search(cdf, keys, side, thermo._guide(cdf, side)), want)
        # the shape of a key array is kept
        got = thermo._search(cdf, keys[:30000].reshape(3, -1), side, thermo._guide(cdf, side))
        assert np.array_equal(got, want[:30000].reshape(3, -1))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_unnormalized_cdf(self, side, rng):
        cdf = 0.7 * np.cumsum(rng.random(40)) / 40  # ends below 1
        keys = np.concatenate([rng.random(5000), cdf, [cdf[-1], 0.0, 1.0]])
        got = thermo._search(cdf, keys, side, thermo._guide(cdf, side))
        assert np.array_equal(got, np.searchsorted(cdf, keys, side))


def _reference_mc(n, window, theta, grid, gamma, samples, seed):
    """efp_thermo's stratified sampler written with Generator.choice, the pair
    table from np.sinh and one LAPACK determinant per tuple: the draws and
    values the guide-table search and the Laplace minors must reproduce."""
    w = _centred(window, theta, grid)
    g = gamma.gamma
    rho, _, pref = thermo._dd_densities(w, theta, grid, gamma)
    active = np.abs(theta * grid.w) > 0
    z, c, R = grid.values[active], (theta * grid.w)[active], rho[:, active]
    uw = np.exp(2 * (w - w.mean()))
    L = np.cumprod(np.hstack([np.ones((n, 1)), uw[:, None] - uw[None, :-1]]), axis=1)
    q = np.abs(c * (L.mean(axis=0) @ R))
    q = q / q.sum()
    rng = np.random.default_rng(seed)
    per = samples // 32
    u = (np.arange(32)[:, None] + rng.random((32, per))) / 32
    idx0 = np.minimum(np.searchsorted(np.cumsum(q), u.ravel()), len(z) - 1)
    idx = np.vstack([idx0, rng.choice(len(z), size=(n - 1, 32 * per), p=q)])
    l, m = np.triu_indices(n, 1)
    pair = np.prod(np.sinh(z[idx[m]] - z[idx[l]] - 1j * g), axis=0)
    slots = np.prod([
        np.sinh(z[idx[k]] - w[j] + (-0.5j if j < k else 0.5j) * g)
        for k in range(n) for j in range(n) if j != k
    ], axis=0)
    det = np.linalg.det(np.moveaxis(R[:, idx], -1, 0))
    vals = det * slots * np.prod((c / q)[idx], axis=0) / pair
    vals = np.where(np.all(idx[l] != idx[m], axis=0), vals, 0.0)
    return pref * vals.mean(), abs(pref) * np.abs(vals.std(ddof=1)) / np.sqrt(len(vals))


class TestMonteCarloStream:
    """The sampler's index draws are Generator.choice's, draw for draw.  A
    numpy release that changes how choice maps its uniforms to indices fails
    here instead of silently moving every seeded Monte Carlo value."""

    def test_choice_is_a_right_search_of_the_normalized_cdf(self):
        for seed in range(5):
            q = np.abs(np.random.default_rng(100 + seed).normal(size=200))
            q[::17] = 0.0
            q = q / q.sum()
            want = np.random.default_rng(seed).choice(len(q), size=(3, 4000), p=q)
            cdf = np.cumsum(q)
            keys = np.random.default_rng(seed).random((3, 4000))
            cdf /= cdf[-1]
            assert np.array_equal(thermo._search(cdf, keys, "right", thermo._guide(cdf, "right")), want)

    @pytest.mark.parametrize("seed", [3, 5, 7])
    def test_matches_the_choice_and_lapack_sampler(self, gamma, coarse_grid, seed):
        window = TestNodeSumOracle.WINDOW
        theta = thermo.ground_state_theta(coarse_grid)
        res = thermo.efp_thermo(4, window, theta, coarse_grid, gamma,
                                mc_samples=20000, seed=seed)
        value, stderr = _reference_mc(4, window, theta, coarse_grid, gamma, 20000, seed)
        assert res.value == pytest.approx(value.real, rel=1e-12, abs=0)
        assert res.stderr == pytest.approx(stderr, rel=1e-12, abs=0)

    @pytest.mark.parametrize("chunk", [1000, 8192, 10**6])
    def test_chunk_sizes_give_one_estimate(self, gamma, coarse_grid, monkeypatch, chunk):
        # 19999 samples keep 19968, which no chunk but the largest divides
        window = TestNodeSumOracle.WINDOW
        theta = thermo.ground_state_theta(coarse_grid)
        whole = thermo.efp_thermo(4, window, theta, coarse_grid, gamma, mc_samples=19999, seed=11)
        monkeypatch.setattr(determinant, "_CHUNK", chunk)
        res = thermo.efp_thermo(4, window, theta, coarse_grid, gamma, mc_samples=19999, seed=11)
        assert res.samples == whole.samples == 19968
        assert res.value == pytest.approx(whole.value, rel=1e-14, abs=0)
        assert res.stderr == pytest.approx(whole.stderr, rel=1e-14, abs=0)

    def test_draws_are_the_one_shot_draws(self, gamma, coarse_grid, monkeypatch):
        # the indices that reach the integrand, chunk by chunk, are those of
        # rng.random((32, per)) for slot 0 and Generator.choice for the rest
        window, samples, seed = TestNodeSumOracle.WINDOW, 19968, 13
        theta = thermo.ground_state_theta(coarse_grid)
        seen, h_tuples = [], determinant._h_tuples
        monkeypatch.setattr(determinant, "_CHUNK", 1000)
        monkeypatch.setattr(determinant, "_h_tuples",
                            lambda idx, *a: seen.append(idx.copy()) or h_tuples(idx, *a))
        thermo.efp_thermo(4, window, theta, coarse_grid, gamma, mc_samples=samples, seed=seed)
        got = np.hstack(seen)
        w = _centred(window, theta, coarse_grid)
        rho, _, _ = thermo._dd_densities(w, theta, coarse_grid, gamma)
        active = np.abs(theta * coarse_grid.w) > 0
        c, R = (theta * coarse_grid.w)[active], rho[:, active]
        uw = np.exp(2 * (w - w.mean()))
        L = np.cumprod(np.hstack([np.ones((4, 1)), uw[:, None] - uw[None, :-1]]), axis=1)
        q = np.abs(c * (L.mean(axis=0) @ R))
        q = q / q.sum()
        rng = np.random.default_rng(seed)
        u = (np.arange(32)[:, None] + rng.random((32, samples // 32))) / 32
        idx0 = np.minimum(np.searchsorted(np.cumsum(q), u.ravel()), len(q) - 1)
        want = np.vstack([idx0, rng.choice(len(q), size=(3, samples), p=q)])
        assert np.array_equal(got, want)


class TestPairTable:
    def test_matches_sinh_on_both_branches(self, gamma, grid06):
        z = grid06.values
        D = determinant._pair_table(z, gamma.gamma)
        want = np.sinh(z[None, :] - z[:, None] - 1j * gamma.gamma)
        assert np.max(np.abs(D - want) / np.abs(want)) <= 1e-14

    def test_largest_allowed_reach_stays_finite(self, gamma):
        # 2 cutoff = 680 < 700; a RuntimeWarning (overflow) is an error here
        grid = thermo.contour_grid(gamma, cutoff=340.0, points_per_branch=64)
        theta = np.where(grid.shifted, 0.3, 1.0)
        res = thermo.efp_thermo(2, [0.0, 0.0], theta, grid, gamma)
        assert np.isfinite(res.value) and np.isfinite(res.imag_residual)

    @pytest.mark.parametrize("shifted", [0.0, 0.3])
    def test_largest_allowed_reach_at_n3(self, gamma, shifted):
        # (n - 1) cutoff = 2 cutoff = 680 < 700 at n = 3: the partial-fraction
        # tables stay finite and warning-free (a RuntimeWarning is an error
        # here), and the sum matches the direct first elimination over
        # E = 1/sinh from numpy, on the real branch alone and on both
        # (measured 1.0e-15 and 3.7e-15 relative)
        grid = thermo.contour_grid(gamma, cutoff=340.0, points_per_branch=64)
        theta = np.where(grid.shifted, shifted, 1.0)
        w = np.zeros(3)
        res = thermo.efp_thermo(3, w, theta, grid, gamma)
        rho, _, pref = thermo._dd_densities(w, theta, grid, gamma)
        act = np.abs(theta * grid.w) > 0
        z = grid.values[act]
        E = 1 / np.sinh(z - z[:, None] - 1j * gamma.gamma)
        np.fill_diagonal(E, 0.0)
        F = determinant._slot_table(z, w, gamma.gamma)
        ref = pref * node_sum_n3_direct((theta * grid.w)[act], rho[:, act], F, E)
        assert abs(res.value - ref.real) <= 1e-13 * abs(ref)
        assert res.imag_residual <= 1e-13 * abs(ref)


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


class TestNodeSumGarbage:
    """A node sum leaves no reference cycle behind, so its P^(n-1) tables are
    freed when the call returns, not when the cyclic collector next runs."""

    @pytest.fixture(scope="class")
    def calls(self):
        gamma = AnisotropyParam(0.6)
        grid = thermo.contour_grid(gamma, points_per_branch=32)
        theta = thermo.ground_state_theta(grid)
        mus = tuple(np.linspace(-0.3, 0.3, 12))
        roots = bethe.solve_bae(*bethe.ground_state_numbers(6), LatticeSpec(12, mus), gamma)
        return {
            "efp_thermo n=2": lambda: thermo.efp_thermo(2, [0.0, 0.0], theta, grid, gamma),
            "efp_thermo n=3": lambda: thermo.efp_thermo(3, [0.0, 0.1, 0.2], theta, grid, gamma),
            "efp_finite n=3": lambda: determinant.efp_finite(roots, 4, 3),
            "efp_profile n=2": lambda: determinant.efp_profile(roots, 2),
        }

    @pytest.mark.parametrize("name", ["efp_thermo n=2", "efp_thermo n=3",
                                      "efp_finite n=3", "efp_profile n=2"])
    def test_no_cycle_left(self, calls, name):
        calls[name]()  # first-use caches are not the call's garbage
        gc.collect()
        gc.disable()
        try:
            calls[name]()
            assert gc.collect() == 0
        finally:
            gc.enable()
