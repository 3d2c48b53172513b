import numpy as np
import pytest

from oracles import efp_tuple_sum, varphi_prime_fd, window_dd_rows_mp
from svdwbc import algebra, bethe, determinant
from svdwbc.algebra import LatticeSpec, homogeneous_spec
from svdwbc.errors import PoleError


def brute_scalar_product(xi, lams, spec, gamma):
    """<up| prod C(xi) prod B(lam) |up> by direct operator application."""
    u = algebra.up_state(spec)
    for x in xi:
        u = algebra.monodromy_apply(x, spec, gamma, u, "C", transpose=True)
    return complex(u @ algebra.bethe_state(lams, spec, gamma))


class TestCauchyIdentity:
    def test_single_pair(self, gamma, rng):
        assert determinant.cauchy_det_check([0.3 + 0.1j], [-0.2]) < 1e-14

    def test_random_triples(self, rng):
        for _ in range(5):
            xi = rng.normal(size=3) + 1j * rng.normal(size=3)
            lm = rng.normal(size=3) + 1j * rng.normal(size=3)
            assert determinant.cauchy_det_check(xi, lm) < 1e-12

    def test_larger_sets(self, rng):
        xi = rng.normal(size=8) + 1j * rng.normal(size=8) * 0.5
        lm = rng.normal(size=8) + 1j * rng.normal(size=8) * 0.5
        assert determinant.cauchy_det_check(xi, lm) < 1e-11

    def test_coincident_xi_exact_zero(self):
        xi = np.array([0.4, 0.4, -0.3])
        lm = np.array([0.1, -0.9, 1.2])
        assert determinant.cauchy_det_check(xi, lm) < 1e-12

    def test_singular_pair_raises(self):
        with pytest.raises(PoleError):
            determinant.cauchy_det_check([0.3], [0.3])


class TestSlavnov:
    @pytest.mark.parametrize("N,M", [(1, 2), (2, 4), (3, 6)])
    def test_matches_bruteforce(self, gamma, rng, N, M):
        roots = bethe.solve_ground_state(M, gamma)
        for _ in range(20):
            xi = rng.normal(size=N) * 0.8 + 1j * rng.normal(size=N) * 0.3
            det_val = determinant.slavnov_scalar_product(xi, roots)
            brute = brute_scalar_product(xi, roots.values, roots.spec, gamma)
            assert abs(det_val - brute) / abs(brute) < 1e-8

    def test_xi_permutation_invariance(self, gamma, rng):
        roots = bethe.solve_ground_state(6, gamma)
        xi = rng.normal(size=3) + 1j * rng.normal(size=3) * 0.2
        v1 = determinant.slavnov_scalar_product(xi, roots)
        v2 = determinant.slavnov_scalar_product(xi[::-1], roots)
        assert abs(v1 - v2) / abs(v1) < 1e-12

    def test_rejects_non_bethe_roots(self, gamma):
        spec = homogeneous_spec(4)
        fake = bethe.BetheRootSet(
            (bethe.SpectralPoint(0.5), bethe.SpectralPoint(-0.8)),
            (-0.5, 0.5), (1, 1), spec.mu, gamma, residuals=(0.3, 0.3),
        )
        with pytest.raises(ValueError):
            determinant.slavnov_scalar_product([0.1, 0.2], fake)

    def test_inhomogeneous_lattice(self, gamma, rng):
        mus = tuple(0.25 * rng.normal(size=4))
        roots = bethe.solve_bae(*bethe.ground_state_numbers(2), LatticeSpec(4, mus), gamma)
        xi = rng.normal(size=2) + 1j * rng.normal(size=2) * 0.3
        det_val = determinant.slavnov_scalar_product(xi, roots)
        brute = brute_scalar_product(xi, roots.values, roots.spec, gamma)
        assert abs(det_val - brute) / abs(brute) < 1e-10

    def test_input_length_validated(self, gamma):
        roots = bethe.solve_ground_state(4, gamma)
        with pytest.raises(ValueError):
            determinant.SlavnovInput((0.1,), roots)
        with pytest.raises(PoleError):
            # xi on a root makes the Cauchy matrix singular
            determinant.slavnov_scalar_product(roots.values, roots)


class TestGaudinNorm:
    @pytest.mark.parametrize("M", [2, 4, 6])
    def test_matches_bruteforce(self, gamma, M):
        roots = bethe.solve_ground_state(M, gamma)
        norm = determinant.gaudin_norm(roots)
        brute = complex(
            algebra.dual_state(roots.values, roots.spec, gamma)
            @ algebra.bethe_state(roots.values, roots.spec, gamma)
        )
        assert abs(norm - brute) / abs(brute) < 1e-10

    def test_varphi_prime_finite_differences(self, gamma):
        roots = bethe.solve_ground_state(6, gamma)
        analytic = determinant.varphi_prime_matrix(roots)
        fd = varphi_prime_fd(roots, step=1e-6)
        assert np.max(np.abs(analytic - fd)) < 1e-6

    @pytest.mark.parametrize("M", [2, 4, 6, 8])
    def test_real_with_alternating_sign(self, gamma, M):
        # the unconjugated pairing of ground states is real with sign (-1)^N
        norm = determinant.gaudin_norm(bethe.solve_ground_state(M, gamma))
        N = M // 2
        assert abs(norm.imag) < 1e-10 * abs(norm)
        assert norm.real * (-1) ** N > 0

    def test_specialization_of_scalar_product(self, gamma):
        # xi -> roots + eps, Richardson extrapolated, approaches the norm
        roots = bethe.solve_ground_state(6, gamma)
        eps = (1e-3, 1e-4, 1e-5)
        vals = [determinant.slavnov_scalar_product(roots.values + e, roots) for e in eps]
        extr = determinant.neville_extrapolate(list(eps), vals)
        ref = determinant.gaudin_norm(roots)
        assert abs(extr - ref) / abs(ref) < 1e-6


class TestDActionExpansion:
    def test_minimal_case(self, gamma, rng):
        spec = LatticeSpec(2, (0.12, -0.3))
        assert determinant.d_action_check([0.4 + 0.1j], [0.9 - 0.2j], spec, gamma) < 1e-11

    def test_two_operator_case(self, gamma, rng):
        spec = LatticeSpec(4, tuple(0.2 * rng.normal(size=4)))
        lams = rng.normal(size=2) * 0.5 + 0.2j * rng.normal(size=2)
        extra = rng.normal(size=2) * 0.5 + 0.2j * rng.normal(size=2)
        assert determinant.d_action_check(lams, extra, spec, gamma) < 1e-9

    def test_coefficient_vanishes_at_shifted_column(self, gamma):
        # d(lam) = 0 when lam sits on a column inhomogeneity + eta/2
        mus = (0.2, -0.4)
        ext = np.array([mus[0] + gamma.eta / 2, 0.7 - 0.2j])
        val = determinant.g_coefficient((0,), ext, 1, mus, gamma)
        assert abs(val) < 1e-14

    def test_distinct_indices_enforced(self, gamma):
        ext = np.array([0.1, 0.5, 0.9 + 0.1j, 1.3])
        with pytest.raises(ValueError):
            determinant.g_coefficient((1, 1), ext, 2, (0.0, 0.0, 0.0, 0.0), gamma)


class TestScalarProductRatio:
    def test_empty_window(self, gamma):
        roots = bethe.solve_ground_state(4, gamma)
        assert determinant.scalar_product_ratio(roots, []) == 1.0

    def test_matches_bruteforce_single_replacement(self, gamma, rng):
        mus = tuple(np.sort(0.3 * rng.normal(size=4)))
        roots = bethe.solve_bae(*bethe.ground_state_numbers(2), LatticeSpec(4, mus), gamma)
        spec = roots.spec
        w = [mus[2]]
        S = determinant.scalar_product_ratio(roots, w)
        brute = brute_scalar_product(
            roots.values[::-1], [roots.values[0], w[0] + gamma.eta / 2], spec, gamma
        ) / complex(
            algebra.dual_state(roots.values, spec, gamma)
            @ algebra.bethe_state(roots.values, spec, gamma)
        )
        assert abs(S - brute) / abs(brute) < 1e-9

    def test_double_replacement_bruteforce(self, gamma, rng):
        mus = tuple(np.sort(0.25 * rng.normal(size=6)))
        roots = bethe.solve_bae(*bethe.ground_state_numbers(3), LatticeSpec(6, mus), gamma)
        spec = roots.spec
        w = [mus[1], mus[3]]
        S = determinant.scalar_product_ratio(roots, w)
        b_args = [roots.values[0]] + [wi + gamma.eta / 2 for wi in w]
        brute = brute_scalar_product(roots.values, b_args, spec, gamma) / complex(
            algebra.dual_state(roots.values, spec, gamma)
            @ algebra.bethe_state(roots.values, spec, gamma)
        )
        assert abs(S - brute) / abs(brute) < 1e-9

    def test_psi_prime_first_rows_equal_varphi_prime(self, gamma):
        roots = bethe.solve_ground_state(6, gamma)
        psi = determinant.psi_prime_matrix(roots, [0.0])
        phi = determinant.varphi_prime_matrix(roots)
        assert np.array_equal(psi[:2], phi[:2])

    def test_identity_rows_of_solved_block(self, gamma):
        # the kept-root rows of psi' phi'^{-1} are Kronecker rows by
        # construction; the solved block must reproduce the window rows
        roots = bethe.solve_ground_state(6, gamma)
        w = [0.0]
        rows = determinant.psi_phi_rows(roots, w)
        phi = determinant.varphi_prime_matrix(roots)
        assert np.max(np.abs(rows @ phi - determinant._window_rows(roots, w))) < 1e-10


class TestShiftedBranchState:
    """The determinant machinery holds for any Bethe solution, not only the
    packed real-branch state; exercised on the all-shifted twin."""

    @pytest.fixture
    def shifted_roots(self, gamma):
        return bethe.solve_bae((-0.5, 0.5), (-1, -1), homogeneous_spec(4), gamma)

    def test_eigenstate_property(self, gamma, rng, shifted_roots):
        for _ in range(3):
            lam = rng.normal() * 0.5 + 0.2j * rng.normal()
            assert bethe.eigenvalue_residual(shifted_roots, shifted_roots.spec, lam) < 1e-9

    def test_gaudin_norm(self, gamma, shifted_roots):
        norm = determinant.gaudin_norm(shifted_roots)
        brute = complex(
            algebra.dual_state(shifted_roots.values, shifted_roots.spec, gamma)
            @ algebra.bethe_state(shifted_roots.values, shifted_roots.spec, gamma)
        )
        assert abs(norm - brute) / abs(brute) < 1e-10

    def test_slavnov(self, gamma, rng, shifted_roots):
        xi = rng.normal(size=2) + 0.3j * rng.normal(size=2)
        det_val = determinant.slavnov_scalar_product(xi, shifted_roots)
        brute = brute_scalar_product(xi, shifted_roots.values, shifted_roots.spec, gamma)
        assert abs(det_val - brute) / abs(brute) < 1e-10

    def test_efp_vs_bruteforce(self, gamma, shifted_roots):
        for n in (1, 2):
            det_val = determinant.efp_finite(shifted_roots, 0, n)
            brute = algebra.correlator_bruteforce(
                shifted_roots.values, shifted_roots.spec, gamma, range(1, n + 1)
            )
            assert abs(det_val - brute) < 1e-8


class TestEfpFinite:
    def test_single_column_homogeneous_m2(self, gamma):
        roots = bethe.solve_ground_state(2, gamma)
        assert abs(determinant.efp_finite(roots, 0, 1) - 0.5) < 1e-12

    def test_single_column_homogeneous_m4(self, gamma):
        roots = bethe.solve_ground_state(4, gamma)
        brute = algebra.correlator_bruteforce(roots.values, roots.spec, gamma, [1])
        assert abs(determinant.efp_finite(roots, 0, 1) - brute) < 1e-9

    @pytest.mark.parametrize("M", [4, 6])
    def test_all_windows_generic_mu(self, gamma, rng, M):
        mus = tuple(np.sort(0.3 * rng.normal(size=M)))
        roots = bethe.solve_bae(*bethe.ground_state_numbers(M // 2), LatticeSpec(M, mus), gamma)
        for n in range(1, M + 1):
            for k in range(M - n + 1):
                det_val = determinant.efp_finite(roots, k, n, return_complex=True)
                brute = algebra.correlator_bruteforce(
                    roots.values, roots.spec, gamma, range(k + 1, k + n + 1),
                    return_complex=True,
                )
                assert abs(det_val - brute) < 1e-8

    def test_homogeneous_two_columns_extrapolated(self, gamma):
        roots = bethe.solve_ground_state(6, gamma)
        det_val = determinant.efp_finite(roots, 0, 2)
        brute = algebra.correlator_bruteforce(roots.values, roots.spec, gamma, [1, 2])
        assert abs(det_val - brute) < 1e-8

    def test_bounds_and_monotonicity_homogeneous(self, gamma):
        roots = bethe.solve_ground_state(8, gamma)
        vals = [determinant.efp_finite(roots, 0, n) for n in range(0, 4)]
        assert vals[0] == 1.0
        for a, b in zip(vals, vals[1:]):
            assert 0 <= b <= a <= 1

    def test_window_bounds_checked(self, gamma):
        roots = bethe.solve_ground_state(4, gamma)
        with pytest.raises(ValueError):
            determinant.efp_finite(roots, 3, 2)
        determinant.EfpRequest(0, 1, roots)
        with pytest.raises(ValueError):
            determinant.EfpRequest(4, 1, roots)

    def test_n_zero(self, gamma):
        roots = bethe.solve_ground_state(4, gamma)
        assert determinant.efp_finite(roots, 1, 0) == 1.0

    def test_request_object_entrypoint(self, gamma):
        roots = bethe.solve_ground_state(4, gamma)
        req = determinant.EfpRequest(1, 1, roots)
        assert determinant.efp_finite(req) == pytest.approx(0.5, abs=1e-10)


class TestCoincidentWindows:
    """Coincident columns take the divided-difference path of distinct ones."""

    @pytest.mark.parametrize("M", [8, 12])
    def test_homogeneous_windows_without_bethe_resolves(self, gamma, monkeypatch, M):
        roots = bethe.solve_ground_state(M, gamma)
        calls = []
        solve = bethe.solve_bae

        def counting_solve(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(bethe, "solve_bae", counting_solve)
        for n in range(1, 5):
            for k in sorted({0, (M - n) // 2, M - n}):
                val = determinant.efp_finite(roots, k, n, return_complex=True)
                brute = algebra.correlator_bruteforce(
                    roots.values, roots.spec, gamma, range(k + 1, k + n + 1), return_complex=True
                )
                assert abs(val - brute) < 1e-13
        assert calls == []

    def test_near_coincident_window(self, gamma):
        roots = bethe.solve_bae(*bethe.ground_state_numbers(2),
                                LatticeSpec(4, (-0.3, 0.0, 1e-12, 0.3)), gamma)
        val = determinant.efp_finite(roots, 1, 2, return_complex=True)
        brute = algebra.correlator_bruteforce(roots.values, roots.spec, gamma, [2, 3],
                                              return_complex=True)
        assert abs(val - brute) < 1e-13


class TestWindowDDRows:
    WINDOW = (-0.21, 0.05, 0.33, 0.4)

    @staticmethod
    def _rows(lam, w, eta):
        return np.sinh(eta) / (np.sinh(lam - w - eta / 2) * np.sinh(lam - w + eta / 2))

    @pytest.mark.parametrize("offset", [-300.0, -1.3, 0.0, 0.7, 300.0])
    def test_matches_recursive_divided_differences(self, gamma, offset):
        # at Re(lam - wbar) = +-300 the plain products of a overflow
        lams = np.mean(self.WINDOW) + offset + np.array([0.0, 0.4j, 0.5j * np.pi])
        for n in range(1, 5):
            w = self.WINDOW[:n]
            lams_n = lams - np.mean(self.WINDOW) + np.mean(w)
            rows, pref = determinant.window_dd_rows(lams_n, w, gamma.eta)
            for j, lam in enumerate(lams_n):
                ref, ref_pref = window_dd_rows_mp(lam, w, gamma.eta)
                scale = 1e-12 * np.abs(ref) + 1e-15 * np.max(np.abs(ref))
                assert np.all(np.abs(rows[:, j] - ref) <= scale)
            assert abs(pref - ref_pref) <= 1e-13 * abs(ref_pref)

    @pytest.mark.parametrize("offset", [-300.0, 300.0])
    def test_low_orders_against_actual_rows(self, gamma, offset):
        w = np.array(self.WINDOW[:2])
        lams = np.mean(w) + offset + np.array([0.0, 0.3j])
        eta = gamma.eta
        one = determinant.window_dd_rows(lams, w[:1], eta)[0][0]
        assert np.all(np.abs(one - self._rows(lams, w[0], eta)) <= 1e-13 * np.abs(one))
        two = determinant.window_dd_rows(lams, w, eta)[0][1]
        u = np.exp(2 * (w - w.mean()))
        quotient = (self._rows(lams, w[1], eta) - self._rows(lams, w[0], eta)) / (u[1] - u[0])
        assert np.all(np.abs(two - quotient) <= 1e-12 * np.abs(quotient))

    @pytest.mark.parametrize("side", [-1, 1])
    def test_column_on_shifted_root_raises(self, gamma, side):
        # lam - w_2 = +-eta/2, on both sides of the window mean
        w = (-2.0, 0.1) if side > 0 else (0.1, 2.0)
        with pytest.raises(PoleError):
            determinant.window_dd_rows([0.3, 0.1 + side * gamma.eta / 2], w, gamma.eta)

    def test_homogeneous_prefactor(self, gamma):
        rows, pref = determinant.window_dd_rows([0.2], [0.4] * 3, gamma.eta)
        assert pref == pytest.approx(-8.0, abs=1e-15)
        assert np.all(np.isfinite(rows))


def _seeded_roots(rng, M, gamma, imag_scale=0.0):
    mus = np.sort(0.3 * rng.normal(size=M)) + 1j * imag_scale * rng.normal(size=M)
    return bethe.solve_bae(*bethe.ground_state_numbers(M // 2), LatticeSpec(M, tuple(mus)), gamma)


class TestEfpTupleOracle:
    """The root-node sum of the separable integrand against the D-product
    expansion over ordered root tuples."""

    @pytest.mark.parametrize("M", [8, 10])
    def test_distinct_windows(self, gamma, rng, M):
        roots = _seeded_roots(rng, M, gamma)
        for n in range(1, 5):
            k = int(rng.integers(0, M - n + 1))
            val = determinant.efp_finite(roots, k, n, return_complex=True)
            ref = efp_tuple_sum(roots, roots.mu[k : k + n])
            assert abs(val - ref) <= 1e-10 * abs(ref)

    def test_complex_inhomogeneities(self, gamma, rng):
        # imaginary parts at the solver's admission limit keep the window complex
        roots = _seeded_roots(rng, 10, gamma, imag_scale=3e-13)
        assert any(np.imag(m) != 0 for m in roots.mu)
        for n in range(1, 5):
            val = determinant.efp_finite(roots, 3, n, return_complex=True)
            ref = efp_tuple_sum(roots, roots.mu[3 : 3 + n])
            assert abs(val - ref) <= 1e-10 * abs(ref)


    def test_close_columns_at_m20(self, gamma):
        # window columns 0.005 apart: the window prefactor no longer amplifies
        # the cancelling terms of the n = 3 Leibniz contraction
        roots = _seeded_roots(np.random.default_rng(131), 20, gamma)
        val = determinant.efp_finite(roots, 8, 3, return_complex=True)
        ref = efp_tuple_sum(roots, roots.mu[8:11])
        assert abs(val - ref) <= 1e-12 * abs(ref)
        assert abs(val.imag) < 1e-14


class TestEfpProperties:
    def test_bounds_and_monotonicity_beyond_tuple_loop(self, gamma, rng):
        # n = 4 at N = 16 is 43,680 ordered tuples for the expansion
        M = 32
        roots = _seeded_roots(rng, M, gamma)
        prev = 1.0
        for n in range(1, 5):
            val = determinant.efp_finite(roots, (M - n) // 2, n, return_complex=True)
            assert abs(val.imag) < 1e-8
            assert 0.0 <= val.real <= prev
            prev = val.real
