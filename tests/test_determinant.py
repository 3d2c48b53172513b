import itertools
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from oracles import (efp_tuple_sum, gaudin_norm_mp, h_tuples_reference, node_sum_n3_direct,
                     node_sum_n3_moduli, node_sum_n3_partial_fractions, node_sum_n4_closed_form, t_prime_mp,
                     varphi_prime_fd, varphi_prime_mp, window_dd_rows_mp)
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

    @pytest.mark.parametrize("M", [2, 4, 6])
    def test_stack_matches_per_draw(self, gamma, rng, M):
        roots = bethe.solve_ground_state(M, gamma)
        N = roots.N
        xi = rng.normal(size=(12, N)) * 0.8 + 1j * rng.normal(size=(12, N)) * 0.3
        got = determinant.slavnov_scalar_product(xi, roots)
        assert got.shape == (12,)
        want = [determinant.slavnov_scalar_product(row, roots) for row in xi]
        assert all(isinstance(v, complex) for v in want)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        t_stack = determinant.t_prime_matrix(xi, roots)
        for row, t in zip(xi, t_stack):
            np.testing.assert_allclose(t, determinant.t_prime_matrix(row, roots), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("M", [2, 6, 16])
    def test_t_prime_matches_coth_formula(self, gamma, rng, M):
        roots = _seeded_roots(rng, M, gamma)
        xi = rng.normal(size=(3, roots.N)) * 0.8 + 1j * rng.normal(size=(3, roots.N)) * 0.3
        for row in xi:
            ref = t_prime_mp(row, roots)
            got = determinant.t_prime_matrix(row, roots)
            assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))

    def test_t_prime_pole_at_shifted_root(self, gamma):
        roots = bethe.solve_ground_state(4, gamma)
        with pytest.raises(PoleError):
            determinant.t_prime_matrix(roots.values + [gamma.eta, 0.3], roots)

    def test_stack_of_wrong_width_rejected(self, gamma):
        roots = bethe.solve_ground_state(4, gamma)
        with pytest.raises(ValueError, match="xi parameters"):
            determinant.slavnov_scalar_product(np.zeros((3, 3)) + 0.1j, roots)

    def test_xi_permutation_invariance(self, gamma, rng):
        roots = bethe.solve_ground_state(6, gamma)
        xi = rng.normal(size=3) + 1j * rng.normal(size=3) * 0.2
        v1 = determinant.slavnov_scalar_product(xi, roots)
        v2 = determinant.slavnov_scalar_product(xi[::-1], roots)
        assert abs(v1 - v2) / abs(v1) < 1e-12

    def test_rejects_non_bethe_roots(self, gamma):
        spec = homogeneous_spec(4)
        fake = bethe.BetheRootSet(
            (0.5, -0.8),
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
        with pytest.raises(ValueError, match="need 2 xi parameters per row"):
            determinant.slavnov_scalar_product((0.1,), roots)
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


class TestVarphiPrimeOracle:
    """phi' from one table of e^{2z} against its coth formula in 40 digits."""

    @staticmethod
    def assert_matches(roots):
        ref = varphi_prime_mp(roots)
        got = determinant.varphi_prime_matrix(roots)
        assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("M", [8, 64, 128])
    def test_seeded_ground_states(self, gamma, rng, M):
        self.assert_matches(_seeded_roots(rng, M, gamma))

    def test_shifted_branch_twin(self, gamma):
        ns, _ = bethe.ground_state_numbers(4)
        roots = bethe.solve_bae(ns, (-1,) * 4, homogeneous_spec(8), gamma)
        assert np.all(roots.values.imag == 0.5 * np.pi)
        self.assert_matches(roots)

    def test_far_separated_rapidities(self, gamma):
        # |Re(lam - mu)| reaches 300 on both branches: the table is centred on
        # the midrange, so nothing overflows (a RuntimeWarning fails the test)
        roots = bethe.BetheRootSet(
            x=(150.0, -150.0, 0.3),
            quantum_numbers=(-1, 0, 1),
            parities=(1, -1, 1),
            mu=(-150.0, 150.0, 0.1, -0.2, 0.0, 0.5),
            gamma=gamma,
        )
        self.assert_matches(roots)

    def test_nearly_real_inhomogeneities(self, gamma, rng):
        roots = _seeded_roots(rng, 10, gamma, imag_scale=3e-13)
        assert any(complex(m).imag != 0 for m in roots.mu)
        self.assert_matches(roots)

    def test_pole_at_shifted_inhomogeneity(self, gamma):
        # mu_k = lam_j - i gamma / 2 puts coth(lam_j - mu_k - eta/2) on its pole
        roots = bethe.solve_ground_state(4, gamma)
        mu = list(roots.mu)
        mu[2] = roots.values[1] - gamma.eta / 2
        with pytest.raises(PoleError):
            determinant.varphi_prime_matrix(replace(roots, mu=tuple(mu)))


class TestGaudinMatrix:
    """For real mu the Gaudin matrix is the solver's own Jacobian, phi' = i G,
    and every phi' consumer runs on the real G."""

    @staticmethod
    def assert_is_jacobian(roots):
        _, J = bethe._system(np.array(roots.x), roots.shifted, roots.quantum_numbers,
                             np.real(roots.mu), roots.gamma.gamma)
        G = determinant._gaudin_matrix(roots)
        assert G.dtype == np.float64 and G.tobytes() == J.tobytes()
        phi = determinant.varphi_prime_matrix(roots)
        assert phi.tobytes() == (1j * G).tobytes()

    @pytest.mark.parametrize("M", [8, 64, 128])
    def test_seeded_ground_states(self, gamma, rng, M):
        self.assert_is_jacobian(_seeded_roots(rng, M, gamma))

    def test_shifted_branch_twin(self, gamma):
        ns, _ = bethe.ground_state_numbers(4)
        self.assert_is_jacobian(bethe.solve_bae(ns, (-1,) * 4, homogeneous_spec(8), gamma))

    def test_mixed_parities(self, gamma):
        roots = bethe.BetheRootSet(x=(0.4, -0.3, 1.1), quantum_numbers=(-1, 0, 1),
                                   parities=(1, -1, 1), mu=(0.1, -0.2, 0.3, 0.0, -0.5, 0.6),
                                   gamma=gamma)
        self.assert_is_jacobian(roots)

    def test_no_complex_factorization(self, gamma, rng, monkeypatch):
        # the norm, the window rows and the EFP factor only the real G
        roots = _seeded_roots(rng, 10, gamma)
        for name in ("solve", "slogdet", "det"):
            lapack = getattr(np.linalg, name)

            def real_only(a, *args, _lapack=lapack, **kwargs):
                assert not np.iscomplexobj(a)
                return _lapack(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, real_only)
        determinant.gaudin_norm(roots)
        determinant.log_gaudin_norm(roots)
        determinant.psi_phi_rows(roots, [0.1, -0.2])
        determinant.efp_finite(roots, 3, 2)
        determinant.efp_profile(roots, 3)

    def test_rows_solved_against_phi_prime(self, gamma, rng):
        # solve(G^T, Im R) - i solve(G^T, Re R) is R phi'^{-1}, for any rows
        roots = _seeded_roots(rng, 12, gamma)
        rows = rng.normal(size=(5, roots.N)) + 1j * rng.normal(size=(5, roots.N))
        got = determinant._solve_phi_prime(roots, rows)
        phi = determinant.varphi_prime_matrix(roots)
        ref = np.linalg.solve(phi.T, rows.T).T
        assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))
        assert np.max(np.abs(got @ phi - rows)) < 1e-13 * np.max(np.abs(rows))


class TestLogGaudinNorm:
    """(sign, log|<N|N>|) from the real prefactor and slogdet G, finite at
    every M; gaudin_norm is its exponential."""

    def test_finite_at_512(self, gamma):
        roots = bethe.solve_ground_state(512, gamma)
        sign, log_abs = determinant.log_gaudin_norm(roots)
        assert sign == roots.r_sign and np.isfinite(log_abs)

    @pytest.mark.parametrize("M", [2, 4, 8, 16, 32, 48])
    def test_matches_gaudin_norm(self, gamma, rng, M):
        for roots in (bethe.solve_ground_state(M, gamma), _seeded_roots(rng, M, gamma)):
            norm = determinant.gaudin_norm(roots)
            sign, log_abs = determinant.log_gaudin_norm(roots)
            assert np.isfinite(norm) and norm.imag == 0
            assert np.sign(norm.real) == sign == roots.r_sign
            assert abs(log_abs - np.log(abs(norm))) < 1e-12 * max(1.0, abs(log_abs))

    def test_matches_mpmath_at_64(self, gamma, rng):
        roots = _seeded_roots(rng, 64, gamma)
        ref = gaudin_norm_mp(roots)
        sign, log_abs = determinant.log_gaudin_norm(roots)
        assert abs(log_abs - float(mpmath.log(abs(ref)))) < 1e-10
        assert abs(complex(ref / abs(ref)) - sign) < 1e-10

    @pytest.mark.parametrize("M", [50, 64, 128])
    def test_norm_past_the_double_range(self, gamma, M):
        # inf with the sign of the norm, neither a warning nor an error
        roots = bethe.solve_ground_state(M, gamma)
        norm = determinant.gaudin_norm(roots)
        assert norm == roots.r_sign * np.inf

    def test_pair_factors_across_branches(self, gamma):
        # sinh(d + eta) sinh(eta - d) / -sinh(d)^2 from complex sinh against
        # the real log-sum, on a set with both branches and far-apart roots
        roots = bethe.BetheRootSet(x=(0.4, -0.3, 1.1, 40.0), quantum_numbers=(-1.5, -0.5, 0.5, 1.5),
                                   parities=(1, -1, 1, -1), mu=(0.0,) * 8, gamma=gamma)
        lams, eta = roots.values, gamma.eta
        ref = 0.0
        for i, j in itertools.combinations(range(roots.N), 2):
            d = lams[i] - lams[j]
            f = np.sinh(d + eta) * np.sinh(eta - d) / -np.sinh(d) ** 2
            assert abs(f.imag) < 1e-15 and f.real > 0
            ref += np.log(f.real)
        got = determinant._pair_log_sum(roots, np.sin(gamma.gamma) ** 2)
        assert abs(got - ref) < 1e-14

    def test_complex_mu_keeps_the_coth_matrix(self, gamma, rng):
        roots = _seeded_roots(rng, 10, gamma, imag_scale=3e-13)
        real = replace(roots, mu=tuple(np.real(roots.mu)))
        assert roots._phi_prime is None
        norm = determinant.gaudin_norm(roots)
        assert roots._phi_prime.dtype == complex
        assert abs(norm - determinant.gaudin_norm(real)) < 1e-11 * abs(norm)

    def test_coincident_roots(self, gamma):
        roots = bethe.BetheRootSet(x=(0.2, 0.2), quantum_numbers=(-0.5, 0.5), parities=(1, 1),
                                   mu=(0.0,) * 4, gamma=gamma, residuals=(0.0, 0.0))
        with pytest.raises(PoleError, match="coincident roots"):
            determinant.log_gaudin_norm(roots)
        with pytest.raises(PoleError, match="coincident roots"):
            determinant.gaudin_norm(roots)


class TestSharedPhiPrime:
    """The Gaudin matrix G, phi' = i G, is built once per root set, kept on it
    read-only, and read by the norm, the window rows and the EFP."""

    @staticmethod
    def count_builds(monkeypatch):
        built = []
        build = determinant._gaudin_matrix

        def counting(roots):
            built.append(roots)
            return build(roots)

        monkeypatch.setattr(determinant, "_gaudin_matrix", counting)
        return built

    # every phi' consumer, each as a function of the root set
    CONSUMERS = [
        determinant.gaudin_norm,
        lambda roots: determinant.efp_finite(roots, 3, 2),
        lambda roots: determinant.efp_profile(roots, 2, return_complex=True),
        lambda roots: determinant.psi_phi_rows(roots, [0.1, -0.2]),
        lambda roots: determinant.scalar_product_ratio(roots, [roots.mu[2]]),
    ]

    def test_built_once_per_root_set(self, gamma, rng, monkeypatch):
        roots = _seeded_roots(rng, 10, gamma)
        built = self.count_builds(monkeypatch)
        for consumer in self.CONSUMERS * 2:
            consumer(roots)
        assert len(built) == 1 and built[0] is roots

    def test_shared_matrix_is_read_only(self, gamma, rng):
        roots = _seeded_roots(rng, 10, gamma)
        determinant.gaudin_norm(roots)
        G = roots._phi_prime
        assert G.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            G[0, 0] = 0.0
        assert G.tobytes() == determinant._gaudin_matrix(roots).tobytes()

    def test_results_match_a_fresh_root_set(self, gamma, rng):
        roots = _seeded_roots(rng, 10, gamma)
        determinant.gaudin_norm(roots)  # the consumers below read the shared phi'
        for consumer in self.CONSUMERS:
            fresh = bethe.BetheRootSet.from_json_dict(roots.to_json_dict())
            assert fresh._phi_prime is None  # this consumer builds G itself
            assert (np.asarray(consumer(roots)).tobytes()
                    == np.asarray(consumer(fresh)).tobytes())

    def test_replace_copy_builds_its_own(self, gamma, monkeypatch):
        roots = bethe.solve_ground_state(4, gamma)
        determinant.gaudin_norm(roots)
        built = self.count_builds(monkeypatch)
        mu = list(roots.mu)
        mu[2] = roots.values[1] - gamma.eta / 2  # the pole of test_pole_at_shifted_inhomogeneity
        moved = replace(roots, mu=tuple(mu))
        assert moved._phi_prime is None
        with pytest.raises(PoleError):
            determinant.gaudin_norm(moved)
        assert len(built) == 1 and built[0] is moved


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

    @staticmethod
    def _tuples(N, n):
        # the expansion's ordered tuples, i_l <= N + l (0-based l)
        return [t for t in itertools.permutations(range(N + n), n)
                if all(i <= N + l for l, i in enumerate(t))]

    @staticmethod
    def _battery_cases(seed):
        # the lattices and rapidities that verify.check_d_action draws
        rng = np.random.default_rng(seed)
        for N, n, M in ((1, 1, 2), (2, 1, 4), (2, 2, 4)):
            mu = tuple(0.2 * rng.normal(size=M))
            lams = rng.normal(size=N) * 0.5 + 0.25j * rng.normal(size=N)
            extra = rng.normal(size=n) * 0.5 + 0.25j * rng.normal(size=n)
            yield N, mu, np.concatenate([lams, extra])

    @staticmethod
    def _random_cases(rng):
        for N, n, M in ((1, 2, 2), (3, 1, 6), (3, 2, 6), (2, 3, 6), (4, 3, 8)):
            mu = tuple(0.3 * rng.normal(size=M))
            yield N, mu, rng.normal(size=N + n) + 0.5j * rng.normal(size=N + n)

    @pytest.mark.parametrize("seed", [42, 977])
    def test_shared_tables_give_the_one_tuple_coefficients(self, gamma, rng, seed):
        # every tuple read from one set of tables, as d_action_check reads
        # them, against one g_coefficient call per tuple
        for N, mu, ext in [*self._battery_cases(seed), *self._random_cases(rng)]:
            tuples = self._tuples(N, len(ext) - N)
            tables = determinant._g_tables(ext, N, mu, gamma)
            stacked = determinant._g_products(tuples, tables, N)
            one = np.array([determinant.g_coefficient(t, ext, N, mu, gamma) for t in tuples])
            assert np.all(np.abs(stacked - one) <= 1e-14 * np.abs(one))

    def test_poles_raise_only_where_a_tuple_reads_them(self, gamma):
        # extra rapidity 3 coincides with root 0: the tuple (0, 1) never
        # pairs them, (2, 0) does in its second factor
        mus = (0.2, -0.4, 0.1, 0.3)
        ext = np.array([0.1 + 0.2j, 0.5 - 0.1j, 0.9 + 0.1j, 0.1 + 0.2j])
        assert np.isfinite(determinant.g_coefficient((0, 1), ext, 2, mus, gamma))
        with pytest.raises(PoleError, match="coincident rapidities 0 and 3"):
            determinant.g_coefficient((2, 0), ext, 2, mus, gamma)
        with pytest.raises(PoleError):
            determinant.d_action_check(ext[:2], ext[2:], LatticeSpec(4, mus), gamma)

    def test_weight_poles_raise_only_where_a_tuple_reads_them(self, gamma):
        # d(lam_1) is singular at mu_0 - eta/2; tuples without index 1 read
        # neither it nor any other singular weight
        mus = (0.2, -0.4)
        ext = np.array([0.3 + 0.1j, mus[0] - gamma.eta / 2, 0.7 - 0.2j])
        assert np.isfinite(determinant.g_coefficient((0,), ext, 2, mus, gamma))
        assert np.isfinite(determinant.g_coefficient((2,), ext, 2, mus, gamma))
        with pytest.raises(PoleError, match="weights singular"):
            determinant.g_coefficient((1,), ext, 2, mus, gamma)


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

    def test_identity_rows_of_solved_block(self, gamma):
        # the kept-root rows of psi' phi'^{-1} are Kronecker rows by
        # construction; the solved block must reproduce the window rows
        roots = bethe.solve_ground_state(6, gamma)
        w = [0.0]
        rows = determinant.psi_phi_rows(roots, w)
        phi = determinant.varphi_prime_matrix(roots)
        lam, eta = roots.values, gamma.eta
        window_row = np.sinh(eta) / (np.sinh(lam - w[0] - eta / 2) * np.sinh(lam - w[0] + eta / 2))
        assert np.max(np.abs(rows @ phi - window_row)) < 1e-10


class TestShiftedBranchState:
    """The determinant machinery holds for any Bethe solution, not only the
    packed real-branch state; exercised on the all-shifted twin."""

    @pytest.fixture
    def shifted_roots(self, gamma):
        return bethe.solve_bae((-0.5, 0.5), (-1, -1), homogeneous_spec(4), gamma)

    def test_eigenstate_property(self, gamma, rng, shifted_roots):
        for _ in range(3):
            lam = rng.normal() * 0.5 + 0.2j * rng.normal()
            assert bethe.eigenvalue_residual(shifted_roots, lam) < 1e-9

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

    def test_stack_matches_single_windows(self, gamma, rng):
        lams = np.concatenate([rng.normal(size=9), rng.normal(size=3) + 0.5j * np.pi])
        for n in (1, 2, 3, 5, 9):
            windows = np.sort(0.4 * rng.normal(size=(6, n)), axis=1)
            windows[1] = windows[1, 0]  # coincident columns
            rows, pref = determinant.window_dd_rows(lams, windows, gamma.eta)
            assert rows.shape == (6, n, len(lams)) and pref.shape == (6,)
            for w, r, p in zip(windows, rows, pref):
                one_rows, one_pref = determinant.window_dd_rows(lams, w, gamma.eta)
                assert r.tobytes() == one_rows.tobytes()
                assert p.tobytes() == one_pref.tobytes()

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

    def test_n5_every_window_at_m10(self, gamma, rng):
        # n = N = 5: the sum runs over the 120 orderings of all roots.  At the
        # edge windows P ~ 1e-10 and the Leibniz terms cancel by ~1e8, so the
        # bound there is an absolute 1e-18.  Brute force is the reference at
        # every window (the tuple expansion is itself up to 2e-18 off)
        roots = _seeded_roots(rng, 10, gamma)
        for k in range(6):
            val = determinant.efp_finite(roots, k, 5, return_complex=True)
            brute = algebra.correlator_bruteforce(
                roots.values, roots.spec, gamma, range(k + 1, k + 6), return_complex=True
            )
            assert abs(val - brute) <= 1e-10 * abs(brute) + 1e-18
        ref = efp_tuple_sum(roots, roots.mu[2:7])
        assert abs(determinant.efp_finite(roots, 2, 5) - ref) <= 1e-10 * abs(ref)

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


class TestEfpProfile:
    """efp_profile: every offset of one root set from one phi' solve."""

    @staticmethod
    def _per_offset(roots, n, return_complex=True):
        return np.array([determinant.efp_finite(roots, k, n, return_complex=return_complex)
                         for k in range(len(roots.mu) - n + 1)])

    @pytest.mark.parametrize("M", range(4, 21, 2))
    def test_bit_for_bit_with_efp_finite(self, gamma, M):
        roots = _seeded_roots(np.random.default_rng(7000 + M), M, gamma)
        for n in range(min(roots.N, 4) + 1):
            prof = determinant.efp_profile(roots, n, return_complex=True)
            assert prof.tobytes() == self._per_offset(roots, n).tobytes()
            real = determinant.efp_profile(roots, n)
            assert real.tobytes() == self._per_offset(roots, n, False).tobytes()

    def test_n3_bit_for_bit_at_m64(self, gamma):
        # the n = 3 symmetric first product beyond the sizes above (M = 12
        # is among them); n = 4 at M = 64 would take seconds
        roots = _seeded_roots(np.random.default_rng(3164), 64, gamma)
        prof = determinant.efp_profile(roots, 3, return_complex=True)
        assert prof.tobytes() == self._per_offset(roots, 3).tobytes()

    @pytest.mark.parametrize("stack", [2**14, 2 * 6**3, 6**3])
    def test_window_stacks_at_n4_bit_for_bit(self, gamma, monkeypatch, stack):
        # the nine n = 4 windows of M = 12 (6^3 intermediate entries each) in
        # one contraction, in stacks of two (the last one alone) and one by
        # one, against the 2-D node sum of each window alone
        roots = _seeded_roots(np.random.default_rng(7012), 12, gamma)
        each = self._per_offset(roots, 4)
        monkeypatch.setattr(determinant, "_STACK", stack)
        assert determinant.efp_profile(roots, 4, return_complex=True).tobytes() == each.tobytes()

    def test_shifted_branch_twin(self, gamma):
        roots = bethe.solve_bae((-0.5, 0.5), (-1, -1), homogeneous_spec(4), gamma)
        for n in range(3):
            prof = determinant.efp_profile(roots, n, return_complex=True)
            assert prof.tobytes() == self._per_offset(roots, n).tobytes()

    @pytest.mark.parametrize("M", [64, 256])
    def test_sum_rule(self, gamma, M):
        # sum_k <pi_k> = number of down arrows on the line = N
        roots = _seeded_roots(np.random.default_rng(M), M, gamma)
        assert abs(determinant.efp_profile(roots, 1).sum() - M // 2) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_reflection_symmetry(self, gamma, n):
        # k <-> M - k - n on the homogeneous lattice and on a lattice whose
        # inhomogeneities are mirror images, mu_k = -mu_{M+1-k}
        M = 32
        half = np.sort(0.3 * np.random.default_rng(n).normal(size=M // 2))
        mirror = tuple(np.concatenate([-half[::-1], half]))
        for roots in (bethe.solve_ground_state(M, gamma),
                      bethe.solve_bae(*bethe.ground_state_numbers(M // 2),
                                      LatticeSpec(M, mirror), gamma)):
            prof = determinant.efp_profile(roots, n)
            assert np.max(np.abs(prof - prof[::-1])) <= 1e-12

    def test_edge_lengths(self, gamma, rng):
        roots = _seeded_roots(rng, 6, gamma)
        assert determinant.efp_profile(roots, 0).tolist() == [1.0] * 7
        for n in (4, 6):
            assert determinant.efp_profile(roots, n).tolist() == [0.0] * (7 - n)
        for n in (-1, 7):
            with pytest.raises(ValueError):
                determinant.efp_profile(roots, n)


class TestEfpProperties:
    def test_oversized_node_sum_rejected(self):
        # 6 slots over 64 nodes would hold 64^5 entries per intermediate
        z = np.linspace(-1.0, 1.0, 64).astype(complex)
        F = determinant._slot_table(z, np.zeros(6), 0.6)
        tables = determinant._node_tables(z, 0.6, 6)
        with pytest.raises(ValueError, match="exceed"):
            determinant._node_sum(np.ones(64), np.ones((6, 64)), F, tables)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_window_stack_node_sum_bit_for_bit(self, gamma, rng, n):
        # a (K, n, P) stack of rows and slot tables against the 2-D sum of
        # each window, on complex nodes with weights of both signs
        P, K = 12, 5
        z = rng.normal(size=P) + 0.3j * rng.normal(size=P)
        weight = rng.normal(size=P)
        R = rng.normal(size=(K, n, P)) + 1j * rng.normal(size=(K, n, P))
        w = 0.2 * rng.normal(size=(K, n))
        F = determinant._slot_table(z, w, gamma.gamma)
        tables = determinant._node_tables(z, gamma.gamma, n)
        stacked = determinant._node_sum(weight, R, F, tables)
        each = np.array([determinant._node_sum(weight, r, f, tables) for r, f in zip(R, F)])
        assert stacked.shape == (K,)
        assert stacked.tobytes() == each.tobytes()

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


class TestPartialFractions:
    """The n = 3 node sum after the Leibniz cancellation, summed against the
    blocks of _cauchy_rows, against the direct sum over node triples and
    against the sum that keeps all four partial-fraction terms, normwise:
    against the sum of the moduli of the direct sum's terms."""

    P = 48
    GAMMAS = (0.3, 0.6, np.pi / 3, 1.2)

    @staticmethod
    def _both_branches(rng, P):
        # a jittered grid on each contour branch: no two nodes closer than 0.2
        x = np.linspace(-4.0, 4.0, P // 2)
        return np.concatenate([x + 0.05 * rng.uniform(-1, 1, P // 2),
                               x + 0.05 * rng.uniform(-1, 1, P // 2) + 0.5j * np.pi])

    @staticmethod
    def _mixed(rng, P):
        # off both lines; |Im| < 0.75 keeps node differences away from i pi,
        # a removable singularity of the partial fractions
        return rng.uniform(-4.0, 4.0, P) + 1j * rng.uniform(-0.75, 0.75, P)

    @staticmethod
    def _pairs(rng, P):
        # pairs 1e-6 apart, spread over both branches
        z = rng.uniform(-4.0, 4.0, P) + 0.5j * np.pi * (rng.random(P) < 0.5)
        z[1::2] = z[::2] + 1e-6 * np.exp(2j * np.pi * rng.random(P // 2))
        return z

    @staticmethod
    def _inputs(rng, z, g, n=3, K=None):
        """Weights of both signs, complex rows and the slot table of a random
        window (a (K, n) stack of windows when K is given)."""
        shape = (n, len(z)) if K is None else (K, n, len(z))
        R = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        w = 0.3 * rng.normal(size=shape[:-1])
        return rng.normal(size=len(z)), R, determinant._slot_table(z, w, g)

    @staticmethod
    def _direct(z, g, weight, R, F):
        """(sum, sum of the moduli of its terms) over node triples, E from
        numpy's sinh."""
        E = 1 / np.sinh(z[None, :] - z[:, None] - 1j * g)
        np.fill_diagonal(E, 0.0)
        return node_sum_n3_direct(weight, R, F, E), node_sum_n3_moduli(weight, R, F, E)

    @pytest.mark.parametrize("g", GAMMAS)
    @pytest.mark.parametrize("nodes", ["_both_branches", "_mixed"])
    def test_separated_nodes_at_1e13_normwise(self, g, nodes, rng):
        # measured at most 4.3e-16 (both branches) and 1.1e-15 (mixed) of
        # the moduli over 20 seeds, the four-term sum 2.4e-16 and 3.9e-16; a
        # (K, 3, P) stack of windows takes each window as alone
        z = getattr(self, nodes)(rng, self.P)
        weight, R, F = self._inputs(rng, z, g, K=3)
        tables = determinant._node_tables(z, g, 3)
        stacked = determinant._node_sum(weight, R, F, tables)
        for k in range(3):
            val = determinant._node_sum(weight, R[k], F[k], tables)
            assert val.tobytes() == stacked[k].tobytes()
            ref, moduli = self._direct(z, g, weight, R[k], F[k])
            assert abs(val - ref) <= 1e-13 * moduli
            four = node_sum_n3_partial_fractions(weight, R[k], F[k], z, g)
            assert abs(four - ref) <= 1e-13 * moduli

    @pytest.mark.parametrize("g", GAMMAS)
    def test_close_pairs_lose_digits_as_one_over_their_distance(self, g, rng):
        # 1/sinh(z_a - z_b) is about 1e6 for a pair 1e-6 apart, and the two
        # products with Q that share it cancel only after the contraction:
        # measured at most 1.9e-10 of the moduli over 20 seeds, against
        # 2.6e-15 for the four-term sum, which cancels entry by entry
        z = self._pairs(rng, self.P)
        weight, R, F = self._inputs(rng, z, g)
        val = determinant._node_sum(weight, R, F, determinant._node_tables(z, g, 3))
        ref, moduli = self._direct(z, g, weight, R, F)
        assert abs(val - ref) <= 1e-9 * moduli

    def test_diagonal_is_zero(self, gamma, rng):
        # every block of the pair and Cauchy tables, the last one partial, is
        # 0 exactly on the diagonal and nowhere else
        P, g = 40, gamma.gamma
        z = self._mixed(rng, P)
        _, v, u = determinant._node_tables(z, g, 3)
        off = ~np.eye(P, dtype=bool)
        for r0 in range(0, P, determinant._PANEL):
            r1 = min(r0 + determinant._PANEL, P)
            E = determinant._inverse_pairs(
                determinant._sinh_pairs(v, g, r0, np.empty((r1 - r0, P), dtype=complex)), r0)
            U, L, Q = np.empty((3, r1 - r0, P), dtype=complex)
            for table in (E, *determinant._cauchy_rows(g, v, u, r0, U, L, Q)):
                assert np.all((table == 0) == ~off[r0:r1])

    @pytest.mark.parametrize("shift", [0.0, 1j * np.pi, 1e-15])
    def test_coincident_nodes_are_a_pole(self, gamma, rng, shift):
        # two nodes at one point, i pi apart, or closer than 1e-14, in the
        # first block or both in the last, partial one: the partial
        # fractions would divide by sinh(z_a - z_b) = 0
        grid = np.linspace(-3.0, 3.0, 40).astype(complex)
        weight, R, F = self._inputs(rng, grid, gamma.gamma)
        assert np.isfinite(determinant._node_sum(
            weight, R, F, determinant._node_tables(grid, gamma.gamma, 3)))
        for a, b in ((1, 3), (35, 38)):
            z = grid.copy()
            z[b] = z[a] + shift
            tables = determinant._node_tables(z, gamma.gamma, 3)
            with pytest.raises(PoleError, match="coincident nodes"):
                determinant._node_sum(weight, R, F, tables)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("at", [(1, 3), (35, 38)])
    def test_nodes_i_gamma_apart_are_a_pole(self, gamma, rng, n, at):
        z = np.linspace(-3.0, 3.0, 40).astype(complex)
        z[at[1]] = z[at[0]] + 1j * gamma.gamma
        weight, R, F = self._inputs(rng, z, gamma.gamma, n)
        tables = determinant._node_tables(z, gamma.gamma, n)
        with pytest.raises(PoleError, match="shifted by i\\*gamma"):
            determinant._node_sum(weight, R, F, tables)

    @pytest.mark.parametrize("n", [2, 3])
    def test_no_table_of_all_pairs(self, gamma, rng, n):
        # 1024 nodes: a P x P complex table would take 16 MiB, a block of
        # _PANEL rows 512 KiB; the traced peak of the node sum stays below
        # a quarter of the full table (measured 1.4 MiB at n = 2 and
        # 1.7 MiB at n = 3)
        P = 1024
        x = np.linspace(-6.0, 6.0, P // 2)
        z = np.concatenate([x, x + 0.5j * np.pi])
        weight, R, F = self._inputs(rng, z, gamma.gamma, n)
        tables = determinant._node_tables(z, gamma.gamma, n)
        tracemalloc.start()
        try:
            determinant._node_sum(weight, R, F, tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < P * P * 16 / 4

    @pytest.mark.parametrize("g", GAMMAS)
    @pytest.mark.parametrize("P", [12, 16])
    def test_n4_closed_form_first_elimination(self, g, P, rng):
        # the closed-form first elimination at n = 4, with the terms that
        # cancel over the row permutations dropped, against the n = 4
        # recursion on the inverse pair table (measured at most 6.3e-13 of
        # the moduli over 5 seeds: the closed form's own differences cancel)
        z = self._both_branches(rng, P)
        weight, R, F = self._inputs(rng, z, g, 4)
        val = determinant._node_sum(weight, R, F, determinant._node_tables(z, g, 4))
        ref, moduli = node_sum_n4_closed_form(weight, R, F, z, g)
        assert abs(val - ref) <= 1e-11 * moduli


class TestTupleKernels:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_batched_det_matches_lapack(self, n, rng):
        # Laplace minors up to n = 6, np.linalg.det above: both sides of the switch
        for A in (rng.normal(size=(300, n, n)),
                  rng.normal(size=(300, n, n)) + 1j * rng.normal(size=(300, n, n))):
            got = determinant._batched_det(lambda j: A[:, :, j].T, n)
            want = np.linalg.det(A)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @staticmethod
    def _integrand_factors(z, w, g):
        """The slot and pair tables as one function built them before the
        split into _slot_table and _pair_table, kept as the reference."""
        slot = np.arange(len(w))
        shift = np.where(slot[None, :] < slot[:, None], -0.5j * g, 0.5j * g)
        s = np.sinh(z[None, None, :] - w[None, :, None] + shift[:, :, None])
        s[slot, slot] = 1.0
        v, = algebra._exp_tables(0.5 * z)
        ph = np.exp(-0.5j * g)
        half = np.outer(0.5 * ph / v, ph * v)
        return s.prod(axis=1), half - np.outer(0.5 * v / ph, 1 / (ph * v))

    def test_table_builders_match_joint_builder(self, gamma, rng):
        z = np.concatenate([rng.normal(size=10), rng.normal(size=6) + 0.5j * np.pi])
        windows = 0.4 * rng.normal(size=(5, 4))
        D = determinant._pair_table(z, gamma.gamma)
        stack = determinant._slot_table(z, windows, gamma.gamma)
        for n in range(1, 5):
            for i, w in enumerate(windows[:, :n]):
                F_ref, D_ref = self._integrand_factors(z, w, gamma.gamma)
                assert determinant._slot_table(z, w, gamma.gamma).tobytes() == F_ref.tobytes()
                assert D.tobytes() == D_ref.tobytes()
                if n == 4:
                    assert stack[i].tobytes() == F_ref.tobytes()

    def test_inverse_pairs_pole(self, gamma):
        g = gamma.gamma
        D = determinant._pair_table(np.array([0.3, -0.2, 0.3 + 1j * g]), g)
        with pytest.raises(PoleError, match="shifted by i\\*gamma"):
            determinant._inverse_pairs(D)
        # the diagonal is no pair, and squares past the double range (|D| ~ e^700)
        # clear the check without an overflow warning
        E = determinant._inverse_pairs(determinant._pair_table(np.array([-350.0, 0.0, 350.0]), g))
        assert np.all(np.diag(E) == 0.0) and np.all(np.isfinite(E))
        assert np.all(E[~np.eye(3, dtype=bool)] != 0.0)

    def test_repeated_index_is_exactly_zero(self, gamma, rng):
        z = rng.normal(size=12)
        w = np.array([-0.5, 0.0, 0.2, 0.6])
        F = determinant._slot_table(z, w, gamma.gamma)
        E = determinant._inverse_pairs(determinant._pair_table(z, gamma.gamma))
        R = rng.normal(size=(4, 12))
        tuples = [(2, 5, 2, 7), (9, 9, 1, 0), (4, 3, 8, 4), (1, 4, 8, 6)]
        vals = determinant._h_tuples(np.array(tuples).T, R, F, E)
        assert np.all(vals[:3] == 0.0) and vals[3] != 0.0

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_workspace_kernel_matches_fresh_gathers(self, n, gamma, rng):
        # one workspace, filled with NaN and then reused for a shorter,
        # partial chunk, against the kernel that gathers into fresh arrays
        z = np.concatenate([rng.normal(size=14), rng.normal(size=6) + 0.5j * np.pi])
        w = 0.4 * rng.normal(size=n)
        F = determinant._slot_table(z, w, gamma.gamma)
        E = determinant._inverse_pairs(determinant._pair_table(z, gamma.gamma))
        R = rng.normal(size=(n, len(z)))
        work = determinant._tuple_work(n, 500)
        for part in work:
            part.fill(-1 if part.dtype == np.intp else np.nan)
        for size in (500, 137):
            idx = rng.integers(len(z), size=(n, size))
            got = determinant._h_tuples(idx, R, F, E, work)
            want = h_tuples_reference(idx, R, F, E)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
