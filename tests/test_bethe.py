import numpy as np
import pytest

from svdwbc import algebra, bethe
from svdwbc.algebra import AnisotropyParam, LatticeSpec, homogeneous_spec
from svdwbc.bethe import REAL, SHIFTED, SpectralPoint
from svdwbc.errors import PoleError


class TestSpectralPoint:
    def test_parity_and_value(self):
        p = SpectralPoint(0.7, SHIFTED)
        assert p.parity == -1
        assert p.value == 0.7 + 0.5j * np.pi
        assert SpectralPoint(0.7).parity == 1

    def test_from_complex_roundtrip(self):
        for p in (SpectralPoint(-1.2), SpectralPoint(0.4, SHIFTED)):
            assert SpectralPoint.from_complex(p.value) == p

    def test_off_contour_rejected(self):
        with pytest.raises(ValueError):
            SpectralPoint.from_complex(0.3 + 0.2j)


class TestPn:
    def test_origin(self, gamma):
        assert bethe.p_n(SpectralPoint(0.0), 1, gamma) == 0.0

    def test_large_argument_limit(self, gamma):
        # tanh -> 1 gives 2 atan(cot(n gamma / 2)) = pi - n gamma
        for n in (1, 2):
            val = bethe.p_n(SpectralPoint(40.0), n, gamma)
            assert abs(val - (np.pi - n * gamma.gamma)) < 1e-12

    def test_odd_in_x(self, gamma, rng):
        for branch in (REAL, SHIFTED):
            for _ in range(5):
                x = rng.normal()
                plus = bethe.p_n(SpectralPoint(x, branch), 2, gamma)
                minus = bethe.p_n(SpectralPoint(-x, branch), 2, gamma)
                assert abs(plus + minus) < 1e-14

    def test_monotonicity_grid(self, gamma):
        # increasing on the real branch, decreasing on the shifted branch,
        # whenever sin(n gamma) > 0
        xs = np.linspace(-8, 8, 1000)
        for n in (1, 2):
            assert np.sin(n * gamma.gamma) > 0
            real_vals = [bethe.p_n(SpectralPoint(x), n, gamma) for x in xs]
            shift_vals = [bethe.p_n(SpectralPoint(x, SHIFTED), n, gamma) for x in xs]
            assert np.all(np.diff(real_vals) > 0)
            assert np.all(np.diff(shift_vals) < 0)

    def test_derivative_matches_difference_quotient(self, gamma, rng):
        h = 1e-6
        for branch in (REAL, SHIFTED):
            x = rng.normal() * 0.8
            fd = (
                bethe.p_n(SpectralPoint(x + h, branch), 2, gamma)
                - bethe.p_n(SpectralPoint(x - h, branch), 2, gamma)
            ) / (2 * h)
            assert abs(fd - bethe.p_n_deriv(SpectralPoint(x, branch), 2, gamma)) < 1e-8


class TestCountingFunction:
    def test_trivial_root_at_origin(self, gamma):
        roots = bethe.solve_bae((0,), (1,), homogeneous_spec(2), gamma)
        assert roots.roots[0] == SpectralPoint(0.0, REAL)
        assert abs(bethe.counting_function(SpectralPoint(0.0), roots)) < 1e-14

    def test_monotone_along_real_branch_for_ground_state(self, gamma):
        roots = bethe.solve_ground_state(8, gamma)
        xs = np.linspace(-3, 3, 200)
        vals = [bethe.counting_function(SpectralPoint(x), roots) for x in xs]
        assert np.all(np.diff(vals) > 0)

    def test_log_form_consistency(self, gamma, rng):
        # the arctan form agrees with the i-log form modulo pi
        roots = bethe.solve_ground_state(6, gamma)
        for _ in range(10):
            x = rng.normal() * 1.5
            branch = REAL if rng.random() < 0.5 else SHIFTED
            assert bethe.log_form_consistency(SpectralPoint(x, branch), roots) < 1e-10


class TestSolver:
    def test_ground_state_n4(self, gamma):
        roots = bethe.solve_ground_state(8, gamma)
        assert roots.max_residual < 1e-12
        xs = [r.x for r in roots.roots]
        assert all(r.branch == REAL for r in roots.roots)
        assert np.allclose(xs, -np.array(xs[::-1]), atol=1e-10)  # symmetric about 0

    def test_translation_covariance(self, gamma):
        base = bethe.solve_ground_state(6, gamma)
        delta = 0.3
        shifted = bethe.solve_ground_state(6, gamma, mu=(delta,) * 6)
        assert np.allclose(
            [r.x for r in shifted.roots], [r.x + delta for r in base.roots], atol=1e-10
        )

    def test_quantum_number_validation(self, gamma):
        # N = 2 requires half-integers
        with pytest.raises(ValueError):
            bethe.solve_bae((0, 1), (1, 1), homogeneous_spec(4), gamma)
        # duplicate (n, v) pairs are inadmissible
        with pytest.raises(ValueError):
            bethe.solve_bae((0.5, 0.5), (1, 1), homogeneous_spec(4), gamma)

    def test_d_product_unity(self, gamma):
        for M in (4, 8):
            roots = bethe.solve_ground_state(M, gamma)
            assert roots.d_product_deviation() < 1e-10

    def test_shifted_branch_solution(self, gamma):
        # same quantum number, opposite parity: a second, distinct solution
        r_plus = bethe.solve_bae((0,), (1,), homogeneous_spec(2), gamma)
        r_minus = bethe.solve_bae((0,), (-1,), homogeneous_spec(2), gamma)
        assert r_minus.roots[0].branch == SHIFTED
        assert r_minus.max_residual < 1e-12
        assert r_minus.roots[0].value != r_plus.roots[0].value

    def test_two_solutions_per_number_set(self, gamma):
        # each admissible quantum-number set supports one solution per
        # uniform parity choice
        real = bethe.solve_bae((-0.5, 0.5), (1, 1), homogeneous_spec(4), gamma)
        shifted = bethe.solve_bae((-0.5, 0.5), (-1, -1), homogeneous_spec(4), gamma)
        assert all(r.branch == SHIFTED for r in shifted.roots)
        assert shifted.max_residual < 1e-12
        assert shifted.d_product_deviation() < 1e-10
        assert not np.allclose(sorted(r.x for r in shifted.roots),
                               sorted(r.x for r in real.roots))

    def test_inadmissible_numbers_fail_cleanly(self, gamma):
        # at half filling the real branch is exactly filled by the symmetric
        # set; pushing a number past the edge has no root to converge to
        from svdwbc.errors import ConvergenceError

        ns, vs = bethe.ground_state_numbers(4)
        with pytest.raises(ConvergenceError) as err:
            bethe.solve_bae(ns[:-1] + (ns[-1] + 1,), vs, homogeneous_spec(8), gamma)
        assert err.value.best_residual > 0.1

    def test_json_roundtrip(self, gamma):
        roots = bethe.solve_ground_state(4, gamma)
        again = bethe.BetheRootSet.from_json_dict(roots.to_json_dict())
        assert again == roots


class TestSystem:
    def test_jacobian_matches_central_differences(self, gamma, rng):
        N = 6
        mu = np.sort(0.3 * rng.normal(size=2 * N))
        x = rng.normal(size=N)
        shifted = np.array([False, True, False, False, True, True])
        n_target = np.arange(N) - (N - 1) / 2
        _, J = bethe._system(x, shifted, n_target, mu, gamma.gamma)
        h = 1e-6
        fd = np.empty((N, N))
        for j in range(N):
            step = np.zeros(N)
            step[j] = h
            plus, _ = bethe._system(x + step, shifted, n_target, mu, gamma.gamma)
            minus, _ = bethe._system(x - step, shifted, n_target, mu, gamma.gamma)
            fd[:, j] = (plus - minus) / (2 * h)
        assert np.max(np.abs(J - fd)) < 1e-7 * max(1.0, np.max(np.abs(J)))

    def test_scalar_functions_return_floats(self, gamma):
        roots = bethe.solve_ground_state(4, gamma)
        p = SpectralPoint(0.3, SHIFTED)
        for val in (bethe.p_n(p, 1, gamma), bethe.p_n_deriv(p, 2, gamma),
                    bethe.counting_function(p, roots)):
            assert type(val) is float


class TestEigenvalue:
    def test_empty_root_set(self, gamma):
        spec = homogeneous_spec(2)
        roots = bethe.BetheRootSet((), (), (), spec.mu, gamma)
        lam = 0.3 + 0.2j
        expect = 1 + algebra.d_eigenvalue(lam, spec.mu, gamma)
        assert abs(bethe.eigenvalue_t(lam, roots) - expect) < 1e-14

    def test_simple_form_at_shifted_columns(self, gamma):
        mus = (0.15, -0.2, 0.05, 0.3)
        roots = bethe.solve_bae(*bethe.ground_state_numbers(2), LatticeSpec(4, mus), gamma)
        for mk in mus:
            t = bethe.eigenvalue_t(mk + gamma.eta / 2, roots)
            tinv = np.prod(
                np.sinh(roots.values - mk - gamma.eta / 2)
                / np.sinh(roots.values - mk + gamma.eta / 2)
            )
            assert abs(t * tinv - 1) < 1e-12

    def test_two_sided_limit_at_root(self, gamma):
        roots = bethe.solve_ground_state(6, gamma)
        lam0 = roots.values[1]
        steps = np.array([1e-3, 1e-4, 1e-5])
        from svdwbc.determinant import neville_extrapolate

        left = neville_extrapolate(steps, [bethe.eigenvalue_t(lam0 - s, roots) for s in steps])
        right = neville_extrapolate(steps, [bethe.eigenvalue_t(lam0 + s, roots) for s in steps])
        assert abs(left - right) < 1e-8 * max(1, abs(left))

    def test_exact_pole_raises(self, gamma):
        roots = bethe.solve_ground_state(4, gamma)
        with pytest.raises(PoleError):
            bethe.eigenvalue_t(roots.values[0], roots)

    def test_phase_form_matches(self, gamma, rng):
        # t(lam) = (1 + e^{-i phase(lam)}) prod 1/b(lam_i - lam + eta/2) with
        # the phase built from the same logarithms as the counting function
        roots = bethe.solve_ground_state(6, gamma)
        eta = gamma.eta
        for _ in range(5):
            lam = rng.normal() * 0.8
            phase = algebra.d_eigenvalue(lam, roots.mu, gamma)
            for lr in roots.values:
                phase *= -np.sinh(eta + lam - lr) / np.sinh(eta - lam + lr)
            expect = (1 + phase) * np.prod(
                np.sinh(roots.values - lam + eta) / np.sinh(roots.values - lam)
            )
            assert abs(bethe.eigenvalue_t(lam, roots) - expect) < 1e-10 * max(1, abs(expect))


class TestEigenstateResidual:
    def test_solved_roots_small_residual(self, gamma, rng):
        roots = bethe.solve_ground_state(4, gamma)
        for _ in range(10):
            lam = rng.normal() * 0.7 + 0.3j * rng.normal()
            assert bethe.eigenvalue_residual(roots, roots.spec, lam) < 1e-9

    def test_random_roots_fail(self, gamma, rng):
        spec = homogeneous_spec(4)
        fake = bethe.BetheRootSet(
            (SpectralPoint(0.31), SpectralPoint(-0.93)),
            (-0.5, 0.5),
            (1, 1),
            spec.mu,
            gamma,
            residuals=(0.0, 0.0),
        )
        assert bethe.eigenvalue_residual(fake, spec, 0.4) > 1e-2

    def test_flip_eigenvalue(self, gamma):
        for M in (4, 8):
            roots = bethe.solve_ground_state(M, gamma)
            sign, res = bethe.flip_sign_residual(roots, roots.spec)
            assert sign in (-1, 1)
            assert res < 1e-10
            assert roots.r_sign == sign


class TestRootSymmetry:
    @pytest.mark.parametrize("gamma_val", [0.3, 0.6, 1.0])
    def test_symmetric_mu_symmetric_roots(self, gamma_val):
        gamma = AnisotropyParam(gamma_val)
        mus = (-0.4, -0.1, 0.1, 0.4, 0.0, 0.0)
        roots = bethe.solve_bae(
            *bethe.ground_state_numbers(3), LatticeSpec(6, mus), gamma
        )
        xs = np.sort([r.x for r in roots.roots])
        assert np.allclose(xs, -xs[::-1], atol=1e-10)
