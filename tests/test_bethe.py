import json

import numpy as np
import pytest

from oracles import p_n_mp
from svdwbc import algebra, bethe, determinant
from svdwbc.algebra import AnisotropyParam, LatticeSpec, homogeneous_spec
from svdwbc.bethe import SHIFTED
from svdwbc.errors import ConvergenceError, PoleError


# wide spreads on which damped Newton stalls from the linear start
_LINEAR_STALL_LATTICES = [(4, 0.3, (-1.0, 0.3, 1.0, 2.2)),
                          (6, 0.6, (-1.9, -0.7, 1.2, 1.3, 1.4, 2.3))]


def _record_points(monkeypatch):
    """Record the abscissae of every _system evaluation, as bytes."""
    points = []
    system = bethe._system

    def recording(x, *args):
        points.append(x.tobytes())
        return system(x, *args)

    monkeypatch.setattr(bethe, "_system", recording)
    return points


def _record_residuals(monkeypatch):
    """Record max|F| of every _system evaluation."""
    residuals = []
    system = bethe._system

    def recording(*args):
        F, J = system(*args)
        residuals.append(float(np.max(np.abs(F))))
        return F, J

    monkeypatch.setattr(bethe, "_system", recording)
    return residuals


def _twin(gamma):
    """The shifted-branch twin of the M = 4 ground state."""
    return bethe.solve_bae((-0.5, 0.5), (-1, -1), homogeneous_spec(4), gamma)


class TestContourPoints:
    """A root set is abscissae plus parities; a contour point is complex."""

    def test_values_from_abscissae_and_parities(self, gamma):
        roots = bethe.BetheRootSet((0.7, -0.2, -0.0), (-1, 0, 1), (-1, 1, 1), (0.0,) * 6, gamma)
        assert roots.shifted.tolist() == [True, False, False]
        want = np.array([0.7 + 0.5j * np.pi, -0.2 + 0.0, -0.0 + 0.0])
        assert roots.values.tobytes() == want.astype(complex).tobytes()
        real = bethe.solve_ground_state(4, gamma)
        assert real.values.dtype == float  # an all-real set stays a real array
        assert real.values.tobytes() == np.array([x + 0.0 for x in real.x]).tobytes()

    def test_json_roundtrip_of_shifted_twin(self, gamma):
        twin = _twin(gamma)
        d = json.loads(twin.to_json())
        assert [r["branch"] for r in d["roots"]] == [SHIFTED, SHIFTED]
        back = bethe.BetheRootSet.from_json_dict(d)
        assert back == twin
        assert back.values.tobytes() == twin.values.tobytes()

    def test_off_contour_point_rejected(self, gamma):
        roots = bethe.solve_ground_state(4, gamma)
        for call in (lambda z: bethe.p_n(z, 1, gamma), lambda z: bethe.p_n_deriv(z, 2, gamma),
                     lambda z: bethe.counting_function(z, roots),
                     lambda z: bethe.log_form_consistency(z, roots)):
            with pytest.raises(ValueError, match="off the contour"):
                call(0.3 + 0.2j)

    def test_complex_points_on_both_branches(self, gamma, rng):
        g = gamma.gamma
        # one root per branch; the counting function needs no solved set
        roots = bethe.BetheRootSet((0.4, -0.3), (-0.5, 0.5), (1, -1), (0.1, -0.2, 0.3, 0.0), gamma)
        for _ in range(4):
            x = rng.normal()
            th = np.tanh(x)
            for im, sign, cot in ((0.0, 1, 1 / np.tan(g)), (np.pi, 1, 1 / np.tan(g)),
                                  (0.5 * np.pi, -1, np.tan(g)), (-0.5 * np.pi, -1, np.tan(g))):
                z = x + 1j * im
                assert bethe.p_n(z, 2, gamma) == pytest.approx(sign * 2 * np.arctan(th * cot),
                                                               rel=1e-14, abs=1e-15)
                h = 1e-6
                fd = (bethe.p_n(z + h, 2, gamma) - bethe.p_n(z - h, 2, gamma)) / (2 * h)
                assert abs(fd - bethe.p_n_deriv(z, 2, gamma)) < 1e-8
                # the counting function from p_n at the complex differences
                want = sum(bethe.p_n(z - m, 1, gamma) for m in roots.mu) - sum(
                    bethe.p_n(z - lam, 2, gamma) for lam in roots.values)
                assert abs(bethe.counting_function(z, roots) - want) < 1e-13

    def test_branch_must_agree_with_parity(self, gamma):
        d = bethe.solve_ground_state(8, gamma).to_json_dict()
        bad_v = dict(d, v=[-1] * 4)
        bad_branch = dict(d, roots=[dict(d["roots"][0], branch=SHIFTED), *d["roots"][1:]])
        for bad in (bad_v, bad_branch):
            with pytest.raises(ValueError, match="branch must agree with its parity"):
                bethe.BetheRootSet.from_json_dict(bad)
        assert bethe.BetheRootSet.from_json_dict(d).to_json_dict() == d


class TestPn:
    def test_origin(self, gamma):
        assert bethe.p_n(0.0, 1, gamma) == 0.0

    def test_large_argument_limit(self, gamma):
        # tanh -> 1 gives 2 atan(cot(n gamma / 2)) = pi - n gamma
        for n in (1, 2):
            val = bethe.p_n(40.0, n, gamma)
            assert abs(val - (np.pi - n * gamma.gamma)) < 1e-12

    def test_odd_in_x(self, gamma, rng):
        for im in (0.0, 0.5j * np.pi):
            for _ in range(5):
                x = rng.normal()
                plus = bethe.p_n(x + im, 2, gamma)
                minus = bethe.p_n(-x + im, 2, gamma)
                assert abs(plus + minus) < 1e-14

    def test_monotonicity_grid(self, gamma):
        # increasing on the real branch, decreasing on the shifted branch,
        # whenever sin(n gamma) > 0
        xs = np.linspace(-8, 8, 1000)
        for n in (1, 2):
            assert np.sin(n * gamma.gamma) > 0
            real_vals = [bethe.p_n(x, n, gamma) for x in xs]
            shift_vals = [bethe.p_n(x + 0.5j * np.pi, n, gamma) for x in xs]
            assert np.all(np.diff(real_vals) > 0)
            assert np.all(np.diff(shift_vals) < 0)

    @pytest.mark.parametrize("g", [0.05, 0.3, 0.6, 1.2, 1.5])
    def test_one_arctan_matches_mp_reference(self, g, rng):
        # 2 atan(tanh(x) kappa) on both branches, kappa = cot(n g/2) or -tan(n g/2)
        x = np.concatenate([[0.0, -0.0, 1e-3, -1e-3, 400.0, -400.0, 25.0, -19.0],
                            rng.uniform(-40.0, 40.0, 62)]).reshape(7, 10)
        # the flag shapes of the callers: per row, per column, one per entry, scalar
        flags = [rng.random((7, 1)) < 0.5, rng.random(10) < 0.5, rng.random((7, 10)) < 0.5,
                 False, True]
        for n in (1, 2):
            for crossed in flags:
                got = bethe._p_n_x(x, crossed, n, g)
                assert got.shape == x.shape
                assert np.max(np.abs(got - p_n_mp(n, x, crossed, g))) <= 1e-15
            for x0 in (0.3, -0.0, 400.0):  # a scalar x, as contour_grid passes
                for crossed in (False, True):
                    got = bethe._p_n_x(x0, crossed, n, g)
                    assert np.ndim(got) == 0
                    assert abs(got - p_n_mp(n, x0, crossed, g)) <= 1e-15

    def test_derivative_matches_difference_quotient(self, gamma, rng):
        h = 1e-6
        for im in (0.0, 0.5j * np.pi):
            x = rng.normal() * 0.8
            fd = (bethe.p_n(x + h + im, 2, gamma) - bethe.p_n(x - h + im, 2, gamma)) / (2 * h)
            assert abs(fd - bethe.p_n_deriv(x + im, 2, gamma)) < 1e-8


class TestCountingFunction:
    def test_trivial_root_at_origin(self, gamma):
        roots = bethe.solve_bae((0,), (1,), homogeneous_spec(2), gamma)
        assert roots.x == (0.0,) and roots.parities == (1,)
        assert abs(bethe.counting_function(0.0, roots)) < 1e-14

    def test_monotone_along_real_branch_for_ground_state(self, gamma):
        roots = bethe.solve_ground_state(8, gamma)
        xs = np.linspace(-3, 3, 200)
        vals = [bethe.counting_function(x, roots) for x in xs]
        assert np.all(np.diff(vals) > 0)

    def test_log_form_consistency(self, gamma, rng):
        # the arctan form agrees with the i-log form modulo pi
        roots = bethe.solve_ground_state(6, gamma)
        for _ in range(10):
            x = rng.normal() * 1.5
            im = 0.0 if rng.random() < 0.5 else 0.5j * np.pi
            assert bethe.log_form_consistency(x + im, roots) < 1e-10


class TestSolver:
    def test_ground_state_n4(self, gamma):
        roots = bethe.solve_ground_state(8, gamma)
        assert roots.max_residual < 1e-12
        xs = roots.x
        assert roots.parities == (1,) * 4
        assert np.allclose(xs, -np.array(xs[::-1]), atol=1e-10)  # symmetric about 0

    @pytest.mark.parametrize("M", [8, 64, 128])
    def test_d_product_deviation_is_one_product(self, gamma, M):
        # one product over the N x M factor table; only the last bits of
        # prod_j d(lam_j) move against the product of the d_eigenvalue rows
        roots = _solve(M, gamma, True, 1)
        factors = algebra._d_factors(roots.values, roots.mu, gamma)
        d = algebra.d_eigenvalue(roots.values, roots.mu, gamma)
        assert d.tobytes() == np.prod(factors, axis=-1).tobytes()
        prod = np.prod(factors, axis=0).prod()
        assert roots.d_product_deviation() == abs(prod - 1.0)
        assert abs(prod - np.prod(d)) < 1e-14
        assert roots.d_product_deviation() < 1e-12

    def test_translation_covariance(self, gamma):
        base = bethe.solve_ground_state(6, gamma)
        delta = 0.3
        shifted = bethe.solve_ground_state(6, gamma, mu=(delta,) * 6)
        assert np.allclose(
            shifted.x, np.add(base.x, delta), atol=1e-10
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
        assert r_minus.values[0].imag == 0.5 * np.pi
        assert r_minus.max_residual < 1e-12
        assert r_minus.values[0] != r_plus.values[0]

    def test_two_solutions_per_number_set(self, gamma):
        # each admissible quantum-number set supports one solution per
        # uniform parity choice
        real = bethe.solve_bae((-0.5, 0.5), (1, 1), homogeneous_spec(4), gamma)
        shifted = bethe.solve_bae((-0.5, 0.5), (-1, -1), homogeneous_spec(4), gamma)
        assert np.all(shifted.values.imag == 0.5 * np.pi)
        assert shifted.max_residual < 1e-12
        assert shifted.d_product_deviation() < 1e-10
        assert not np.allclose(sorted(shifted.x), sorted(real.x))

    def test_inadmissible_numbers_fail_cleanly(self, gamma):
        # at half filling the real branch is exactly filled by the symmetric
        # set; a number pushed past the edge of the counting function has no
        # root, and it is rejected before Newton starts
        ns, vs = bethe.ground_state_numbers(4)
        with pytest.raises(ValueError, match=r"2 pi \|n\| < M \(pi - gamma\)") as err:
            bethe.solve_bae(ns[:-1] + (ns[-1] + 1,), vs, homogeneous_spec(8), gamma)
        edge = 8 * (np.pi - gamma.gamma) - 3 * (np.pi - 2 * gamma.gamma)
        assert f"= {edge:.6g}" in str(err.value)

    @pytest.mark.parametrize("M, g, mu", _LINEAR_STALL_LATTICES)
    def test_thermodynamic_start_solves_where_linear_start_stalls(self, monkeypatch, M, g, mu):
        # the thermodynamic start solves these wide spreads by plain Newton
        points = _record_points(monkeypatch)
        roots = bethe.solve_ground_state(M, AnisotropyParam(g), mu=mu)
        assert len(points) <= 5
        assert roots.max_residual < 1e-12
        assert bethe.eigenvalue_residual(roots, 0.4) < 1e-12
        sign, _ = bethe.flip_sign_residual(roots)
        assert roots.r_sign == sign

    def test_stalled_start_fails_at_once(self, monkeypatch):
        # from the linear start damped Newton stalls on the M = 6 lattice:
        # the first step that no damping makes lower max|F| is the error,
        # which carries the residual of the last accepted point
        M, g, mu = _LINEAR_STALL_LATTICES[1]

        def linear(n_i, shifted, mu, g):
            return 2 * g * np.asarray(n_i) / len(mu) + np.mean(mu)

        monkeypatch.setattr(bethe, "_start", linear)
        residuals = _record_residuals(monkeypatch)
        with pytest.raises(ConvergenceError, match="stalled") as err:
            bethe.solve_ground_state(M, AnisotropyParam(g), mu=mu)
        assert len(residuals) <= 40
        assert err.value.best_residual == min(residuals) > 1e-12
        assert f"max|F| = {min(residuals):.3e}" in str(err.value)

    @pytest.mark.parametrize("parities", [(-1, -1, -1, -1), (1, 1, -1, -1)],
                             ids=["shifted", "mixed"])
    def test_inadmissible_shifted_and_mixed_fillings_fail_at_once(self, monkeypatch, parities):
        # the last ground-state number raised by 3 has no solution with these
        # parities; the solve stalls within a few Newton steps
        ns, _ = bethe.ground_state_numbers(4)
        residuals = _record_residuals(monkeypatch)
        with pytest.raises(ConvergenceError, match="stalled") as err:
            bethe.solve_bae(ns[:-1] + (ns[-1] + 3,), parities, homogeneous_spec(8),
                            AnisotropyParam(0.6))
        assert len(residuals) <= 50
        assert err.value.best_residual == min(residuals) > 1e-12

    def test_slowly_decreasing_solve_fails_early(self, monkeypatch):
        # a random-parity filling whose max|F| creeps down towards 7.42: it
        # ran all 200 Newton steps (1,834 evaluations) before ten accepted
        # steps that do not halve max|F| counted as a stall
        mu = tuple(0.3 * np.random.default_rng(7).normal(size=14))
        residuals = _record_residuals(monkeypatch)
        with pytest.raises(ConvergenceError, match="stalled") as err:
            bethe.solve_bae((-3, -2, -1, 0, 1, 2, 2), (1, -1, 1, 1, 1, -1, 1),
                            LatticeSpec(14, mu), AnisotropyParam(1.0))
        assert len(residuals) <= 100
        assert err.value.best_residual == min(residuals) > 7.0

    def test_singular_jacobian_is_a_convergence_error(self, gamma, monkeypatch):
        target = np.array([0.3, 0.1, -0.2, 0.4])
        monkeypatch.setattr(bethe, "_system", lambda x, *args: (x - target, np.zeros((4, 4))))
        ns, vs = bethe.ground_state_numbers(4)
        with pytest.raises(ConvergenceError, match="singular Bethe Jacobian") as err:
            bethe.solve_bae(ns, vs, homogeneous_spec(8), gamma)
        x0 = bethe._start(ns, np.zeros(4, bool), np.zeros(8), gamma.gamma)
        assert err.value.best_residual == np.max(np.abs(x0 - target))

    @pytest.mark.parametrize("M, seeded, parity", [(64, False, 1), (64, True, 1), (8, False, -1)])
    def test_each_point_evaluated_once(self, gamma, rng, monkeypatch, M, seeded, parity):
        # the accepted backtracking trial's residual and Jacobian carry over
        # to the next iteration and to the returned residuals
        points = _record_points(monkeypatch)
        mu = np.sort(0.3 * rng.normal(size=M)) if seeded else np.zeros(M)
        ns, _ = bethe.ground_state_numbers(M // 2)
        roots = bethe.solve_bae(ns, (parity,) * (M // 2), LatticeSpec(M, tuple(mu)), gamma)
        assert roots.max_residual < 1e-12
        assert len(points) == len(set(points))

    @pytest.mark.parametrize("M, seeded, parity, budget", [
        (64, True, 1, 5), (96, True, 1, 5), (128, True, 1, 5), (128, False, 1, 5),
        # the shifted-branch twin keeps the linear start and its counts
        (8, False, -1, 7), (16, False, -1, 8), (32, False, -1, 9), (64, False, -1, 10),
        (8, True, -1, 7), (16, True, -1, 8), (32, True, -1, 9), (64, True, -1, 10),
    ])
    def test_evaluation_budget(self, gamma, monkeypatch, M, seeded, parity, budget):
        points = _record_points(monkeypatch)
        roots = _solve(M, gamma, seeded, parity)
        assert roots.max_residual < 1e-12
        assert len(points) <= budget

    @pytest.mark.parametrize("M, g, mu", [
        # two clusters at -L and +L around four centre columns at 0
        *((32, np.pi / 3, (-L,) * 14 + (0.0,) * 4 + (L,) * 14) for L in (3.0, 4.0)),
        # the quantiles of U(-3, 3)
        *((M, 0.6, tuple(-3 + 6 * (np.arange(M) + 0.5) / M)) for M in (64, 128)),
    ])
    def test_wide_backgrounds_solve(self, monkeypatch, M, g, mu):
        # from the linear start each of these is a ConvergenceError
        points = _record_points(monkeypatch)
        roots = bethe.solve_ground_state(M, AnisotropyParam(g), mu=mu)
        assert len(points) <= 6
        assert roots.max_residual < 1e-12
        assert roots.d_product_deviation() < 1e-8

    @pytest.mark.parametrize("parities, pair", [((1, 1, 1, 1), "0 and 2"),
                                                ((1, 1, -1, 1), "1 and 3")])
    def test_collision_names_first_same_branch_pair(self, gamma, monkeypatch, parities, pair):
        # a residual whose zero puts roots 0, 2 and roots 1, 3 on equal abscissae
        target = np.array([0.3, 0.1, 0.3, 0.1])
        monkeypatch.setattr(bethe, "_system", lambda x, *args: (x - target, np.eye(len(x))))
        ns, _ = bethe.ground_state_numbers(4)
        with pytest.raises(ValueError, match=f"roots {pair} collided"):
            bethe.solve_bae(ns, parities, homogeneous_spec(8), gamma)

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
        p = 0.3 + 0.5j * np.pi
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
            assert bethe.eigenvalue_residual(roots, lam) < 1e-9

    def test_random_roots_fail(self, gamma, rng):
        spec = homogeneous_spec(4)
        fake = bethe.BetheRootSet(
            (0.31, -0.93),
            (-0.5, 0.5),
            (1, 1),
            spec.mu,
            gamma,
            residuals=(0.0, 0.0),
        )
        assert bethe.eigenvalue_residual(fake, 0.4) > 1e-2

    def test_flip_eigenvalue(self, gamma):
        for M in (4, 8):
            roots = bethe.solve_ground_state(M, gamma)
            sign, res = bethe.flip_sign_residual(roots)
            assert sign in (-1, 1)
            assert res < 1e-10
            assert roots.r_sign == sign


def _solve(M, gamma, seeded, parity):
    mu = np.sort(0.3 * np.random.default_rng(M).normal(size=M)) if seeded else np.zeros(M)
    ns, _ = bethe.ground_state_numbers(M // 2)
    return bethe.solve_bae(ns, (parity,) * (M // 2), LatticeSpec(M, tuple(mu)), gamma)


class TestFlipSign:
    """r_sign = (-1)^N sign det J from the solver's own Jacobian, at every M."""

    @pytest.mark.parametrize("gamma_val", [0.3, 0.6, 1.2])
    @pytest.mark.parametrize("M", range(2, 13, 2))
    def test_matches_brute_force(self, gamma_val, M):
        gamma = AnisotropyParam(gamma_val)
        for seeded in (False, True):
            for parity in (1, -1):  # the ground state and its shifted-branch twin
                roots = _solve(M, gamma, seeded, parity)
                sign, res = bethe.flip_sign_residual(roots)
                assert res < 1e-10
                assert roots.r_sign == sign

    @pytest.mark.parametrize("parity", [1, -1])
    def test_gaudin_matrix_is_i_times_jacobian(self, gamma, parity):
        # the identity that puts sign <N|N> in the solver's hands
        roots = _solve(12, gamma, True, parity)
        _, J = bethe._system(np.array(roots.x), roots.shifted, roots.quantum_numbers, np.real(roots.mu), gamma.gamma)
        phi = determinant.varphi_prime_matrix(roots)
        assert np.max(np.abs(phi - 1j * J)) < 1e-14 * np.max(np.abs(J))

    @pytest.mark.parametrize("M", range(14, 49, 2))
    def test_matches_norm_sign(self, gamma, M):
        for parity in (1, -1):
            roots = _solve(M, gamma, True, parity)
            norm = determinant.gaudin_norm(roots)
            assert np.isfinite(norm)
            assert roots.r_sign == np.sign(norm.real)

    @pytest.mark.parametrize("M", [64, 128])
    def test_set_beyond_brute_force(self, gamma, M):
        assert bethe.solve_ground_state(M, gamma).r_sign in (-1, 1)

    def test_solve_builds_no_state(self, gamma, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("solve_bae swept a 2^M state")

        monkeypatch.setattr(algebra, "_sweep", forbidden)
        monkeypatch.setattr(algebra, "_product_state", forbidden)
        for parity in (1, -1):
            assert _solve(12, gamma, True, parity).r_sign in (-1, 1)


class TestRootSymmetry:
    @pytest.mark.parametrize("gamma_val", [0.3, 0.6, 1.0])
    def test_symmetric_mu_symmetric_roots(self, gamma_val):
        gamma = AnisotropyParam(gamma_val)
        mus = (-0.4, -0.1, 0.1, 0.4, 0.0, 0.0)
        roots = bethe.solve_bae(
            *bethe.ground_state_numbers(3), LatticeSpec(6, mus), gamma
        )
        xs = np.sort(roots.x)
        assert np.allclose(xs, -xs[::-1], atol=1e-10)
