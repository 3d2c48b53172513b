from dataclasses import replace

import numpy as np
import pytest

from svdwbc import algebra, bethe, determinant, verify
from svdwbc.algebra import AnisotropyParam, LatticeSpec

GAMMA = AnisotropyParam(0.6)


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("M", [2, 4, 6])
def test_every_check_passes(M, seed):
    checks = verify.run_battery(GAMMA, M=M, seed=seed)
    assert len(checks) == 10
    assert [c["check"] for c in checks if not c["passed"]] == []


def test_each_ground_state_is_solved_once(monkeypatch):
    solved = []

    def counting(M, gamma, *args, **kwargs):
        solved.append(M)
        return solve(M, gamma, *args, **kwargs)

    solve = bethe.solve_ground_state
    monkeypatch.setattr(bethe, "solve_ground_state", counting)
    verify.run_battery(GAMMA, M=6, draws=3)
    assert solved == [2, 4, 6]


def test_record_shapes_unchanged():
    checks = {c["check"]: c for c in verify.run_battery(GAMMA, M=6, draws=3)}
    assert checks["slavnov_vs_bruteforce"]["cases"] == [[1, 2], [2, 4], [3, 6]]
    assert checks["slavnov_vs_bruteforce"]["draws"] == 20
    assert checks["gaudin_vs_bruteforce"]["sizes"] == [2, 4, 6]
    assert checks["gaudin_specialization_limit"]["M"] == 6
    assert checks["flip_eigenvalue"]["sizes"] == [2, 4, 6]
    assert checks["partition_vs_norm"]["sizes"] == [4, 6]
    assert checks["rtt_intertwining"]["draws"] == 3


def _rtt_draws(seed, draws):
    # the draws and probes of check_rtt, and the residual of each draw
    rng = np.random.default_rng(seed)
    pairs = rng.normal(size=(draws, 4))
    lam, mu = pairs[:, 0] + 0.3j * pairs[:, 1], pairs[:, 2] + 0.3j * pairs[:, 3]
    z = rng.normal(size=(2, draws, 2, 2, 4))
    return lam, mu, verify._rtt_probe(lam, mu, z[0] + 1j * z[1], algebra.homogeneous_spec(2), GAMMA)


@pytest.mark.parametrize("draws", [1, 8, 9, 13, 14, 40])
def test_rtt_slabs_cover_every_draw(draws):
    # one probe per draw, all draws from one pair of stacked sweeps: each
    # draw's probe residual and its dense residual are at rounding level,
    # and the check reads the worst draw, the same for the same seed
    lam, mu, each = _rtt_draws(5, draws)
    assert each.shape == (draws,)
    assert np.all(each < 1e-13)
    assert np.all(algebra.rtt_residual(lam, mu, algebra.homogeneous_spec(2), GAMMA) < 1e-13)
    rec = verify.check_rtt(GAMMA, seed=5, draws=draws)
    assert rec["residual"] == np.max(each) == verify.check_rtt(GAMMA, seed=5, draws=draws)["residual"]


@pytest.mark.parametrize("seed", [42, 977])
def test_rtt_probe_residual_is_rounding(seed):
    assert verify.check_rtt(GAMMA, seed=seed)["residual"] <= 1e-14


def test_rtt_probe_holds_on_an_inhomogeneous_lattice():
    rng = np.random.default_rng(4)
    spec = LatticeSpec(4, tuple(0.3 * rng.normal(size=4)))
    z = rng.normal(size=(4, 20))
    lam, mu = z[0] + 0.3j * z[1], z[2] + 0.3j * z[3]
    v = rng.normal(size=(2, 20, 2, 2, spec.dim))
    assert np.max(verify._rtt_probe(lam, mu, v[0] + 1j * v[1], spec, GAMMA)) < 1e-13
    assert np.max(algebra.rtt_residual(lam, mu, spec, GAMMA)) < 1e-13


@pytest.mark.parametrize("seed", [3, 42])
def test_efp_profiles_give_the_per_window_residual(seed, monkeypatch):
    # the worst residual over the profiles is the worst over the windows
    # taken one at a time, each against its own brute-force correlator
    rng = np.random.default_rng(seed)
    each = []
    for M in (4, 6):
        mu = tuple(np.sort(0.3 * rng.normal(size=M)))
        roots = bethe.solve_bae(*bethe.ground_state_numbers(M // 2), LatticeSpec(M, mu), GAMMA)
        for n in range(1, M + 1):
            for k in range(M - n + 1):
                brute = algebra.correlator_bruteforce(
                    roots.values, roots.spec, GAMMA, range(k + 1, k + n + 1), return_complex=True
                )
                each.append(abs(determinant.efp_finite(roots, k, n, return_complex=True) - brute))
    profiles = []
    profile = determinant.efp_profile
    monkeypatch.setattr(determinant, "efp_profile",
                        lambda roots, n, **kw: profiles.append(n) or profile(roots, n, **kw))
    monkeypatch.setattr(determinant, "efp_finite", None)
    assert verify.check_efp_finite(GAMMA, seed=seed)["residual"] == max(each)
    assert profiles == list(range(5)) + list(range(7))


@pytest.mark.parametrize("seed", [0, 42])
def test_slavnov_rapidities_are_those_of_the_per_draw_loop(seed, monkeypatch):
    # one normal draw per state gives each xi of a draw-by-draw loop bit for bit
    states = [verify.bethe_vectors(bethe.solve_ground_state(m, GAMMA)) for m in (2, 4, 6)]
    seen = []
    product = determinant.slavnov_scalar_product
    monkeypatch.setattr(determinant, "slavnov_scalar_product",
                        lambda xi, roots: seen.append(xi) or product(xi, roots))
    verify.check_slavnov(states, seed=seed, draws=20)
    rng = np.random.default_rng(seed)
    assert len(seen) == len(states)
    for xi, state in zip(seen, states):
        N = state.roots.N
        loop = np.array([rng.normal(size=N) * 0.8 + 1j * rng.normal(size=N) * 0.3
                         for _ in range(20)])
        assert xi.tobytes() == loop.tobytes()


@pytest.mark.parametrize("M", [2, 4, 6])
def test_specialization_offsets_take_one_stacked_call(M, monkeypatch):
    # the three offsets as one (3, N) stack, each value that of its own call
    # to 1e-12 at offset 1e-3; a call's own rounding grows like 1/offset
    # (2e-13, 2e-12 and 2e-11 relative against 50 digits at M = 6), and so
    # does the bound (test_stacked_rows_take_the_bits_of_one_row_calls holds
    # the rows to their bits)
    roots = bethe.solve_ground_state(M, GAMMA)
    seen = []
    product = determinant.slavnov_scalar_product
    monkeypatch.setattr(determinant, "slavnov_scalar_product",
                        lambda xi, roots: seen.append(xi) or product(xi, roots))
    eps = (1e-3, 1e-4, 1e-5)
    assert verify.check_gaudin_specialization(roots, eps=eps)["passed"]
    assert len(seen) == 1 and seen[0].shape == (3, roots.N)
    stacked = product(seen[0], roots)
    each = np.array([product(roots.values + e, roots) for e in eps])
    assert np.all(np.abs(stacked - each) <= 1e-12 * (1e-3 / np.array(eps)) * np.abs(each))


@pytest.mark.parametrize("gamma", [0.3, 0.6, 1.2, 1.5])
@pytest.mark.parametrize("M", [2, 4, 6])
def test_stacked_rows_take_the_bits_of_one_row_calls(M, gamma, monkeypatch):
    # every row of a stacked xi takes its own exponential-table centre, so
    # the (3, N) stack of the specialization check and the stacked Slavnov
    # draws give each row the bits of a call with that row alone (with one
    # centre for the stack they differed by up to 1.25e-11 relative at M = 6)
    g = AnisotropyParam(gamma)
    state = verify.bethe_vectors(bethe.solve_ground_state(M, g))
    seen = []
    product = determinant.slavnov_scalar_product
    monkeypatch.setattr(determinant, "slavnov_scalar_product",
                        lambda xi, roots: seen.append(xi) or product(xi, roots))
    verify.check_gaudin_specialization(state.roots)
    verify.check_slavnov([state], seed=42, draws=8)
    assert [xi.shape for xi in seen] == [(3, state.roots.N), (8, state.roots.N)]
    for xi in seen:
        stacked = product(xi, state.roots)
        each = np.array([product(row, state.roots) for row in xi])
        assert stacked.tobytes() == each.tobytes()


def test_flip_check_catches_a_wrong_sign():
    states = [bethe.solve_ground_state(m, GAMMA) for m in (2, 4, 6)]
    assert verify.check_flip([verify.bethe_vectors(r) for r in states])["passed"]
    states[1] = replace(states[1], r_sign=-states[1].r_sign)
    rec = verify.check_flip([verify.bethe_vectors(r) for r in states])
    assert not rec["passed"]
    assert rec["residual"] == 2.0


def _swap_bc(l_matrix):
    def mutant(lam, gamma):
        out = l_matrix(lam, gamma)
        out[..., [1, 2, 1, 2], [1, 2, 2, 1]] = out[..., [1, 2, 1, 2], [2, 1, 1, 2]]
        return out
    return mutant


def _shift_argument(l_matrix):
    # Rcheck(lam - mu) read at lam - mu - eta/2 instead of lam - mu + eta/2
    return lambda lam, gamma: l_matrix(lam - algebra._aniso(gamma).eta, gamma)


def _transpose_aux(sweep):
    # block (c, r) of the monodromy matrix in place of block (r, c): the
    # input of aux slot c is swept from slot r and read from slot c
    def mutant(lam, spec, gamma, w, reverse=False):
        out = np.zeros_like(w)
        for r in range(2):
            for c in range(2):
                one = np.zeros_like(w)
                one[r] = w[c]
                out[r] += sweep(lam, spec, gamma, one, reverse)[c]
        w[:] = out
        return w
    return mutant


@pytest.mark.parametrize("name, mutate", [
    ("l_matrix", _swap_bc), ("l_matrix", _shift_argument), ("_sweep", _transpose_aux),
])
def test_rtt_check_catches_a_wrong_relation(name, mutate, monkeypatch):
    assert verify.check_rtt(GAMMA, seed=977)["passed"]
    monkeypatch.setattr(algebra, name, mutate(getattr(algebra, name)))
    rec = verify.check_rtt(GAMMA, seed=977)
    assert not rec["passed"]
    assert rec["residual"] > 1e-3


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("M", [2, 4])
def test_commutation_equals_the_per_draw_loop(M, seed):
    # one stacked monodromy call gives the residual of one call per draw
    rng = np.random.default_rng(seed)
    spec = LatticeSpec(M, tuple(0.2 * rng.normal(size=M)))
    worst = 0.0
    for _ in range(5):
        lam = rng.normal() + 0.3j * rng.normal()
        mu = rng.normal() + 0.3j * rng.normal()
        A, B, _, D = algebra.monodromy(np.array([lam, mu]), spec, GAMMA)
        T = A + D
        for X, Y in (B, T):
            scale = max(np.max(np.abs(X @ Y)), 1e-300)
            worst = max(worst, np.max(np.abs(X @ Y - Y @ X)) / scale)
    assert verify.check_commutation(GAMMA, M=M, seed=seed)["residual"] == worst


@pytest.mark.parametrize("seed", [3, 977])
@pytest.mark.parametrize("M", [4, 6])
def test_shared_states_change_no_residual(M, seed):
    # the battery's shared kets and bras give each check's residual on its
    # own, and the residual of a check that builds every state itself
    rec = {c["check"]: c["residual"] for c in verify.run_battery(GAMMA, M=M, seed=seed, draws=1)}
    roots = [bethe.solve_ground_state(m, GAMMA) for m in (2, 4, 6) if m <= M]
    alone = [verify.bethe_vectors(r) for r in roots]
    assert rec["slavnov_vs_bruteforce"] == verify.check_slavnov(alone, seed=seed)["residual"]
    assert rec["gaudin_vs_bruteforce"] == verify.check_gaudin(alone)["residual"]
    assert rec["flip_eigenvalue"] == verify.check_flip(alone)["residual"]
    assert rec["partition_vs_norm"] == verify.check_partition(alone[-2:])["residual"]

    def gaudin(r):
        brute = complex(algebra.dual_state(r.values, r.spec, GAMMA)
                        @ algebra.bethe_state(r.values, r.spec, GAMMA))
        return abs(determinant.gaudin_norm(r) - brute) / abs(brute)

    def flip(r):
        sign, res = bethe.flip_sign_residual(r)
        return max(res, abs(sign - r.r_sign))

    def partition(r):
        ref = r.r_sign * determinant.gaudin_norm(r)
        return abs(algebra.partition_bruteforce(r.values, r.spec, GAMMA) - ref) / abs(ref)

    assert rec["gaudin_vs_bruteforce"] == max(map(gaudin, roots))
    assert rec["flip_eigenvalue"] == max(0.0, *map(flip, roots))
    assert rec["partition_vs_norm"] == max(map(partition, roots[-2:]))


def test_battery_builds_one_ket_and_bra_per_ground_state(monkeypatch):
    # the ground states are the battery's only single states on a homogeneous
    # lattice, and each takes one sweep for its ket and dual state together
    built = []
    for name in ("bethe_state", "dual_state", "ket_bra"):
        def counting(lams, spec, gamma, _build=getattr(algebra, name), _name=name):
            if np.ndim(lams) == 1 and not any(spec.mu):
                built.append((_name, spec.M))
            return _build(lams, spec, gamma)
        monkeypatch.setattr(algebra, name, counting)
    verify.run_battery(GAMMA, M=6, draws=3)
    assert sorted(built) == [("ket_bra", m) for m in (2, 4, 6)]
