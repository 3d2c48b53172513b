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


@pytest.mark.parametrize("draws", [1, verify._RTT_SLAB, verify._RTT_SLAB + 1, 40])
def test_rtt_slabs_cover_every_draw(draws):
    # the worst residual over slabs is the worst over the draws taken one at a time
    rng = np.random.default_rng(5)
    pairs = rng.normal(size=(draws, 4))
    spec = algebra.homogeneous_spec(2)
    each = [algebra.rtt_residual(p[0] + 0.3j * p[1], p[2] + 0.3j * p[3], spec, GAMMA)
            for p in pairs]
    assert verify.check_rtt(GAMMA, seed=5, draws=draws)["residual"] == max(each)


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


def test_flip_check_catches_a_wrong_sign():
    states = [bethe.solve_ground_state(m, GAMMA) for m in (2, 4, 6)]
    assert verify.check_flip(states)["passed"]
    states[1] = replace(states[1], r_sign=-states[1].r_sign)
    rec = verify.check_flip(states)
    assert not rec["passed"]
    assert rec["residual"] == 2.0
