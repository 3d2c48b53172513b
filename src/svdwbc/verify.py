"""Cross-check battery: every closed formula against its brute-force oracle.

Each check returns a record with the measured residual and the tolerance it
is held to; the battery is the backbone of the `verify` CLI command.
"""

from typing import NamedTuple

import numpy as np

from . import algebra, bethe, determinant
from .algebra import LatticeSpec
from .bethe import BetheRootSet


def _record(name, residual, tol, **extra):
    rec = {
        "check": name,
        "residual": float(residual),
        "tolerance": float(tol),
        "passed": bool(residual < tol),
    }
    rec.update(extra)
    return rec


class BetheVectors(NamedTuple):
    """A solved root set with its brute-force ket |N> and dual state <N|."""

    roots: BetheRootSet
    ket: np.ndarray
    bra: np.ndarray


def bethe_vectors(roots):
    """The BetheVectors of a root set: the states that the slavnov, gaudin,
    flip and partition checks read, built once for all of them by one sector
    sweep."""
    return BetheVectors(roots, *algebra.ket_bra(roots.values, roots.spec, roots.gamma))


def _rtt_probe(lam, mu, v, spec, gamma):
    """Per-draw relative max-norm residual of the intertwining relation on
    a probe vector,

        Rcheck(lam-mu) T_1(lam) T_2(mu) v = T_1(mu) T_2(lam) Rcheck(lam-mu) v,

    for the 1-d arrays lam and mu and probes v of shape (S, 2, 2, 2^M), one
    per draw with axes (aux 1, aux 2, spin); Rcheck = P L(z + eta/2) as in
    algebra.rtt_residual, and the norm is that of T_1(lam) T_2(mu) v.  T_2
    acts on every draw of both sides from one stacked sweep, and T_1 from a
    second.  A random probe leaves a nonzero difference operator undetected
    with probability zero (Freivalds, IFIP Congress 1977)."""
    gamma = algebra._aniso(gamma)
    S, dim = len(lam), spec.dim
    P = np.eye(4)[[0, 2, 1, 3]]  # swaps the two auxiliary spaces
    R = P @ algebra.l_matrix(lam - mu + gamma.eta / 2, gamma)
    # x[h, s, a, c]: v for h = 0, Rcheck v for h = 1
    x = np.stack([v, (R @ v.reshape(S, 4, dim)).reshape(v.shape)])
    # T_2 sweeps aux 2 (axis c) of every input (h, s, a), then T_1 aux 1
    w = algebra._sweep(np.repeat(np.concatenate([mu, lam]), 2), spec, gamma,
                       np.ascontiguousarray(x.transpose(3, 0, 1, 2, 4)).reshape(2, -1, dim))
    w = w.reshape(2, 2, S, 2, dim).transpose(3, 1, 2, 0, 4)
    w = algebra._sweep(np.repeat(np.concatenate([lam, mu]), 2), spec, gamma,
                       np.ascontiguousarray(w).reshape(2, -1, dim))
    image, rhs = w.reshape(2, 2, S, 2, dim).transpose(1, 2, 0, 3, 4).reshape(2, S, 4, dim)
    diff = R @ image - rhs
    return np.max(np.abs(diff), axis=(1, 2)) / np.max(np.abs(image), axis=(1, 2))


def check_rtt(gamma, seed=42, draws=100, tol=1e-12):
    """Intertwining-relation residual over random parameter pairs at M = 2,
    each on one seeded complex probe vector."""
    rng = np.random.default_rng(seed)
    spec = algebra.homogeneous_spec(2)
    pairs = rng.normal(size=(draws, 4))
    lam = pairs[:, 0] + 0.3j * pairs[:, 1]
    mu = pairs[:, 2] + 0.3j * pairs[:, 3]
    z = rng.normal(size=(2, draws, 2, 2, spec.dim))
    worst = np.max(_rtt_probe(lam, mu, z[0] + 1j * z[1], spec, gamma))
    return _record("rtt_intertwining", worst, tol, draws=draws, M=2)


def check_commutation(gamma, M=4, seed=42, draws=5, tol=1e-12):
    """[B(lam), B(mu)] = 0 and [T(lam), T(mu)] = 0 as relative max-norms.
    The monodromy matrices of every (lam, mu) draw come from one sweep."""
    rng = np.random.default_rng(seed)
    spec = LatticeSpec(M, tuple(0.2 * rng.normal(size=M)))
    z = rng.normal(size=(draws, 4))  # (Re lam, Im lam, Re mu, Im mu) per draw
    lam_mu = z[:, 0::2] + 0.3j * z[:, 1::2]
    A, B, _, D = algebra.monodromy(lam_mu.ravel(), spec, gamma)
    worst = 0.0
    for ops in (B, A + D):
        ops = ops.reshape(draws, 2, spec.dim, spec.dim)
        X, Y = ops[:, 0], ops[:, 1]
        XY = X @ Y
        scale = np.maximum(np.max(np.abs(XY), axis=(1, 2)), 1e-300)
        worst = max(worst, np.max(np.max(np.abs(XY - Y @ X), axis=(1, 2)) / scale))
    return _record("operator_commutation", worst, tol, M=M, draws=draws)


def check_qism(gamma, sizes=(2, 4), seed=42, tol=1e-10):
    """Inverse-scattering representation of the down-projectors, entrywise."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for M in sizes:
        for mu in ((0.0,) * M, tuple(0.25 * rng.normal(size=M))):
            spec = LatticeSpec(M, mu)
            for k, pi in enumerate(algebra.qism_projectors(spec, gamma), 1):
                worst = max(worst, np.max(np.abs(pi - algebra.projector_pi(k, spec))))
    return _record("qism_projector", worst, tol, sizes=list(sizes))


def check_slavnov(states, seed=42, draws=20, tol=1e-8):
    """Scalar-product determinant against direct operator application, for
    the BetheVectors `states`: one stacked C-sweep per root index."""
    rng = np.random.default_rng(seed)

    def one(state):
        roots = state.roots
        # per draw N real parts, then N imaginary parts: the stream of a
        # draw-by-draw loop, so each xi is the same number
        z = rng.normal(size=(draws, 2, roots.N))
        xi = z[:, 0] * 0.8 + 1j * z[:, 1] * 0.3
        # one dot per row, as a single draw pairs them, so each value is the
        # same floating-point number as in a draw-by-draw loop
        brute = np.array([u @ state.ket for u in algebra.dual_state(xi, roots.spec, roots.gamma)])
        det_val = determinant.slavnov_scalar_product(xi, roots)
        return np.max(np.abs(det_val - brute) / np.abs(brute))

    worst = max(map(one, states))
    cases = [[s.roots.N, len(s.roots.mu)] for s in states]
    return _record("slavnov_vs_bruteforce", worst, tol, cases=cases, draws=draws)


def check_gaudin(states, tol=1e-8):
    """Norm determinant against the brute-force pairing, for the BetheVectors
    `states`."""
    worst = 0.0
    for roots, ket, bra in states:
        brute = complex(bra @ ket)
        worst = max(worst, abs(determinant.gaudin_norm(roots) - brute) / abs(brute))
    return _record("gaudin_vs_bruteforce", worst, tol, sizes=[len(s.roots.mu) for s in states])


def check_gaudin_specialization(roots, eps=(1e-3, 1e-4, 1e-5), tol=1e-6):
    """Scalar-product determinant specialized xi -> roots, Richardson
    extrapolated in the offset, against the norm determinant.  The offsets
    are one stack of xi rows, evaluated by one call."""
    vals = determinant.slavnov_scalar_product(roots.values + np.array(eps)[:, None], roots)
    extr = determinant.neville_extrapolate(eps, vals.tolist())
    ref = determinant.gaudin_norm(roots)
    return _record(
        "gaudin_specialization_limit", abs(extr - ref) / abs(ref), tol, eps=list(eps),
        M=len(roots.mu),
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
    correlator, every consecutive window, generic distinct inhomogeneities.
    Each lattice builds its ket and bra once for all its windows and one
    EFP profile per window length; the projections at each offset build up
    as the window grows."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for M in sizes:
        mu = tuple(np.sort(0.3 * rng.normal(size=M)))
        spec = LatticeSpec(M, mu)
        roots = bethe.solve_bae(*bethe.ground_state_numbers(M // 2), spec, gamma)
        ket, bra, den = algebra.correlator_pair(roots.values, spec, gamma)
        profiles = [determinant.efp_profile(roots, n, return_complex=True)
                    for n in range(M + 1)]
        for k in range(M):
            v = ket
            for n in range(1, M - k + 1):
                v = algebra.pi_apply(k + n, spec, v)
                brute = complex(bra @ algebra.flip_apply(v)) / den
                worst = max(worst, abs(profiles[n][k] - brute))
    return _record("efp_determinant_vs_bruteforce", worst, tol, sizes=list(sizes))


def check_flip(states, tol=1e-10):
    """R|N> = r_sign |N> on the kets of the BetheVectors `states`: the
    residual is the larger of the eigenvector residual and
    |brute-force sign - r_sign|, so a wrong r_sign reads 2."""
    worst = 0.0
    for roots, ket, _ in states:
        sign, res = bethe._flip_sign(ket)
        worst = max(worst, res, abs(sign - roots.r_sign))
    return _record("flip_eigenvalue", worst, tol, sizes=[len(s.roots.mu) for s in states])


def check_partition(states, tol=1e-10):
    """Z = <N|R|N> against flip-sign times the norm determinant, for the
    BetheVectors `states`."""
    worst = 0.0
    for roots, ket, bra in states:
        z = complex(bra @ algebra.flip_apply(ket))  # as partition_bruteforce pairs them
        ref = roots.r_sign * determinant.gaudin_norm(roots)
        worst = max(worst, abs(z - ref) / abs(ref))
    return _record("partition_vs_norm", worst, tol, sizes=[len(s.roots.mu) for s in states])


def run_battery(gamma, M=4, seed=42, draws=100, tol=None):
    """Full cross-check battery; per-check default tolerances unless a global
    override is given.  Each homogeneous ground state is solved once, and it
    and its ket and dual state are handed to every check that uses them; they
    live for this call only.  Returns the list of check records."""
    if M % 2 != 0 or M < 2:
        raise ValueError(f"verification requires even M >= 2, got {M}")
    if M > 6:
        raise ValueError(f"the battery checks lattices up to M = 6, got M = {M}")
    if draws < 1:
        raise ValueError(f"verification needs at least one random draw, got draws = {draws}")
    ov = (lambda t: t) if tol is None else (lambda t: tol)
    ground = {m: bethe_vectors(bethe.solve_ground_state(m, gamma))
              for m in (2, 4, 6) if m <= max(M, 4)}
    states = list(ground.values())
    checks = [
        check_rtt(gamma, seed=seed, draws=draws, tol=ov(1e-12)),
        check_commutation(gamma, M=min(M, 4), seed=seed, tol=ov(1e-12)),
        check_qism(gamma, sizes=tuple(m for m in (2, 4) if m <= M), seed=seed, tol=ov(1e-10)),
        check_slavnov([v for m, v in ground.items() if m <= M], seed=seed, tol=ov(1e-8)),
        check_gaudin(states, tol=ov(1e-8)),
        check_gaudin_specialization(ground[M].roots, tol=ov(1e-6)),
        check_d_action(gamma, seed=seed, tol=ov(1e-9)),
        check_efp_finite(gamma, sizes=tuple(m for m in (4, 6) if m <= M) or (4,), seed=seed, tol=ov(1e-8)),
        check_flip(states, tol=ov(1e-10)),
        check_partition(states[-2:], tol=ov(1e-10)),
    ]
    return checks
