"""Determinant representations of scalar products and correlators.

Contains the Cauchy-type determinant identity, the scalar-product determinant
between a Bethe state and a generic dual state, the Gaudin norm, the
expansion of a product of D-operators over Bethe states, the determinant
ratio for scalar products with partially replaced rapidities, and the
emptiness formation probability (EFP).  Summing those pieces over ordered
root tuples gives the node sum of a separable integrand H, which is written
here once and serves the finite-size EFP and the thermodynamic multiple
integral in `thermo` alike.  Every formula here has a brute-force
counterpart in `algebra` used by the test suite.
"""

import logging
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from . import algebra, bethe
from .errors import PoleError

logger = logging.getLogger(__name__)

_BETHE_TOL = 1e-10


def _coth(z):
    s = np.sinh(z)
    if np.size(s) and np.min(np.abs(s)) < 1e-14:
        raise PoleError("coth evaluated at a zero of sinh")
    return np.cosh(z) / s


def _check_bethe(roots):
    if roots.max_residual > _BETHE_TOL:
        raise ValueError(
            f"roots must satisfy the Bethe equations to {_BETHE_TOL:.0e}; "
            f"max residual is {roots.max_residual:.2e}"
        )


@dataclass(frozen=True)
class SlavnovInput:
    """Generic dual parameters xi paired with a solved Bethe root set."""

    xi: tuple
    roots: bethe.BetheRootSet

    def __post_init__(self):
        if len(self.xi) != self.roots.N:
            raise ValueError(f"need {self.roots.N} xi parameters, got {len(self.xi)}")


def cauchy_det_check(xi, lams) -> float:
    """Relative deviation between det[1/sinh(xi_k - lam_l)] * prod sinh(xi_k - lam_l)
    and prod_{k<l} sinh(lam_k - lam_l) sinh(xi_l - xi_k).

    Coincident xi or lam pairs make both sides vanish; that exact-zero case
    returns the residual of the determinant side alone.
    """
    xi = np.asarray(xi, dtype=complex)
    lams = np.asarray(lams, dtype=complex)
    N = len(xi)
    diff = np.sinh(xi[:, None] - lams[None, :])
    if np.min(np.abs(diff)) < 1e-14:
        raise PoleError("xi and lam sets contain a coincident pair")
    lhs = np.linalg.det(1.0 / diff) * np.prod(diff)
    rhs = 1.0 + 0j
    for k in range(N):
        for l in range(k + 1, N):
            rhs *= np.sinh(lams[k] - lams[l]) * np.sinh(xi[l] - xi[k])
    scale = max(abs(lhs), abs(rhs))
    if scale < 1e-12:
        return float(abs(lhs - rhs))
    return float(abs(lhs - rhs) / scale)


def t_prime_matrix(xi, roots) -> np.ndarray:
    """Analytic Jacobian d t(xi_i) / d lam_j of the transfer eigenvalue with
    respect to the Bethe roots, the eigenvalue factors a and d held fixed.
    """
    xi = np.asarray(xi, dtype=complex)
    eta = roots.gamma.eta
    d = roots.values[None, :] - xi[:, None]  # lam_j - xi_i
    coth_d = _coth(d)  # raises before the products divide by a zero sinh
    P = np.prod(np.sinh(d + eta) / np.sinh(d), axis=1)
    Q = np.prod(np.sinh(eta - d) / np.sinh(-d), axis=1)
    dQ = Q * np.array([algebra.d_eigenvalue(x, roots.mu, roots.gamma) for x in xi])
    return P[:, None] * (_coth(d + eta) - coth_d) + dQ[:, None] * (-coth_d - _coth(eta - d))


def slavnov_scalar_product(inp, roots=None) -> complex:
    """<up| prod_j C(xi_j) prod_j B(lam_j) |up> = det t' / det V with
    V_ij = 1/sinh(xi_i - lam_j), for lam solving the Bethe equations."""
    if roots is not None:
        inp = SlavnovInput(tuple(inp), roots)
    _check_bethe(inp.roots)
    xi = np.asarray(inp.xi, dtype=complex)
    lams = inp.roots.values
    diff = np.sinh(xi[:, None] - lams[None, :])
    if np.min(np.abs(diff)) < 1e-13:
        raise PoleError("xi coincides with a root: V matrix is singular")
    V = 1.0 / diff
    tp = t_prime_matrix(xi, inp.roots)
    sign_v, logdet_v = np.linalg.slogdet(V)
    sign_t, logdet_t = np.linalg.slogdet(tp)
    if sign_v == 0:
        raise PoleError("V matrix is numerically singular")
    return complex(sign_t / sign_v * np.exp(logdet_t - logdet_v))


def varphi_prime_matrix(roots) -> np.ndarray:
    """Jacobian matrix of the logarithmic eigenvalue phase entering the norm
    determinant; off-diagonal entries -coth(eta + l_i - l_j) - coth(eta + l_j - l_i),
    diagonal from the inhomogeneity sum minus the root sum."""
    lams = roots.values
    eta = roots.gamma.eta
    mu = np.asarray(roots.mu, dtype=complex)
    dl = lams[:, None] - lams[None, :]
    pair = _coth(eta + dl) + _coth(eta - dl)
    np.fill_diagonal(pair, 0.0)
    dm = lams[:, None] - mu[None, :]
    diag = np.sum(_coth(dm - eta / 2) - _coth(dm + eta / 2), axis=1) + pair.sum(axis=1)
    out = -pair
    np.fill_diagonal(out, diag)
    return out


def gaudin_norm(roots) -> complex:
    """<N|N> = sinh(eta)^N prod_{i != j} [sinh(l_i - l_j + eta)/sinh(l_i - l_j)] det(phi').

    This is the unconjugated pairing of the Bethe state with its dual; for
    real ground-state roots it carries the sign (-1)^N.
    """
    _check_bethe(roots)
    lams = roots.values
    eta = roots.gamma.eta
    N = len(lams)
    if N == 0:
        return 1.0 + 0j
    dl = lams[:, None] - lams[None, :]
    off = ~np.eye(N, dtype=bool)
    if N > 1 and np.min(np.abs(np.sinh(dl[off]))) < 1e-13:
        raise PoleError("coincident roots in norm prefactor")
    pref = np.sinh(eta) ** N * np.prod(np.sinh(dl[off] + eta) / np.sinh(dl[off]))
    return complex(pref * np.linalg.det(varphi_prime_matrix(roots)))


def g_coefficient(indices, lams_ext, N, mu, gamma) -> complex:
    """Expansion coefficient of the D-product action over B-states.

    indices is the 0-based ordered tuple (i_1 .. i_n) into the extended
    rapidity list lams_ext of length N + n; the l-th factor carries
    d(lam_{i_l}) c(lam_{i_l} - lam_{N+l} + eta/2) and inverse b-weights
    against all non-excluded entries up to position N + l.
    """
    gamma = algebra._aniso(gamma)
    eta = gamma.eta
    lams_ext = np.asarray(lams_ext, dtype=complex)
    n = len(indices)
    if len(set(indices)) != n:
        raise ValueError("indices must be pairwise distinct")
    if len(lams_ext) != N + n:
        raise ValueError(f"extended rapidity list must have length {N + n}")
    out = 1.0 + 0j
    for l, il in enumerate(indices, start=1):
        if not (0 <= il < N + l):
            raise ValueError(f"index {il} out of range for factor {l}")
        li = lams_ext[il]
        out *= algebra.d_eigenvalue(li, mu, gamma)
        out *= algebra.boltzmann_weights(li - lams_ext[N + l - 1] + eta / 2, gamma)[2]
        for k in range(N + l):
            if k == il or k in indices[: l - 1]:
                continue
            s = np.sinh(li - lams_ext[k])
            if abs(s) < 1e-14:
                raise PoleError(f"coincident rapidities {il} and {k} in expansion coefficient")
            out *= np.sinh(li - lams_ext[k] + eta) / s
    return complex(out)


def _index_tuples(N, n, upper_per_level=None):
    """Ordered tuples (i_1..i_n), pairwise distinct, i_l < upper(l)."""
    def rec(prefix, l):
        if l == n:
            yield prefix
            return
        hi = upper_per_level[l] if upper_per_level else N
        for i in range(hi):
            if i not in prefix:
                yield from rec(prefix + (i,), l + 1)

    yield from rec((), 0)


def d_action_check(lams, extra, spec, gamma) -> float:
    """Max-norm discrepancy of the D-product expansion identity:
    prod_j D(extra_j) prod_k B(lam_k)|up> against the coefficient sum over
    B-states with excluded rapidities.  Valid for arbitrary rapidities."""
    gamma = algebra._aniso(gamma)
    lams = list(lams)
    extra = list(extra)
    N, n = len(lams), len(extra)
    ext = np.array(lams + extra, dtype=complex)
    lhs = algebra.bethe_state(lams, spec, gamma)
    for z in extra:
        lhs = algebra.monodromy_apply(z, spec, gamma, lhs, "D")
    rhs = np.zeros_like(lhs)
    uppers = [N + l + 1 for l in range(n)]
    for tup in _index_tuples(N + n, n, upper_per_level=uppers):
        coeff = g_coefficient(tup, ext, N, spec.mu, gamma)
        rest = [ext[k] for k in range(N + n) if k not in tup]
        rhs += coeff * algebra.bethe_state(rest, spec, gamma)
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-30)
    return float(np.max(np.abs(lhs - rhs)) / scale)


def psi_prime_matrix(roots, mu_window) -> np.ndarray:
    """phi' with its last n rows replaced by the window rows
    sinh(eta) / [sinh(l_j - w_i - eta/2) sinh(l_j - w_i + eta/2)]."""
    out = varphi_prime_matrix(roots)
    out[out.shape[0] - len(mu_window):] = _window_rows(roots, mu_window)
    return out


def _window_rows(roots, mu_window):
    lams = roots.values
    eta = roots.gamma.eta
    w = np.asarray(mu_window, dtype=complex)
    den = np.sinh(lams[None, :] - w[:, None] - eta / 2) * np.sinh(
        lams[None, :] - w[:, None] + eta / 2
    )
    if den.size and np.min(np.abs(den)) < 1e-14:
        raise PoleError("window column coincides with a shifted root")
    return np.sinh(eta) / den


def psi_phi_rows(roots, mu_window) -> np.ndarray:
    """The n x N block of window rows multiplied by the inverse of phi',
    obtained from one linear solve.  The complementary rows are exact
    Kronecker rows by construction."""
    phi = varphi_prime_matrix(roots)
    rows = _window_rows(roots, mu_window)
    return np.linalg.solve(phi.T, rows.T).T


def window_dd_rows(lams, mu_window, eta):
    """Newton divided differences of the window rows over u = e^{2(w - wbar)}
    (wbar the window mean), and the window prefactor in that basis.

    A window row R(lam; w) = coth(lam - w - eta/2) - coth(lam - w + eta/2)
    is -1 + 2a/(a - u) per coth with a = e^{2(lam - wbar -+ eta/2)}, so row i
    of the result, R[u_1..u_{i+1}](lam), is
        2a_-/prod_{m<=i+1}(a_- - u_m) - 2a_+/prod_{m<=i+1}(a_+ - u_m).
    The actual rows are R(w_i) = sum_{k<=i} R[u_1..u_k] prod_{m<k}(u_i - u_m),
    so det[R(w_i)] = det[R[u_1..u_i]] prod_{l<m}(u_m - u_l), and the EFP
    prefactor 1/prod_{l<m} sinh(w_l - w_m) becomes
    prod_{l<m} -2 e^{(w_l - wbar) + (w_m - wbar)}, finite at coincident
    columns.  Where Re(lam - wbar) > 0 a term is evaluated as
    2 b^i / prod(1 - u_m b) with b = 1/a, so that no power of a overflows;
    in row 0 that is 2 + 2 u_1 b / (1 - u_1 b), and the 2, common to a_- and
    a_+, is dropped before it can cancel.
    Returns (rows, prefactor) with rows of shape (n, len(lams)).
    """
    lams = np.asarray(lams, dtype=complex)
    w = np.asarray(mu_window, dtype=complex)
    wbar = w.mean()
    v = w - wbar
    u = np.exp(2 * v)[:, None]
    power = np.arange(len(v))[:, None]
    rows = np.zeros((len(v), len(lams)), dtype=complex)
    for sign in (-1, 1):  # a_- enters with +, a_+ with -
        s = lams - wbar + sign * eta / 2
        flip = s.real > 0
        t = np.exp(np.where(flip, -2 * s, 2 * s))  # b where flipped, else a
        fac = np.where(flip, 1 - u * t, t - u)
        if np.min(np.abs(fac)) < 1e-14:
            raise PoleError("window column coincides with a shifted root")
        num = np.where(flip, t**power, t)
        num[0] = np.where(flip, u[0] * t, t)  # drop the 2 that both coths share
        rows -= sign * 2 * num / np.cumprod(fac, axis=0)
    l, m = np.triu_indices(len(v), 1)
    return rows, np.prod(-2 * np.exp(v[l] + v[m]))


def scalar_product_ratio(roots, mu_window, excluded=None) -> complex:
    """Normalized scalar product with the roots of `excluded` (0-based,
    default: the last n) replaced by the shifted window columns w_j + eta/2,
    evaluated as sinh prefactors times an n x n determinant ratio.  The
    prefactor divides by sinh(w_j - w_i), so the window columns must be
    pairwise distinct; `efp_finite` covers coincident columns through
    `window_dd_rows`."""
    _check_bethe(roots)
    n = len(mu_window)
    N = roots.N
    if n == 0:
        return 1.0 + 0j
    if excluded is None:
        excluded = tuple(range(N - n, N))
    excluded = tuple(excluded)
    if len(excluded) != n or len(set(excluded)) != n:
        raise ValueError("excluded must list n distinct root indices")
    w = np.asarray(mu_window, dtype=complex)
    eta = roots.gamma.eta
    lams = roots.values
    rep = lams[list(excluded)]
    pref = 1.0 + 0j
    for i in range(n):
        for j in range(i + 1, n):
            s = np.sinh(w[j] - w[i])
            if abs(s) < 1e-14:
                raise PoleError("coincident window columns")
            pref *= np.sinh(rep[j] - rep[i]) / s
    for li in np.delete(lams, list(excluded)):
        pref *= np.prod(np.sinh(li - rep) / np.sinh(li - w - eta / 2))
    for li in lams:
        pref *= np.prod(np.sinh(li - w + eta / 2) / np.sinh(li - rep + eta))
    rows = psi_phi_rows(roots, w)  # n x N against the natural root order
    minor = rows[:, list(excluded)]
    return complex(pref * np.linalg.det(minor))


# H factorizes into a determinant, pair factors and one-slot factors:
#     H(lam_1..lam_n) = det[R_i(lam_j)] prod_{l<m} 1/D(lam_l, lam_m) prod_l f_l(lam_l),
#     D(a, b) = sinh(b - a - i gamma),
#     f_l(lam) = prod_{m<l} sinh(lam - w_m - i gamma/2) prod_{m>l} sinh(lam - w_m + i gamma/2).
# Every EFP sum, finite size and thermodynamic, reads H from the node tables
# of _integrand_factors.

_CHUNK = 8192  # index tuples per batched evaluation of H; bounds the (B, n, n) stacks


def _integrand_factors(z, w, g):
    """Slot table F[l, p] = f_l(z_p) and pair table D[a, b] = sinh(z_b - z_a - i g)
    over the nodes z for the window w."""
    slot = np.arange(len(w))
    shift = np.where(slot[None, :] < slot[:, None], -0.5j * g, 0.5j * g)  # [l, m]
    s = np.sinh(z[None, None, :] - w[None, :, None] + shift[:, :, None])
    s[slot, slot] = 1.0
    return s.prod(axis=1), np.sinh(z[None, :] - z[:, None] - 1j * g)


def _h_tuples(idx, R, F, D, weight):
    """prod_l weight[a_l] * H at each node tuple a = idx[:, b] of an (n, B) index
    stack, with rows R[i, p] = R_i(z_p) and the tables of _integrand_factors.
    A tuple with a repeated index is exactly 0 (two equal determinant columns)."""
    n = len(idx)
    l, m = np.triu_indices(n, 1)
    pair = D[idx[l], idx[m]]
    if np.any(np.abs(pair) < 1e-14):
        raise PoleError("coincident rapidities shifted by i*gamma")
    det = np.linalg.det(np.moveaxis(R[:, idx], -1, 0))
    slots = np.prod(F[np.arange(n)[:, None], idx] * weight[idx], axis=0)
    vals = det * slots / np.prod(pair, axis=0)
    return np.where(np.all(idx[l] != idx[m], axis=0), vals, 0.0)


def _node_sum(z, weight, R, w, g):
    """sum over ordered node tuples a of prod_l weight[a_l] * H(z_a1..z_an).

    For n <= 3 the determinant is expanded by Leibniz; each permutation sigma
    contracts the vectors G_l = weight * R_sigma(l) * f_l over the complete graph
    of E = 1/D by BLAS, O(n! P^3) for P nodes.  Repeated-index terms cancel
    between permutations.  Above n = 3 the batched H runs over all P^n tuples.
    """
    n = len(w)
    F, D = _integrand_factors(z, w, g)
    if n > 3:
        count = len(z) ** n
        return sum(
            _h_tuples(
                np.array(np.unravel_index(np.arange(s, min(s + _CHUNK, count)), (len(z),) * n)),
                R, F, D, weight,
            ).sum()
            for s in range(0, count, _CHUNK)
        )
    if n == 1:
        return np.sum(weight * R[0] * F[0])
    E = 1.0 / D
    G = weight * R[:, None, :] * F[None, :, :]  # G[k, l] = weight * R_k * f_l
    # sum_{a,b,c} G0[a] G1[b] G2[c] E[a,b] E[a,c] E[b,c] = G0 (E o (E diag(G2) E^T)) G1,
    # and the inner matrix depends on sigma(2) alone
    pair = [E * ((E * G[k, 2]) @ E.T) for k in range(n)] if n == 3 else [E] * n
    total = 0.0 + 0j
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        total += sign * (G[perm[0], 0] @ pair[perm[-1]] @ G[perm[1], 1])
    return total


@dataclass(frozen=True)
class EfpRequest:
    """Probability that columns k+1 .. k+n all point down on the central line."""

    k: int
    n: int
    roots: bethe.BetheRootSet

    def __post_init__(self):
        M = len(self.roots.mu)
        if self.n < 0 or self.k < 0 or self.k + self.n > M:
            raise ValueError(f"window k+1..k+n must fit in 1..{M}: k={self.k}, n={self.n}")


# Unused by the library since coincident windows take the divided-difference
# path; kept because perfbench/tracing.py reads it to count evaluations.
DEFAULT_EPS_SCHEDULE = (0.01, 0.02, 0.04)


def neville_extrapolate(xs, ys):
    """Polynomial extrapolation of (xs, ys) to x = 0."""
    xs = list(xs)
    ys = list(ys)
    m = len(xs)
    for level in range(1, m):
        for i in range(m - level):
            ys[i] = ys[i + 1] + (ys[i + 1] - ys[i]) * xs[i + level] / (
                xs[i] - xs[i + level]
            )
    return ys[0]


def efp_finite(req_or_roots, k=None, n=None, return_complex=False):
    """Finite-size EFP of columns k+1..k+n via the determinant path: the node
    sum of the separable integrand H over the Bethe roots, with unit weights
    and the divided-difference window rows (window_dd_rows) solved against
    phi'^T, times the window prefactor in that basis.  Coincident columns
    (a homogeneous window) take the same path as distinct ones.  The node
    sum costs O(n! N^3) for n <= 3 and N^n batched tuples above.
    """
    if isinstance(req_or_roots, EfpRequest):
        roots, k, n = req_or_roots.roots, req_or_roots.k, req_or_roots.n
    else:
        roots = req_or_roots
    _check_bethe(roots)
    M = len(roots.mu)
    if n < 0 or k < 0 or k + n > M:
        raise ValueError(f"window k+1..k+n must fit in 1..{M}: k={k}, n={n}")
    window = np.array(roots.mu[k : k + n], dtype=complex)
    if n == 0:
        val = 1.0 + 0j
    elif n > roots.N:
        val = 0.0 + 0j
    else:
        rows, pref = window_dd_rows(roots.values, window, roots.gamma.eta)
        rows = np.linalg.solve(varphi_prime_matrix(roots).T, rows.T).T
        val = complex(pref * _node_sum(roots.values, np.ones(roots.N), rows, window,
                                       roots.gamma.gamma))
    if return_complex:
        return val
    if abs(val.imag) > 1e-6 * (1 + abs(val.real)):
        logger.warning("EFP imaginary residue %.2e exceeds 1e-6 of scale", val.imag)
    return float(val.real)
