"""Determinant representations of scalar products and correlators.

Contains the Cauchy-type determinant identity, the scalar-product determinant
between a Bethe state and a generic dual state, the Gaudin norm, the
expansion of a product of D-operators over Bethe states, the determinant
ratio for scalar products with partially replaced rapidities, and the
finite-size emptiness formation probability assembled from those pieces.
Every formula here has a brute-force counterpart in `algebra` used by the
test suite.
"""

import warnings
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from . import algebra, bethe
from .algebra import LatticeSpec
from .errors import PoleError

_BETHE_TOL = 1e-10


def _coth(z):
    s = np.sinh(z)
    if np.min(np.abs(s)) < 1e-14:
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
    lams = roots.values
    eta = roots.gamma.eta
    N = len(lams)
    out = np.empty((len(xi), N), dtype=complex)
    for i, x in enumerate(xi):
        P = np.prod(np.sinh(lams - x + eta) / np.sinh(lams - x))
        Q = np.prod(np.sinh(x - lams + eta) / np.sinh(x - lams))
        d = algebra.d_eigenvalue(x, roots.mu, roots.gamma)
        for j, lj in enumerate(lams):
            out[i, j] = P * (_coth(lj - x + eta) - _coth(lj - x)) + d * Q * (
                _coth(x - lj) - _coth(x - lj + eta)
            )
    return out


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
    N = len(lams)
    out = np.zeros((N, N), dtype=complex)
    for i in range(N):
        diag = np.sum(_coth(lams[i] - mu - eta / 2) - _coth(lams[i] - mu + eta / 2))
        for j in range(N):
            if j == i:
                continue
            pair = _coth(eta + lams[i] - lams[j]) + _coth(eta + lams[j] - lams[i])
            out[i, j] = -pair
            diag += pair
        out[i, i] = diag
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


def scalar_product_ratio(roots, mu_window, excluded=None) -> complex:
    """Normalized scalar product with the roots of `excluded` (0-based,
    default: the last n) replaced by the shifted window columns w_j + eta/2,
    evaluated as sinh prefactors times an n x n determinant ratio."""
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
    pref = _replaced_prefactor(roots.values, roots.gamma.eta, w, excluded)
    rows = psi_phi_rows(roots, w)  # n x N against the natural root order
    minor = rows[:, list(excluded)]
    return complex(pref * np.linalg.det(minor))


def _replaced_prefactor(lams, eta, w, excluded):
    """sinh prefactor of the scalar product with the roots lams[excluded]
    replaced by the shifted window columns w + eta/2, in slot order."""
    n = len(w)
    rep = lams[list(excluded)]
    lam_kept = np.delete(lams, list(excluded))
    pref = 1.0 + 0j
    for i in range(n):
        for j in range(i + 1, n):
            s = np.sinh(w[j] - w[i])
            if abs(s) < 1e-14:
                raise PoleError(
                    "coincident window columns: use the homogeneous-window "
                    "extrapolation path"
                )
            pref *= np.sinh(rep[j] - rep[i]) / s
    for li in lam_kept:
        pref *= np.prod(np.sinh(li - rep) / np.sinh(li - w - eta / 2))
    for li in lams:
        pref *= np.prod(np.sinh(li - w + eta / 2) / np.sinh(li - rep + eta))
    return pref


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


def _efp_determinant_complex(roots, window_mu) -> complex:
    """Determinant-path EFP for pairwise distinct window columns."""
    n = len(window_mu)
    N = roots.N
    if n == 0:
        return 1.0 + 0j
    if n > N:
        return 0.0 + 0j
    gamma = roots.gamma
    eta = gamma.eta
    lams = roots.values
    w = np.asarray(window_mu, dtype=complex)
    ext = np.concatenate([lams, w + eta / 2])
    tinv = 1.0 + 0j
    for wi in w:
        tinv *= np.prod(np.sinh(lams - wi - eta / 2) / np.sinh(lams - wi + eta / 2))
    total = 0.0 + 0j
    rows = psi_phi_rows(roots, w)
    for subset in combinations(range(N), n):
        for tup in permutations(subset):
            coeff = g_coefficient(tup, ext, N, roots.mu, gamma)
            pref = _replaced_prefactor(lams, eta, w, tup)
            minor = rows[:, list(tup)]
            total += coeff * pref * np.linalg.det(minor)
    return tinv * total


DEFAULT_EPS_SCHEDULE = (0.01, 0.02, 0.04)


def _scaled_eps_schedule(gamma):
    """Default window-splitting schedule, shrunk with the root-packing scale
    so the eps^2 expansion stays in its asymptotic regime at small gamma."""
    scale = min(1.0, gamma.gamma / 0.6)
    return tuple(s * scale for s in DEFAULT_EPS_SCHEDULE)


def _distinct(window):
    """True when the window columns are pairwise more than 1e-10 apart, so
    that no eps split is needed."""
    w = np.asarray(window, dtype=complex)
    i, j = np.triu_indices(len(w), 1)
    return bool(np.all(np.abs(w[i] - w[j]) > 1e-10))


def _eps_split(centre, n, eps_schedule):
    """Symmetric splits centre + (l - (n+1)/2) eps, l = 1..n, of a coincident
    window, one per eps, and the weights c_i of the Neville extrapolation
    eps^2 -> 0: the limit of a value v(eps) is sum_i c_i v(eps_i)."""
    offsets = np.arange(1, n + 1) - (n + 1) / 2
    windows = [centre + offsets * eps for eps in eps_schedule]
    eps2 = [eps * eps for eps in eps_schedule]
    return windows, neville_extrapolate(eps2, list(np.eye(len(eps2))))


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


def efp_finite(req_or_roots, k=None, n=None, eps_schedule=None, return_complex=False):
    """Finite-size EFP of columns k+1..k+n via the determinant path.

    Pairwise-distinct window columns evaluate directly.  A degenerate
    (e.g. homogeneous) window is handled by symmetrically splitting the
    window inhomogeneities by +-eps, re-solving the Bethe equations, and
    Richardson-extrapolating eps^2 -> 0.
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
    if _distinct(window):
        val = _efp_determinant_complex(roots, window)
    else:
        val = _efp_degenerate_window(
            roots, k, n, eps_schedule or _scaled_eps_schedule(roots.gamma)
        )
    if return_complex:
        return val
    if abs(val.imag) > 1e-6 * (1 + abs(val.real)):
        warnings.warn(f"EFP imaginary residue {val.imag:.2e} exceeds 1e-6 of scale")
    return float(val.real)


def _efp_degenerate_window(roots, k, n, eps_schedule):
    """Homogeneous-window limit: split the window columns, re-solve the Bethe
    equations at each eps and extrapolate in eps^2."""
    windows, c = _eps_split(roots.mu[k], n, eps_schedule)
    vals = []
    for w in windows:
        mu = list(roots.mu)
        mu[k : k + n] = w
        split = bethe.solve_bae(
            roots.quantum_numbers, roots.parities, LatticeSpec(len(mu), mu), roots.gamma
        )
        vals.append(_efp_determinant_complex(split, w))
    return c @ vals
