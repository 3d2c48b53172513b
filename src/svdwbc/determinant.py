"""Determinant representations of scalar products and correlators.

Contains the Cauchy-type determinant identity, the scalar-product determinant
between a Bethe state and a generic dual state, the Gaudin norm, the
expansion of a product of D-operators over Bethe states, the determinant
ratio for scalar products with partially replaced rapidities, and the
emptiness formation probability (EFP).  Summing those pieces over ordered
root tuples gives the node sum of a separable integrand H, which is written
here once and summed by one exact contraction at every window length, for
the finite-size EFP and the thermodynamic multiple integral in `thermo`.
Every formula here has a brute-force counterpart in `algebra` used by tests.
"""

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import algebra, bethe
from .errors import PoleError

logger = logging.getLogger(__name__)

_BETHE_TOL = 1e-10


def _coth_difference(u, a, b):
    """coth(x - alpha) - coth(x - beta) from the table entries u, a, b of x,
    alpha, beta: 2u(a - b)/((u - a)(u - b)), a product of two bounded ratios
    and not the difference of two numbers near +-1."""
    return 2 * (u / algebra._gap(u, a)) * ((a - b) / algebra._gap(u, b))


def _check_bethe(roots):
    if roots.max_residual > _BETHE_TOL:
        raise ValueError(
            f"roots must satisfy the Bethe equations to {_BETHE_TOL:.0e}; "
            f"max residual is {roots.max_residual:.2e}"
        )


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
    A (draws, N) stack of xi gives a (draws, N, N) stack of matrices.
    """
    P, dQ, u, x, e = algebra._transfer_terms(xi, roots.values, roots.mu, roots.gamma)
    # coth(d + eta) - coth(d) and -coth(d) - coth(eta - d) = coth(d - eta) - coth(d)
    return (P[..., None] * _coth_difference(u, x / e, x)
            + dQ[..., None] * _coth_difference(u, x * e, x))


def slavnov_scalar_product(xi, roots):
    """<up| prod_j C(xi_j) prod_j B(lam_j) |up> = det t' / det V with
    V_ij = 1/sinh(xi_i - lam_j), for lam solving the Bethe equations.

    A (draws, N) stack of xi returns an array with one scalar product per
    row, from batched determinants.
    """
    xi = np.asarray(xi, dtype=complex)
    if xi.ndim not in (1, 2) or xi.shape[-1] != roots.N:
        raise ValueError(f"need {roots.N} xi parameters per row, got shape {xi.shape}")
    _check_bethe(roots)
    diff = np.sinh(xi[..., :, None] - roots.values)
    if np.min(np.abs(diff)) < 1e-13:
        raise PoleError("xi coincides with a root: V matrix is singular")
    sign_v, logdet_v = np.linalg.slogdet(1.0 / diff)
    sign_t, logdet_t = np.linalg.slogdet(t_prime_matrix(xi, roots))
    if np.any(sign_v == 0):
        raise PoleError("V matrix is numerically singular")
    out = sign_t / sign_v * np.exp(logdet_t - logdet_v)
    return complex(out) if xi.ndim == 1 else out


def varphi_prime_matrix(roots) -> np.ndarray:
    """Jacobian matrix phi' of the logarithmic eigenvalue phase entering the
    norm determinant, i G for the Gaudin matrix G of _gaudin_matrix."""
    return 1j * _gaudin_matrix(roots)


def _coth_phi_prime(roots) -> np.ndarray:
    """phi' from its coth formula: off-diagonal entries
    -coth(eta + l_i - l_j) - coth(eta + l_j - l_i), diagonal from the
    inhomogeneity sum minus the root sum."""
    e = np.exp(roots.gamma.eta)
    u, m = algebra._exp_tables(roots.values, roots.mu)
    # coth(eta + l_i - l_j) + coth(eta - l_i + l_j), as coth(d + eta) - coth(d - eta)
    pair = _coth_difference(u[:, None], u / e**2, u * e**2)
    np.fill_diagonal(pair, 0.0)
    # coth(l_i - mu_k - eta/2) - coth(l_i - mu_k + eta/2)
    diag = _coth_difference(u[:, None], m * e, m / e).sum(axis=1) + pair.sum(axis=1)
    out = -pair
    np.fill_diagonal(out, diag)
    return out


def _gaudin_matrix(roots) -> np.ndarray:
    """The Gaudin matrix G with phi' = i G.  For real mu it is the Jacobian
    of the log-form Bethe equations at the roots, bethe._jacobian, the
    solver's own real matrix; a root set with complex mu takes -i times
    the coth table of _coth_phi_prime."""
    mu = np.array(roots.mu)
    if mu.imag.any():
        return -1j * _coth_phi_prime(roots)
    tables = bethe._difference_tables(np.array(roots.x), roots.shifted, mu.real)
    return bethe._jacobian(tables, roots.gamma.gamma)


def _phi_prime(roots) -> np.ndarray:
    """_gaudin_matrix(roots), built once per root set and kept on it
    read-only: gaudin_norm, psi_phi_rows and the EFP offsets all read it."""
    if roots._phi_prime is None:
        G = _gaudin_matrix(roots)
        G.flags.writeable = False
        object.__setattr__(roots, "_phi_prime", G)  # a cache on a frozen set
    return roots._phi_prime


def _solve_phi_prime(roots, rows) -> np.ndarray:
    """rows phi'^{-1} for an (m, N) stack of complex rows R, from
    (phi'^T)^{-1} R^T = (G^T)^{-1} (-i R^T).  A real G solves the real and
    imaginary parts of -i R^T, Im R and -Re R, as 2m real columns by one
    real LU: X = solve(G^T, Im R) - i solve(G^T, Re R), no complex LU."""
    G = _phi_prime(roots)
    # -i R^T in C order, each entry's two parts adjacent: (N, 2m) as floats
    B = np.multiply(rows.T, -1j, out=np.empty(rows.shape[::-1], dtype=complex))
    if G.dtype == complex:
        return np.linalg.solve(G.T, B).T
    return np.linalg.solve(G.T, B.view(float)).view(complex).T


def _pair_log_sum(roots, s2):
    """sum_{i<j} log(1 + s2 / sinh^2(l_i - l_j)), every term real: across
    branches sinh^2 = -cosh^2 of the abscissa difference, and s2 = sin^2
    gamma < 1.  With w = e^{2(l - c)}, real and negative on the shifted
    branch, 4 sinh^2(l_i - l_j) = (w_i - w_j)^2 / (w_i w_j).  Roots of one
    branch with |sinh(l_i - l_j)| < 1e-13 are a PoleError."""
    x = roots.x
    w = np.array(x)
    w -= (max(x) + min(x)) / 2
    w += w
    np.exp(w, out=w)
    if -1 in roots.parities:
        np.negative(w, out=w, where=roots.shifted)
    q = np.subtract.outer(w, w)
    q *= q
    q /= np.multiply.outer(w, w)  # 4 sinh^2
    np.fill_diagonal(q, np.inf)
    if np.abs(q).min() < 4e-26:
        raise PoleError("coincident roots in norm prefactor")
    np.divide(4 * s2, q, out=q)
    return np.log1p(q, out=q).sum() / 2


def log_gaudin_norm(roots):
    """(sign, log|<N|N>|) of the Gaudin norm: with phi' = i G,
    sinh(eta)^N prod_{i != j} [sinh(l_i - l_j + eta)/sinh(l_i - l_j)] det(phi')
    = (-sin gamma)^N prod_{i<j} (1 + sin^2 gamma / sinh^2(l_i - l_j)) det G,
    a positive product (_pair_log_sum) and the slogdet of G, finite far
    past the double range of the norm itself.  The sign is a unit complex
    number for complex mu, as for np.linalg.slogdet."""
    _check_bethe(roots)
    N = roots.N
    if N == 0:
        return 1.0, 0.0
    s = math.sin(roots.gamma.gamma)
    if not s:  # gamma = 0: sinh(eta)^N = 0
        return 0.0, -math.inf
    pairs = _pair_log_sum(roots, s * s)
    sign, logdet = np.linalg.slogdet(_phi_prime(roots))
    return (-1) ** N * sign, N * math.log(s) + pairs + logdet


def gaudin_norm(roots) -> complex:
    """<N|N> = sinh(eta)^N prod_{i != j} [sinh(l_i - l_j + eta)/sinh(l_i - l_j)] det(phi'),
    the exponential of log_gaudin_norm, non-finite where its modulus
    exceeds the double range.

    This is the unconjugated pairing of the Bethe state with its dual; for
    real ground-state roots it carries the sign (-1)^N.
    """
    sign, log_abs = log_gaudin_norm(roots)
    try:
        return complex(sign * math.exp(log_abs))
    except OverflowError:
        return complex(sign * math.inf)


def _by_entry(f, z):
    """(f(z), poles) for an array z: poles marks the entries at which f
    raises PoleError, and they read 0.  One call on the whole array unless
    some entry raises; then one call per entry."""
    try:
        return f(z), np.zeros(z.shape, dtype=bool)
    except PoleError:
        pass
    vals, poles = np.zeros(z.shape, dtype=complex), np.zeros(z.shape, dtype=bool)
    for i, x in np.ndenumerate(z):
        try:
            vals[i] = f(x)
        except PoleError:
            poles[i] = True
    return vals, poles


def _g_tables(lams_ext, N, mu, gamma):
    """The factors of g_coefficient over the extended rapidity list, each a
    table with the mask of its poles: d(lam_i), the c-weights
    c(lam_i - lam_{N+l} + eta/2) at [i, l] and the ratios
    sinh(lam_i - lam_k + eta)/sinh(lam_i - lam_k) at [i, k].  A pole is an
    error only where a tuple reads it (_g_products)."""
    gamma = algebra._aniso(gamma)
    eta = gamma.eta
    ext = np.asarray(lams_ext, dtype=complex)
    d = _by_entry(lambda z: algebra.d_eigenvalue(z, mu, gamma), ext)
    c = _by_entry(lambda z: algebra.boltzmann_weights(z, gamma)[2],
                  ext[:, None] - ext[N:] + eta / 2)
    s = np.sinh(ext[:, None] - ext)
    pole = np.abs(s) < 1e-14
    return d, c, (np.sinh(ext[:, None] - ext + eta) / np.where(pole, 1.0, s), pole)


def _g_products(tuples, tables, N):
    """g_coefficient of each row of a (B, n) stack of index tuples, read from
    the _g_tables of their extended list: the l-th factor (1-based) is
    d(lam_{i_l}) c(lam_{i_l} - lam_{N+l} + eta/2) times the ratios against
    every entry k < N + l other than i_1 .. i_l.  A tuple with a repeated or
    out-of-range index is a ValueError, and a pole that a tuple reads a
    PoleError, in the order of the factors."""
    (d, d_pole), (c, c_pole), (ratio, r_pole) = tables
    T = np.asarray(tuples, dtype=int).reshape(len(tuples), -1)
    B, n = T.shape
    if (np.diff(np.sort(T, axis=1), axis=1) == 0).any():
        raise ValueError("indices must be pairwise distinct")
    rows, k = np.arange(B), np.arange(len(d))
    free = np.ones((B, len(d)), dtype=bool)  # the entries no factor has taken yet
    out = np.ones(B, dtype=complex)
    for l in range(n):
        i = T[:, l]
        bad = (i < 0) | (i > N + l)
        if bad.any():
            raise ValueError(f"index {i[bad][0]} out of range for factor {l + 1}")
        free[rows, i] = False
        bad = d_pole[i] | c_pole[i, l]
        if bad.any():
            raise PoleError(f"weights singular at rapidity {i[bad][0]} in expansion coefficient")
        used = free & (k < N + l + 1)
        hit = r_pole[i] & used
        if hit.any():
            b, kk = np.argwhere(hit)[0]
            raise PoleError(f"coincident rapidities {i[b]} and {kk} in expansion coefficient")
        out *= d[i] * c[i, l] * np.prod(np.where(used, ratio[i], 1.0), axis=1)
    return out


def g_coefficient(indices, lams_ext, N, mu, gamma) -> complex:
    """Expansion coefficient of the D-product action over B-states.

    indices is the 0-based ordered tuple (i_1 .. i_n) into the extended
    rapidity list lams_ext of length N + n; the l-th factor carries
    d(lam_{i_l}) c(lam_{i_l} - lam_{N+l} + eta/2) and inverse b-weights
    against all non-excluded entries up to position N + l.  One tuple read
    from the tables of _g_tables, which d_action_check shares over all its
    tuples.
    """
    indices = tuple(indices)
    if len(lams_ext) != N + len(indices):
        raise ValueError(f"extended rapidity list must have length {N + len(indices)}")
    return complex(_g_products([indices], _g_tables(lams_ext, N, mu, gamma), N)[0])


def d_action_check(lams, extra, spec, gamma) -> float:
    """Max-norm discrepancy of the D-product expansion identity:
    prod_j D(extra_j) prod_k B(lam_k)|up> against the coefficient sum over
    B-states with excluded rapidities.  Valid for arbitrary rapidities.
    Every term's coefficient reads one set of _g_tables."""
    gamma = algebra._aniso(gamma)
    lams = np.asarray(lams, dtype=complex)
    extra = np.asarray(extra, dtype=complex)
    N, n = len(lams), len(extra)
    ext = np.concatenate([lams, extra])
    # ordered tuples of distinct indices with i_l <= N + l (0-based l)
    tuples = [t for t in itertools.permutations(range(N + n), n)
              if all(i <= N + l for l, i in enumerate(t))]
    tuples = np.array(tuples, dtype=int).reshape(len(tuples), n)
    coeffs = _g_products(tuples, _g_tables(ext, N, spec.mu, gamma), N)
    # the B-state of lams and of every term's remaining rapidities, one stack
    keep = np.ones((len(tuples), N + n), dtype=bool)
    keep[np.arange(len(tuples))[:, None], tuples] = False
    rests = np.broadcast_to(ext, keep.shape)[keep].reshape(len(tuples), N)
    states = algebra.bethe_state(np.concatenate([lams[None], rests]), spec, gamma)
    lhs = states[0]
    for z in extra:
        lhs = algebra.monodromy_apply(z, spec, gamma, lhs, "D")
    rhs = coeffs @ states[1:]
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-30)
    return float(np.max(np.abs(lhs - rhs)) / scale)


def psi_phi_rows(roots, mu_window) -> np.ndarray:
    """The n x N block of window rows R(lam; w_i) of window_dd_rows, each
    column a one-column window of the stack, multiplied by the inverse of
    phi', obtained from one linear solve.  The complementary rows are exact
    Kronecker rows by construction."""
    windows = np.reshape(mu_window, (-1, 1))
    rows = window_dd_rows(roots.values, windows, roots.gamma.eta)[0][:, 0]
    return _solve_phi_prime(roots, rows)


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
    Returns (rows, prefactor) with rows of shape (n, len(lams)).  A (K, n)
    stack of windows gives (K, n, len(lams)) rows and K prefactors, each
    window by the same arithmetic as alone.
    """
    lams = np.asarray(lams, dtype=complex)
    w = np.asarray(mu_window, dtype=complex)
    stack = np.atleast_2d(w)
    slot = np.arange(stack.shape[-1])
    # the sum over the count and np.nonzero give np.mean and np.triu_indices
    # bit for bit, at about 1/2 and 1/7 of their call overhead
    wbar = stack.sum(axis=-1, keepdims=True) / len(slot)
    v = stack - wbar
    u = np.exp(2 * v)[..., None]
    power = slot[:, None]
    rows = np.zeros(v.shape + lams.shape, dtype=complex)
    for sign in (-1, 1):  # a_- enters with +, a_+ with -
        s = (lams - wbar + sign * eta / 2)[:, None, :]
        flip = s.real > 0
        t = np.exp(np.where(flip, -2 * s, 2 * s))  # b where flipped, else a
        fac = np.where(flip, 1 - u * t, t - u)
        if fac.size and np.min(np.abs(fac)) < 1e-14:
            raise PoleError("window column coincides with a shifted root")
        num = np.where(flip, t**power, t)
        num[:, 0] = np.where(flip, u[:, :1] * t, t)[:, 0]  # drop the 2 that both coths share
        rows -= sign * 2 * num / np.cumprod(fac, axis=1)
    l, m = np.nonzero(slot[:, None] < slot)
    pref = np.prod(-2 * np.exp(v[:, l] + v[:, m]), axis=-1)
    return (rows, pref) if w.ndim == 2 else (rows[0], pref[0])


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
# of _node_tables, one set per node set (the inverse pair table from n = 4
# on, the node exponentials below that), and the slot table of _slot_table,
# one per window.

_CHUNK = 8192  # sampled tuples per batched evaluation of H; bounds the (n, B) stacks
_STACK = 2**14  # window-stack entries per n >= 4 node-sum intermediate; 256 KiB complex
_PANEL = 32  # node rows per block of a pair or Cauchy table; 128 KiB complex at P = 256


def _slot_table(z, w, g):
    """Slot table F[l, p] = f_l(z_p) over the nodes z for the window w; a
    (K, n) stack of windows gives a (K, n, P) stack of tables, each window
    by the same arithmetic as alone."""
    w = np.asarray(w)
    slot = np.arange(w.shape[-1])
    shift = np.where(slot[None, :] < slot[:, None], -0.5j * g, 0.5j * g)  # [l, m]
    s = np.sinh(z - w[..., None, :, None] + shift[:, :, None])
    s[..., slot, slot, :] = 1.0
    return s.prod(axis=-2)


def _pair_table(z, g):
    """Pair table D[a, b] = sinh(z_b - z_a - i g) over the nodes z, from
    their exponentials v = e^{z - c}, c the midrange of Re z, in one array
    filled a block of _PANEL rows at a time (_sinh_pairs)."""
    v, = algebra._exp_tables(0.5 * z)
    D = np.empty((len(v), len(v)), dtype=complex)
    for r0 in range(0, len(v), _PANEL):
        _sinh_pairs(v, g, r0, D[r0 : r0 + _PANEL])
    return D


def _sinh_pairs(v, g, r0, out):
    """Rows r0 .. r0 + len(out) of the pair table from the node exponentials
    v, written into out: D is (X - 1/X) / 2 with X = e^{-i g} v_b / v_a, two
    outer products in place of complex sinh, finite while Re z spans less
    than about 1400."""
    ph = np.exp(-0.5j * g)
    va = v[r0 : r0 + len(out)]
    np.multiply.outer(0.5 * ph / va, ph * v, out=out)  # e^{z_b - z_a - i g} / 2
    out -= np.multiply.outer(0.5 * va / ph, 1 / (ph * v))
    return out


def _inverse_pairs(D, r0=0):
    """E = 1/D, in place, over the rows r0 .. r0 + len(D) of a pair table,
    with 0 on the diagonal: the pair factors of _node_sum and _h_tuples.
    An off-diagonal |E| above 1e14, two nodes i gamma apart, is a
    PoleError.  The check reads the parts of E, and squares them only when
    a part exceeds 7e13, below 1e14 / sqrt 2; a NaN fails it too."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        E = np.divide(1.0, D, out=D)
    i = np.arange(len(E))
    E[i, r0 + i] = 0.0
    if not _bounded(E, 7e13):
        with np.errstate(over="ignore", invalid="ignore"):
            sq = E.real**2
            sq += E.imag**2
        if not np.all(sq <= 1e28):
            raise PoleError("coincident rapidities shifted by i*gamma")
    return E


def _bounded(A, bound):
    """Whether every real and imaginary part of A lies in [-bound, bound],
    read without a copy; a NaN does not."""
    parts = A.view(float) if A.dtype == complex else A
    return not parts.size or (-bound <= parts.min() and parts.max() <= bound)


def _node_tables(z, g, n):
    """The tables of _node_sum over the nodes z at window length n, built
    once per node set: None for one slot, which has no pairs; from n = 4 on
    the inverse pair table E of _inverse_pairs; at n = 2 and 3 only
    (g, v, u), v = e^{z - c} as in _pair_table and u = v^2, from which the
    node sum builds its tables a block of rows at a time.  u is real when
    every node lies on the real line or on Im = pi/2, where the exact u is."""
    if n < 2:
        return None
    if n > 3:
        return _inverse_pairs(_pair_table(z, g))
    v, = algebra._exp_tables(0.5 * z)
    u = v * v
    im = np.imag(z)
    if np.all((im == 0) | (im == np.pi / 2)):
        u = u.real  # the imaginary part on Im = pi/2 is e^{i pi} rounded
    return g, v, u


def _cauchy_rows(g, v, u, r0, U, L, Q):
    """Rows r0 .. r0 + len(U) of U and e^{i g} Q, the tables of the n = 3
    node sum, written into the blocks U and Q (and L, real with u), all 0
    on the diagonal: U[a, b] = 2 u_a K[a, b] with the Cauchy core
    K[a, b] = 1 / (e^{-2 i g} u_b - u_a), so that T[a, b] =
    coth(z_b - z_a - i g) = 1 + U[a, b], and Q = e^{-i g} U L, entry by
    entry, with the real core L[a, b] = 2 u_b / (u_a - u_b): since
    E[a, b] = e^{-i g} U[a, b] v_b / v_a and 1/sinh(z_a - z_b) =
    L[a, b] v_a / v_b, Q[a, b] = E[a, b] / sinh(z_a - z_b).  U and L stay
    bounded off the poles, and a pole shows in them: |E| > 1e14, two nodes
    i g apart, needs |U| > 1e10, and a part of 1/sinh(z_a - z_b) beyond
    1e14, two nodes closer than about 1e-14 or i pi apart, needs |L| > 1e10
    (where |u_b / u_a| exceeds 1e8, or its inverse, that entry is below
    2e-4).  So only a block with a part past 7e9 is checked entry by entry,
    and each such pole is a PoleError."""
    r1 = r0 + len(U)
    ua, i = u[r0:r1], np.arange(len(U))
    np.subtract.outer(ua, np.exp(-2j * g) * u, out=U)
    np.subtract.outer(ua, u, out=L)
    L[i, r0 + i] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # poles, checked below
        np.divide((-2 * ua)[:, None], U, out=U)
        np.divide(2 * u, L, out=L)
    U[i, r0 + i] = L[i, r0 + i] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        if not (_bounded(U, 7e9) or np.all(np.abs(U) * np.abs(v / v[r0:r1, None]) <= 1e14)):
            raise PoleError("coincident rapidities shifted by i*gamma")
        if not (_bounded(L, 7e9) or _bounded(L * (v[r0:r1, None] / v), 1e14)):
            raise PoleError("coincident nodes: the partial fractions divide by sinh(z_a - z_b)")
    if L.dtype == complex:
        return U, np.multiply(U, L, out=Q)
    np.multiply(U.view(float).reshape(L.shape + (2,)), L[..., None],
                out=Q.view(float).reshape(L.shape + (2,)))  # both parts times L
    return U, Q


def _batched_det(column, n, minors=None):
    """det A for a stack of n x n matrices given column by column: column(j)
    is the (n, B) stack of column j, asked for once, and may reuse one buffer.
    Up to n = 6 a Laplace expansion over row subsets, last column first: the
    minors on the last k columns, one per k-subset of the rows, take
    n 2^(n-1) vector products in all and no LAPACK call per matrix, each
    minor formed in place in row r of `minors` (2^n + 1 rows, the last for
    the products; made here if None), r the bit set of its rows.  Above
    n = 6 that count outgrows one LU per matrix, and np.linalg.det takes
    over."""
    if n > 6:
        return np.linalg.det(np.stack([column(j).copy() for j in range(n)], axis=-1).swapaxes(0, 1))
    for j in range(n - 1, -1, -1):
        col = column(j)
        if j == n - 1:  # the empty minor, 1
            minors = np.empty((2**n + 1,) + col.shape[1:], col.dtype) if minors is None else minors
            minors[0] = 1.0
        for rows in itertools.combinations(range(n), n - j):
            # expand along column j, the first column of the minor
            key = sum(1 << r for r in rows)
            acc = minors[key]
            for t, r in enumerate(rows):
                term = np.multiply(col[r], minors[key ^ (1 << r)], out=minors[-1] if t else acc)
                if t:
                    (np.subtract if t % 2 else np.add)(acc, term, out=acc)
    return minors[2**n - 1]


def _tuple_work(n, size, dtype=float):
    """The buffers of _h_tuples for `size` tuples of n slots: a flat index, the
    product and gather rows, and the columns and minors (none above n = 6)."""
    return (np.empty(size, np.intp), np.empty((2, size), complex), np.empty((n, size), dtype),
            np.empty((2**n + 1 if n <= 6 else 0, size), dtype))


def _h_tuples(idx, RW, F, E, work=None):
    """prod_l weight[a_l] * H at each node tuple a = idx[:, b] of an (n, B) index
    stack, with the rows folded with the weights, RW[i, p] = R_i(z_p) weight[p]
    (det is linear in each column), the slot table F of _slot_table and the
    inverse pair table E of _inverse_pairs.
    A tuple with a repeated index is exactly 0, since diag(E) = 0.  Gathers and
    products go into `work` (_tuple_work; made if None), a view of which is returned."""
    n, P = F.shape
    b = idx.shape[1]
    flat, (h, buf), col, minors = (a[..., :b] for a in work or _tuple_work(n, b, RW.dtype))
    h[...] = _batched_det(lambda j: RW.take(idx[j], axis=1, mode="clip", out=col), n, minors)
    # times F[l, a_l] and E[a_l, a_m], l < m, each gathered at base * P + offset
    factors = [(F, l, a) for l, a in enumerate(idx)]
    factors += [(E, idx[l], idx[m]) for l, m in itertools.combinations(range(n), 2)]
    for T, base, offset in factors:
        np.multiply(base, P, out=flat)
        np.add(flat, offset, out=flat)
        h *= T.take(flat, mode="clip", out=buf)
    return h


def _node_sum(weight, R, F, tables):
    """sum over ordered node tuples a of prod_l weight[a_l] * H(z_a1..z_an),
    from the rows R[i, p] = R_i(z_p), the window's slot table F of
    _slot_table and the node set's tables of _node_tables.

    Leibniz expansion of the determinant: each permutation sigma weights
    slot l by G_l = weight * R_sigma(l) * f_l, and the sum over sigma of a
    product of per-slot vectors is, node by node, a determinant of the
    stacks X_l[p, i] = weight_p f_l(z_p) R_i(z_p) (_node_sum_small).  At
    n <= 3 the pair factors enter as matrix products with tables built a
    block of _PANEL rows at a time, O(P^2) work and O(P) memory besides the
    block.  From n = 4 on each permutation contracts its G_l over the
    complete graph of E = 1/D (_eliminate): O(n P^n) work, P^(n-1) memory.

    A (K, n, P) stack of rows and of slot tables, one per window of the same
    nodes, gives the K sums from one contraction: every product is a stacked
    matmul, which hands each window the BLAS call, and the bits, of the
    window alone.
    """
    n, P = F.shape[-2:]
    if n <= 3:
        return _node_sum_small(weight, R, F, tables)
    if P ** (n - 1) > 2**24:  # 256 MiB per complex intermediate
        raise ValueError(f"exact node sum: {P}^{n - 1} entries per intermediate exceed 2^24")
    E = tables
    G = weight * R[..., :, None, :] * F[..., None, :, :]  # G[k, l] = weight * R_k * f_l
    if G.ndim == 4:
        G = np.moveaxis(G, 0, 2)  # G[k, l] is the (K, P) stack of the windows
    # kr[l + 1] ties slot l to the slots after it: the row-wise Khatri-Rao
    # product of l copies of E, and one phantom row of ones for l = 0 and
    # for slot -1
    kr = [np.ones((1, P))] * 2 + [E]
    for _ in range(3, n):
        kr.append((kr[-1][:, None, :] * E).reshape(-1, P))
    return _eliminate(n - 1, None, list(range(n)), G, kr, E)


def _node_sum_small(weight, R, F, tables):
    """_node_sum at n <= 3, where the pair factors enter as products with
    tables built a block of _PANEL rows at a time.  n = 1 is the sum of
    X_0, and n = 2 the sum over the nodes of det[X_0, E X_1].

    n = 3: fix sigma and write g = G_2.  The partial fractions
    1/(sinh A sinh B) = (coth A - coth B) / sinh(B - A) give
    E[a, b] sum_c g_c E[a, c] E[b, c] = Q[a, b] (g_a T[b, a] + h_a - g_b T[a, b] - h_b)
    with h = T g, T = coth(z_b - z_a - i gamma) and Q = E / sinh(z_a - z_b),
    all 0 on the diagonal.  The first and third terms put two slots'
    weights on one node and cancel in the sum over sigma, which leaves
        S = sum_a det[X_0, Q X_1, T X_2](a) - sum_b det[Q^T X_0, X_1, T X_2](b).
    Each block of rows (_cauchy_rows) adds its rows of (T - J) X_2 and
    Q X_1, J the all-ones matrix, and its share of Q^T X_0.  Q is taken
    entry by entry, not as (i / sin gamma)(T + coth(z_a - z_b)), whose two
    terms near +-1 cancel between far nodes: that form read up to 2.5e-13
    from an 80-bit sum of the same rows at M = 6, and thermodynamic values
    moved by 8e-14 with it, 6.5e-15 with Q."""
    n, P = F.shape[-2:]
    # X[..., p, l, i] = weight_p f_l(z_p) R_i(z_p), one C-ordered array
    X = np.empty(F.shape[:-2] + (P, n, n), dtype=complex)
    np.multiply((weight * F).swapaxes(-1, -2)[..., None], R.swapaxes(-1, -2)[..., None, :], out=X)
    X0 = X[..., 0, :]
    if n == 1:
        return X0[..., 0].sum(axis=-1)
    g, v, u = tables
    if n == 2:
        X1, EX1 = X[..., 1, :], np.empty(X0.shape, dtype=complex)
        block = np.empty((min(P, _PANEL), P), dtype=complex)
        for r0 in range(0, P, _PANEL):
            E = _inverse_pairs(_sinh_pairs(v, g, r0, block[: P - r0]), r0)
            np.matmul(E, X1, out=EX1[..., r0 : r0 + len(E), :])
        return (X0[..., 0] * EX1[..., 1] - X0[..., 1] * EX1[..., 0]).sum(axis=-1)
    X1, X2 = X[..., 1, :], X[..., 2, :]
    TX2, QX1 = np.empty(X0.shape, dtype=complex), np.empty(X0.shape, dtype=complex)
    QtX0 = 0.0
    U, Q = np.empty((2, min(P, _PANEL), P), dtype=complex)
    L = np.empty(U.shape, dtype=u.dtype)
    for r0 in range(0, P, _PANEL):
        r1 = min(r0 + _PANEL, P)
        U, Q = _cauchy_rows(g, v, u, r0, U[: r1 - r0], L[: r1 - r0], Q[: r1 - r0])
        np.matmul(U, X2, out=TX2[..., r0:r1, :])
        np.matmul(Q, X1, out=QX1[..., r0:r1, :])
        QtX0 = QtX0 + Q.T @ X0[..., r0:r1, :]
    TX2 += (np.ones(P) @ X2)[..., None, :] - X2  # a product, which sums each window alike
    terms = _triple(X0, QX1, TX2) - _triple(QtX0, X1, TX2)
    terms *= np.exp(-1j * g)  # before the sum: scalar and array products may round apart
    return terms.sum(axis=-1)


def _triple(x, y, z):
    """det[x, y, z] of the 3-vectors along the last axis, x . (y x z)."""
    return (x[..., 0] * (y[..., 1] * z[..., 2] - y[..., 2] * z[..., 1])
            + x[..., 1] * (y[..., 2] * z[..., 0] - y[..., 0] * z[..., 2])
            + x[..., 2] * (y[..., 0] * z[..., 1] - y[..., 1] * z[..., 0]))


def _couple(c, V, stacked):
    """c * V over the last node axis: the intermediate V coupled to the slot
    before it by the Khatri-Rao table c."""
    return c * (V.reshape(len(V), -1, c.shape[-1]) if stacked else V.reshape(-1, c.shape[-1]))


def _eliminate(m, W, left, G, kr, E):
    """The recursion of _node_sum from n = 4 on: the rows `left` go to slots
    0..m, and W is kr[m + 1] * V_{m+1}, the intermediate of the slots after
    m coupled to slot m (None at m = n - 1, where the first elimination
    contracts the last slot's weights against E).  Each V_m is coupled
    once, for every row that can take slot m - 1.  It takes its tables as
    arguments and holds no reference to itself: a nested recursive
    function would sit in a reference cycle with G and kr, which then wait
    for the cyclic collector.  A stack of windows carries W as (K, rows, P)."""
    if not left:
        return W.item() if G.ndim == 3 else W.reshape(-1)
    stacked = G.ndim == 4
    total = 0
    for j, k in enumerate(left):
        g = G[k, m]
        if W is None:
            V = (kr[m] * g[..., None, :]) @ E.T
        else:
            V = W @ g[..., :, None] if stacked else W @ g
        if m:
            V = _couple(kr[m], V, stacked)
        total += (-1) ** (len(left) - 1 - j) * _eliminate(
            m - 1, V, left[:j] + left[j + 1:], G, kr, E)
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


def _efp_offsets(roots, n, ks):
    """Complex EFP of the windows k+1..k+n at the offsets ks of one root set:
    the node sum of the separable integrand H over the Bethe roots, with unit
    weights and the divided-difference window rows (window_dd_rows) solved
    against phi'^T, times the window prefactor in that basis.  phi', shared
    by the root set's consumers, is solved once against the rows of every
    window, and the node tables are built once.  At n <= 3 all windows go
    to the node sum as one (K, n, N) stack, whose intermediates are O(K N)
    and which shares every block of the pair and Cauchy tables.  From
    n = 4 on they go as stacks of at most _STACK intermediate entries; a
    window alone, or windows whose intermediates exceed half of _STACK, go
    one by one as 2-D tables, since larger stacks leave the cache.  Each
    way gives each window the same bits."""
    _check_bethe(roots)
    K, N = len(ks), roots.N
    if n == 0:
        return np.ones(K, dtype=complex)
    if n > N:
        return np.zeros(K, dtype=complex)
    lams, g = roots.values, roots.gamma.gamma
    windows = np.array([roots.mu[k : k + n] for k in ks], dtype=complex)
    rows, pref = window_dd_rows(lams, windows, roots.gamma.eta)
    rows = _solve_phi_prime(roots, rows.reshape(K * n, N)).reshape(K, n, N)
    F = _slot_table(lams, windows, g)
    tables = _node_tables(lams, g, n)
    weight = np.ones(N)
    if n <= 3:
        return pref * _node_sum(weight, rows, F, tables)
    step = _STACK // N ** (n - 1)
    if K == 1 or step < 2:
        return pref * np.array([_node_sum(weight, r, f, tables) for r, f in zip(rows, F)])
    return pref * np.concatenate([_node_sum(weight, rows[i : i + step], F[i : i + step], tables)
                                  for i in range(0, K, step)])


def _real_parts(vals):
    """The real parts of EFP values, with a warning when an imaginary residue
    exceeds 1e-6 of scale (the largest such residue is logged)."""
    bad = [v.imag for v in vals.tolist() if abs(v.imag) > 1e-6 * (1 + abs(v.real))]
    if bad:
        logger.warning("EFP imaginary residue %.2e exceeds 1e-6 of scale", max(bad, key=abs))
    return vals.real


def efp_finite(req_or_roots, k=None, n=None, return_complex=False):
    """Finite-size EFP of columns k+1..k+n via the determinant path: the
    one-offset case of efp_profile.  Coincident columns (a homogeneous
    window) take the same path as distinct ones.  The node sum costs
    O(N^2) for N roots at n <= 3 and O(n N^n) above.
    """
    req = req_or_roots if isinstance(req_or_roots, EfpRequest) else EfpRequest(k, n, req_or_roots)
    vals = _efp_offsets(req.roots, req.n, [req.k])
    return complex(vals[0]) if return_complex else float(_real_parts(vals)[0])


def efp_profile(roots, n, return_complex=False):
    """EFP of the windows k+1..k+n at every offset k = 0..M-n, as an array
    indexed by k, each entry equal to efp_finite(roots, k, n).  The offsets
    share one solve of phi'^T against all their window rows and one pair
    table, so a profile costs one phi' factorization and one node sum over
    the stack of its windows.  n = 0 gives ones and n > N zeros; n outside 0..M is a ValueError.
    """
    M = len(roots.mu)
    if not 0 <= n <= M:
        raise ValueError(f"window length must lie in 0..{M}, got n={n}")
    vals = _efp_offsets(roots, n, range(M - n + 1))
    return vals if return_complex else _real_parts(vals)
