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
# of _node_tables (the inverse pair table, and at n = 3 the tables of its
# partial fractions), one set per node set, and the slot table of
# _slot_table, one per window.

_CHUNK = 8192  # sampled tuples per batched evaluation of H; bounds the (n, B) stacks
_STACK = 2**14  # window-stack entries per node-sum intermediate; 256 KiB complex


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
    their exponentials v = e^{z - c}, c the midrange of Re z (_sinh_pairs)."""
    v, = algebra._exp_tables(0.5 * z)  # e^{2(z/2 - c/2)} = e^{z - c}
    return _sinh_pairs(v, g)


def _sinh_pairs(v, g):
    """The pair table from the node exponentials v: D is (X - 1/X) / 2 with
    X = e^{-i g} v_b / v_a, two outer products in place of P^2 complex
    sinh, finite while Re z spans less than about 1400."""
    ph = np.exp(-0.5j * g)
    half = np.outer(0.5 * ph / v, ph * v)  # e^{z_b - z_a - i g} / 2
    # a new table, not an in-place update of `half`: the in-place form left
    # the heap so that a later 512-point density solve peaked about 1 MB higher
    return half - np.outer(0.5 * v / ph, 1 / (ph * v))


def _inverse_pairs(D):
    """E = 1/D off the diagonal and 0 on it, the pair factors of _node_sum
    and _h_tuples.  An off-diagonal |D| below 1e-14, two nodes i gamma
    apart, is a PoleError.  The check reads the parts of E, and squares D
    only when a part exceeds 7e13, below 1e14 / sqrt 2, where |E| may pass
    1e14; a square past the double range is inf, and clears it without a
    warning."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        E = 1.0 / D
    np.fill_diagonal(E, 0.0)
    parts = E.view(float)  # real and imaginary parts, read without a copy
    if E.size and not (-7e13 <= parts.min() and parts.max() <= 7e13):  # NaN fails too
        with np.errstate(over="ignore"):
            sq = D.real**2
            sq += D.imag**2
        np.fill_diagonal(sq, np.inf)
        if sq.min() < 1e-28:
            raise PoleError("coincident rapidities shifted by i*gamma")
    return E


def _node_tables(z, g, n):
    """(E, T, Q), the tables of _node_sum over the nodes z at window length
    n, built once per node set: the inverse pair table E of _inverse_pairs,
    and None for one slot, which has no pairs.  At n = 3 the partial
    fractions of the first elimination read T[a, b] = coth(z_b - z_a - i g)
    and Q[a, b] = E[a, b] / sinh(z_a - z_b) instead, both 0 on the diagonal,
    and E is not kept: three P x P tables would be live where the node sum
    needs two.  With v = e^{z - c} as in _pair_table, T is
    1 + E[a, b] e^{i g} v_a / v_b and 1/sinh(z_a - z_b) is
    2 v_a v_b / (v_a^2 - v_b^2), each built in place in one new array: no
    complex sinh or cosh, finite while Re z spans less than about 700.  At
    n = 3 a part of 1/sinh(z_a - z_b) beyond 1e14 off the diagonal, two
    nodes i pi apart or closer than about 1e-14, is a PoleError."""
    if n < 2:
        return None, None, None
    v, = algebra._exp_tables(0.5 * z)
    E = _inverse_pairs(_sinh_pairs(v, g))
    if n != 3:
        return E, None, None
    ph = np.exp(0.5j * g)
    T = E * (ph * v)[:, None]
    T *= ph / v  # e^{-(z_b - z_a - i g)} E = coth - 1
    T += 1.0
    np.fill_diagonal(T, 0.0)
    u = v * v
    Q = np.subtract.outer(u, u)  # 2 v_a v_b sinh(z_a - z_b)
    np.fill_diagonal(Q, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # coincident nodes, checked below
        np.divide(2.0, Q, out=Q)
    np.fill_diagonal(Q, 0.0)
    Q *= v[:, None]
    Q *= v
    parts = Q.view(float)  # real and imaginary parts, read without a copy
    if Q.size and not (-1e14 <= parts.min() and parts.max() <= 1e14):  # NaN fails too
        raise PoleError("coincident nodes: the partial fractions divide by sinh(z_a - z_b)")
    Q *= E
    return None, T, Q


def _batched_det(cols):
    """det A for a stack of n x n matrices given column by column: cols[j] is
    the (n, B) stack of column j.  Up to n = 6 a Laplace expansion over row
    subsets, last column first: the minors on the last k columns, one per
    k-subset of the rows, take n 2^(n-1) vector products in all and no LAPACK
    call per matrix.  Above n = 6 that count outgrows one LU per matrix, and
    np.linalg.det takes over."""
    n = len(cols)
    if n > 6:
        return np.linalg.det(np.stack(cols, axis=-1).swapaxes(0, 1))
    minors = {(): 1.0}  # row subset -> its minor on the columns done so far
    for j in range(n - 1, -1, -1):
        new = {}
        for rows in itertools.combinations(range(n), n - j):
            # expand along column j, the first column of the minor
            acc = cols[j][rows[0]] * minors[rows[1:]]
            for t in range(1, len(rows)):
                term = cols[j][rows[t]] * minors[rows[:t] + rows[t + 1:]]
                acc = acc - term if t % 2 else acc + term
            new[rows] = acc
        minors = new
    return minors[tuple(range(n))]


def _h_tuples(idx, RW, F, E):
    """prod_l weight[a_l] * H at each node tuple a = idx[:, b] of an (n, B) index
    stack, with the rows folded with the weights, RW[i, p] = R_i(z_p) weight[p]
    (det is linear in each column), the slot table F of _slot_table and the
    inverse pair table E of _inverse_pairs.
    A tuple with a repeated index is exactly 0, since diag(E) = 0."""
    n, P = F.shape
    r = np.arange(n)
    l, m = np.nonzero(r[:, None] < r)  # np.triu_indices(n, 1) at 1/7 of its call overhead
    pair = np.prod(E.take(idx[l] * P + idx[m]), axis=0)
    det = _batched_det([RW.take(a, axis=1) for a in idx])
    slots = np.prod(F.take(r[:, None] * P + idx), axis=0)
    return det * slots * pair


def _node_sum(weight, R, F, tables):
    """sum over ordered node tuples a of prod_l weight[a_l] * H(z_a1..z_an),
    from the rows R[i, p] = R_i(z_p), the window's slot table F of
    _slot_table and the node set's tables (E, T, Q) of _node_tables.

    Leibniz expansion of the determinant: each permutation sigma contracts
    G_l = weight * R_sigma(l) * f_l over the complete graph of E = 1/D, last
    slot first, with one BLAS product for the first elimination and each
    intermediate computed once per suffix of sigma.  O(n P^n) work, P^(n-1)
    memory for P nodes; diag(E) = 0 drops repeated-index tuples exactly.
    At n = 3 the first elimination takes partial fractions in place of the
    product (_first_elimination), and the sum costs O(P^2).

    A (K, n, P) stack of rows and of slot tables, one per window of the same
    nodes, gives the K sums from one contraction: every product is a stacked
    matmul, which hands each window the BLAS call, and the bits, of the
    window alone.  One window keeps the 2-D products.
    """
    n, P = F.shape[-2:]
    if P ** (n - 1) > 2**24:  # 256 MiB per complex intermediate
        raise ValueError(f"exact node sum: {P}^{n - 1} entries per intermediate exceed 2^24")
    E, T, Q = tables
    G = weight * R[..., :, None, :] * F[..., None, :, :]  # G[k, l] = weight * R_k * f_l
    if G.ndim == 4:
        G = np.moveaxis(G, 0, 2)  # G[k, l] is the (K, P) stack of the windows
    # kr[l + 1] ties slot l to the slots after it: the row-wise Khatri-Rao
    # product of l copies of E, and one phantom row of ones for l = 0 and
    # for slot -1
    kr = [np.ones((1, P))] * min(n, 2) + [E] * (n > 2)
    for _ in range(3, n):
        kr.append((kr[-1][:, None, :] * E).reshape(-1, P))
    return _eliminate(n - 1, None, list(range(n)), G, kr, kr[0] if E is None else E, (T, Q))


def _first_elimination(g, kr, last, cauchy):
    """kr[n - 1] * V_{n-1}: the first elimination of _node_sum, with weights
    g in slot n - 1 (a (K, P) stack for K windows), coupled to the slots
    before it as _eliminate couples every V (V_0 itself at n = 1);
    last = E (the phantom row at n = 1) and cauchy = (T, Q) of _node_tables.

    At n = 3, V[a, b] = sum_c g_c E[a, c] E[b, c], an O(P^3) product.  The
    partial fractions 1/(sinh A sinh B) = (coth A - coth B) / sinh(B - A),
    with A = z_c - z_a - i gamma and B = z_c - z_b - i gamma, give it in
    O(P^2): E[a, b] V[a, b] = (X[b, a] - X[a, b]) Q[a, b] with
    X[a, b] = g_b T[a, b] + h_b and h = T g.  Since diag(T) = 0, h_b leaves
    out c = b, and g_b T[a, b] puts back the c = b term that h_a left in.
    The numerator is one difference per entry, not four contracted terms,
    which near the diagonal would cancel after the contraction."""
    if len(kr) == 3:
        T, Q = cauchy
        X = T * g[..., None, :]
        X += (T @ g[..., :, None]).swapaxes(-1, -2)  # h as a row
        W = X.swapaxes(-1, -2) - X
        W *= Q
        return W
    V = (kr[-1] * g[..., None, :]) @ last.T
    return V if len(kr) == 1 else _couple(kr[-1], V, g.ndim == 2)


def _couple(c, V, stacked):
    """c * V over the last node axis: the intermediate V coupled to the slot
    before it by the Khatri-Rao table c."""
    return c * (V.reshape(len(V), -1, c.shape[-1]) if stacked else V.reshape(-1, c.shape[-1]))


def _eliminate(m, W, left, G, kr, last, cauchy):
    """The recursion of _node_sum: the rows `left` go to slots 0..m, and W
    is kr[m + 1] * V_{m+1}, the intermediate of the slots after m coupled to
    slot m (None at m = n - 1, where the first elimination starts).  Each
    V_m is coupled once, for every row that can take slot m - 1.  It takes
    its tables as arguments and holds no reference to itself: a nested
    recursive function would sit in a reference cycle with G and kr, which
    then wait for the cyclic collector.  A stack of windows carries W as
    (K, rows, P)."""
    if not left:
        return W.item() if G.ndim == 3 else W.reshape(-1)
    n, stacked = len(kr), G.ndim == 4
    total = 0
    for j, k in enumerate(left):
        if m == n - 1:
            V = _first_elimination(G[k, m], kr, last, cauchy)
        else:
            V = W @ G[k, m, :, :, None] if stacked else W @ G[k, m]
            if m:
                V = _couple(kr[m], V, stacked)
        total += (-1) ** (len(left) - 1 - j) * _eliminate(
            m - 1, V, left[:j] + left[j + 1:], G, kr, last, cauchy)
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
    window, and the pair table is built once.  Several windows go to the
    node sum as (K, n, N) stacks of at most _STACK intermediate entries;
    a window alone, or windows whose intermediates exceed half of _STACK,
    go one by one as 2-D tables, since larger stacks leave the cache.
    Both give each window the same bits."""
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
    O(n N^n) for N roots at every window length n.
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
