"""Independent oracles used by the test suite.

These deliberately avoid the package's operator-algebra code paths: the
partition oracle enumerates lattice arrow configurations directly, the
density oracles are the closed forms of both packed Fermi weights, obtained
by Fourier-transforming the integral equation, and the matrix-derivative
oracle is branch-safe numerical differentiation of the defining logarithms.  The EFP node-sum oracle loops
over rapidity tuples with one determinant and explicit sinh products each,
where the package contracts a factorized integrand.  The finite-size EFP
tuple oracle expands the D-product over B-states instead: one expansion
coefficient and one replaced-rapidity scalar product per ordered tuple of
Bethe roots.  The monodromy oracle multiplies explicit Kronecker-product
embeddings of the 4x4 vertex matrix on the auxiliary-times-spin space.
The Nystrom oracle assembles the full density matrix entry by entry from the
complex kernel K_2 and solves it densely, where the package factorizes only
the occupied block of a real-valued branch kernel.  The divided-difference
oracle runs the recursive definition on the sinh form of the window rows
in 60-digit arithmetic, where the package uses a closed form in
u = e^{2w}; the packed-row oracle runs it on the cosh form of the packed
density, where the package sums Taylor coefficients over column clusters.
The tuple-kernel reference gathers and multiplies into fresh arrays, where
the package writes into one workspace.  The phi' and t' oracles evaluate each entry's coth formula in
40-digit arithmetic, where the package reads all entries from one table of
e^{2z}.  The kernel oracle evaluates K_n from its complex sinh product,
with the pi/2 offset of a crossing difference exact, in 30-digit
arithmetic, where the package takes a real branch form.  The momentum
oracle reads p_n from the phase of sinh(lam + i n g/2) in 30 digits, where
the package takes one arctan of tanh(x) times a branch constant.  The
alternating-sign-matrix oracle is the closed-form XXZ EFP
at Delta = 1/2 in exact integers.  The product-state oracle sweeps one
state at a time on the natural basis, a dual state over the columns from M
to 1, where the package sweeps a dual state on the bit-reversed basis and
stacks it with others; every amplitude takes the same arithmetic, so the
two agree bit for bit.  The first-elimination oracle forms the n = 3
intermediate as the direct product E diag(g) E^T, where the package takes
partial fractions in the eliminated slot and drops the terms that cancel
over the row permutations; the second n = 3 reference keeps all four
partial-fraction terms, entry by entry, and the n = 4 reference takes the
closed-form first elimination in a (P, P, P) array, all from numpy's sinh.
nystrom_profile is no oracle: it reaches the package's Nystrom solve, which
solve_density bypasses on a packed weight.
"""

import math
from functools import lru_cache
from itertools import permutations, product

import mpmath
import numpy as np

from svdwbc import algebra, determinant, thermo
from svdwbc.algebra import l_matrix


def dwbc_partition_enum(row_params, col_params, gamma):
    """Partition function by exhaustive enumeration of edge configurations.

    Boundary conditions in spin language: every horizontal edge entering a
    row from the column-1 side carries spin 1 and leaves the column-M side
    with spin 0; the vertical edges below row M are all 0 (up) and above
    row 1 all 1 (down).  The weight of a vertex in row i, column k is the
    corresponding entry of the 4x4 vertex matrix at rapidity
    row_params[i-1] - col_params[k-1].
    """
    M = len(row_params)
    assert len(col_params) == M
    L = {
        (i, k): l_matrix(row_params[i] - col_params[k], gamma)
        for i in range(M)
        for k in range(M)
    }

    @lru_cache(maxsize=None)
    def row_weight(i, t_in, t_out):
        """Sum over the internal horizontal edges of row i (0-based)."""
        total = 0.0 + 0j
        for h_mid in product((0, 1), repeat=M - 1):
            h = (1,) + h_mid + (0,)
            w = 1.0 + 0j
            for k in range(M):
                w *= L[(i, k)][2 * h[k + 1] + t_out[k], 2 * h[k] + t_in[k]]
                if w == 0:
                    break
            total += w
        return total

    z = 0.0 + 0j
    top = (1,) * M  # all down above row 1
    bottom = (0,) * M  # all up below row M
    for layers in product(product((0, 1), repeat=M), repeat=M - 1):
        t = (top,) + layers + (bottom,)
        w = 1.0 + 0j
        for i in range(M):
            w *= row_weight(i, t[i + 1], t[i])
            if w == 0:
                break
        z += w
    return z


def monodromy_kron(lam, mu, gamma):
    """Dense (A, B, C, D) blocks of T(lam) = L_M ... L_1 on aux x spin space,
    with the auxiliary bit most significant and column 1 the most significant
    spin bit.  Each L_k is the sum over auxiliary entries (a, a') of
    |a><a'| x 1 x L[a, :, a', :] x 1 with the site block at column k."""
    M = len(mu)
    dim = 1 << M
    T = np.eye(2 * dim, dtype=complex)
    for k in range(1, M + 1):
        L = l_matrix(lam - mu[k - 1], gamma).reshape(2, 2, 2, 2)
        Lk = np.zeros_like(T)
        for a in range(2):
            for a2 in range(2):
                unit = np.zeros((2, 2))
                unit[a, a2] = 1.0
                site = np.kron(np.kron(np.eye(1 << (k - 1)), L[a, :, a2, :]), np.eye(dim >> k))
                Lk += np.kron(unit, site)
        T = Lk @ T
    T = T.reshape(2, dim, 2, dim)
    return T[0, :, 0], T[0, :, 1], T[1, :, 0], T[1, :, 1]


def ground_state_density_closed_form(x, gamma):
    """Vacancy density of the packed real branch, from the Fourier transform
    of the integral equation: rho(x) = 1 / (2 gamma cosh(pi x / gamma))."""
    g = float(gamma.gamma) if hasattr(gamma, "gamma") else float(gamma)
    return 1.0 / (2 * g * np.cosh(np.pi * np.asarray(x) / g))


def packed_density_closed_form(x, gamma, mu=None, shifted=False):
    """rho_tot of a packed Fermi weight on the branch it fills, from the
    Fourier transform of the integral equation:
    (1/M) sum_k 1 / (2 d cosh(pi (x - mu_k) / d)) with d = gamma on the real
    branch, and minus that with d = pi - gamma on Im = pi/2."""
    g = float(gamma.gamma) if hasattr(gamma, "gamma") else float(gamma)
    d = np.pi - g if shifted else g
    t = np.pi * np.subtract.outer(np.asarray(x, dtype=float), mu or (0.0,)) / d
    return (-1 if shifted else 1) * np.mean(1.0 / (2 * d * np.cosh(t)), axis=-1)


def nystrom_profile(theta, grid, gamma, mu=None):
    """The package's Nystrom solve of the density equation as a
    DensityProfile, for any theta: solve_density takes the two packed
    weights in closed form, so tests of the solve itself call it here."""
    theta = np.asarray(theta, dtype=float)
    g = gamma.gamma
    rho = thermo._nystrom_solve(theta, grid, g, np.real(thermo._drive(grid.values, mu, g)))
    return thermo.DensityProfile(grid, theta, rho, theta * rho, (1 - theta) * rho, gamma, mu)


def nystrom_dense(theta, grid, gamma, rhs):
    """Solution of the full Nystrom system (I + K_2 diag(theta w)) rho = rhs,
    each entry from the complex kernel K_2 at the difference of two contour
    points."""
    z = grid.values
    n = len(z)
    A = np.eye(n, dtype=complex)
    for i in range(n):
        for j in range(n):
            A[i, j] += thermo.kernel_K(2, z[i] - z[j], gamma) * theta[j] * grid.w[j]
    return np.linalg.solve(A, np.asarray(rhs, dtype=complex))


def transfer_theta_argmin(theta, grid, fine):
    """Nearest-node transfer of a Fermi weight to a refined grid through the
    dense distance matrix, with nodes on the other branch pushed away."""
    dist = np.abs(np.subtract.outer(fine.x, grid.x))
    np.add(dist, 1e9, out=dist, where=np.not_equal.outer(fine.shifted, grid.shifted))
    return np.asarray(theta, dtype=float)[np.argmin(dist, axis=1)]


def varphi_prime_fd(roots, step=1e-6):
    """Finite-difference oracle for the norm-determinant matrix.

    Differentiates the defining logarithms numerically; each log derivative
    is computed as log(term(+h)/term(-h)) / 2h so no branch cut is crossed.
    """
    lams = roots.values
    mu = np.asarray(roots.mu, dtype=complex)
    eta = roots.gamma.eta
    N = len(lams)

    def log_terms(lam, rts):
        yield np.prod([np.sinh(lam - m - eta / 2) / np.sinh(lam - m + eta / 2) for m in mu])
        for lk in rts:
            yield -np.sinh(eta + lam - lk) / np.sinh(eta - lam + lk)

    def dlog(f_plus, f_minus):
        return np.log(f_plus / f_minus) / (2 * step)

    out = np.zeros((N, N), dtype=complex)
    for i in range(N):
        for j in range(N):
            plus = list(log_terms(lams[i], lams + step * np.eye(N)[j]))
            minus = list(log_terms(lams[i], lams - step * np.eye(N)[j]))
            d = sum(dlog(p, m) for p, m in zip(plus, minus))
            if i == j:
                plus = list(log_terms(lams[i] + step, lams))
                minus = list(log_terms(lams[i] - step, lams))
                d += sum(dlog(p, m) for p, m in zip(plus, minus))
            # phi = i sum(log ...), entries are -i (d phi) = sum of log-derivatives
            out[i, j] = d
    return out


def varphi_prime_mp(roots, dps=40):
    """The norm-determinant matrix phi' entry by entry from its coth formula in
    `dps`-digit arithmetic: off-diagonal -coth(eta + l_i - l_j) -
    coth(eta - l_i + l_j), diagonal sum_k [coth(l_i - mu_k - eta/2) -
    coth(l_i - mu_k + eta/2)] plus the pair terms of row i."""
    with mpmath.workdps(dps):
        lams = [mpmath.mpc(z) for z in roots.values]
        mu = [mpmath.mpc(complex(m)) for m in roots.mu]
        eta = mpmath.mpc(roots.gamma.eta)
        N = len(lams)
        diag = [sum(mpmath.coth(l - m - eta / 2) - mpmath.coth(l - m + eta / 2) for m in mu)
                for l in lams]
        out = np.zeros((N, N), dtype=complex)
        for i in range(N):
            for j in range(i + 1, N):
                pair = mpmath.coth(eta + lams[i] - lams[j]) + mpmath.coth(eta - lams[i] + lams[j])
                out[i, j] = out[j, i] = complex(-pair)
                diag[i] += pair
                diag[j] += pair
        out[np.diag_indices(N)] = [complex(d) for d in diag]
    return out


def gaudin_norm_mp(roots, dps=40):
    """<N|N> = sinh(eta)^N prod_{i != j} [sinh(l_i - l_j + eta)/sinh(l_i - l_j)]
    det(phi') in `dps`-digit arithmetic, phi' from varphi_prime_mp, as an
    mpmath complex number (its modulus may exceed the double range)."""
    phi = varphi_prime_mp(roots, dps)
    with mpmath.workdps(dps):
        lams = [mpmath.mpc(z) for z in roots.values]
        eta = mpmath.mpc(roots.gamma.eta)
        pref = mpmath.sinh(eta) ** len(lams)
        for i, li in enumerate(lams):
            for j, lj in enumerate(lams):
                if i != j:
                    pref *= mpmath.sinh(li - lj + eta) / mpmath.sinh(li - lj)
        return pref * mpmath.det(mpmath.matrix(phi.tolist()))


def kernel_mp(n, x, crossed, g, dps=30):
    """K_n(x + i pi/2 crossed) = sin(n g) / (2 pi sinh(lam - i n g/2)
    sinh(lam + i n g/2)) in `dps`-digit arithmetic, elementwise over the
    real abscissae x and crossing flags, as a float array."""
    x, crossed = np.broadcast_arrays(np.asarray(x, dtype=float), crossed)
    out = np.empty(x.shape)
    with mpmath.workdps(dps):
        a = mpmath.mpf(n) * mpmath.mpf(g) / 2
        for i in np.ndindex(x.shape):
            lam = mpmath.mpf(x[i]) + (mpmath.j * mpmath.pi / 2 if crossed[i] else 0)
            k = mpmath.sin(2 * a) / (2 * mpmath.pi * mpmath.sinh(lam - mpmath.j * a)
                                     * mpmath.sinh(lam + mpmath.j * a))
            out[i] = float(mpmath.re(k))
    return out


def p_n_mp(n, x, crossed, g, dps=30):
    """p_n(x + i pi/2 crossed) in `dps`-digit arithmetic, elementwise over the
    real abscissae x and crossing flags, as a float array.  With a = n g/2 in
    (0, pi/2), p_n = pi - 2 arg sinh(x + i a) on the real branch and
    -2 arg cosh(x + i a) on the shifted one, where sinh(lam + i a) =
    i cosh(x + i a): both continuous, odd in x, and without the arctan."""
    x, crossed = np.broadcast_arrays(np.asarray(x, dtype=float), crossed)
    out = np.empty(x.shape)
    with mpmath.workdps(dps):
        a = mpmath.mpf(n) * mpmath.mpf(g) / 2
        for i in np.ndindex(x.shape):
            z = mpmath.mpf(x[i]) + mpmath.j * a
            p = -2 * mpmath.arg(mpmath.cosh(z)) if crossed[i] else (
                mpmath.pi - 2 * mpmath.arg(mpmath.sinh(z)))
            out[i] = float(p)
    return out


def t_prime_mp(xi, roots, dps=40):
    """d t(xi_i) / d lam_j from its sinh and coth formula in `dps`-digit
    arithmetic, with d = lam_j - xi_i:
    P_i (coth(d + eta) - coth(d)) - Q_i d(xi_i) (coth(d) + coth(eta - d)),
    P_i = prod_j sinh(d + eta)/sinh(d), Q_i = prod_j sinh(eta - d)/sinh(-d)."""
    with mpmath.workdps(dps):
        lams = [mpmath.mpc(z) for z in roots.values]
        mu = [mpmath.mpc(complex(m)) for m in roots.mu]
        eta = mpmath.mpc(roots.gamma.eta)
        out = np.zeros((len(xi), len(lams)), dtype=complex)
        for i, x in enumerate(xi):
            x = mpmath.mpc(complex(x))
            d = [l - x for l in lams]
            P = mpmath.fprod(mpmath.sinh(dj + eta) / mpmath.sinh(dj) for dj in d)
            Q = mpmath.fprod(mpmath.sinh(eta - dj) / mpmath.sinh(-dj) for dj in d)
            Q *= mpmath.fprod(mpmath.sinh(x - m - eta / 2) / mpmath.sinh(x - m + eta / 2)
                              for m in mu)
            for j, dj in enumerate(d):
                out[i, j] = complex(P * (mpmath.coth(dj + eta) - mpmath.coth(dj))
                                    - Q * (mpmath.coth(dj) + mpmath.coth(eta - dj)))
    return out


def efp_integrand_h(lams, rows, window, gamma):
    """Multiple-integral EFP integrand H at one rapidity tuple, by its literal
    definition: det[rows] / prod_{l<m} sinh(lam_m - lam_l - i gamma) times the
    staggered sinh products against the window columns.  rows[i, j] is the
    i-th local density at lams[j]."""
    g = float(gamma.gamma) if hasattr(gamma, "gamma") else float(gamma)
    n = len(lams)
    h = np.linalg.det(np.asarray(rows, dtype=complex))
    for l in range(n):
        for m in range(l + 1, n):
            h /= np.sinh(lams[m] - lams[l] - 1j * g)
        for m in range(n):
            if m < l:
                h *= np.sinh(lams[l] - window[m] - 0.5j * g)
            elif m > l:
                h *= np.sinh(lams[l] - window[m] + 0.5j * g)
    return h


def efp_node_sum(nodes, weights, rows, window, gamma):
    """n-fold quadrature node sum of the multiple-integral EFP, including the
    window prefactor 1/prod_{l<m} sinh(w_l - w_m), by a loop over the ordered
    tuples of distinct nodes (a repeated node gives two equal determinant
    columns and contributes nothing).  rows[i, p] is the i-th local density
    at nodes[p]."""
    n = len(window)
    total = 0.0 + 0j
    for tup in permutations(range(len(nodes)), n):
        tup = list(tup)
        total += np.prod(weights[tup]) * efp_integrand_h(
            nodes[tup], rows[:, tup], window, gamma
        )
    for l in range(n):
        for m in range(l + 1, n):
            total /= np.sinh(window[l] - window[m])
    return total


def first_elimination_direct(g, E):
    """V[a, b] = sum_c g_c E[a, c] E[b, c], the n = 3 first elimination of
    determinant._node_sum as the direct O(P^3) product E diag(g) E^T; a
    (K, P) stack of weights gives a (K, P, P) stack."""
    return (E * g[..., None, :]) @ E.T


def _signed_permutations(n):
    """(sign, perm) over the permutations of range(n)."""
    for perm in permutations(range(n)):
        yield (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)), perm


def node_sum_n3_direct(weight, rows, F, E):
    """The n = 3 node sum of determinant._node_sum, sum over node triples
    (a, b, c) of weight_a weight_b weight_c det[R_i(z)] f_0(z_a) f_1(z_b)
    f_2(z_c) E[a, b] E[a, c] E[b, c], by Leibniz over the rows with the
    direct first elimination and explicit sums over (a, b)."""
    total = 0.0 + 0j
    for sign, perm in _signed_permutations(3):
        g0, g1, g2 = (weight * rows[perm[l]] * F[l] for l in range(3))
        V = first_elimination_direct(g2, E)
        total += sign * np.sum(g0[:, None] * g1[None, :] * E * V)
    return total


def node_sum_n3_moduli(weight, rows, F, E):
    """The sum of the moduli of the terms of node_sum_n3_direct, over the
    row permutations and node triples: the scale of its rounding error."""
    A, total = np.abs(E), 0.0
    for _, perm in _signed_permutations(3):
        g0, g1, g2 = (np.abs(weight * rows[perm[l]] * F[l]) for l in range(3))
        total += np.sum(g0[:, None] * g1[None, :] * A * first_elimination_direct(g2, A))
    return total


def _inverse_sinh_tables(z, g):
    """E[a, b] = 1/sinh(z_b - z_a - i g), 1/sinh(z_a - z_b) and
    coth(z_a - z_b) from numpy's complex sinh and tanh, each 0 on the
    diagonal."""
    z = np.asarray(z, dtype=complex)
    diff = z[:, None] - z[None, :]
    E = 1 / np.sinh(-diff - 1j * g)
    np.fill_diagonal(diff, 1.0)
    S, C = 1 / np.sinh(diff), 1 / np.tanh(diff)
    for t in (E, S, C):
        np.fill_diagonal(t, 0.0)
    return E, S, C


def node_sum_n3_partial_fractions(weight, rows, F, z, g):
    """The n = 3 node sum with the first elimination by partial fractions,
    entry by entry: E V = (X^T - X) Q with X[a, b] = g_b T[a, b] + h_b,
    h = T g, T = coth(z_b - z_a - i g) and Q = E / sinh(z_a - z_b), all
    from numpy's sinh and tanh, 0 on the diagonal; a second reference for
    the package's sum, which drops two of the four terms after the sum over
    the row permutations."""
    E, S, _ = _inverse_sinh_tables(z, g)
    z = np.asarray(z, dtype=complex)
    T = 1 / np.tanh(z[None, :] - z[:, None] - 1j * g)
    np.fill_diagonal(T, 0.0)
    Q = E * S
    total = 0.0 + 0j
    for sign, perm in _signed_permutations(3):
        g0, g1, g2 = (weight * rows[perm[l]] * F[l] for l in range(3))
        X = T * g2 + (T @ g2)[None, :]
        total += sign * (g0 @ ((X.T - X) * Q) @ g1)
    return total


def first_elimination_n4_closed_form(g, z, gamma):
    """V(a, b, d) = sum_c g_c E[a, c] E[b, c] E[d, c] at n = 4 in closed form,
    from 1/(sinh A sinh B) = (coth A - coth B)/sinh(B - A) and
    coth A/sinh D = 1/(sinh(D - A) sinh A) - coth(D - A)/sinh D, with the
    terms that put two slots' weights on one node dropped (they cancel in
    the sum over the row permutations):
        Sh[a, b] (e_a Sh[a, d] - e_b Sh[b, d] + (C[b, d] - C[a, d]) e_d),
    e = E g, Sh = 1/sinh(z_a - z_b) and C = coth(z_a - z_b), 0 on the
    diagonal.  A (P, P, P) array."""
    E, Sh, C = _inverse_sinh_tables(z, gamma)
    e = E @ g
    return Sh[:, :, None] * (e[:, None, None] * Sh[:, None, :] - e[None, :, None] * Sh[None, :, :]
                             + (C[None, :, :] - C[:, None, :]) * e[None, None, :])


def node_sum_n4_closed_form(weight, rows, F, z, gamma):
    """(sum, moduli): the n = 4 node sum of determinant._node_sum by Leibniz
    over the rows with first_elimination_n4_closed_form in the last slot,
    and the sum of the moduli of the terms of the direct sum over node
    quadruples, the scale of its rounding error."""
    E = _inverse_sinh_tables(z, gamma)[0]
    A = np.abs(E)
    total, moduli = 0.0 + 0j, 0.0
    for sign, perm in _signed_permutations(4):
        G = [weight * rows[perm[l]] * F[l] for l in range(4)]
        V = first_elimination_n4_closed_form(G[3], z, gamma)
        total += sign * np.einsum("a,b,d,ab,ad,bd,abd->", *G[:3], E, E, E, V)
        moduli += np.einsum("a,b,d,c,ab,ad,ac,bd,bc,dc->", *map(np.abs, G), A, A, A, A, A, A)
    return total, moduli


def efp_tuple_sum(roots, window):
    """Finite-size EFP of pairwise distinct window columns by the D-product
    expansion: over the N!/(N-n)! ordered tuples of root indices, the expansion
    coefficient g times the normalized scalar product with those roots
    replaced by the shifted window columns (sinh prefactor times the n x n
    minor of the exact rows), all times
    prod_i prod_j sinh(l_j - w_i - eta/2)/sinh(l_j - w_i + eta/2)."""
    n, N = len(window), roots.N
    eta = roots.gamma.eta
    lams = roots.values
    w = np.asarray(window, dtype=complex)
    ext = np.concatenate([lams, w + eta / 2])
    total = 0.0 + 0j
    for tup in permutations(range(N), n):
        coeff = determinant.g_coefficient(tup, ext, N, roots.mu, roots.gamma)
        total += coeff * determinant.scalar_product_ratio(roots, w, excluded=tup)
    for wi in w:
        total *= np.prod(np.sinh(lams - wi - eta / 2) / np.sinh(lams - wi + eta / 2))
    return total


def asm_efp(n):
    """XXZ emptiness formation probability at gamma = pi/3 (Delta = 1/2):
    P(n) = A_n / 2^{n^2} with A_n = prod_{k<n} (3k+1)!/(n+k)! the number of
    n x n alternating-sign matrices (Razumov-Stroganov, J. Phys. A 34 (2001)
    3185; Kitanine-Maillet-Slavnov-Terras, J. Phys. A 35 (2002) L385)."""
    num = math.prod(math.factorial(3 * k + 1) for k in range(n))
    den = math.prod(math.factorial(n + k) for k in range(n))
    assert num % den == 0
    return (num // den) / 2 ** (n * n)


def window_dd_rows_mp(lam, window, eta, dps=60):
    """Newton divided differences R[u_1..u_i](lam), i = 1..n, of the window row
    R(lam; w) = sinh(eta) / [sinh(lam - w - eta/2) sinh(lam - w + eta/2)] over
    u = e^{2(w - wbar)}, by the recursive definition on pairwise distinct
    columns, and prod_{l<m}(u_m - u_l) / sinh(w_l - w_m)."""
    with mpmath.workdps(dps):
        lam, eta = mpmath.mpc(lam), mpmath.mpc(eta)
        w = [mpmath.mpc(x) for x in window]
        wbar = sum(w) / len(w)
        u = [mpmath.exp(2 * (x - wbar)) for x in w]
        table = [
            mpmath.sinh(eta) / (mpmath.sinh(lam - x - eta / 2) * mpmath.sinh(lam - x + eta / 2))
            for x in w
        ]
        rows = [table[0]]
        for level in range(1, len(w)):
            table = [(table[i + 1] - table[i]) / (u[i + level] - u[i])
                     for i in range(len(table) - 1)]
            rows.append(table[0])
        pref = mpmath.mpc(1)
        for l in range(len(w)):
            for m in range(l + 1, len(w)):
                pref *= (u[m] - u[l]) / mpmath.sinh(w[l] - w[m])
        return np.array([complex(r) for r in rows]), complex(pref)


def packed_dd_rows_mp(x, window, gamma, shifted=False, dps=60):
    """Newton divided differences f[u_1..u_i](x), i = 1..n, over
    u = e^{2(w - wbar)} of the one-column packed density
    f(u) = +-1 / (2 d cosh(pi (x - wbar - log(u)/2) / d)) (d = gamma, or
    pi - gamma with the minus sign on Im = pi/2), by the recursive
    definition on pairwise distinct columns in `dps`-digit arithmetic, as
    an (n, len(x)) array."""
    g = float(gamma.gamma) if hasattr(gamma, "gamma") else float(gamma)
    with mpmath.workdps(dps):
        d = mpmath.pi - g if shifted else mpmath.mpf(g)
        w = [mpmath.mpf(float(a)) for a in window]
        wbar = sum(w) / len(w)
        u = [mpmath.exp(2 * (a - wbar)) for a in w]
        rows = np.empty((len(w), len(x)))
        for p, xp in enumerate(np.asarray(x, dtype=float)):
            y = [mpmath.pi * (mpmath.mpf(xp) - wbar - mpmath.log(a) / 2) / d for a in u]
            table = [(-1 if shifted else 1) / (2 * d * mpmath.cosh(t)) for t in y]
            rows[0, p] = float(table[0])
            for level in range(1, len(w)):
                table = [(table[i + 1] - table[i]) / (u[i + level] - u[i])
                         for i in range(len(table) - 1)]
                rows[level, p] = float(table[0])
    return rows


def h_tuples_reference(idx, RW, F, E):
    """determinant._h_tuples as one expression per factor, with fresh gathers:
    np.prod over the gathered pair and slot entries and the Laplace
    determinant of freshly gathered columns, the kernel the workspace
    version must reproduce."""
    n, P = F.shape
    l, m = np.triu_indices(n, 1)
    pair = np.prod(E.take(idx[l] * P + idx[m]), axis=0)
    det = determinant._batched_det(lambda j: RW.take(idx[j], axis=1), n)
    slots = np.prod(F.take(np.arange(n)[:, None] * P + idx), axis=0)
    return det * slots * pair


def product_state_columns(lams, spec, gamma, dual):
    """B(lams[0])...B(lams[-1])|up>, or with dual <up|C(lams[0])...C(lams[-1])
    as a plain vector: the sector sweep of one state, whose j-th factor
    B(lams[-1 - j]) runs over the columns 1..M and whose C^T(lams[j]) runs
    over the columns M..1."""
    M, n = spec.M, len(lams)
    out = np.zeros(spec.dim, dtype=complex)
    if n > M:
        return out
    factors = np.asarray(lams) if dual else np.asarray(lams)[::-1]
    b, c = algebra._column_weights(factors, spec, gamma)
    states, pos = algebra._sector_tables(M)
    buf = np.zeros(spec.dim, dtype=complex)
    buf[0] = 1.0
    for j in range(n):
        pairs = algebra._pair_table(M, j)
        for k in range(M - 1, -1, -1) if dual else range(M):
            xy = buf[pairs[k]]
            buf[pairs[k]] = xy * b[k, j] + c[k, j] * xy[::-1]
    start = pos[states[n][0]]
    out[states[n]] = buf[start:start + len(states[n])]
    return out
