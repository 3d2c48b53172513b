"""Independent oracles used by the test suite.

These deliberately avoid the package's operator-algebra code paths: the
partition oracle enumerates lattice arrow configurations directly, the
density oracle is a closed form obtained by Fourier-transforming the
integral equation, and the matrix-derivative oracle is branch-safe numerical
differentiation of the defining logarithms.  The EFP node-sum oracle loops
over rapidity tuples with one determinant and explicit sinh products each,
where the package contracts a factorized integrand.  The finite-size EFP
tuple oracle expands the D-product over B-states instead: one expansion
coefficient and one replaced-rapidity scalar product per ordered tuple of
Bethe roots.  The monodromy oracle multiplies explicit Kronecker-product
embeddings of the 4x4 vertex matrix on the auxiliary-times-spin space.
The Nystrom oracle assembles the full density matrix entry by entry from the
complex kernel K_2 and solves it densely, where the package factorizes only
the occupied block of a real-valued branch kernel.
"""

from functools import lru_cache
from itertools import permutations, product

import numpy as np

from svdwbc import determinant, thermo
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
