"""Thermodynamic limit on the directed contour.

The contour is the real axis traversed left to right together with the line
Im(lam) = pi/2 traversed right to left; quadrature weights on the shifted
branch are negative to encode the direction.  This module solves the
linear integral equation for the vacancy density, in closed form for the two
packed Fermi weights and by Nystrom discretization otherwise, builds
column-centred local densities, and evaluates the emptiness formation
probability both as a multiple contour integral and as the corresponding
finite sum over roots.
"""

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import determinant
from .algebra import _aniso
from .bethe import _on_lines, _p_n_deriv_x, _p_n_x
from .errors import ConvergenceError, PoleError

logger = logging.getLogger(__name__)


def kernel_K(n, lam, gamma):
    """K_n(lam) = (1/2pi) sin(n gamma) / [sinh(lam - i n gamma/2) sinh(lam + i n gamma/2)];
    elementwise for an array lam."""
    g = _aniso(gamma).gamma
    lam = np.asarray(lam, dtype=complex)
    s = np.sinh(lam - 0.5j * n * g) * np.sinh(lam + 0.5j * n * g)
    if np.size(s) and np.min(np.abs(s)) < 1e-14:
        raise PoleError(f"kernel pole at lam = {lam}")
    return np.sin(n * g) / (2 * np.pi * s)


def _kernel_branch(x, crossed, n, g, c=1.0):
    """Real-valued K_n = p_n' / 2pi at a contour difference with abscissa x,
    times the column weights c; crossed marks an Im = pi/2 offset between the
    two points.  Vectorized in x/crossed/c."""
    return _p_n_deriv_x(x, crossed, n, g, c / (2 * np.pi))


def _kernel_at(n, z, nodes, g):
    """K_n(z_i - v_q) between points z and contour points v (on the real line
    or on Im = pi/2): the real-valued branch form where z lies on a contour
    line, the complex kernel elsewhere."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(nodes, dtype=complex)
    on_real, on_shift = _on_lines(z)
    line = on_real | on_shift
    v_shift = _on_lines(v)[1]
    out = np.empty((len(z), len(v)), dtype=complex)
    out[line] = _kernel_branch(z.real[line, None] - v.real, on_shift[line, None] ^ v_shift, n, g)
    out[~line] = kernel_K(n, z[~line, None] - v, g)
    return out


def _drive(z, mu, g):
    """Driving term K_1^tot(z) = (1/M) sum_k K_1(z - mu_k) of the total
    density at the points z; the homogeneous default (mu None or empty) is
    K_1(z) itself."""
    return _kernel_at(1, z, (0.0,) if mu is None or len(mu) == 0 else mu, g).mean(axis=1)


def _real_points(values, what):
    """values as a real array; a ValueError unless each is finite with an
    imaginary part of at most 1e-12, which is dropped."""
    v = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(v)) or np.any(np.abs(v.imag) > 1e-12):
        raise ValueError(f"need finite, real {what}, got {values}")
    return v.real


@dataclass(frozen=True)
class ContourGrid:
    """Graded Gauss-Legendre discretization of both contour branches."""

    cutoff: float
    points_per_branch: int  # requested; actual count may differ slightly
    x: np.ndarray  # abscissae, both branches concatenated
    w: np.ndarray  # signed weights (negative on the shifted branch)
    shifted: np.ndarray  # bool per node

    @property
    def values(self) -> np.ndarray:
        return self.x + 0.5j * np.pi * self.shifted

    @property
    def n_nodes(self) -> int:
        return len(self.x)


def contour_grid(gamma, cutoff=None, points_per_branch=256):
    """Composite Gauss-Legendre panels per branch, dyadically graded from a
    finest central panel of width ~gamma/2 out to the cutoff."""
    g = _aniso(gamma).gamma
    if cutoff is None:
        cutoff = 20.0 * max(1.0, g)
    if not (np.isfinite(cutoff) and cutoff > 0) or points_per_branch < 8:
        raise ValueError("cutoff must be finite and positive and points_per_branch >= 8")
    # the K_1 drive has mass 2(pi - gamma) on the real line, 2 p_1(cutoff) of it
    # inside; at gamma = 0, which the density solve rejects, it is a point mass
    tail = 1 - _p_n_x(cutoff, False, 1, g) / (np.pi - g) if g else 0.0
    if tail > 1e-6:
        logger.warning("cutoff %g truncates the contour: a fraction %.2e of the driving "
                       "term lies beyond it", cutoff, tail)
    return _graded_grid(g, cutoff, points_per_branch)


@lru_cache(maxsize=None)
def _leggauss(order):
    """Gauss-Legendre nodes and weights of one order, computed once and
    returned read-only, since every caller shares the cached arrays."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    xg.flags.writeable = wg.flags.writeable = False
    return xg, wg


def _graded_grid(g, cutoff, points_per_branch):
    """The panels of contour_grid for a checked cutoff; the grid-doubling
    checks build their fine grid here, so the cutoff is checked once."""
    w0 = min(max(g, 1e-3), 1.0) / 2
    edges = [0.0]
    e = w0
    while e < cutoff:
        edges.append(min(e, cutoff))
        e *= 2
    if edges[-1] < cutoff:
        edges.append(cutoff)
    # mirror to the negative side
    full_edges = [-e for e in reversed(edges[1:])] + edges
    n_panels = len(full_edges) - 1
    order = max(2, points_per_branch // n_panels)
    xg, wg = _leggauss(order)
    xs, ws = [], []
    for a, b in zip(full_edges[:-1], full_edges[1:]):
        xs.append(0.5 * (b - a) * xg + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * wg)
    x_branch = np.concatenate(xs)
    w_branch = np.concatenate(ws)
    m = len(x_branch)
    x = np.concatenate([x_branch, x_branch])
    w = np.concatenate([w_branch, -w_branch])  # shifted branch runs right to left
    shifted = np.concatenate([np.zeros(m, bool), np.ones(m, bool)])
    return ContourGrid(float(cutoff), points_per_branch, x, w, shifted)


def ground_state_theta(grid) -> np.ndarray:
    """Fermi weight of the fully packed real branch: 1 there, 0 on Im = pi/2."""
    return np.where(grid.shifted, 0.0, 1.0)


def _mirror_pairs(grid, c):
    """(pos, neg) as (2, h) node-index arrays, one row per branch (real,
    shifted): the nodes with x > 0 in ascending order and, index for index,
    their mirror images x -> -x.  None unless both branches carry the same
    abscissae, bitwise mirror images of each other with no node at x = 0,
    and c = theta w is bitwise reflection-symmetric too."""
    x = grid.x
    real, shifted = (np.flatnonzero(grid.shifted == b) for b in (False, True))
    if len(real) != len(shifted) or len(real) % 2:
        return None
    idx = np.stack([i[np.argsort(x[i], kind="stable")] for i in (real, shifted)])
    h = idx.shape[1] // 2
    pos, neg = idx[:, h:], idx[:, :h][:, ::-1]
    if (
        np.array_equal(x[idx[0]], x[idx[1]])
        and np.all(x[pos] > 0)
        and np.array_equal(x[pos], -x[neg])
        and np.array_equal(c[pos], c[neg])
    ):
        return pos, neg
    return None


def _occupied_solve(K, act, rhs):
    """Solve (I + K) rho = rhs where K holds only the columns of the nodes
    marked in act (so K[act] is square): factorize that block, then fill in
    the other rows with one matrix product.  A singular block is a
    ConvergenceError."""
    A = K[act]
    A[np.diag_indices_from(A)] += 1.0
    rho = np.empty_like(rhs)
    try:
        rho[act] = np.linalg.solve(A, rhs[act])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular density system: {exc}") from exc
    rho[~act] = rhs[~act] - K[~act] @ rho[act]
    return rho


def _nystrom_solve(theta, grid, g, rhs):
    """Solve (I + K_2 diag(theta w)) rho = rhs for one or more right-hand
    sides (columns of rhs).  A node with theta w = 0 has an identity column,
    so only the block of occupied nodes is factorized; rho at the other
    nodes is rhs minus the occupied columns applied to that block's
    solution.  Only the occupied kernel columns are built.

    K_2 is even, so when the grid and theta w are mirror images under
    x -> -x the system commutes with that reflection and splits into an
    even and an odd half (Atkinson, The Numerical Solution of Integral
    Equations of the Second Kind, ch. 4).  Over the nodes x_i > 0 and the
    occupied x_j > 0 the halves are I + (K(x_i - x_j) +- K(x_i + x_j)) c_j,
    each half the size: two factorizations of a quarter of the cost and
    half the kernel table.  Any other theta or grid solves the full
    occupied block."""
    if g == 0:
        raise ValueError("the density equation degenerates at gamma = 0")
    c = theta * grid.w
    x, sh = grid.x, grid.shifted
    pairs = _mirror_pairs(grid, c)
    if pairs is None:
        act = c != 0
        K = _kernel_branch(x[:, None] - x[act], sh[:, None] ^ sh[act], 2, g, c[act])
        return _occupied_solve(K, act, rhs)
    pos, neg = pairs
    act = c[pos] != 0
    cols = pos[act]
    # both branches share the abscissae x[pos[0]]: one sinh table per sign,
    # broadcast over the two row branches
    xp, xa = x[pos[0]][:, None], x[cols]
    crossed = (np.array([[False], [True]]) ^ sh[cols])[:, None, :]
    # one difference table at a time, xp - xa and then xp + xa
    direct, mirror = (
        _kernel_branch(op(xp, xa), crossed, 2, g, c[cols]).reshape(pos.size, len(cols))
        for op in (np.subtract, np.add)
    )
    even = direct + mirror
    odd = np.subtract(direct, mirror, out=direct)
    pos, neg, act = pos.ravel(), neg.ravel(), act.ravel()
    e = _occupied_solve(even, act, 0.5 * (rhs[pos] + rhs[neg]))
    o = _occupied_solve(odd, act, 0.5 * (rhs[pos] - rhs[neg]))
    rho = np.empty_like(rhs)
    rho[pos] = e + o
    rho[neg] = e - o
    return rho


def _interpolate(z, drive, grid, g, coeff):
    """Nystrom interpolation drive(z) - sum_q K_2(z - z_q) coeff_q at the
    points z, with coeff = w rho_p at the grid nodes (a column per density)."""
    return drive - _kernel_at(2, z, grid.values, g) @ coeff


@dataclass(frozen=True)
class DensityProfile:
    """Vacancy, particle and hole densities on a contour grid."""

    grid: ContourGrid
    theta: np.ndarray
    rho_tot: np.ndarray
    rho_p: np.ndarray
    rho_h: np.ndarray
    gamma: object
    mu: tuple | None = None  # inhomogeneities behind the driving term, None = homogeneous
    packed: bool | None = None  # the branch whose closed form rho_tot is, None = Nystrom

    def filling(self) -> float:
        """Directed integral of the particle density; 1/2 at half filling."""
        return float(np.sum(self.grid.w * self.rho_p))

    def rho_tot_at(self, z):
        """rho_tot at arbitrary complex points: a packed profile's closed form
        where _packed_split puts the point, elsewhere the Nystrom
        interpolation, which at the nodes is rho_tot to the quadrature error
        (exact for Nystrom)."""
        g = _aniso(self.gamma).gamma
        vals = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.zeros(vals.shape, dtype=complex)
        rest = np.ones(vals.shape, bool)
        if self.packed is not None:
            fill, rest = _packed_split(self.packed, vals)
            out[fill] = _packed_rho(self.packed, vals.real[fill], g, self.mu or (0.0,))[0]
        if rest.any():
            out[rest] = _interpolate(vals[rest], _drive(vals[rest], self.mu, g), self.grid, g,
                                     self.grid.w * self.rho_p)
        if np.max(np.abs(out.imag)) < 1e-10 * (1 + np.max(np.abs(out.real))):
            out = out.real
        return out if out.shape != (1,) else out[0]


def _driven_profiles(theta, grid, gamma, mus):
    """One DensityProfile per entry of `mus`, each driven by K_1 averaged
    over that entry's real centres (None: homogeneous).  A packed theta
    takes the closed form of _packed_density, with no factorization; any
    other takes one Nystrom factorization, and a single profile is solved
    with a 1-D right-hand side."""
    gamma = _aniso(gamma)
    g = gamma.gamma
    theta = np.asarray(theta, dtype=float)
    if theta.shape != grid.x.shape:
        raise ValueError("theta must be sampled on the grid nodes")
    if np.any((theta < -1e-12) | (theta > 1 + 1e-12)):
        raise ValueError("theta must lie in [0, 1]")
    centres = [_real_points(mu or (0.0,), "driving centres") for mu in mus]
    packed = _packed_branch(theta, grid)
    if packed is not None:
        rhos = [_packed_density(packed, grid, g, c) for c in centres]
    else:
        drive = np.empty((grid.n_nodes, len(mus)))
        for j, c in enumerate(centres):
            drive[:, j] = np.real(_drive(grid.values, c, g))
        rhos = ([_nystrom_solve(theta, grid, g, drive[:, 0])] if len(mus) == 1
                else _nystrom_solve(theta, grid, g, drive).T)
    return [DensityProfile(grid, theta, r, theta * r, (1 - theta) * r, gamma, mu, packed)
            for r, mu in zip(rhos, mus)]


def _doubled(theta, grid, gamma):
    """theta carried to the grid with twice the actual nodes per branch, and
    that grid: the reference of the grid-doubling checks."""
    fine = _graded_grid(_aniso(gamma).gamma, grid.cutoff, grid.n_nodes)
    return _transfer_theta(theta, grid, fine), fine


def _packed_branch(theta, grid):
    """The branch a packed Fermi weight fills: False for ground_state_theta,
    True for its mirror (1 on Im = pi/2 only), None for any other theta."""
    return next((b for b in (False, True) if np.array_equal(theta, grid.shifted == b)), None)


def _packed_rho(shifted, x, g, centres, n=1):
    """rho_tot of the packed weight at abscissae x on the branch `shifted` it
    fills (Yang and Yang, Phys. Rev. 150 (1966) 327), row 0 of an (n, len(x))
    array: (1/M) sum_k 1 / (2 d cosh(pi (x - mu_k) / d)) with d = gamma on
    the real branch, minus that with d = pi - gamma on Im = pi/2.  Row k is
    the k-th Taylor coefficient in t of the same density with every centre
    moved to mu_k + log(1 + t)/2, the column variable u = 1 + t of
    determinant.window_dd_rows.  With y = pi (x - mu_k) / d and s = pi / 2d,
    sech(y - s log(1 + t)) = 2 e^-|y| / D(t), where D(t) is
    (1 + t)^-s + e^-2|y| (1 + t)^s for y >= 0 and the two powers swapped for
    y < 0; 1/D is the series inverse of D, so no cosh overflows."""
    if g == 0:
        raise ValueError("the density equation degenerates at gamma = 0")
    d = np.pi - g if shifted else g
    diff = np.subtract.outer(x, np.real(centres))
    e = np.exp(np.abs(diff) * (-np.pi / d))
    ee = e * e
    D0 = 1 + ee
    rows = np.empty((n,) + e.shape)
    rows[0] = e / D0
    # binomial coefficients of (1 + t)^-s and (1 + t)^s, from t^1 on
    k = np.arange(1, n)
    s = np.pi / (2 * d)
    lo, hi = np.cumprod((-s - k + 1) / k), np.cumprod((s - k + 1) / k)
    up = diff >= 0
    Dk = [np.where(up, a + ee * b, b + ee * a) for a, b in zip(lo, hi)]
    for j in range(1, n):
        rows[j] = -sum(Dk[i - 1] * rows[j - i] for i in range(1, j + 1)) / D0
    return rows.mean(axis=-1) / (-d if shifted else d)


def _packed_split(shifted, z):
    """(fill, rest) masks of the points z for the packed weight on the branch
    `shifted`: fill on that branch, where rho_tot is _packed_rho, and rest
    where it is the Nystrom interpolation.  The rest is every other point
    for the mirror, and the points off both lines for the ground state,
    whose rho_tot on Im = pi/2 is the closed form's 0."""
    lines = _on_lines(z)
    return lines[shifted], ~lines[1] if shifted else ~(lines[0] | lines[1])


def _packed_density(shifted, grid, g, centres):
    """rho_tot at the nodes for the packed weight on the branch `shifted`:
    _packed_rho on that branch; on the other 0 for the ground state, and the
    drive minus one kernel matrix-vector product for the mirror."""
    occ = grid.shifted == shifted
    rho = np.zeros(grid.n_nodes)
    rho[occ] = _packed_rho(shifted, grid.x[occ], g, centres)[0]
    if shifted:
        K = _kernel_branch(grid.x[~occ][:, None] - grid.x[occ], True, 2, g, grid.w[occ])
        rho[~occ] = np.real(_drive(grid.values[~occ], centres, g)) - K @ rho[occ]
    return rho


def solve_density(theta, grid, gamma, mu=None, check_resolution=False):
    """Solution of
    rho_tot(lam) = K_1^tot(lam) - int_C K_2(lam - lam') theta(lam') rho_tot(lam') dlam'
    on the directed contour, theta the Fermi weight per grid node.  The two
    packed weights (ground_state_theta and its mirror on Im = pi/2) take the
    closed form, with no factorization; any other theta takes the Nystrom
    solve, which factorizes only the block of nodes with theta != 0.
    check_resolution logs that the grid is under-resolved when, for a packed
    theta, the quadrature filling sum w rho_p is off from 1/2 by more than
    1e-6, otherwise when rho_tot(0) moves by more than 1e-6 on the grid with
    twice the nodes."""
    prof = _driven_profiles(theta, grid, gamma, [tuple(mu) if mu is not None else None])[0]
    if check_resolution and _packed_branch(prof.theta, grid) is not None:
        d = abs(prof.filling() - 0.5)
        if d > 1e-6:
            logger.warning("grid under-resolved: the filling is off from 1/2 by %.2e", d)
    elif check_resolution:
        ref = solve_density(*_doubled(prof.theta, grid, prof.gamma), prof.gamma, prof.mu)
        d = abs(prof.rho_tot_at(0.0) - ref.rho_tot_at(0.0))
        if d > 1e-6:
            logger.warning("grid under-resolved: rho_tot(0) moves by %.2e on doubling", d)
    return prof


def _transfer_theta(theta, grid, fine):
    """Carry a piecewise Fermi weight to a refined grid: each fine node takes
    theta of the nearest coarse node on its branch (the lower index on a
    tie)."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty(fine.n_nodes)
    for branch in (False, True):
        src = np.flatnonzero(grid.shifted == branch)
        src = src[np.argsort(grid.x[src], kind="stable")]
        xs = grid.x[src]
        dst = fine.shifted == branch
        xf = fine.x[dst]
        j = np.clip(np.searchsorted(xs, xf), 1, len(xs) - 1)
        lo, hi = src[j - 1], src[j]
        d_lo, d_hi = np.abs(xf - xs[j - 1]), np.abs(xf - xs[j])
        out[dst] = theta[np.where((d_hi < d_lo) | ((d_hi == d_lo) & (hi < lo)), hi, lo)]
    return out


def local_densities(centers, theta, grid, gamma):
    """One-column profiles, mu = (c,), for several column centres c: the
    closed form for a packed theta, otherwise one factorization of the
    occupied block (the kernel matrix does not depend on the driving)."""
    return _driven_profiles(theta, grid, gamma, [(c,) for c in centers])


def varphi_prime_thermo_row_check(roots, mu_window, profile, locals_=None) -> float:
    """Max deviation of the exact replaced rows of the determinant-ratio
    matrix from the thermodynamic prediction rho~(lam_j - w_i)/(M rho(lam_j));
    the deviation decays with lattice size."""
    w = list(mu_window)
    if not w:
        return 0.0
    M = len(roots.mu)
    exact = determinant.psi_phi_rows(roots, w)
    if locals_ is None:
        locals_ = local_densities(w, profile.theta, profile.grid, profile.gamma)
    rho_at_roots = np.real(profile.rho_tot_at(roots.values))
    pred = np.empty_like(exact)
    for i, loc in enumerate(locals_):
        pred[i] = np.asarray(loc.rho_tot_at(roots.values)) / (M * rho_at_roots)
    return float(np.max(np.abs(exact - pred)))


@dataclass(frozen=True)
class EfpResult:
    """Multiple-integral EFP on one grid; stderr and samples are set for a
    Monte Carlo value."""

    value: float
    imag_residual: float
    n: int
    mu_window: tuple
    cutoff: float
    points_per_branch: int
    stderr: float | None = None
    samples: int | None = None

    def __float__(self):
        return self.value


_SINH_REACH = 700.0  # largest sinh argument of the pair and slot tables


def efp_thermo(
    n,
    mu_window,
    theta,
    grid,
    gamma,
    mc_samples=200_000,
    seed=0,
    check_convergence=False,
):
    """Multiple-integral EFP over the directed contour:

        1/prod_{l<m} sinh(w_l - w_m) * int ... int H({lam}, {w}) prod_l theta(lam_l) dlam_l

    The local densities enter H only through det[rho_i(lam_j)], and rho_i is
    linear in its driving K_1(lam - w_i) = R(lam; w_i) / 2 pi i.  So the
    densities are those driven by the divided-difference window rows of
    `determinant.window_dd_rows`, and the prefactor is taken in that basis,
    finite at coincident columns.  A packed theta with a homogeneous window
    takes them in closed form (the Taylor coefficients of the packed
    density in the column variable), with no factorization; any other theta
    or window drives one Nystrom solve with the rows.  For n <= 3 the
    quadrature node sum is exact, O(n P^n) for P nodes with theta != 0.
    Above n = 3 it is a stratified Monte Carlo estimate of mc_samples >= 32
    draws, at least one per stratum, evaluated in batches of index tuples.
    A grid whose sinh tables would overflow,
    max(2 cutoff, (n - 1)(cutoff + max|w|)) > 700, is a ValueError, and so
    is a window length n < 0.
    """
    if n < 0:
        raise ValueError(f"window length must be >= 0, got n = {n}")
    gamma = _aniso(gamma)
    if n == 0:
        return EfpResult(1.0, 0.0, 0, (), grid.cutoff, grid.points_per_branch)
    mu_window = _real_points(mu_window, "window columns").tolist()
    if len(mu_window) != n:
        raise ValueError(f"need {n} window columns, got {len(mu_window)}")
    reach = max(2 * grid.cutoff, (n - 1) * (grid.cutoff + max(map(abs, mu_window))))
    if reach > _SINH_REACH:
        raise ValueError(
            f"cutoff {grid.cutoff:g} is too large for n = {n}: the sinh tables reach "
            f"{reach:.0f} > {_SINH_REACH:.0f} and overflow"
        )
    val, stderr, samples = _efp_integral(
        n, np.asarray(mu_window), theta, grid, gamma, mc_samples, seed
    )
    res = EfpResult(
        float(np.real(val)),
        float(abs(np.imag(val))),
        n,
        tuple(mu_window),
        grid.cutoff,
        grid.points_per_branch,
        stderr=stderr,
        samples=samples,
    )
    imag_floor = 1e-6 * (1 + abs(res.value))
    if res.stderr is not None:
        imag_floor = max(imag_floor, 3 * res.stderr)
    if res.imag_residual > imag_floor:
        logger.warning("EFP imaginary residue %.2e exceeds 1e-6", res.imag_residual)
    if check_convergence:
        ref = efp_thermo(
            n, mu_window, *_doubled(theta, grid, gamma), gamma, mc_samples=mc_samples, seed=seed
        )
        if abs(ref.value - res.value) > 1e-4 * (1 + abs(res.value)):
            raise ConvergenceError(
                f"EFP not converged under grid doubling: {res.value} vs {ref.value}",
                best_residual=abs(ref.value - res.value),
            )
    return res


def _dd_densities(w, theta, grid, gamma, points=()):
    """The densities driven by the divided-difference window rows divided by
    2 pi i, as an (n, nodes) array, the same densities at the extra `points`
    as an (n, points) array, and the window prefactor.

    A packed theta with a homogeneous window (every column equal to the
    first) takes the rows in closed form, the Taylor coefficients of
    _packed_rho, with no factorization: at the nodes and points that
    _packed_split puts on the filled branch, 0 at the ground state's nodes
    and points on Im = pi/2, and the Nystrom interpolation of the closed
    form at the rest.  Any other theta or window takes one Nystrom solve,
    interpolated at the points."""
    g = gamma.gamma
    points = np.asarray(points, dtype=complex)
    z = np.concatenate([grid.values, points])
    packed = _packed_branch(theta, grid)
    if packed is None or np.any(w != w[0]):
        dd, pref = determinant.window_dd_rows(z, w, gamma.eta)
        drive = dd / (2j * np.pi)
        rho = _nystrom_solve(theta, grid, g, np.real(drive[:, : grid.n_nodes]).T)
        coeff = (theta * grid.w)[:, None] * rho
        at = _interpolate(points, drive[:, grid.n_nodes :].T, grid, g, coeff).T
        return rho.T, at, pref
    fill, rest = _packed_split(packed, z)
    rows = np.zeros((len(w), len(z)), dtype=complex)
    rows[:, fill] = _packed_rho(packed, z.real[fill], g, w[:1], len(w))
    dd, pref = determinant.window_dd_rows(z[rest], w, gamma.eta)
    if dd.size:
        coeff = (theta * grid.w)[:, None] * rows[:, : grid.n_nodes].T
        rows[:, rest] = _interpolate(z[rest], dd.T / (2j * np.pi), grid, g, coeff).T
    return rows[:, : grid.n_nodes].real, rows[:, grid.n_nodes :], pref


_GUIDE = 1 << 14  # guide-table buckets of _search; a power of two, so u * _GUIDE is exact


def _search(cdf, u, side):
    """np.searchsorted(cdf, u, side) for keys u in [0, 1] and a nondecreasing
    cdf, through a guide table.  The keys in bucket [b, b + 1) / _GUIDE share
    one index when no cdf entry separates the bucket's edges, and one gather
    finds it; only the keys in the at most len(cdf) buckets that hold an
    entry take a binary search.  The last entry serves the key 1.0."""
    edges = np.searchsorted(cdf, np.arange(_GUIDE + 1) / _GUIDE, side)
    guide = np.append(np.where(edges[1:] == edges[:-1], edges[:-1], -1), edges[-1])
    out = guide[(u * _GUIDE).astype(np.intp)]
    split = out < 0
    out[split] = np.searchsorted(cdf, u[split], side)
    return out


def _efp_integral(n, w, theta, grid, gamma, mc_samples, seed):
    """(value, stderr, samples) of the n-fold directed integral."""
    rho, _, pref = _dd_densities(w, theta, grid, gamma)
    active = np.abs(theta * grid.w) > 0
    z = grid.values[active]
    c = (theta * grid.w)[active]
    R = rho[:, active]
    F = determinant._slot_table(z, w, gamma.gamma)
    if n <= 3:
        tables = determinant._node_tables(z, gamma.gamma, n)
        return pref * determinant._node_sum(c, R, F, tables), None, None
    # Monte Carlo with theta-weighted importance sampling over the nodes, by
    # |c * mean_i rho_i| over the actual rows: row i is sum_k L[i, k] R[k] with
    # L[i, k] = prod_{m<k}(u_i - u_m), u = e^{2(w - wbar)}
    uw = np.exp(2 * (w - w.mean()))
    L = np.cumprod(np.hstack([np.ones((n, 1)), uw[:, None] - uw[None, :-1]]), axis=1)
    n_strata = 32
    if mc_samples < n_strata:
        raise ValueError(f"need at least {n_strata} Monte Carlo samples, one per stratum")
    rng = np.random.default_rng(seed)
    q = np.abs(c * (L.mean(axis=0) @ R))
    total = q.sum()
    if not (np.isfinite(total) and total > 0):
        raise ValueError(f"Monte Carlo sampling weights sum to {total}")
    q = q / total
    cdf = np.cumsum(q)
    per = mc_samples // n_strata
    samples = n_strata * per
    u = (np.arange(n_strata)[:, None] + rng.random((n_strata, per))) / n_strata
    idx0 = np.minimum(_search(cdf, u.ravel(), "left"), len(z) - 1)
    # rng.choice(len(z), size, p=q), draw for draw: its cdf and side
    idx_rest = _search(cdf / cdf[-1], rng.random((n - 1, samples)), "right")
    idx = np.vstack([idx0, idx_rest])
    E = determinant._inverse_pairs(determinant._pair_table(z, gamma.gamma))
    # the importance weights c / q scale the rows, which shrink with q, not
    # the slot table, which grows with |x|: no product overflows where the
    # closed-form rows underflow, and a node with q = 0, never drawn, gets 0
    RW = R * np.divide(c, q, out=np.zeros_like(q), where=q > 0)
    chunk = determinant._CHUNK
    vals = np.empty(samples, dtype=complex)  # not a list of chunks to concatenate: one copy less
    for s in range(0, samples, chunk):
        vals[s:s + chunk] = determinant._h_tuples(idx[:, s:s + chunk], RW, F, E)
    err = float(np.abs(vals.std(ddof=1)) / np.sqrt(samples))
    return pref * vals.mean(), abs(pref) * err, samples


def efp_sum_finite(roots, mu_window, profile):
    """Finite-root version of the multiple-integral EFP:

        1/(M^n prod_{l<m} sinh(w_l - w_m)) * sum over distinct root tuples of
        H({lam_i}, {w}) prod_l 1/rho_tot(lam_i_l)

    with the densities taken from the integral equation of `profile`: the
    divided-difference solution of `efp_thermo`, Nystrom-interpolated at the
    roots, and the prefactor in that basis.
    """
    w = _real_points(mu_window, "window columns")
    n = len(w)
    if n == 0:
        return 1.0
    lams = roots.values
    _, rows, pref = _dd_densities(w, profile.theta, profile.grid, profile.gamma, lams)
    weight = 1.0 / (len(roots.mu) * np.real(np.atleast_1d(profile.rho_tot_at(lams))))
    g = roots.gamma.gamma
    F = determinant._slot_table(lams, w, g)
    val = pref * determinant._node_sum(weight, rows, F, determinant._node_tables(lams, g, n))
    if abs(val.imag) > 1e-6 * (1 + abs(val.real)):
        logger.warning("finite EFP sum imaginary residue %.2e", val.imag)
    return float(val.real)
