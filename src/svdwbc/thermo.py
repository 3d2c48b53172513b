"""Thermodynamic limit on the directed contour.

The contour is the real axis traversed left to right together with the line
Im(lam) = pi/2 traversed right to left; quadrature weights on the shifted
branch are negative to encode the direction.  This module discretizes the
linear integral equation for the vacancy density, builds column-centred
local densities, and evaluates the emptiness formation probability both as
a multiple contour integral and as the corresponding finite sum over roots.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import determinant
from .algebra import _aniso
from .bethe import REAL, SHIFTED, SpectralPoint, _p_n_deriv_x
from .errors import ConvergenceError, PoleError

logger = logging.getLogger(__name__)


def kernel_K(n, lam, gamma):
    """K_n(lam) = (1/2pi) sin(n gamma) / [sinh(lam - i n gamma/2) sinh(lam + i n gamma/2)];
    elementwise for an array lam."""
    g = _aniso(gamma).gamma
    lam = lam.value if isinstance(lam, SpectralPoint) else np.asarray(lam, dtype=complex)
    s = np.sinh(lam - 0.5j * n * g) * np.sinh(lam + 0.5j * n * g)
    if np.size(s) and np.min(np.abs(s)) < 1e-14:
        raise PoleError(f"kernel pole at lam = {lam}")
    return np.sin(n * g) / (2 * np.pi * s)


def _kernel_branch(x, crossed, n, g):
    """Real-valued K_n = p_n' / 2pi at a contour difference with abscissa x;
    crossed marks an Im = pi/2 offset between the two points.  Vectorized in
    x/crossed."""
    return _p_n_deriv_x(x, crossed, n, g) / (2 * np.pi)


def _kernel_at(n, z, nodes, g):
    """K_n(z_i - v_q) between points z and contour points v (on the real line
    or on Im = pi/2): the real-valued branch form where z lies on a contour
    line, the complex kernel elsewhere."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(nodes, dtype=complex)
    im = np.mod(z.imag, np.pi)
    on_shift = np.abs(im - np.pi / 2) < 1e-9
    line = on_shift | (np.minimum(im, np.pi - im) < 1e-9)
    v_shift = np.abs(np.mod(v.imag, np.pi) - np.pi / 2) < 1e-9
    out = np.empty((len(z), len(v)), dtype=complex)
    out[line] = _kernel_branch(z.real[line, None] - v.real, on_shift[line, None] ^ v_shift, n, g)
    out[~line] = kernel_K(n, z[~line, None] - v, g)
    return out


def k1_tot(lam, mu, gamma):
    """Averaged driving kernel (1/M) sum_k K_1(lam - mu_k); the homogeneous
    default (mu None or empty) is K_1 itself."""
    if mu is None or len(mu) == 0:
        return kernel_K(1, lam, gamma)
    return np.mean([kernel_K(1, lam - m, gamma) for m in mu])


@dataclass(frozen=True)
class ContourGrid:
    """Graded Gauss-Legendre discretization of both contour branches."""

    cutoff: float
    points_per_branch: int  # requested; actual count may differ slightly
    x: np.ndarray  # abscissae, both branches concatenated
    w: np.ndarray  # signed weights (negative on the shifted branch)
    shifted: np.ndarray  # bool per node

    @property
    def nodes(self):
        return tuple(
            SpectralPoint(float(xi), SHIFTED if s else REAL)
            for xi, s in zip(self.x, self.shifted)
        )

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
    if cutoff <= 0 or points_per_branch < 8:
        raise ValueError("cutoff must be positive and points_per_branch >= 8")
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
    xg, wg = np.polynomial.legendre.leggauss(order)
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


def _nystrom_solve(theta, grid, g, rhs):
    """Solve (I + K_2 diag(theta w)) rho = rhs for one or more right-hand
    sides (columns of rhs).  A node with theta w = 0 has an identity column,
    so only the block of occupied nodes is factorized; rho at the other
    nodes is rhs minus the occupied columns applied to that block's
    solution.  Only the occupied kernel columns are built."""
    c = theta * grid.w
    act = c != 0
    x, sh = grid.x, grid.shifted
    K = _kernel_branch(x[:, None] - x[act][None, :], sh[:, None] ^ sh[act][None, :], 2, g)
    K *= c[act]
    A = K[act]
    A[np.diag_indices_from(A)] += 1.0
    rho = np.empty_like(rhs)
    try:
        rho[act] = np.linalg.solve(A, rhs[act])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular density system: {exc}") from exc
    rho[~act] = rhs[~act] - K[~act] @ rho[act]
    return rho


def _centres(mu):
    """Driving centres of the total density: the inhomogeneities, or the
    origin for a homogeneous lattice."""
    return (0.0,) if mu is None or len(mu) == 0 else mu


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

    def filling(self) -> float:
        """Directed integral of the particle density; 1/2 at half filling."""
        return float(np.sum(self.grid.w * self.rho_p))

    def rho_tot_at(self, z):
        """Nystrom interpolation of rho_tot at arbitrary points (complex or
        SpectralPoint); exact at the grid nodes."""
        return _nystrom_eval(z, self.grid, self.rho_p, self.gamma, _centres(self.mu))


@dataclass(frozen=True)
class LocalDensity:
    """Density responding to a single column at mu = center; averaging these
    over the column inhomogeneities reproduces the total density."""

    center: float
    grid: ContourGrid
    theta: np.ndarray
    rho_tot: np.ndarray
    gamma: object

    def rho_tot_at(self, z):
        return _nystrom_eval(z, self.grid, self.theta * self.rho_tot, self.gamma, (self.center,))


def _nystrom_eval(z, grid, rho_p_nodes, gamma, centres):
    """Evaluate rho(z) = mean_c K_1(z - c) - sum_q K_2(z - z_q) rho_p(z_q) w_q
    at points z (complex or SpectralPoint)."""
    g = _aniso(gamma).gamma
    vals = np.array(
        [p.value if isinstance(p, SpectralPoint) else p for p in np.atleast_1d(z)], dtype=complex
    )
    drive = _kernel_at(1, vals, centres, g).mean(axis=1)
    out = drive - _kernel_at(2, vals, grid.values, g) @ (grid.w * rho_p_nodes)
    if np.max(np.abs(out.imag)) < 1e-10 * (1 + np.max(np.abs(out.real))):
        out = out.real
    return out if out.shape != (1,) else out[0]


def solve_density(theta, grid, gamma, mu=None, check_resolution=False):
    """Nystrom solution of
    rho_tot(lam) = K_1^tot(lam) - int_C K_2(lam - lam') theta(lam') rho_tot(lam') dlam'
    on the directed contour.  theta is the Fermi weight per grid node; only
    the block of nodes with theta != 0 is factorized, and the other nodes
    are filled in with one matrix-vector product."""
    gamma = _aniso(gamma)
    g = gamma.gamma
    theta = np.asarray(theta, dtype=float)
    if theta.shape != grid.x.shape:
        raise ValueError("theta must be sampled on the grid nodes")
    if np.any((theta < -1e-12) | (theta > 1 + 1e-12)):
        raise ValueError("theta must lie in [0, 1]")
    drive = _kernel_at(1, grid.values, _centres(mu), g).mean(axis=1)
    rho = _nystrom_solve(theta, grid, g, np.real(drive))
    prof = DensityProfile(
        grid=grid,
        theta=theta,
        rho_tot=rho,
        rho_p=theta * rho,
        rho_h=(1 - theta) * rho,
        gamma=gamma,
        mu=tuple(mu) if mu is not None else None,
    )
    if check_resolution:
        fine = contour_grid(gamma, grid.cutoff, grid.n_nodes)  # twice the actual per branch
        theta_fine = _transfer_theta(theta, grid, fine)
        ref = solve_density(theta_fine, fine, gamma, mu)
        d0 = abs(prof.rho_tot_at(0.0) - ref.rho_tot_at(0.0))
        if d0 > 1e-6:
            logger.warning("grid under-resolved: rho_tot(0) moves by %.2e on doubling", d0)
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


def local_density(center, theta, grid, gamma) -> LocalDensity:
    """Density driven by a single column kernel K_1(lam - center)."""
    return local_densities([center], theta, grid, gamma)[0]


def local_densities(centers, theta, grid, gamma):
    """Solve the integral equation for several column centres with one
    factorization of the occupied block (the kernel matrix does not depend
    on the driving)."""
    gamma = _aniso(gamma)
    g = gamma.gamma
    theta = np.asarray(theta, dtype=float)
    centers = np.real(np.asarray(centers, dtype=complex))
    sol = _nystrom_solve(theta, grid, g, np.real(_kernel_at(1, grid.values, centers, g)))
    return [
        LocalDensity(float(c), grid, theta, sol[:, i], gamma)
        for i, c in enumerate(centers)
    ]


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


def h_function(lams, mu_window, locals_):
    """Emptiness-formation integrand factor:
    det[rho~_i(lam_j)] / prod_{l<m} sinh(lam_m - lam_l - i gamma)
    times the staggered sinh products against the window columns."""
    lams = np.array(
        [p.value if isinstance(p, SpectralPoint) else complex(p) for p in lams]
    )
    n = len(lams)
    if len(mu_window) != n or len(locals_) != n:
        raise ValueError("need one window column and one local density per rapidity")
    g = _aniso(locals_[0].gamma).gamma
    rows = np.array([np.atleast_1d(loc.rho_tot_at(lams)) for loc in locals_], dtype=complex)
    F, D = determinant._integrand_factors(lams, np.asarray(mu_window, dtype=complex), g)
    return complex(determinant._h_tuples(np.arange(n)[:, None], rows, F, D, np.ones(n))[0])


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
    force_mc=False,
):
    """Multiple-integral EFP over the directed contour:

        1/prod_{l<m} sinh(w_l - w_m) * int ... int H({lam}, {w}) prod_l theta(lam_l) dlam_l

    The local densities enter H only through det[rho_i(lam_j)], and rho_i is
    linear in its driving K_1(lam - w_i) = R(lam; w_i) / 2 pi i.  So one
    Nystrom solve is driven by the divided-difference window rows of
    `determinant.window_dd_rows`, and the prefactor is taken in that basis:
    coincident columns (a homogeneous window) take the same path as distinct
    ones.  For n <= 3 the quadrature node sum is a Leibniz expansion of the
    determinant times BLAS contractions of the pair factors, O(n! P^3) for P
    nodes with theta != 0.  Above n = 3 (or with force_mc) it is a stratified
    Monte Carlo estimate whose integrand is evaluated in batches of index
    tuples.  A grid whose sinh tables would overflow,
    max(2 cutoff, (n - 1)(cutoff + max|w|)) > 700, is a ValueError.
    """
    gamma = _aniso(gamma)
    if n == 0:
        return EfpResult(1.0, 0.0, 0, (), grid.cutoff, grid.points_per_branch)
    mu_window = [float(np.real(w)) for w in mu_window]
    if len(mu_window) != n:
        raise ValueError(f"need {n} window columns, got {len(mu_window)}")
    reach = max(2 * grid.cutoff, (n - 1) * (grid.cutoff + max(map(abs, mu_window))))
    if reach > _SINH_REACH:
        raise ValueError(
            f"cutoff {grid.cutoff:g} is too large for n = {n}: the sinh tables reach "
            f"{reach:.0f} > {_SINH_REACH:.0f} and overflow"
        )
    val, stderr, samples = _efp_integral(
        n, np.asarray(mu_window), theta, grid, gamma, mc_samples, seed, force_mc
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
        fine = contour_grid(gamma, grid.cutoff, grid.n_nodes)  # twice the actual per branch
        ref = efp_thermo(
            n, mu_window, _transfer_theta(theta, grid, fine), fine, gamma,
            mc_samples=mc_samples, seed=seed,
        )
        if abs(ref.value - res.value) > 1e-4 * (1 + abs(res.value)):
            raise ConvergenceError(
                f"EFP not converged under grid doubling: {res.value} vs {ref.value}",
                best_residual=abs(ref.value - res.value),
            )
    return res


def _dd_densities(w, theta, grid, gamma, points=()):
    """Nystrom solution driven by the divided-difference window rows divided
    by 2 pi i, as an (n, nodes) array, the same solution interpolated at the
    extra `points` as an (n, points) array, and the window prefactor."""
    g = gamma.gamma
    points = np.asarray(points, dtype=complex)
    dd, pref = determinant.window_dd_rows(np.concatenate([grid.values, points]), w, gamma.eta)
    drive = dd / (2j * np.pi)
    rho = _nystrom_solve(theta, grid, g, np.real(drive[:, : grid.n_nodes]).T)
    coeff = (theta * grid.w)[:, None] * rho
    at = drive[:, grid.n_nodes :] - (_kernel_at(2, points, grid.values, g) @ coeff).T
    return rho.T, at, pref


def _efp_integral(n, w, theta, grid, gamma, mc_samples, seed, force_mc=False):
    """(value, stderr, samples) of the n-fold directed integral."""
    rho, _, pref = _dd_densities(w, theta, grid, gamma)
    active = np.abs(theta * grid.w) > 0
    z = grid.values[active]
    c = (theta * grid.w)[active]
    R = rho[:, active]
    if n <= 3 and not force_mc:
        return pref * determinant._node_sum(z, c, R, w, gamma.gamma), None, None
    # Monte Carlo with theta-weighted importance sampling over the nodes, by
    # |c * mean_i rho_i| over the actual rows: row i is sum_k L[i, k] R[k] with
    # L[i, k] = prod_{m<k}(u_i - u_m), u = e^{2(w - wbar)}
    uw = np.exp(2 * (w - w.mean()))
    L = np.cumprod(np.hstack([np.ones((n, 1)), uw[:, None] - uw[None, :-1]]), axis=1)
    rng = np.random.default_rng(seed)
    q = np.abs(c * (L.mean(axis=0) @ R))
    q = q / q.sum()
    cdf = np.cumsum(q)
    n_strata = 32
    per = max(1, mc_samples // n_strata)
    samples = n_strata * per
    u = (np.arange(n_strata)[:, None] + rng.random((n_strata, per))) / n_strata
    idx0 = np.minimum(np.searchsorted(cdf, u.ravel()), len(z) - 1)
    idx_rest = rng.choice(len(z), size=(n - 1, samples), p=q)
    idx = np.vstack([idx0, idx_rest])
    F, D = determinant._integrand_factors(z, w, gamma.gamma)
    chunk = determinant._CHUNK
    vals = np.concatenate([
        determinant._h_tuples(idx[:, s:s + chunk], R, F, D, c / q) for s in range(0, samples, chunk)
    ])
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
    w = np.array([float(np.real(x)) for x in mu_window])
    n = len(w)
    if n == 0:
        return 1.0
    lams = roots.values
    _, rows, pref = _dd_densities(w, profile.theta, profile.grid, profile.gamma, lams)
    weight = 1.0 / (len(roots.mu) * np.real(np.atleast_1d(profile.rho_tot_at(lams))))
    val = pref * determinant._node_sum(lams, weight, rows, w, roots.gamma.gamma)
    if abs(val.imag) > 1e-6 * (1 + abs(val.real)):
        logger.warning("finite EFP sum imaginary residue %.2e", val.imag)
    return float(val.real)
