"""Thermodynamic limit on the directed contour.

The contour is the real axis traversed left to right together with the line
Im(lam) = pi/2 traversed right to left; quadrature weights on the shifted
branch are negative to encode the direction.  This module discretizes the
linear integral equation for the vacancy density, builds column-centred
local densities, and evaluates the emptiness formation probability both as
a multiple contour integral and as the corresponding finite sum over roots.
"""

import warnings
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from . import determinant
from .algebra import _aniso
from .bethe import REAL, SHIFTED, SpectralPoint, _p_n_deriv_x
from .errors import ConvergenceError, PoleError


def kernel_K(n, lam, gamma):
    """K_n(lam) = (1/2pi) sin(n gamma) / [sinh(lam - i n gamma/2) sinh(lam + i n gamma/2)]."""
    g = _aniso(gamma).gamma
    lam = complex(lam) if not isinstance(lam, SpectralPoint) else lam.value
    s = np.sinh(lam - 0.5j * n * g) * np.sinh(lam + 0.5j * n * g)
    if abs(s) < 1e-14:
        raise PoleError(f"kernel pole at lam = {lam}")
    return np.sin(n * g) / (2 * np.pi * s)


def _kernel_branch(x, crossed, n, g):
    """Real-valued K_n = p_n' / 2pi at a contour difference with abscissa x;
    crossed marks an Im = pi/2 offset between the two points.  Vectorized in
    x/crossed."""
    return _p_n_deriv_x(x, crossed, n, g) / (2 * np.pi)


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


def _density_matrix(theta, grid, g):
    """Nystrom matrix I + K_2 diag(theta w) of the density equation."""
    K2 = _kernel_branch(
        grid.x[:, None] - grid.x[None, :], grid.shifted[:, None] ^ grid.shifted[None, :], 2, g
    )
    return np.eye(grid.n_nodes) + K2 * (theta * grid.w)[None, :]


def _driving_k1(grid, g, mu):
    if mu is None or len(mu) == 0:
        return _kernel_branch(grid.x, grid.shifted, 1, g)
    mu = np.asarray([complex(m).real for m in mu])
    return _kernel_branch(grid.x[:, None] - mu[None, :], grid.shifted[:, None], 1, g).mean(axis=1)


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
        return _nystrom_eval(z, self.grid, self.theta, self.rho_p, self.gamma, self.mu, None)


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
        return _nystrom_eval(
            z, self.grid, self.theta, self.theta * self.rho_tot, self.gamma, None, self.center
        )


def _nystrom_eval(z, grid, theta, rho_p_nodes, gamma, mu, center):
    """Evaluate rho(z) = driving(z) - sum_q K_2(z - x_q) rho_p(x_q) w_q."""
    g = _aniso(gamma).gamma
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    vals = np.array([p.value if isinstance(p, SpectralPoint) else p for p in z])
    out = np.empty(len(vals), dtype=complex)
    coeff = grid.w * rho_p_nodes
    for i, zz in enumerate(vals):
        im = np.mod(zz.imag, np.pi)
        on_real = min(im, np.pi - im) < 1e-9
        on_shift = abs(im - np.pi / 2) < 1e-9
        if on_real or on_shift:
            xr = zz.real
            crossed = grid.shifted ^ on_shift
            if center is not None:
                drive = _kernel_branch(xr - center, on_shift, 1, g)
            elif mu is None or len(mu) == 0:
                drive = _kernel_branch(xr, on_shift, 1, g)
            else:
                drive = np.mean(
                    [_kernel_branch(xr - complex(m).real, on_shift, 1, g) for m in mu]
                )
            out[i] = drive - np.sum(_kernel_branch(xr - grid.x, crossed, 2, g) * coeff)
        else:
            zz0 = zz - (center or 0.0)
            drive = kernel_K(1, zz0, gamma) if center is not None or mu is None or len(mu) == 0 \
                else np.mean([kernel_K(1, zz - m, gamma) for m in mu])
            ks = np.array([kernel_K(2, zz - v, gamma) for v in grid.values])
            out[i] = drive - np.sum(ks * coeff)
    if np.max(np.abs(out.imag)) < 1e-10 * (1 + np.max(np.abs(out.real))):
        out = out.real
    return out if out.shape != (1,) else out[0]


def solve_density(theta, grid, gamma, mu=None, check_resolution=False):
    """Nystrom solution of
    rho_tot(lam) = K_1^tot(lam) - int_C K_2(lam - lam') theta(lam') rho_tot(lam') dlam'
    on the directed contour.  theta is the Fermi weight per grid node."""
    gamma = _aniso(gamma)
    g = gamma.gamma
    theta = np.asarray(theta, dtype=float)
    if theta.shape != grid.x.shape:
        raise ValueError("theta must be sampled on the grid nodes")
    if np.any((theta < -1e-12) | (theta > 1 + 1e-12)):
        raise ValueError("theta must lie in [0, 1]")
    A = _density_matrix(theta, grid, g)
    rhs = _driving_k1(grid, g, mu)
    try:
        rho = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular density system: {exc}") from exc
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
        fine = contour_grid(gamma, grid.cutoff, 2 * grid.points_per_branch)
        theta_fine = _transfer_theta(theta, grid, fine)
        ref = solve_density(theta_fine, fine, gamma, mu)
        d0 = abs(prof.rho_tot_at(0.0) - ref.rho_tot_at(0.0))
        if d0 > 1e-6:
            warnings.warn(f"grid under-resolved: rho_tot(0) moves by {d0:.2e} on doubling")
    return prof


def _transfer_theta(theta, grid, fine):
    """Carry a piecewise Fermi weight to a refined grid (nearest node)."""
    dist = np.abs(np.subtract.outer(fine.x, grid.x))
    np.add(dist, 1e9, out=dist, where=np.not_equal.outer(fine.shifted, grid.shifted))
    return np.asarray(theta, dtype=float)[np.argmin(dist, axis=1)]


def local_density(center, theta, grid, gamma) -> LocalDensity:
    """Density driven by a single column kernel K_1(lam - center)."""
    return local_densities([center], theta, grid, gamma)[0]


def local_densities(centers, theta, grid, gamma):
    """Solve the integral equation for several column centres with one
    factorization (the kernel matrix does not depend on the driving)."""
    gamma = _aniso(gamma)
    g = gamma.gamma
    theta = np.asarray(theta, dtype=float)
    A = _density_matrix(theta, grid, g)
    rhs = np.stack(
        [_kernel_branch(grid.x - complex(c).real, grid.shifted, 1, g) for c in centers],
        axis=1,
    )
    sol = np.linalg.solve(A, rhs)
    return [
        LocalDensity(float(np.real(c)), grid, theta, sol[:, i], gamma)
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
    F, D = _integrand_factors(lams, np.asarray(mu_window, dtype=complex), g)
    return complex(_h_tuples(np.arange(n)[:, None], rows, F, D, np.ones(n))[0])


# H factorizes into a determinant, pair factors and one-slot factors:
#     H(lam_1..lam_n) = det[R_i(lam_j)] prod_{l<m} 1/D(lam_l, lam_m) prod_l f_l(lam_l),
#     D(a, b) = sinh(b - a - i gamma),
#     f_l(lam) = prod_{m<l} sinh(lam - w_m - i gamma/2) prod_{m>l} sinh(lam - w_m + i gamma/2).
# Every EFP sum below reads H from the node tables of _integrand_factors.

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


def _window_prefactor(w):
    """1 / prod_{l<m} sinh(w_l - w_m)."""
    l, m = np.triu_indices(len(w), 1)
    s = np.sinh(w[l] - w[m])
    if np.any(np.abs(s) < 1e-14):
        raise PoleError("coincident window columns")
    return 1.0 / np.prod(s)


@dataclass(frozen=True)
class EfpResult:
    """stderr and samples are set for Monte Carlo values; samples counts the
    draws of one integral (each eps of a split window uses that many)."""

    value: float
    imag_residual: float
    n: int
    mu_window: tuple
    cutoff: float
    points_per_branch: int
    eps_schedule: tuple | None = None
    stderr: float | None = None
    samples: int | None = None

    def __float__(self):
        return self.value


def efp_thermo(
    n,
    mu_window,
    theta,
    grid,
    gamma,
    eps_schedule=None,
    mc_samples=200_000,
    seed=0,
    check_convergence=False,
    force_mc=False,
):
    """Multiple-integral EFP over the directed contour:

        1/prod_{l<m} sinh(w_l - w_m) * int ... int H({lam}, {w}) prod_l theta(lam_l) dlam_l

    For n <= 3 the quadrature node sum is a Leibniz expansion of the
    determinant times BLAS contractions of the pair factors, O(n! P^3) for P
    nodes with theta != 0.  Above n = 3 (or with force_mc) it is a stratified
    Monte Carlo estimate whose integrand is evaluated in batches of index
    tuples.  A window with coincident columns is split symmetrically by eps
    and the values are Richardson-extrapolated in eps^2; a Monte Carlo
    stderr is carried through as sum_i |c_i| sigma_i over the extrapolation
    weights c_i (every eps uses the same seed, so the errors add linearly).
    """
    gamma = _aniso(gamma)
    if n == 0:
        return EfpResult(1.0, 0.0, 0, (), grid.cutoff, grid.points_per_branch)
    mu_window = [float(np.real(w)) for w in mu_window]
    if len(mu_window) != n:
        raise ValueError(f"need {n} window columns, got {len(mu_window)}")
    schedule = None
    if determinant._distinct(mu_window):
        val, stderr, samples = _efp_integral(
            n, np.asarray(mu_window), theta, grid, gamma, mc_samples, seed, force_mc
        )
    else:
        schedule = tuple(eps_schedule or determinant._scaled_eps_schedule(gamma))
        windows, c = determinant._eps_split(mu_window[0], n, schedule)
        parts = [
            _efp_integral(n, w, theta, grid, gamma, mc_samples, seed, force_mc) for w in windows
        ]
        val = c @ [p[0] for p in parts]
        stderr, samples = parts[0][1], parts[0][2]
        if stderr is not None:
            stderr = float(np.abs(c) @ [p[1] for p in parts])
    res = EfpResult(
        float(np.real(val)),
        float(abs(np.imag(val))),
        n,
        tuple(mu_window),
        grid.cutoff,
        grid.points_per_branch,
        eps_schedule=schedule,
        stderr=stderr,
        samples=samples,
    )
    imag_floor = 1e-6 * (1 + abs(res.value))
    if res.stderr is not None:
        imag_floor = max(imag_floor, 3 * res.stderr)
    if res.imag_residual > imag_floor:
        warnings.warn(f"EFP imaginary residue {res.imag_residual:.2e} exceeds 1e-6")
    if check_convergence:
        fine = contour_grid(gamma, grid.cutoff, 2 * grid.points_per_branch)
        ref = efp_thermo(
            n, mu_window, _transfer_theta(theta, grid, fine), fine, gamma,
            eps_schedule=eps_schedule, mc_samples=mc_samples, seed=seed,
        )
        if abs(ref.value - res.value) > 1e-4 * (1 + abs(res.value)):
            raise ConvergenceError(
                f"EFP not converged under grid doubling: {res.value} vs {ref.value}",
                best_residual=abs(ref.value - res.value),
            )
    return res


def _efp_integral(n, w, theta, grid, gamma, mc_samples, seed, force_mc=False):
    """(value, stderr, samples) of the n-fold directed integral."""
    locals_ = local_densities(w, theta, grid, gamma)
    active = np.abs(theta * grid.w) > 0
    z = grid.values[active]
    c = (theta * grid.w)[active]
    R = np.stack([loc.rho_tot for loc in locals_], axis=0)[:, active]
    pref = _window_prefactor(w)
    if n <= 3 and not force_mc:
        return pref * _node_sum(z, c, R, w, gamma.gamma), None, None
    # Monte Carlo with theta-weighted importance sampling over the nodes
    rng = np.random.default_rng(seed)
    q = np.abs(c * R.mean(axis=0))
    q = q / q.sum()
    cdf = np.cumsum(q)
    n_strata = 32
    per = max(1, mc_samples // n_strata)
    samples = n_strata * per
    u = (np.arange(n_strata)[:, None] + rng.random((n_strata, per))) / n_strata
    idx0 = np.minimum(np.searchsorted(cdf, u.ravel()), len(z) - 1)
    idx_rest = rng.choice(len(z), size=(n - 1, samples), p=q)
    idx = np.vstack([idx0, idx_rest])
    F, D = _integrand_factors(z, w, gamma.gamma)
    vals = np.concatenate([
        _h_tuples(idx[:, s:s + _CHUNK], R, F, D, c / q) for s in range(0, samples, _CHUNK)
    ])
    err = float(np.abs(vals.std(ddof=1)) / np.sqrt(samples))
    return pref * vals.mean(), abs(pref) * err, samples


def efp_sum_finite(roots, mu_window, profile=None, locals_=None, use_exact_rows=False):
    """Finite-root version of the multiple-integral EFP:

        1/(M^n prod_{l<m} sinh(w_l - w_m)) * sum over distinct root tuples of
        H({lam_i}, {w}) prod_l 1/rho_tot(lam_i_l)

    Densities are taken from the integral equation (thermo source) or, with
    use_exact_rows, synthesized from the exact determinant-ratio rows so the
    sum reproduces the finite-size determinant path identically.
    """
    w = np.array([float(np.real(x)) for x in mu_window])
    n = len(w)
    if n == 0:
        return 1.0
    M = len(roots.mu)
    lams = roots.values
    if use_exact_rows:
        rows = determinant.psi_phi_rows(roots, w)  # already rho~/(M rho); rho factors cancel
        weight = np.ones(roots.N)
    else:
        if profile is None:
            raise ValueError("profile is required for the thermo density source")
        if locals_ is None:
            locals_ = local_densities(w, profile.theta, profile.grid, profile.gamma)
        rows = np.array([np.atleast_1d(loc.rho_tot_at(lams)) for loc in locals_], dtype=complex)
        weight = 1.0 / (M * np.real(np.atleast_1d(profile.rho_tot_at(lams))))
    val = _window_prefactor(w) * _node_sum(lams, weight, rows, w, roots.gamma.gamma)
    if abs(val.imag) > 1e-6 * (1 + abs(val.real)):
        warnings.warn(f"finite EFP sum imaginary residue {val.imag:.2e}")
    return float(val.real)
