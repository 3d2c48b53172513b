"""Bethe equations in logarithmic form for 1-string root configurations.

Roots live on the directed contour made of the real axis and the line
Im(lam) = pi/2; a root is stored as a real abscissa plus a branch tag,
equivalently a parity v = 1 - (4/pi) Im(lam) in {+1, -1}.  The logarithmic
equations counting(lam_i) = 2 pi n_i are solved by a damped Newton iteration
with analytic Jacobian, with a per-coordinate fallback sweep.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from . import algebra
from .algebra import AnisotropyParam, LatticeSpec, _aniso
from .errors import ConvergenceError

REAL = "real"
SHIFTED = "shifted"

_BRANCH_TOL = 1e-9


@dataclass(frozen=True)
class SpectralPoint:
    """Point on the contour: real abscissa x on the branch Im=0 or Im=pi/2."""

    x: float
    branch: str = REAL

    def __post_init__(self):
        if self.branch not in (REAL, SHIFTED):
            raise ValueError(f"branch must be '{REAL}' or '{SHIFTED}', got {self.branch!r}")

    @property
    def parity(self) -> int:
        return 1 if self.branch == REAL else -1

    @property
    def value(self) -> complex:
        return self.x + (0.5j * np.pi if self.branch == SHIFTED else 0.0)

    @classmethod
    def from_complex(cls, z):
        z = complex(z)
        im = np.mod(z.imag, np.pi)
        if min(im, np.pi - im) < _BRANCH_TOL:
            return cls(z.real, REAL)
        if abs(im - np.pi / 2) < _BRANCH_TOL:
            return cls(z.real, SHIFTED)
        raise ValueError(f"point {z} is off the contour (Im must be 0 or pi/2 mod pi)")


def _as_point(lam) -> SpectralPoint:
    return lam if isinstance(lam, SpectralPoint) else SpectralPoint.from_complex(lam)


def _diff(lam, other):
    """Abscissa difference and branch-crossing flag of lam - other."""
    p, q = _as_point(lam), _as_point(other)
    return p.x - q.x, p.branch != q.branch


def p_n(lam, n, gamma):
    """Branch-dependent momentum-like function, continuous and odd in x.

    On the real branch p_n(x) = 2 atan(tanh(x) cot(n gamma/2)); on the
    shifted branch the hyperbolic cotangent collapses to
    -2 atan(tanh(x) tan(n gamma/2)).  Monotone increasing (decreasing) on the
    real (shifted) branch when sin(n gamma) > 0; no unwrapping is needed.
    """
    g = _aniso(gamma).gamma
    p = _as_point(lam)
    return float(_p_n_x(p.x, p.branch == SHIFTED, n, g))


def _p_n_x(x, crossed, n, g):
    """p_n at abscissa differences x; crossed marks an Im = pi/2 offset.
    Vectorized in x/crossed."""
    th = np.tanh(x)
    return np.where(
        crossed, -2.0 * np.arctan(th * np.tan(n * g / 2)), 2.0 * np.arctan(th / np.tan(n * g / 2))
    )


def _p_n_deriv_x(x, crossed, n, g):
    """p_n' = 2 pi K_n at abscissa differences x, the one definition of the
    branch kernel.  Vectorized in x/crossed."""
    sh2 = np.sinh(np.minimum(np.abs(x), 300.0)) ** 2  # underflows to 0 well before 300
    return np.where(
        crossed,
        -np.sin(n * g) / (sh2 + np.cos(n * g / 2) ** 2),
        np.sin(n * g) / (sh2 + np.sin(n * g / 2) ** 2),
    )


def p_n_deriv(lam, n, gamma):
    """d p_n / dx along the branch of lam."""
    g = _aniso(gamma).gamma
    p = _as_point(lam)
    return float(_p_n_deriv_x(p.x, p.branch == SHIFTED, n, g))


def _counting_raw(x, shifted, root_x, root_shifted, mu, g):
    """Counting values at the contour points x (branch flags `shifted`)
    against explicit root arrays and real inhomogeneities mu."""
    x = np.asarray(x, dtype=float)[..., None]
    shifted = np.asarray(shifted)[..., None]
    columns = _p_n_x(x - mu, shifted, 1, g).sum(axis=-1)
    return columns - _p_n_x(x - root_x, shifted != root_shifted, 2, g).sum(axis=-1)


def counting_function(lam, roots) -> float:
    """sum_k p_1(lam - mu_k) - sum_j p_2(lam - lam_j) along the contour."""
    p = _as_point(lam)
    return float(
        _counting_raw(
            p.x,
            p.branch == SHIFTED,
            np.array([r.x for r in roots.roots]),
            np.array([r.branch == SHIFTED for r in roots.roots]),
            np.real(roots.mu),
            roots.gamma.gamma,
        )
    )


def log_form_consistency(lam, roots) -> float:
    """|sin(counting + i-log form)|: the two logarithmic versions of the
    Bethe equations agree modulo pi, up to a global half-turn per root."""
    p = _as_point(lam)
    z = p.value
    eta = roots.gamma.eta
    phase = 1j * np.log(algebra.d_eigenvalue(z, roots.mu, roots.gamma))
    for r in roots.roots:
        w = r.value
        phase += 1j * np.log(-np.sinh(eta + z - w) / np.sinh(eta - z + w))
    total = counting_function(lam, roots) + phase.real
    return float(abs(np.sin(total)))


@dataclass(frozen=True)
class BetheRootSet:
    """Solved 1-string roots with their quantum numbers and diagnostics."""

    roots: tuple  # SpectralPoint, length N
    quantum_numbers: tuple  # (half-)integers n_i
    parities: tuple  # +1 / -1
    mu: tuple  # M inhomogeneities (real)
    gamma: AnisotropyParam
    residuals: tuple = ()
    r_sign: int | None = None

    def __post_init__(self):
        N = len(self.roots)
        if not (len(self.quantum_numbers) == len(self.parities) == N):
            raise ValueError("roots, quantum numbers and parities must have equal length")
        seen = set()
        for n, v in zip(self.quantum_numbers, self.parities):
            if v not in (1, -1):
                raise ValueError(f"parity must be +-1, got {v}")
            if (n, v) in seen:
                raise ValueError(f"duplicate quantum number {n} with parity {v}")
            seen.add((n, v))
        half = len(self.mu) // 2
        for n in self.quantum_numbers:
            want_int = half % 2 == 1  # integers for N odd, half-integers for N even
            twice = round(2 * n)
            if abs(2 * n - twice) > 1e-12 or (twice % 2 == 0) != want_int:
                kind = "integers" if want_int else "half-integers"
                raise ValueError(f"quantum numbers must be {kind} for N = {half}, got {n}")

    @property
    def N(self) -> int:
        return len(self.roots)

    @property
    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.roots])

    @property
    def spec(self) -> LatticeSpec:
        return LatticeSpec(len(self.mu), self.mu)

    @property
    def max_residual(self) -> float:
        if len(self.residuals) != len(self.roots):
            return np.inf  # unsolved set
        return max(self.residuals) if self.residuals else 0.0

    def d_product_deviation(self) -> float:
        """|prod_j d(lam_j) - 1|, which vanishes on Bethe solutions."""
        prod = np.prod([algebra.d_eigenvalue(z, self.mu, self.gamma) for z in self.values])
        return float(abs(prod - 1.0))

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma.gamma,
            "M": len(self.mu),
            "mu": [float(np.real(m)) for m in self.mu],
            "roots": [{"x": r.x, "branch": r.branch} for r in self.roots],
            "n": list(self.quantum_numbers),
            "v": list(self.parities),
            "residuals": list(self.residuals),
            "r_sign": self.r_sign,
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_json_dict(), **kw)

    @classmethod
    def from_json_dict(cls, d) -> "BetheRootSet":
        return cls(
            roots=tuple(SpectralPoint(r["x"], r["branch"]) for r in d["roots"]),
            quantum_numbers=tuple(d["n"]),
            parities=tuple(d["v"]),
            mu=tuple(d["mu"]),
            gamma=AnisotropyParam(d["gamma"]),
            residuals=tuple(d.get("residuals", ())),
            r_sign=d.get("r_sign"),
        )


def ground_state_numbers(N):
    """Symmetric consecutive quantum numbers n_j = j - (N+1)/2, parities +1."""
    ns = tuple(j - (N + 1) / 2 for j in range(1, N + 1))
    ns = tuple(n if N % 2 == 0 else round(n) for n in ns)
    return ns, (1,) * N


def _system(x, shifted, n_target, mu, g):
    """Residual vector and Jacobian of counting(lam_i) = 2 pi n_i."""
    F = _counting_raw(x, shifted, x, shifted, mu, g) - 2 * np.pi * np.asarray(n_target)
    J = _p_n_deriv_x(x[:, None] - x[None, :], shifted[:, None] != shifted[None, :], 2, g)
    np.fill_diagonal(J, 0.0)
    diag = _p_n_deriv_x(x[:, None] - mu[None, :], shifted[:, None], 1, g).sum(axis=1)
    np.fill_diagonal(J, diag - J.sum(axis=1))
    return F, J


def solve_bae(n_i, v_i, spec, gamma, tol=1e-12, max_iter=200):
    """Solve the logarithmic Bethe equations for quantum numbers n_i with
    parities v_i.  Returns a BetheRootSet with per-root residuals; the flip
    eigenvalue is determined brute-force when M <= 12.
    """
    gamma = _aniso(gamma)
    if isinstance(spec, LatticeSpec):
        mu_c = spec.mu
    else:
        mu_c = tuple(complex(m) for m in spec)
        spec = LatticeSpec(len(mu_c), mu_c)
    if any(abs(m.imag) > 1e-12 for m in mu_c):
        raise ValueError("the log-form solver requires real inhomogeneities")
    mu = np.array([m.real for m in mu_c])
    if tol <= 0:
        raise ValueError("tol must be positive")
    n_i = tuple(n_i)
    v_i = tuple(int(v) for v in v_i)
    N = len(n_i)
    if N != spec.N:
        raise ValueError(f"expected N = {spec.N} quantum numbers, got {N}")
    g = gamma.gamma
    shifted = np.array([v == -1 for v in v_i], dtype=bool)
    # linearized counting function, recentred on the mean inhomogeneity
    x = np.array([2 * g * n / spec.M for n in n_i]) + float(np.mean(mu)) if N else np.empty(0)
    # roots beyond this box are numerically indistinguishable from infinity;
    # clamping keeps inadmissible quantum numbers from overflowing
    box = 50.0 + (np.max(np.abs(mu)) if spec.M else 0.0)

    best = np.inf
    for _ in range(max_iter):
        F, J = _system(x, shifted, n_i, mu, g)
        err = np.max(np.abs(F)) if N else 0.0
        best = min(best, err)
        if err < tol:
            break
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            step = -F / np.where(np.abs(np.diag(J)) > 1e-300, np.diag(J), 1.0)
        # keep iterates bounded: inadmissible quantum numbers would otherwise
        # drive roots to infinity and overflow instead of failing cleanly
        step = np.clip(step, -1.0, 1.0)
        # damped update: backtrack until the residual does not grow
        scale = 1.0
        for _ in range(40):
            x_new = np.clip(x + scale * step, -box, box)
            F_new, _ = _system(x_new, shifted, n_i, mu, g)
            if np.max(np.abs(F_new)) < err or scale < 1e-6:
                break
            scale /= 2
        if scale < 1e-6:
            # per-coordinate damped Newton sweep as fallback
            for i in range(N):
                for _ in range(60):
                    Fi, Ji = _system(x, shifted, n_i, mu, g)
                    if abs(Fi[i]) < tol:
                        break
                    x[i] = np.clip(x[i] - np.clip(Fi[i] / Ji[i, i], -0.5, 0.5), -box, box)
        else:
            x = x_new
    else:
        F, _ = _system(x, shifted, n_i, mu, g)
        if np.max(np.abs(F)) >= tol:
            raise ConvergenceError(
                f"Bethe solver did not reach tol={tol} in {max_iter} iterations",
                best_residual=float(best),
            )

    for i in range(N):
        for j in range(i + 1, N):
            if shifted[i] == shifted[j] and abs(x[i] - x[j]) < 1e-8:
                raise ValueError(
                    f"roots {i} and {j} collided at x = {x[i]:.6g}: "
                    "quantum numbers are not admissible"
                )

    F, _ = _system(x, shifted, n_i, mu, g)
    points = tuple(SpectralPoint(float(xi), SHIFTED if s else REAL) for xi, s in zip(x, shifted))
    roots = BetheRootSet(
        roots=points,
        quantum_numbers=n_i,
        parities=v_i,
        mu=mu_c,
        gamma=gamma,
        residuals=tuple(float(abs(f)) for f in F),
    )
    dev = roots.d_product_deviation()
    if dev > 1e-8:
        raise ConvergenceError(
            f"solution violates prod d(lam_j) = 1 by {dev:.2e}", best_residual=dev
        )
    if spec.M <= algebra.BRUTE_FORCE_MAX_M:
        sign, res = flip_sign_residual(roots, spec)
        if res < 1e-8:  # otherwise not a flip eigenstate: leave r_sign unset
            roots = replace(roots, r_sign=sign)
    return roots


def solve_ground_state(M, gamma, mu=None, tol=1e-12):
    """Convenience wrapper: antiferromagnetic-type filling at size M."""
    spec = LatticeSpec(M, mu if mu is not None else (0.0,) * M)
    ns, vs = ground_state_numbers(spec.N)
    return solve_bae(ns, vs, spec, gamma, tol=tol)


def eigenvalue_t(lam, roots):
    """Transfer-matrix eigenvalue
    t(lam) = prod_i 1/b(lam_i - lam + eta/2) + d(lam) prod_i 1/b(lam - lam_i + eta/2),
    smooth at lam = lam_i through the pole cancellation enforced by the
    Bethe equations.
    """
    lam = complex(lam) if not isinstance(lam, SpectralPoint) else lam.value
    eta = roots.gamma.eta
    vals = roots.values
    term1 = 1.0 + 0j
    term2 = algebra.d_eigenvalue(lam, roots.mu, roots.gamma)
    for z in vals:
        s1 = np.sinh(z - lam)
        s2 = np.sinh(lam - z)
        if min(abs(s1), abs(s2)) < 1e-13:
            raise algebra.PoleError(f"eigenvalue evaluation too close to root {z}")
        term1 *= np.sinh(z - lam + eta) / s1
        term2 *= np.sinh(lam - z + eta) / s2
    return term1 + term2


def eigenvalue_residual(roots, spec, lam):
    """||T(lam)|N> - t(lam)|N>|| / |||N>|| for the brute-force state."""
    psi = algebra.bethe_state(roots.values, spec, roots.gamma)
    tpsi = algebra.transfer_apply(lam, spec, roots.gamma, psi)
    t = eigenvalue_t(lam, roots)
    return float(np.linalg.norm(tpsi - t * psi) / np.linalg.norm(psi))


def flip_sign_residual(roots, spec):
    """(sign, residual) of R|N> = sign |N>."""
    psi = algebra.bethe_state(roots.values, spec, roots.gamma)
    flipped = algebra.flip_apply(psi)
    i0 = int(np.argmax(np.abs(psi)))
    s = flipped[i0] / psi[i0]
    sign = 1 if s.real > 0 else -1
    res = max(
        float(np.linalg.norm(flipped - sign * psi) / np.linalg.norm(psi)),
        float(abs(s - sign)),
    )
    return sign, res
