"""Bethe equations in logarithmic form for 1-string root configurations.

Roots live on the directed contour made of the real axis and the line
Im(lam) = pi/2; a root is stored as a real abscissa plus its parity
v = 1 - (4/pi) Im(lam) in {+1, -1}, which names the branch.  The logarithmic
equations counting(lam_i) = 2 pi n_i are solved by a damped Newton iteration
with analytic Jacobian from the thermodynamic root positions; a solve that
stalls is a ConvergenceError at once.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .algebra import AnisotropyParam, LatticeSpec, _aniso
from .errors import ConvergenceError

REAL = "real"
SHIFTED = "shifted"

_MAX_ITER = 200  # damped Newton steps per solve
_STALL_STEPS = 10  # accepted steps that must at least halve max|F|


def _on_lines(z):
    """(real, shifted): the points z with Im z = 0 and Im z = pi/2 mod pi, to 1e-9."""
    im = np.mod(np.imag(z), np.pi)
    return np.minimum(im, np.pi - im) < 1e-9, np.abs(im - np.pi / 2) < 1e-9


def _on_contour(lam):
    """(x, shifted) of a complex point on the contour, a ValueError elsewhere."""
    z = complex(lam)
    real, shifted = _on_lines(z)
    if not (real or shifted):
        raise ValueError(f"point {z} is off the contour (Im must be 0 or pi/2 mod pi)")
    return z.real, bool(shifted)


def p_n(lam, n, gamma):
    """Branch-dependent momentum-like function, continuous and odd in x.

    On the real branch p_n(x) = 2 atan(tanh(x) cot(n gamma/2)); on the
    shifted branch the hyperbolic cotangent collapses to
    -2 atan(tanh(x) tan(n gamma/2)).  Monotone increasing (decreasing) on the
    real (shifted) branch when sin(n gamma) > 0; no unwrapping is needed.
    """
    return float(_p_n_x(*_on_contour(lam), n, _aniso(gamma).gamma))


def _p_n_x(x, crossed, n, g):
    """p_n at abscissa differences x; crossed marks an Im = pi/2 offset.
    Vectorized in x/crossed.  Both branches are 2 atan(tanh(x) kappa), with
    kappa = cot(n g/2) on the real branch and -tan(n g/2) on the shifted one,
    since -2 atan(t tan a) = 2 atan(-t tan a): one arctan per entry, and
    kappa taken at the broadcast shape of the flag alone."""
    t = math.tan(n * g / 2)
    cot = 1 / t if t else math.inf
    return 2.0 * np.arctan(np.tanh(x) * np.where(crossed, -t, cot))


def _p_n_deriv_x(x, crossed, n, g, scale=1.0):
    """p_n' = 2 pi K_n at abscissa differences x, times scale: the one
    definition of the branch kernel.  Vectorized in x/crossed/scale, where
    scale must not widen the shape of x and crossed.  The flag and the scale
    act through their own broadcast shapes, so a table over x costs its
    sinh, the square, the shift and one division, the temporaries updated
    in place.  Where sinh(x)^2 overflows the kernel is num/inf = 0, below
    the double range anyway."""
    s = math.sin(n * g)  # scalar constants by math: numpy's scalar call costs 0.4 us
    num = np.where(crossed, -s * scale, s * scale)
    with np.errstate(over="ignore"):
        t = np.sinh(x) ** 2 + np.where(crossed, math.cos(n * g / 2) ** 2, math.sin(n * g / 2) ** 2)
    return np.divide(num, t, out=t) if isinstance(t, np.ndarray) else num / t


def p_n_deriv(lam, n, gamma):
    """d p_n / dx along the branch of lam."""
    return float(_p_n_deriv_x(*_on_contour(lam), n, _aniso(gamma).gamma))


def _counting_tables(dm, cm, dx, cx, g):
    """sum_k p_1 - sum_j p_2 over the last axis of the difference tables
    against the inhomogeneities (dm) and the roots (dx), whose crossing
    flags are cm and cx."""
    return _p_n_x(dm, cm, 1, g).sum(axis=-1) - _p_n_x(dx, cx, 2, g).sum(axis=-1)


def counting_function(lam, roots) -> float:
    """sum_k p_1(lam - mu_k) - sum_j p_2(lam - lam_j) along the contour."""
    x, shifted = _on_contour(lam)
    return float(_counting_tables(x - np.real(roots.mu), shifted, x - np.array(roots.x),
                                  shifted != roots.shifted, roots.gamma.gamma))


def log_form_consistency(lam, roots) -> float:
    """|sin(counting + i-log form)| at lam away from the roots: the two
    logarithmic versions of the Bethe equations agree modulo pi, up to a
    global half-turn per root.  The i-log form is i log(dQ/P) for the terms
    of algebra._transfer_terms, so its real part is -arg(dQ/P)."""
    x, shifted = _on_contour(lam)
    P, dQ, *_ = algebra._transfer_terms([x + 0.5j * np.pi * shifted], roots.values, roots.mu,
                                        roots.gamma)
    return float(abs(np.sin(counting_function(lam, roots) - np.angle(dQ[0] / P[0]))))


@dataclass(frozen=True)
class BetheRootSet:
    """Solved 1-string roots with their quantum numbers and diagnostics.
    Root i is the abscissa x[i] on the branch of its parity: the real axis
    for v = +1, the line Im = pi/2 for v = -1."""

    x: tuple  # real abscissae, length N
    quantum_numbers: tuple  # (half-)integers n_i
    parities: tuple  # +1 / -1
    mu: tuple  # M inhomogeneities (real)
    gamma: AnisotropyParam
    residuals: tuple = ()
    r_sign: int | None = None
    # the Gaudin matrix G, phi' = i G, of determinant._gaudin_matrix, built on
    # first use and shared read-only by the determinant formulas; not an
    # __init__ argument, so a dataclasses.replace copy builds its own
    _phi_prime: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        N = len(self.x)
        if not (len(self.quantum_numbers) == len(self.parities) == N):
            raise ValueError("abscissae, quantum numbers and parities must have equal length")
        seen = set()
        for n, v in zip(self.quantum_numbers, self.parities):
            if v not in (1, -1):
                raise ValueError(f"parity must be +-1, got {v}")
            if (n, v) in seen:
                raise ValueError(f"duplicate quantum number {n} with parity {v}")
            seen.add((n, v))
        half = len(self.mu) // 2
        want_int = half % 2 == 1  # integers for N odd, half-integers for N even
        for n in self.quantum_numbers:
            twice = round(2 * n)
            if abs(2 * n - twice) > 1e-12 or (twice % 2 == 0) != want_int:
                kind = "integers" if want_int else "half-integers"
                raise ValueError(f"quantum numbers must be {kind} for N = {half}, got {n}")

    @property
    def N(self) -> int:
        return len(self.x)

    @property
    def shifted(self) -> np.ndarray:
        return np.array(self.parities) == -1

    @property
    def values(self) -> np.ndarray:
        """The complex roots x + i pi/2 [v = -1]; a real array when every
        root is on the real axis."""
        x, shifted = np.array(self.x, dtype=float), self.shifted
        return x + 0.5j * np.pi * shifted if shifted.any() else x + 0.0

    @property
    def spec(self) -> LatticeSpec:
        return LatticeSpec(len(self.mu), self.mu)

    @property
    def max_residual(self) -> float:
        if len(self.residuals) != len(self.x):
            return np.inf  # unsolved set
        return max(self.residuals) if self.residuals else 0.0

    def d_product_deviation(self) -> float:
        """|prod_j d(lam_j) - 1|, which vanishes on Bethe solutions: one
        product over the N x M table of d_eigenvalue's factors, down its
        columns first, where numpy multiplies whole rows at a time."""
        prod = np.prod(algebra._d_factors(self.values, self.mu, self.gamma), axis=0).prod()
        return float(abs(prod - 1.0))

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma.gamma,
            "M": len(self.mu),
            "mu": [float(np.real(m)) for m in self.mu],
            "roots": [{"x": x, "branch": SHIFTED if v == -1 else REAL}
                      for x, v in zip(self.x, self.parities)],
            "n": list(self.quantum_numbers),
            "v": list(self.parities),
            "residuals": list(self.residuals),
            "r_sign": self.r_sign,
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_json_dict(), **kw)

    @classmethod
    def from_json_dict(cls, d) -> "BetheRootSet":
        """Inverse of to_json_dict; each root's branch must agree with its
        parity in "v"."""
        roots = cls(
            x=tuple(r["x"] for r in d["roots"]),
            quantum_numbers=tuple(d["n"]),
            parities=tuple(d["v"]),
            mu=tuple(d["mu"]),
            gamma=AnisotropyParam(d["gamma"]),
            residuals=tuple(d.get("residuals", ())),
            r_sign=d.get("r_sign"),
        )
        if [r["branch"] for r in d["roots"]] != [SHIFTED if v == -1 else REAL
                                                  for v in roots.parities]:
            raise ValueError("each root's branch must agree with its parity: "
                             f"'{REAL}' for v = 1, '{SHIFTED}' for v = -1")
        return roots


def ground_state_numbers(N):
    """Symmetric consecutive quantum numbers n_j = j - (N+1)/2, parities +1."""
    ns = tuple(j - (N + 1) / 2 for j in range(1, N + 1))
    ns = tuple(n if N % 2 == 0 else round(n) for n in ns)
    return ns, (1,) * N


def _difference_tables(x, shifted, mu):
    """(dm, cm, dx, cx): the difference tables x_i - mu_k and x_i - x_j of
    the abscissae x against real mu and against themselves, and their
    crossing flags."""
    cm = shifted[:, None]
    return x[:, None] - mu, cm, x[:, None] - x, cm != shifted


def _jacobian(tables, g):
    """Jacobian of counting(lam_i) = 2 pi n_i from the _difference_tables:
    p_2' off the diagonal, and on it the p_1' sum against mu minus the p_2'
    sum against the other roots.  At a solution it is the Gaudin matrix G,
    phi' = i G (determinant._gaudin_matrix)."""
    dm, cm, dx, cx = tables
    J = _p_n_deriv_x(dx, cx, 2, g)
    np.fill_diagonal(J, 0.0)
    diag = _p_n_deriv_x(dm, cm, 1, g).sum(axis=1)
    np.fill_diagonal(J, diag - J.sum(axis=1))
    return J


def _system(x, shifted, n_target, mu, g):
    """Residual vector and Jacobian of counting(lam_i) = 2 pi n_i, both read
    from one set of _difference_tables."""
    tables = _difference_tables(x, shifted, mu)
    F = _counting_tables(*tables, g) - 2 * np.pi * np.asarray(n_target)
    return F, _jacobian(tables, g)


def _start(n_i, shifted, mu, g):
    """Newton's starting abscissae.

    A real-branch root starts where the integrated ground-state density
    rho(x) = (1/M) sum_k 1 / (2 gamma cosh(pi (x - mu_k) / gamma)) reaches its
    quantum number, (1/M) sum_k gd(pi (x - mu_k) / gamma) = 2 pi n / M with
    gd(u) = 2 atan(e^u) - pi/2.  At equal mu this is the closed form
    x = mu + (gamma/pi) artanh(sin(2 pi n / M)); otherwise a bracketed Newton
    iteration on these monotone scalar equations runs from the closed form
    shifted by mean(mu) until its steps fall below 1e-3, under the largest
    distance (about 8e-3, at the edges) from these positions to the
    finite-size roots: a tighter start saves no Newton step of the Bethe
    solve.  Shifted-branch roots, whose counting function decreases and
    whose edges spread like log M, start on the line 2 gamma n / M + mean(mu).
    """
    M = len(mu)
    n = np.asarray(n_i, dtype=float)
    centre = float(mu.sum() / M) if M else 0.0  # np.mean bit for bit
    x = 2 * g * n / M + centre
    real = ~shifted
    if not real.any():
        return x
    # a number past the edge of the real branch has no root: clip its target
    edge = np.nextafter(1.0, 0.0)
    y = np.sin((2 * np.pi * n[real] / M).clip(-np.pi / 2, np.pi / 2)).clip(-edge, edge)
    closed = (g / np.pi) * np.arctanh(y)
    mu_lo, mu_hi = mu.min(), mu.max()
    lo, hi = closed + mu_lo, closed + mu_hi  # gd is increasing in x - mu_k
    xr = closed + centre
    if mu_hi > mu_lo:
        # sum_k atan(e^{u_k}) = M (asin(y) + pi/2) / 2, u_k = c (x - mu_k)
        c, target = np.pi / g, M * (np.arcsin(y) + np.pi / 2) / 2
        cmu = c * mu
        for _ in range(200):
            w = np.subtract.outer(c * xr, cmu)
            np.exp(w.clip(-700.0, 700.0, out=w), out=w)  # e^u, finite
            F = np.arctan(w).sum(axis=1) - target
            np.add(w, 1 / w, out=w)  # the sech table, in place
            dF = c * np.divide(1.0, w, out=w).sum(axis=1)  # (c/2) sum_k sech(u_k) > 0
            hi, lo = np.where(F > 0, xr, hi), np.where(F < 0, xr, lo)
            new = xr - F / dF
            out = (new < lo) | (new > hi)
            if out.any():  # bisect where Newton leaves the bracket
                new = np.where(out, 0.5 * (lo + hi), new)
            done = np.abs(new - xr).max() <= 1e-3
            xr = new
            if done:
                break
    x[real] = xr
    return x


def solve_bae(n_i, v_i, spec, gamma, tol=1e-12):
    """Solve the logarithmic Bethe equations for quantum numbers n_i with
    parities v_i on the LatticeSpec spec.  Returns a BetheRootSet with
    per-root residuals and the flip eigenvalue r_sign = sign <N|N> =
    (-1)^N sign det J, read from the final Newton Jacobian J: the Gaudin
    matrix is phi' = i J, and the norm prefactor is (i sin(gamma))^N times
    a product that is positive for roots on the contour.  A singular J, a
    Newton step that no damping down to 1e-6 makes lower max|F|, a run of
    _STALL_STEPS = 10 accepted steps that together lower max|F| by less than
    half, or _MAX_ITER steps short of tol is a ConvergenceError at the
    current max|F|.  A solve that converges lowers max|F| far faster: by a
    factor of more than 3e5 over any ten steps, on 400 seeded ground states
    (M 4-64, both branches, spread mu) and the mixed-parity fillings that
    solve.
    """
    gamma = _aniso(gamma)
    if gamma.gamma == 0:
        raise ValueError("the logarithmic Bethe equations degenerate at gamma = 0")
    mu = np.array(spec.mu)
    if np.any(np.abs(mu.imag) > 1e-12):
        raise ValueError("the log-form solver requires real inhomogeneities")
    mu = mu.real.copy()
    if tol <= 0:
        raise ValueError("tol must be positive")
    n_i = tuple(n_i)
    v_i = tuple(int(v) for v in v_i)
    N = len(n_i)
    if N != spec.N:
        raise ValueError(f"expected N = {spec.N} quantum numbers, got {N}")
    g = gamma.gamma
    shifted = np.array(v_i) == -1
    if N and -1 not in v_i:
        # on the real branch the counting function runs between the limits
        # -+[M (pi - gamma) - (N - 1)(pi - 2 gamma)] at x -> -+inf, whatever mu
        edge = spec.M * (np.pi - g) - (N - 1) * (np.pi - 2 * g)
        far = max(n_i, key=abs)
        if 2 * np.pi * abs(far) >= edge:
            raise ValueError(
                f"quantum number {far} is not admissible: real-branch roots need "
                f"2 pi |n| < M (pi - gamma) - (N - 1)(pi - 2 gamma) = {edge:.6g}"
            )
    x = _start(n_i, shifted, mu, g)
    # roots beyond this box are numerically indistinguishable from infinity;
    # clamping keeps inadmissible quantum numbers from overflowing
    box = 50.0 + (np.max(np.abs(mu)) if spec.M else 0.0)

    # each accepted iterate carries the residual, Jacobian and max|F| of the
    # trial that accepted it, so _system runs once per point visited
    F, J = _system(x, shifted, n_i, mu, g)
    err = float(np.abs(F).max()) if N else 0.0
    errs = [err]  # max|F| at each accepted iterate
    for _ in range(_MAX_ITER):
        if err < tol:
            break
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Bethe Jacobian at max|F| = {err:.3e}", err) from exc
        # keep iterates bounded: inadmissible quantum numbers would otherwise
        # drive roots to infinity and overflow instead of failing cleanly
        # (in place, by minimum and maximum: less call overhead than np.clip)
        np.maximum(np.minimum(step, 1.0, out=step), -1.0, out=step)
        # damped update: backtrack until max|F| falls, so it is always the best
        scale = 1.0
        while True:
            x_new = x + scale * step
            np.maximum(np.minimum(x_new, box, out=x_new), -box, out=x_new)
            F_new, J_new = _system(x_new, shifted, n_i, mu, g)
            if (err_new := float(np.abs(F_new).max())) < err:
                break
            scale /= 2
            if scale < 1e-6:
                raise ConvergenceError(f"Bethe solver stalled at max|F| = {err:.3e}", err)
        x, F, J, err = x_new, F_new, J_new, err_new
        errs.append(err)
        if len(errs) > _STALL_STEPS and 2 * err > errs[-1 - _STALL_STEPS] and not err < tol:
            raise ConvergenceError(f"Bethe solver stalled at max|F| = {err:.3e}: "
                                   f"{_STALL_STEPS} steps lowered it by less than half", err)
    if not err < tol:
        raise ConvergenceError(f"Bethe solver did not reach tol={tol} in {_MAX_ITER} "
                               f"iterations: max|F| = {err:.3e}", err)

    # two roots of one branch closer than 1e-8 are neighbours in (branch, x)
    # order, so the O(N^2) table that names the first pair is built only then
    order = np.lexsort((x, shifted))
    xs, bs = x[order], shifted[order]
    if np.any((xs[1:] - xs[:-1] < 1e-8) & (bs[1:] == bs[:-1])):
        close = (shifted[:, None] == shifted[None, :]) & (np.abs(x[:, None] - x[None, :]) < 1e-8)
        i, j = np.argwhere(np.triu(close, 1))[0]  # row-major: the first (i, j) pair first
        raise ValueError(
            f"roots {i} and {j} collided at x = {x[i]:.6g}: quantum numbers are not admissible"
        )

    sign = np.linalg.slogdet(J)[0]
    roots = BetheRootSet(
        x=tuple(x.tolist()),
        quantum_numbers=n_i,
        parities=v_i,
        mu=spec.mu,
        gamma=gamma,
        residuals=tuple(np.abs(F).tolist()),
        r_sign=int((-1) ** N * sign) if sign else None,  # unset for a singular Jacobian
    )
    dev = roots.d_product_deviation()
    if not dev <= 1e-8:
        raise ConvergenceError(
            f"solution violates prod d(lam_j) = 1 by {dev:.2e}", best_residual=dev
        )
    return roots


def solve_ground_state(M, gamma, mu=None, tol=1e-12):
    """Convenience wrapper: antiferromagnetic-type filling at size M."""
    spec = LatticeSpec(M, mu if mu is not None else (0.0,) * M)
    ns, vs = ground_state_numbers(spec.N)
    return solve_bae(ns, vs, spec, gamma, tol=tol)


def eigenvalue_t(lam, roots):
    """Transfer-matrix eigenvalue
    t(lam) = prod_i 1/b(lam_i - lam + eta/2) + d(lam) prod_i 1/b(lam - lam_i + eta/2),
    the terms P + dQ of algebra._transfer_terms, smooth at lam = lam_i
    through the pole cancellation enforced by the Bethe equations.
    """
    P, dQ, *_ = algebra._transfer_terms([complex(lam)], roots.values, roots.mu, roots.gamma)
    return P[0] + dQ[0]


def eigenvalue_residual(roots, lam):
    """||T(lam)|N> - t(lam)|N>|| / |||N>|| for the brute-force state."""
    psi = algebra.bethe_state(roots.values, roots.spec, roots.gamma)
    tpsi = algebra.transfer_apply(lam, roots.spec, roots.gamma, psi)
    t = eigenvalue_t(lam, roots)
    return float(np.linalg.norm(tpsi - t * psi) / np.linalg.norm(psi))


def flip_sign_residual(roots):
    """(sign, residual) of R|N> = sign |N>."""
    return _flip_sign(algebra.bethe_state(roots.values, roots.spec, roots.gamma))


def _flip_sign(psi):
    """(sign, residual) of R psi = sign psi for a brute-force Bethe state psi."""
    flipped = algebra.flip_apply(psi)
    i0 = int(np.argmax(np.abs(psi)))
    s = flipped[i0] / psi[i0]
    sign = 1 if s.real > 0 else -1
    res = max(
        float(np.linalg.norm(flipped - sign * psi) / np.linalg.norm(psi)),
        float(abs(s - sign)),
    )
    return sign, res
