"""Finite-size six-vertex operator algebra on the 2^M spin space.

Everything here is exact linear algebra used for verification: trigonometric
Boltzmann weights, the 4x4 local vertex matrix, the monodromy matrix and its
A/B/C/D blocks, the transfer matrix, the arrow-flip operator, down-projectors
and their inverse-scattering representation, the partition function with
domain wall boundaries, and brute-force correlators.

Basis convention (fixed once and documented in the README): spin-up is bit 0,
basis states are ordered lexicographically by the bit string (s_1 ... s_M)
with column/site 1 the most significant bit, and the local vertex matrix for
column 1 is the rightmost factor of the ordered monodromy product, i.e. it
acts first on the auxiliary space.

The monodromy matrix acts matrix-free through one in-place sweep of the local
vertex matrix over a stack w[aux, input, spin]: column k mixes only the
(aux up, site k down) and (aux down, site k up) components through the 2x2
block [[b, c], [c, b]].  Because a = 1, the up-up and down-down components
are left alone, so each column costs two b/c updates on quarter-size slices.
Seeding the identity in both auxiliary slots gives all four blocks A, B, C, D
from one sweep (monodromy, transfer, transfer_apply); a single block seeds
one slot.  Every local matrix equals its full transpose, so the transposed
monodromy matrix L_1 ... L_M is the same sweep run over the columns in
reverse order, with the block's row and column swapped.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PoleError

# Dense 2^M x 2^M matrices are only materialized up to this size; matrix-free
# application to state vectors is allowed up to BRUTE_FORCE_MAX_M.
DENSE_MAX_M = 8
BRUTE_FORCE_MAX_M = 12

_POLE_TOL = 1e-13


@dataclass(frozen=True)
class AnisotropyParam:
    """Massless anisotropy gamma in radians, with eta = i*gamma.

    The admissible window is 0 <= gamma < pi/2, i.e. Delta = cos(gamma)
    in (0, 1].
    """

    gamma: float

    def __post_init__(self):
        g = float(self.gamma)
        if not np.isfinite(g) or not (0.0 <= g < np.pi / 2):
            raise ValueError(f"gamma must satisfy 0 <= gamma < pi/2, got {g}")

    @property
    def eta(self) -> complex:
        return 1j * self.gamma

    @property
    def delta(self) -> float:
        return float(np.cos(self.gamma))


def _aniso(gamma) -> AnisotropyParam:
    if isinstance(gamma, AnisotropyParam):
        return gamma
    return AnisotropyParam(float(gamma))


@dataclass(frozen=True)
class LatticeSpec:
    """Even lattice size M with the M column inhomogeneities mu_k."""

    M: int
    mu: tuple = ()

    def __post_init__(self):
        if self.M < 0 or self.M % 2 != 0:
            raise ValueError(f"lattice size M must be even and >= 0, got {self.M}")
        mu = tuple(complex(m) for m in (self.mu if len(self.mu) else [0.0] * self.M))
        if len(mu) != self.M:
            raise ValueError(f"expected {self.M} inhomogeneities, got {len(mu)}")
        if any(not np.isfinite(m.real) or not np.isfinite(m.imag) for m in mu):
            raise ValueError("inhomogeneities must be finite")
        object.__setattr__(self, "mu", mu)

    @property
    def N(self) -> int:
        return self.M // 2

    @property
    def dim(self) -> int:
        return 1 << self.M


def homogeneous_spec(M: int) -> LatticeSpec:
    return LatticeSpec(M, (0.0,) * M)


def boltzmann_weights(lam, gamma):
    """Vertex weights (a, b, c) at rapidity lam: a = 1,
    b = sinh(lam - eta/2)/sinh(lam + eta/2), c = sinh(eta)/sinh(lam + eta/2).

    lam may be an array; b and c then take its shape and a stays the scalar 1.
    """
    eta = _aniso(gamma).eta
    s = np.sinh(lam + eta / 2)
    if np.any(np.abs(s) < _POLE_TOL):
        at = np.ravel(lam)[np.argmin(np.abs(s))]
        raise PoleError(f"weights singular at lam = {at} (lam = -eta/2 mod i*pi)")
    a = 1.0 + 0.0j
    b = np.sinh(lam - eta / 2) / s
    c = np.sinh(eta) / s
    return a, b, c


def l_matrix(lam, gamma):
    """4x4 vertex matrix, row/column index 2*aux + site with up = 0."""
    a, b, c = boltzmann_weights(lam, gamma)
    return np.array(
        [
            [a, 0, 0, 0],
            [0, b, c, 0],
            [0, c, b, 0],
            [0, 0, 0, a],
        ],
        dtype=complex,
    )


def d_eigenvalue(lam, mu, gamma):
    """d(lam) = prod_k b(lam - mu_k), the D-eigenvalue on the all-up state."""
    return np.prod(boltzmann_weights(lam - np.asarray(mu), gamma)[1]) if len(mu) else 1.0 + 0j


def _column_weights(lam, spec, gamma):
    """(b, c) of every column at rapidity lam; a PoleError names the column."""
    try:
        return boltzmann_weights(lam - np.asarray(spec.mu), gamma)[1:]
    except PoleError:
        for k, m in enumerate(spec.mu, 1):
            try:
                boltzmann_weights(lam - m, gamma)
            except PoleError as exc:
                raise PoleError(f"column {k}: {exc}") from None
        raise


def _sweep(lam, spec, gamma, w, reverse=False):
    """Run the monodromy matrix in place over the stack w of shape
    (2 aux, batch, 2^M, ...), where w[a, j] is the aux-a component of input j.
    reverse=True runs the columns M..1, which applies the full transpose."""
    b, c = _column_weights(lam, spec, gamma)
    for k in range(spec.M - 1, -1, -1) if reverse else range(spec.M):
        v = w.reshape(2, w.shape[1], 1 << k, 2, -1)
        x, y = v[0, :, :, 1], v[1, :, :, 0]
        t = c[k] * x
        x *= b[k]
        x += c[k] * y
        y *= b[k]
        y += t
    return w


_BLOCK_INDEX = {"A": (0, 0), "B": (0, 1), "C": (1, 0), "D": (1, 1)}


def monodromy_apply(lam, spec, gamma, arr, block="B", transpose=False):
    """Apply one auxiliary block of the monodromy matrix to a vector (or to a
    stack of column vectors) without materializing the 2^M matrix.

    With transpose=True the transposed block acts, which is what a left
    (dual) vector contraction needs.
    """
    row, col = _BLOCK_INDEX[block]
    if transpose:
        row, col = col, row
    arr = np.asarray(arr, dtype=complex)
    w = np.zeros((2, 1) + arr.shape, dtype=complex)
    w[col, 0] = arr
    return _sweep(lam, spec, gamma, w, reverse=transpose)[row, 0]


def _all_blocks(lam, spec, gamma, arr):
    """w[r, c] = T_rc(lam) arr for all four blocks, from one sweep."""
    w = np.zeros((2, 2) + arr.shape, dtype=complex)
    w[0, 0] = w[1, 1] = arr
    return _sweep(lam, spec, gamma, w)


def _require_dense(spec):
    if spec.M > DENSE_MAX_M:
        raise ValueError(f"dense operators are limited to M <= {DENSE_MAX_M}, got M = {spec.M}")


def _require_vector(spec):
    if spec.M > BRUTE_FORCE_MAX_M:
        raise ValueError(f"brute force is limited to M <= {BRUTE_FORCE_MAX_M}, got M = {spec.M}")


def monodromy(lam, spec, gamma):
    """Dense (A, B, C, D) blocks of the monodromy matrix at rapidity lam."""
    _require_dense(spec)
    w = _all_blocks(lam, spec, gamma, np.eye(spec.dim))
    return w[0, 0], w[0, 1], w[1, 0], w[1, 1]


def transfer(lam, spec, gamma):
    """Dense transfer matrix A(lam) + D(lam)."""
    A, _, _, D = monodromy(lam, spec, gamma)
    return A + D


def transfer_apply(lam, spec, gamma, vec):
    w = _all_blocks(lam, spec, gamma, np.asarray(vec))
    return w[0, 0] + w[1, 1]


def up_state(spec):
    v = np.zeros(spec.dim, dtype=complex)
    v[0] = 1.0
    return v


def bethe_state(lams, spec, gamma):
    """|N> = B(lam_1)...B(lam_N)|up>, independent of root order."""
    _require_vector(spec)
    v = up_state(spec)
    for lam in reversed(list(lams)):
        v = monodromy_apply(lam, spec, gamma, v, "B")
    return v


def dual_state(lams, spec, gamma):
    """Left state <N| = <up|C(lam_1)...C(lam_N) as a plain row vector.

    Pair it with a ket through an unconjugated dot product.
    """
    _require_vector(spec)
    w = up_state(spec)
    for lam in lams:
        w = monodromy_apply(lam, spec, gamma, w, "C", transpose=True)
    return w


def flip_apply(vec):
    """Apply the arrow-flip operator prod_k sigma_k^x (reverses bit strings)."""
    return np.asarray(vec)[::-1].copy()


def rtt_residual(lam, mu, spec, gamma):
    """Relative max-norm residual of the intertwining relation

        Rcheck(lam-mu) [T(lam) x T(mu)] = [T(mu) x T(lam)] Rcheck(lam-mu)

    with Rcheck(z) = P L(z + eta/2) and P the auxiliary permutation.  Tensor
    entries are operator products with the first auxiliary slot acting on the
    left; the exchange of arguments on the right side is forced by requiring
    the residual to vanish.
    """
    gamma = _aniso(gamma)
    _require_dense(spec)
    dim = spec.dim
    Ta = np.array(monodromy(lam, spec, gamma)).reshape(2, 2, dim, dim)
    Tb = np.array(monodromy(mu, spec, gamma)).reshape(2, 2, dim, dim)
    # X_lm[(i,j),(k,l)] = T(lam)[i,k] T(mu)[j,l]
    X_lm = np.einsum("ikab,jlbc->ijklac", Ta, Tb).reshape(4, 4, dim, dim)
    X_ml = np.einsum("ikab,jlbc->ijklac", Tb, Ta).reshape(4, 4, dim, dim)
    P = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            P[2 * j + i, 2 * i + j] = 1.0
    R = P @ l_matrix(lam - mu + gamma.eta / 2, gamma)
    lhs = np.einsum("pq,qrab->prab", R, X_lm)
    rhs = np.einsum("pqab,qr->prab", X_ml, R)
    scale = np.max(np.abs(X_lm))
    return float(np.max(np.abs(lhs - rhs)) / scale)


def partition_bruteforce(lams, spec, gamma):
    """Partition function Z_M = <N| R |N> with the doubled rapidity set.

    lams supplies the N = M/2 distinct rapidities; they need not solve the
    Bethe equations.
    """
    lams = list(lams)
    if spec.M == 0:
        return 1.0 + 0.0j
    if len(lams) != spec.N:
        raise ValueError(f"expected N = {spec.N} rapidities, got {len(lams)}")
    ket = bethe_state(lams, spec, gamma)
    bra = dual_state(lams, spec, gamma)
    return complex(bra @ flip_apply(ket))


def projector_pi(k, spec):
    """Dense projector pi_k = (1 - sigma_k^z)/2 onto arrow-down at column k."""
    _require_dense(spec)
    return np.diag(_pi_mask(k, spec).astype(complex))


def _pi_mask(k, spec):
    if not (1 <= k <= spec.M):
        raise ValueError(f"column index {k} out of range 1..{spec.M}")
    idx = np.arange(spec.dim)
    return ((idx >> (spec.M - k)) & 1).astype(float)


def pi_apply(k, spec, vec):
    """pi_k applied to a state vector or along axis 0 of a (2^M, ...) stack."""
    vec = np.asarray(vec)
    return _pi_mask(k, spec).reshape((-1,) + (1,) * (vec.ndim - 1)) * vec


def qism_pi(k, spec, gamma):
    """Down-projector at column k built from the inverse scattering solution:
    prod_{l<k} T(mu_l + eta/2) . D(mu_k + eta/2) . prod_{l>k} T(mu_l + eta/2).
    """
    gamma = _aniso(gamma)
    _require_dense(spec)
    if not (1 <= k <= spec.M):
        raise ValueError(f"column index {k} out of range 1..{spec.M}")
    eta2 = gamma.eta / 2
    out = np.eye(spec.dim, dtype=complex)
    for l in range(1, k):
        out = out @ transfer(spec.mu[l - 1] + eta2, spec, gamma)
    _, _, _, D = monodromy(spec.mu[k - 1] + eta2, spec, gamma)
    out = out @ D
    for l in range(k + 1, spec.M + 1):
        out = out @ transfer(spec.mu[l - 1] + eta2, spec, gamma)
    return out


def correlator_bruteforce(lams, spec, gamma, columns, return_complex=False):
    """<N| R pi_{k_1} ... pi_{k_n} |N> / <N| R |N> for distinct columns.

    Real part is returned; for asymmetric parameter sets the exact value may
    carry an imaginary part, which return_complex exposes.
    """
    columns = list(columns)
    if len(set(columns)) != len(columns):
        raise ValueError("columns must be distinct")
    ket = bethe_state(lams, spec, gamma)
    bra = dual_state(lams, spec, gamma)
    den = complex(bra @ flip_apply(ket))
    scale = float(np.max(np.abs(ket)) * np.max(np.abs(bra))) * spec.dim
    if abs(den) < 1e-14 * max(scale, 1.0):
        raise ZeroDivisionError("partition function vanished (non-generic parameters)")
    v = ket
    for k in columns:
        v = pi_apply(k, spec, v)
    num = complex(bra @ flip_apply(v))
    val = num / den
    if return_complex:
        return val
    return float(val.real)
