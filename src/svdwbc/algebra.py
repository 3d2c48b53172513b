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
reverse order, with the block's row and column swapped.  Each stacked input
may carry its own rapidity: the sweep then reads an (M, S) weight table, so
S states, or S pairs of monodromy matrices, cost one sweep per factor.

Product states (bethe_state, dual_state) take a sector sweep instead.  By
the ice rule the j-th B (or transposed C) factor takes its input in the
sector of j down spins (aux down) and returns it in sector j + 1 (aux up),
so the sweep keeps only those two sectors' amplitudes: column k pairs the
sector-j states with site k up and the same states flipped down in sector
j + 1, and mixes each pair by the same [[b, c], [c, b]] block.  Each
sector's pair table is built on first use, so an N-factor product holds only
the tables j < N, and the state is scattered into the 2^M vector only at the
end.  A dual state is swept on the bit-reversed basis, where its step k
reads column M - k: a ket's step k and a dual state's step k then take the
same pair table, so any stack of kets and dual states shares one sweep (one
flat buffer; ket_bra stacks the two states of one rapidity set), and only a
dual state's final sector is reversed back.
"""

import functools
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
        mu = np.asarray(self.mu if len(self.mu) else [0.0] * self.M, dtype=complex).ravel()
        if len(mu) != self.M:
            raise ValueError(f"expected {self.M} inhomogeneities, got {len(mu)}")
        if not np.isfinite(mu).all():
            raise ValueError("inhomogeneities must be finite")
        object.__setattr__(self, "mu", tuple(mu.tolist()))

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
    """4x4 vertex matrix, row/column index 2*aux + site with up = 0.  An array
    lam gives a stack of shape lam.shape + (4, 4)."""
    a, b, c = boltzmann_weights(lam, gamma)
    out = np.zeros(np.shape(b) + (4, 4), dtype=complex)
    out[..., 0, 0] = out[..., 3, 3] = a
    out[..., 1, 1] = out[..., 2, 2] = b
    out[..., 1, 2] = out[..., 2, 1] = c
    return out


def _exp_tables(*zs, rows=0):
    """U = e^{2(z - c)} for each rapidity array z, c the midrange of the real
    parts of all of them.  In U, coth(x - y) = (U_x + U_y)/(U_x - U_y) and
    |sinh(x - y)| = |U_x - U_y| / (2 sqrt|U_x U_y|), and no entry overflows
    while the real parts span less than about 700.  With rows = r the first
    r axes of every z index a stack of rows (an axis of length 1 is shared
    by every row), and each row takes the midrange of its own entries: its
    tables are then those of the row alone, whatever the other rows hold."""
    if len(zs) == 1 and not rows:  # one array: the same tables from fewer numpy calls
        t = np.array(zs[0], dtype=complex)
        re = t.real
        if t.size:
            t -= (np.maximum.reduce(re, axis=None) + np.minimum.reduce(re, axis=None)) / 2
        t *= 2
        return [np.exp(t, out=t)]
    zs = [np.asarray(z, dtype=complex) for z in zs]
    if not rows:
        re = np.concatenate([z.real.ravel() for z in zs])
        c = (re.max() + re.min()) / 2 if re.size else 0.0
        return [np.exp(2 * (z - c)) for z in zs]
    re = [r for r in (z.real.reshape(z.shape[:rows] + (-1,)) for z in zs) if r.shape[-1]]
    if not re:
        return [np.exp(2 * z) for z in zs]
    hi, lo = re[0].max(axis=-1), re[0].min(axis=-1)
    for r in re[1:]:
        hi, lo = np.maximum(hi, r.max(axis=-1)), np.minimum(lo, r.min(axis=-1))
    c = (hi + lo) / 2
    return [np.exp(2 * (z - c.reshape(c.shape + (1,) * (z.ndim - rows)))) for z in zs]


def d_eigenvalue(lam, mu, gamma):
    """d(lam) = prod_k b(lam - mu_k), the D-eigenvalue on the all-up state.
    An array lam gives one value per entry, the product of its _d_factors."""
    return np.prod(_d_factors(lam, mu, gamma), axis=-1)


def _d_factors(lam, mu, gamma):
    """The factors b(lam - mu_k) of d_eigenvalue along a new last axis.  In
    the table U = e^{2(lam - c)}, m = e^{2(mu - c)} of _exp_tables each is
    b = (U - m_k e^eta) / (U e^eta - m_k), one subtraction pair and one
    division, and |sinh(lam - mu_k + eta/2)| = |U e^eta - m_k| / (2 sqrt|U m_k|)
    finds the poles that boltzmann_weights reports.  Each row of a stack of
    lam rows (its last axis) takes its own centre c."""
    e = np.exp(_aniso(gamma).eta)
    lam = np.asarray(lam)
    rows = max(lam.ndim - 1, 0)  # a stack of rows of lam: a centre per row
    lam = lam[..., None]
    U, m = _exp_tables(lam, np.reshape(mu, (1,) * (rows + 1) + (-1,)) if rows else mu, rows=rows)
    den = U * e - m
    small = np.abs(den) < 2 * _POLE_TOL * np.sqrt(np.abs(U)) * np.sqrt(np.abs(m))
    if np.any(small):
        at = np.broadcast_to(lam - np.asarray(mu), small.shape)[small][0]
        raise PoleError(f"weights singular at lam = {at} (lam = -eta/2 mod i*pi)")
    return (U - m * e) / den


def _gap(u, a):
    """u - a for table entries u, a of x, y; a PoleError where |sinh(x - y)| < 1e-14."""
    gap = u - a
    if np.any(np.abs(gap) < 2e-14 * np.sqrt(np.abs(u)) * np.sqrt(np.abs(a))):
        raise PoleError("coth evaluated at a zero of sinh")
    return gap


def _transfer_terms(xi, lams, mu, gamma):
    """The two terms of the transfer eigenvalue t(xi) = P + dQ at each entry
    of an array xi with at least one axis, for the roots lams:
    P = prod_j sinh(lam_j - xi + eta) / sinh(lam_j - xi) and
    dQ = d(xi) prod_j sinh(xi - lam_j + eta) / sinh(xi - lam_j).  Each factor
    comes from the _exp_tables entries u of lam_j and x of xi, entry
    [..., i, j]; those tables and e = e^{2 eta} are returned after P and dQ.
    Every row of xi (its last axis) takes its own centre, here and in d(xi),
    so that a row of a stack gets the bits of that row alone."""
    xi = np.asarray(xi, dtype=complex)
    eta = _aniso(gamma).eta
    rows = xi.ndim - 1
    u, x = _exp_tables(np.reshape(lams, (1,) * rows + (1, -1)), xi[..., :, None], rows=rows)
    e = np.exp(2 * eta)
    # with d = lam_j - xi_i: sinh(d + eta) / sinh(d) = e^{eta} (u - x/e) / (u - x)
    p = _gap(u, x)  # raises before the products divide by a zero sinh
    P = np.exp(len(lams) * eta) * np.prod((u - x / e) / p, axis=-1)
    Q = np.exp(-len(lams) * eta) * np.prod((u - x * e) / p, axis=-1)  # sinh(eta - d) / sinh(-d)
    return P, Q * d_eigenvalue(xi, mu, gamma), u, x, e


def _column_weights(lam, spec, gamma):
    """(b, c) tables of shape (M, S): the weights of every column at each of
    the S rapidities of a 1-d lam (S = 1 for a scalar lam).  A pole at any
    of them is a PoleError that names the column."""
    lam = np.atleast_1d(lam)
    mu = np.asarray(spec.mu, dtype=complex)
    try:
        return boltzmann_weights(lam[None, :] - mu[:, None], gamma)[1:]
    except PoleError:
        for k, m in enumerate(mu, 1):
            try:
                boltzmann_weights(lam - m, gamma)
            except PoleError as exc:
                raise PoleError(f"column {k}: {exc}") from None
        raise


def _sweep(lam, spec, gamma, w, reverse=False):
    """Run the monodromy matrix in place over the stack w of shape
    (2 aux, S, 2^M, ...), where w[a, j] is the aux-a component of input j.
    lam is one rapidity for every input, or a 1-d array with one rapidity
    per input.  reverse=True runs the columns M..1, which applies the full
    transpose."""
    b, c = _column_weights(lam, spec, gamma)
    b, c = b[:, :, None, None], c[:, :, None, None]
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
    """w[r, c, s] = T_rc(lam_s) arr for all four blocks and every rapidity of
    lam (a scalar or a 1-d array), from one sweep."""
    lam = np.atleast_1d(lam)
    w = np.zeros((2, 2, len(lam)) + np.shape(arr), dtype=complex)
    w[0, 0] = w[1, 1] = arr
    _sweep(np.tile(lam, 2), spec, gamma, w.reshape((2, -1) + np.shape(arr)))
    return w


def _require_dense(spec):
    if spec.M > DENSE_MAX_M:
        raise ValueError(f"dense operators are limited to M <= {DENSE_MAX_M}, got M = {spec.M}")


def _require_vector(spec):
    if spec.M > BRUTE_FORCE_MAX_M:
        raise ValueError(f"brute force is limited to M <= {BRUTE_FORCE_MAX_M}, got M = {spec.M}")


def monodromy(lam, spec, gamma):
    """Dense (A, B, C, D) blocks of the monodromy matrix at rapidity lam.  A
    1-d lam gives each block as a stack with one matrix per rapidity, from
    one sweep."""
    _require_dense(spec)
    w = _all_blocks(lam, spec, gamma, np.eye(spec.dim))
    if np.ndim(lam) == 0:
        w = w[:, :, 0]
    return w[0, 0], w[0, 1], w[1, 0], w[1, 1]


def transfer(lam, spec, gamma):
    """Dense transfer matrix A(lam) + D(lam)."""
    A, _, _, D = monodromy(lam, spec, gamma)
    return A + D


def transfer_apply(lam, spec, gamma, vec):
    w = _all_blocks(lam, spec, gamma, np.asarray(vec))[:, :, 0]
    return w[0, 0] + w[1, 1]


def up_state(spec):
    v = np.zeros(spec.dim, dtype=complex)
    v[0] = 1.0
    return v


@functools.lru_cache(maxsize=None)
def _sector_tables(M):
    """(states, pos) of the sector sweep at size M.  states[j] lists the
    basis states with j down spins in increasing order, and a sweep buffer
    holds the sectors one after another in that order; pos[s] is the buffer
    position of basis state s."""
    idx = np.arange(1 << M)
    pop = np.zeros(1 << M, dtype=np.intp)
    for bit in range(M):  # np.bitwise_count needs numpy >= 2
        pop += (idx >> bit) & 1
    states = tuple(np.flatnonzero(pop == j) for j in range(M + 1))
    pos = np.empty(1 << M, dtype=np.intp)
    pos[np.concatenate(states)] = idx
    for table in states + (pos,):  # shared by every caller
        table.setflags(write=False)
    return states, pos


@functools.lru_cache(maxsize=None)
def _pair_table(M, j):
    """(M, 2, C(M-1, j)) buffer positions of the sweep's sector-j factor:
    [k, 1] the states of sector j with site k + 1 up, [k, 0] the same states
    with site k + 1 flipped down, in sector j + 1.  Built on first use, so an
    N-factor product holds only the tables j < N."""
    states, pos = _sector_tables(M)
    s = states[j]
    flips = [1 << (M - 1 - k) for k in range(M)]
    ups = [s[(s & f) == 0] for f in flips]
    table = np.array([(pos[u | f], pos[u]) for u, f in zip(ups, flips)])
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def _sector_reversal(M, n):
    """For each state of sector n, the position within that sector of its
    bit-reversed state (the same lattice read from column M to 1)."""
    states, pos = _sector_tables(M)
    s = states[n]
    rev = np.zeros_like(s)
    for bit in range(M):
        rev |= ((s >> bit) & 1) << (M - 1 - bit)
    table = pos[rev] - pos[s[0]]
    table.setflags(write=False)
    return table


def _product_state(lams, spec, gamma, dual):
    """Block products applied to |up> for the rapidities on the last axis of
    lams: B(lams[..., 0])...B(lams[..., -1])|up>, or where dual is true the
    dual state <up|C(lams[..., 0])...C(lams[..., -1]) as a plain vector.  A
    2-d lams (S, N) gives the S states as the rows of an (S, 2^M) array, and
    dual may then be an (S,) array that picks a kind per row.

    Both blocks take the input in aux slot 1 (sector j) and return it in
    slot 0 (sector j + 1).  A dual row is swept on the bit-reversed basis,
    where its step k reads column M - k, so every row takes the same pair
    table at every step, and only its final sector is reversed back."""
    _require_vector(spec)
    lams = np.asarray(lams)
    stack = np.atleast_2d(lams)
    S, n = stack.shape
    M, dim = spec.M, spec.dim
    if n > M:
        out = np.zeros((S, dim), dtype=complex)
        return out if lams.ndim > 1 else out[0]
    dual = np.reshape(dual, (-1, 1))  # one kind for all rows, or one per row
    # factor j: B(lams[n - 1 - j]) first on a ket row, C^T(lams[j]) on a dual row
    factors = np.where(dual, stack, stack[:, ::-1])
    # [k, j]: step k's (S, 1, 1) weights, column k of a ket row and column
    # M - k of a dual row; each row's amplitudes run along the last axis, so
    # a state's arithmetic does not depend on what shares the stack
    b, c = (t.reshape(M, S, n) for t in _column_weights(factors.ravel(), spec, gamma))
    b, c = (np.where(dual, t[::-1], t).transpose(0, 2, 1)[..., None, None] for t in (b, c))
    states, pos = _sector_tables(M)
    rows = np.arange(S)[:, None, None] * dim
    buf = np.zeros(S * dim, dtype=complex)
    buf[rows.ravel()] = 1.0  # |up>, the one state of sector 0
    for j in range(n):
        pairs = _pair_table(M, j)
        for k in range(M):
            # one flat gather is faster than buf.reshape(S, dim)[:, pairs[k]];
            # xy[:, 0]: aux up, site k + 1 down; xy[:, 1]: aux down, site k + 1 up
            q = pairs[k] + rows
            xy = buf[q]
            buf[q] = xy * b[k, j] + c[k, j] * xy[:, ::-1]
    # allocated after the sweep, so that it and the sweep's temporaries are
    # not alive at once
    out = np.zeros((S, dim), dtype=complex)
    start, size = pos[states[n][0]], len(states[n])
    sector = np.where(dual, _sector_reversal(M, n), np.arange(size))
    out[:, states[n]] = buf[start + sector + rows[:, 0]]
    return out if lams.ndim > 1 else out[0]


def bethe_state(lams, spec, gamma):
    """|N> = B(lam_1)...B(lam_N)|up>, independent of root order.  A 2-d lams
    of shape (S, N) gives S states, one per row."""
    return _product_state(lams, spec, gamma, dual=False)


def dual_state(lams, spec, gamma):
    """Left state <N| = <up|C(lam_1)...C(lam_N) as a plain row vector.
    A 2-d lams of shape (S, N) gives S states, one per row.

    Pair it with a ket through an unconjugated dot product.
    """
    return _product_state(lams, spec, gamma, dual=True)


def ket_bra(lams, spec, gamma):
    """(|N>, <N|): bethe_state and dual_state of one rapidity set from one
    sector sweep, bit for bit the states that each gives alone."""
    lams = np.ravel(lams)
    ket, bra = _product_state(np.array([lams, lams]), spec, gamma, dual=[False, True])
    return ket, bra


def flip_apply(vec):
    """Apply the arrow-flip operator prod_k sigma_k^x (reverses bit strings)."""
    return np.asarray(vec)[::-1].copy()


def rtt_residual(lam, mu, spec, gamma):
    """Relative max-norm residual of the intertwining relation

        Rcheck(lam-mu) [T(lam) x T(mu)] = [T(mu) x T(lam)] Rcheck(lam-mu)

    with Rcheck(z) = P L(z + eta/2) and P the auxiliary permutation.  Tensor
    entries are operator products with the first auxiliary slot acting on the
    left; the exchange of arguments on the right side is forced by requiring
    the residual to vanish.  lam and mu broadcast against each other: arrays
    give one residual per pair from one sweep, scalars give a float.

    Both tensor products of every pair come from one batched matmul: the
    blocks T[s, (i,k,a), b] of lam_s (mu_s) against T[s, b, (j,l,c)] of mu_s
    (lam_s), permuted to X[s, (i,j), (a,c), (k,l)], where Rcheck acts on the
    first auxiliary pair through a matmul from the left and on the second
    through a matmul from the right.

    This dense form is a test oracle and a name that the benchmark traces;
    the verify battery checks the relation on probe vectors instead
    (verify.check_rtt).
    """
    gamma = _aniso(gamma)
    _require_dense(spec)
    lam, mu = np.broadcast_arrays(lam, mu)
    shape, lam, mu = lam.shape, lam.ravel(), mu.ravel()
    S, dim = len(lam), spec.dim
    # T[r, c, s, a, b]: block (r, c) of the monodromy at rapidity s of (lam, mu)
    T = _all_blocks(np.concatenate([lam, mu]), spec, gamma, np.eye(dim))
    # X[s] = T(lam_s) x T(mu_s) for s < S and T(mu_s) x T(lam_s) after
    X = T.transpose(2, 0, 1, 3, 4).reshape(2 * S, 4 * dim, dim) @ np.roll(
        T.transpose(2, 3, 0, 1, 4).reshape(2 * S, dim, 4 * dim), S, axis=0)
    del T  # freed before the permuted copy
    X = X.reshape(2 * S, 2, 2, dim, 2, 2, dim).transpose(0, 1, 4, 3, 6, 2, 5)
    X = X.reshape(2 * S, 4, dim * dim * 4)
    P = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            P[2 * j + i, 2 * i + j] = 1.0
    R = P @ l_matrix(lam - mu + gamma.eta / 2, gamma)
    lhs = R @ X[:S]
    lhs -= (X[S:].reshape(S, -1, 4) @ R).reshape(lhs.shape)
    res = (np.max(np.abs(lhs), axis=(1, 2)) / np.max(np.abs(X[:S]), axis=(1, 2))).reshape(shape)
    return float(res) if res.ndim == 0 else res


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
    ket, bra = ket_bra(lams, spec, gamma)
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


def qism_projectors(spec, gamma):
    """All M down-projectors from the inverse scattering solution, as an
    (M, 2^M, 2^M) stack: pi_k is
    prod_{l<k} T(mu_l + eta/2) . D(mu_k + eta/2) . prod_{l>k} T(mu_l + eta/2).
    Every factor comes from one stacked sweep over the shifted
    inhomogeneities, and pi_k continues the shared prefix product left to
    right, so each is the same product as taken factor by factor."""
    gamma = _aniso(gamma)
    _require_dense(spec)
    A, _, _, D = monodromy(np.asarray(spec.mu) + gamma.eta / 2, spec, gamma)
    T = A + D
    out = np.empty_like(T)
    prefix = np.eye(spec.dim, dtype=complex)
    for k in range(spec.M):
        out[k] = functools.reduce(np.matmul, T[k + 1:], prefix @ D[k])
        prefix = prefix @ T[k]
    return out


def qism_pi(k, spec, gamma):
    """Down-projector at column k built from the inverse scattering solution,
    entry k - 1 of qism_projectors."""
    if not (1 <= k <= spec.M):
        raise ValueError(f"column index {k} out of range 1..{spec.M}")
    return qism_projectors(spec, gamma)[k - 1]


def correlator_pair(lams, spec, gamma):
    """(ket, bra, den): the Bethe state |N>, the dual state <N| and
    den = <N| R |N>, so that the correlator of any column set is
    bra @ flip_apply(pi_{k_1} ... pi_{k_n} ket) / den.  A vanishing den
    (non-generic parameters) is a ZeroDivisionError."""
    ket, bra = ket_bra(lams, spec, gamma)
    den = complex(bra @ flip_apply(ket))
    scale = float(np.max(np.abs(ket)) * np.max(np.abs(bra))) * spec.dim
    if abs(den) < 1e-14 * max(scale, 1.0):
        raise ZeroDivisionError("partition function vanished (non-generic parameters)")
    return ket, bra, den


def correlator_from_pair(pair, spec, columns):
    """The complex correlator of `columns` from the (ket, bra, den) of
    correlator_pair, so that one pair serves many column sets; for one
    column set correlator_bruteforce takes less memory."""
    v, bra, den = pair
    for k in columns:
        v = pi_apply(k, spec, v)
    return complex(bra @ flip_apply(v)) / den


def correlator_bruteforce(lams, spec, gamma, columns, return_complex=False):
    """<N| R pi_{k_1} ... pi_{k_n} |N> / <N| R |N> for distinct columns.

    Real part is returned; for asymmetric parameter sets the exact value may
    carry an imaginary part, which return_complex exposes.
    """
    columns = list(columns)
    if len(set(columns)) != len(columns):
        raise ValueError("columns must be distinct")
    # its own loop, not correlator_from_pair: a pair held through the
    # projections keeps the ket alive, 2^M amplitudes more at the peak
    v, bra, den = correlator_pair(lams, spec, gamma)
    for k in columns:
        v = pi_apply(k, spec, v)
    val = complex(bra @ flip_apply(v)) / den
    if return_complex:
        return val
    return float(val.real)
