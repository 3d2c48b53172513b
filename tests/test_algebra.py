import numpy as np
import pytest

from oracles import dwbc_partition_enum, monodromy_kron, product_state_columns
from svdwbc import algebra
from svdwbc.algebra import AnisotropyParam, LatticeSpec, homogeneous_spec
from svdwbc.errors import PoleError


class TestWeights:
    def test_a_is_one_everywhere(self, gamma, rng):
        for _ in range(10):
            lam = rng.normal() + 1j * rng.normal()
            a, _, _ = algebra.boltzmann_weights(lam, gamma)
            assert a == 1.0

    def test_half_eta_point(self, gamma):
        # b vanishes and c normalizes to 1 at lam = eta/2
        a, b, c = algebra.boltzmann_weights(gamma.eta / 2, gamma)
        assert abs(b) < 1e-15
        assert abs(c - 1) < 1e-15

    def test_b_at_origin(self, gamma):
        _, b, _ = algebra.boltzmann_weights(0.0, gamma)
        assert abs(b + 1) < 1e-15

    def test_pole_raises(self, gamma):
        with pytest.raises(PoleError):
            algebra.boltzmann_weights(-gamma.eta / 2, gamma)

    def test_array_argument_matches_scalar_calls(self, gamma, rng):
        lams = rng.normal(size=5) + 0.3j * rng.normal(size=5)
        _, b, c = algebra.boltzmann_weights(lams, gamma)
        for lam, bk, ck in zip(lams, b, c):
            _, b1, c1 = algebra.boltzmann_weights(lam, gamma)
            assert abs(bk - b1) <= 1e-15 * abs(b1) and abs(ck - c1) <= 1e-15 * abs(c1)
        with pytest.raises(PoleError):
            algebra.boltzmann_weights(np.append(lams, -gamma.eta / 2), gamma)

    def test_d_eigenvalue(self, gamma, rng):
        mu = tuple(0.3 * rng.normal(size=4))
        lam = 0.2 + 0.1j
        expect = np.prod([algebra.boltzmann_weights(lam - m, gamma)[1] for m in mu])
        assert abs(algebra.d_eigenvalue(lam, mu, gamma) - expect) < 1e-15 * abs(expect)
        empty = algebra.d_eigenvalue(lam, (), gamma)
        assert empty == 1.0 and isinstance(empty, complex)

    def test_d_eigenvalue_table_matches_weight_product(self, gamma, rng):
        # the exponential table against the sinh weights at a large lattice,
        # for real rapidities and for complex ones off the contour
        mu = np.sort(0.5 * rng.normal(size=128))
        lams = np.concatenate([rng.normal(size=32), rng.normal(size=32) + 0.3j * rng.normal(size=32)])
        got = algebra.d_eigenvalue(lams, mu, gamma)
        b = algebra.boltzmann_weights(lams[:, None] - mu, gamma)[1]
        expect = np.prod(b, axis=1)
        assert got.shape == (64,)
        assert np.max(np.abs(got - expect) / np.abs(expect)) < 1e-13

    def test_rows_of_a_stack_take_their_own_centre(self, gamma, rng):
        # a (3, 5) stack of rapidity rows whose real parts lie far apart: each
        # row's exponential tables, d and transfer terms are those of the
        # row alone, bit for bit; one row keeps the one-centre tables
        lam = rng.normal(size=(3, 5)) + np.array([[-6.0], [0.0], [9.0]]) + 0.1j
        mu = 0.3 * rng.normal(size=4)
        roots = rng.normal(size=5)
        stack = algebra._exp_tables(lam[:, :, None], np.reshape(mu, (1, 1, -1)), rows=1)
        d = algebra.d_eigenvalue(lam, mu, gamma)
        P, dQ, *_ = algebra._transfer_terms(lam, roots, mu, gamma)
        for i, row in enumerate(lam):
            alone = algebra._exp_tables(row[:, None], mu)
            assert stack[0][i].tobytes() == alone[0].tobytes()
            assert np.broadcast_to(stack[1][i], (1, 4)).tobytes() == alone[1][None].tobytes()
            assert d[i].tobytes() == algebra.d_eigenvalue(row, mu, gamma).tobytes()
            P1, dQ1, *_ = algebra._transfer_terms(row, roots, mu, gamma)
            assert P[i].tobytes() == P1.tobytes() and dQ[i].tobytes() == dQ1.tobytes()
        one = algebra._exp_tables(lam[:1, :, None], np.reshape(mu, (1, 1, -1)), rows=1)[0][0]
        assert one.tobytes() == algebra._exp_tables(lam[0, :, None], mu)[0].tobytes()

    def test_d_eigenvalue_pole_raises(self, gamma):
        mu = (0.1, -0.4, 0.7)
        with pytest.raises(PoleError, match="weights singular"):
            algebra.d_eigenvalue(np.array([0.3, mu[1] - gamma.eta / 2]), mu, gamma)

    def test_gamma_window_validated(self):
        with pytest.raises(ValueError):
            AnisotropyParam(np.pi / 2)
        with pytest.raises(ValueError):
            AnisotropyParam(-0.1)
        assert AnisotropyParam(0.0).delta == 1.0


class TestLMatrix:
    def test_middle_block_at_half_eta(self, gamma):
        L = algebra.l_matrix(gamma.eta / 2, gamma)
        assert np.allclose(L[1:3, 1:3], [[0, 1], [1, 0]])

    def test_corners_are_one(self, gamma, rng):
        for _ in range(5):
            L = algebra.l_matrix(rng.normal() + 0.3j * rng.normal(), gamma)
            assert L[0, 0] == 1.0 and L[3, 3] == 1.0

    def test_entries_at_origin(self, gamma):
        # direct substitution of lam = 0 into the weight definitions
        L = algebra.l_matrix(0.0, gamma)
        eta = gamma.eta
        b0 = np.sinh(-eta / 2) / np.sinh(eta / 2)
        c0 = np.sinh(eta) / np.sinh(eta / 2)
        expect = np.array([[1, 0, 0, 0], [0, b0, c0, 0], [0, c0, b0, 0], [0, 0, 0, 1]])
        assert np.allclose(L, expect, atol=1e-15)


class TestMonodromy:
    def test_single_column_b_amplitude(self, gamma):
        # on one column, B |up> puts weight c on the flipped state
        spec = LatticeSpec(2, (0.0, 0.35))
        lam = 0.2 + 0.1j
        psi = algebra.monodromy_apply(lam, spec, gamma, algebra.up_state(spec), "B")
        c1 = algebra.boltzmann_weights(lam - spec.mu[0], gamma)[2]
        assert abs(psi[2] - c1) < 1e-14  # |down, up>

    def test_reference_state_eigenvalues(self, gamma, rng):
        spec = LatticeSpec(4, tuple(0.3 * rng.normal(size=4)))
        lam = rng.normal() + 0.2j * rng.normal()
        up = algebra.up_state(spec)
        a_up = algebra.monodromy_apply(lam, spec, gamma, up, "A")
        d_up = algebra.monodromy_apply(lam, spec, gamma, up, "D")
        assert np.allclose(a_up, up)
        d = algebra.d_eigenvalue(lam, spec.mu, gamma)
        assert np.allclose(d_up, d * up)

    def test_dense_blocks_match_apply(self, gamma, rng):
        spec = LatticeSpec(4, tuple(0.3 * rng.normal(size=4)))
        lam = 0.4 - 0.15j
        blocks = algebra.monodromy(lam, spec, gamma)
        v = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
        for mat, name in zip(blocks, "ABCD"):
            assert np.allclose(mat @ v, algebra.monodromy_apply(lam, spec, gamma, v, name))
            assert np.allclose(
                mat.T @ v, algebra.monodromy_apply(lam, spec, gamma, v, name, transpose=True)
            )

    def test_pole_names_offending_column(self, gamma):
        lam = 0.7 - gamma.eta / 2
        for mu, column in (((0.7, 0.0), 1), ((0.0, 0.7), 2)):
            spec = LatticeSpec(2, mu)
            for transpose in (False, True):
                with pytest.raises(PoleError, match=f"column {column}"):
                    algebra.monodromy_apply(
                        lam, spec, gamma, algebra.up_state(spec), "B", transpose=transpose
                    )


class TestMonodromyOracle:
    """Blocks and their matrix-free action against explicit Kronecker products."""

    @pytest.mark.parametrize("M", [0, 2, 4, 6])
    def test_blocks_match_kron_products(self, gamma, M):
        rng = np.random.default_rng(7100 + M)
        mu = tuple(0.3 * rng.normal(size=M) + 0.1j * rng.normal(size=M))
        lam = rng.normal() + 0.2j * rng.normal()
        spec = LatticeSpec(M, mu)
        ref = monodromy_kron(lam, mu, gamma)
        scale = max(np.max(np.abs(r)) for r in ref)
        for got, want in zip(algebra.monodromy(lam, spec, gamma), ref):
            assert np.max(np.abs(got - want)) / scale < 1e-13
        v = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
        V = rng.normal(size=(spec.dim, 3)) + 1j * rng.normal(size=(spec.dim, 3))
        for x in (v, V):
            for want, name in zip(ref, "ABCD"):
                for transpose in (False, True):
                    op = want.T if transpose else want
                    got = algebra.monodromy_apply(lam, spec, gamma, x, name, transpose=transpose)
                    assert got.shape == x.shape
                    assert np.max(np.abs(got - op @ x)) / (scale * np.max(np.abs(x))) < 1e-13
            t_x = algebra.transfer_apply(lam, spec, gamma, x)
            assert np.max(np.abs(t_x - (ref[0] + ref[3]) @ x)) / (scale * np.max(np.abs(x))) < 1e-13


class TestStackedSweep:
    """One sweep over a stack of inputs, with one rapidity per input, gives
    exactly what one monodromy_apply call per rapidity gives."""

    @pytest.mark.parametrize("M", [2, 4, 6, 8])
    def test_blocks_match_per_rapidity_apply(self, gamma, M):
        rng = np.random.default_rng(7200 + M)
        spec = LatticeSpec(M, tuple(0.3 * rng.normal(size=M) + 0.1j * rng.normal(size=M)))
        S = 5
        lams = rng.normal(size=S) + 0.3j * rng.normal(size=S)
        X = rng.normal(size=(S, spec.dim)) + 1j * rng.normal(size=(S, spec.dim))
        for transpose in (False, True):
            one = {name: np.array([algebra.monodromy_apply(lam, spec, gamma, x, name, transpose)
                                   for lam, x in zip(lams, X)]) for name in "ABCD"}
            for name in "BC":
                row, col = algebra._BLOCK_INDEX[name]
                if transpose:
                    row, col = col, row
                w = np.zeros((2, S, spec.dim), dtype=complex)
                w[col] = X
                got = algebra._sweep(lams, spec, gamma, w, reverse=transpose)[row]
                assert np.array_equal(got, one[name])
            # A + D: the first S inputs enter aux slot 0, the next S aux slot 1
            w = np.zeros((2, 2 * S, spec.dim), dtype=complex)
            w[0, :S] = w[1, S:] = X
            algebra._sweep(np.tile(lams, 2), spec, gamma, w, reverse=transpose)
            assert np.array_equal(w[0, :S] + w[1, S:], one["A"] + one["D"])

    def test_pole_in_stack_names_column(self, gamma):
        mu = (0.1, -0.2, 0.35, 0.0)
        spec = LatticeSpec(4, mu)
        for k, m in enumerate(mu, 1):
            lams = np.array([0.3 + 0.1j, m - gamma.eta / 2, -0.4])
            w = np.zeros((2, len(lams), spec.dim), dtype=complex)
            for reverse in (False, True):
                with pytest.raises(PoleError, match=f"column {k}"):
                    algebra._sweep(lams, spec, gamma, w, reverse=reverse)

    def test_stacked_states_match_single_states(self, gamma, rng):
        spec = LatticeSpec(6, tuple(0.2 * rng.normal(size=6)))
        lams = rng.normal(size=(4, 3)) + 0.3j * rng.normal(size=(4, 3))
        for build in (algebra.bethe_state, algebra.dual_state):
            got = build(lams, spec, gamma)
            assert got.shape == (4, spec.dim)
            assert np.array_equal(got, np.array([build(row, spec, gamma) for row in lams]))


class TestTransfer:
    def test_trace_is_a_plus_d(self, gamma, rng):
        spec = LatticeSpec(2, (0.1, -0.2))
        lam = rng.normal() + 0.1j
        A, _, _, D = algebra.monodromy(lam, spec, gamma)
        assert np.allclose(algebra.transfer(lam, spec, gamma), A + D)

    def test_transfer_on_reference_state(self, gamma):
        spec = LatticeSpec(4, (0.1, -0.3, 0.2, 0.0))
        lam = 0.25 + 0.4j
        up = algebra.up_state(spec)
        t_up = algebra.transfer_apply(lam, spec, gamma, up)
        expect = (1 + algebra.d_eigenvalue(lam, spec.mu, gamma)) * up
        assert np.allclose(t_up, expect)

    def test_transfer_matrices_commute(self, gamma, rng):
        spec = LatticeSpec(4, tuple(0.2 * rng.normal(size=4)))
        for _ in range(3):
            lam, mu = rng.normal(size=2) + 0.3j * rng.normal(size=2)
            T1 = algebra.transfer(lam, spec, gamma)
            T2 = algebra.transfer(mu, spec, gamma)
            scale = np.max(np.abs(T1 @ T2))
            assert np.max(np.abs(T1 @ T2 - T2 @ T1)) / scale < 1e-12


class TestRTT:
    def test_random_draws(self, gamma, rng):
        spec = homogeneous_spec(2)
        for _ in range(100):
            lam = rng.normal() + 0.3j * rng.normal()
            mu = rng.normal() + 0.3j * rng.normal()
            assert algebra.rtt_residual(lam, mu, spec, gamma) < 1e-12

    def test_equal_arguments(self, gamma):
        spec = LatticeSpec(2, (0.15, -0.4))
        assert algebra.rtt_residual(0.3, 0.3, spec, gamma) < 1e-13

    def test_batched_matches_per_draw(self, gamma, rng):
        spec = LatticeSpec(2, (0.15, -0.4))
        lam = rng.normal(size=(5, 8)) + 0.3j * rng.normal(size=(5, 8))
        mu = rng.normal(size=8) + 0.3j * rng.normal(size=8)
        got = algebra.rtt_residual(lam, mu, spec, gamma)
        assert got.shape == (5, 8)
        want = [[algebra.rtt_residual(a, b, spec, gamma) for a, b in zip(row, mu)] for row in lam]
        assert all(isinstance(v, float) for row in want for v in row)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert np.max(got) < 1e-12

    def test_batched_equals_per_draw_at_M4(self, gamma, rng):
        # a draw's residual does not depend on the batch it is taken in
        spec = LatticeSpec(4, tuple(0.2 * rng.normal(size=4)))
        lam = rng.normal(size=6) + 0.3j * rng.normal(size=6)
        mu = rng.normal(size=6) + 0.3j * rng.normal(size=6)
        got = algebra.rtt_residual(lam, mu, spec, gamma)
        assert got.tolist() == [algebra.rtt_residual(a, b, spec, gamma) for a, b in zip(lam, mu)]
        assert np.max(got) < 1e-12

    def test_stacked_monodromy_matches_scalar_calls(self, gamma, rng):
        spec = LatticeSpec(4, tuple(0.2 * rng.normal(size=4)))
        lams = rng.normal(size=3) + 0.3j * rng.normal(size=3)
        stacked = algebra.monodromy(lams, spec, gamma)
        for s, lam in enumerate(lams):
            for got, want in zip(stacked, algebra.monodromy(lam, spec, gamma)):
                assert np.array_equal(got[s], want)

    def test_b_operators_commute(self, gamma, rng):
        spec = LatticeSpec(4, tuple(0.2 * rng.normal(size=4)))
        lam, mu = 0.3 + 0.2j, -0.5 + 0.1j
        _, B1, _, _ = algebra.monodromy(lam, spec, gamma)
        _, B2, _, _ = algebra.monodromy(mu, spec, gamma)
        scale = np.max(np.abs(B1 @ B2))
        assert np.max(np.abs(B1 @ B2 - B2 @ B1)) / scale < 1e-12


class TestBetheState:
    def test_order_independence(self, gamma, rng):
        spec = homogeneous_spec(6)
        lams = list(rng.normal(size=3) * 0.5)
        v1 = algebra.bethe_state(lams, spec, gamma)
        v2 = algebra.bethe_state(lams[::-1], spec, gamma)
        assert np.max(np.abs(v1 - v2)) / np.max(np.abs(v1)) < 1e-12

    def test_supported_on_weight_n_states(self, gamma, rng):
        spec = homogeneous_spec(6)
        lams = rng.normal(size=2) * 0.5
        v = algebra.bethe_state(lams, spec, gamma)
        for idx in range(spec.dim):
            if bin(idx).count("1") != 2:
                assert v[idx] == 0

    def test_empty_product_is_up_state(self, gamma):
        spec = homogeneous_spec(4)
        assert np.allclose(algebra.bethe_state([], spec, gamma), algebra.up_state(spec))


class TestSectorSweep:
    """Product states run on the sectors of j and j + 1 down spins only;
    the dense sweep of monodromy_apply is their oracle."""

    @staticmethod
    def _dense(lams, spec, gamma, transpose):
        # <N| = <up|C(lam_1)...C(lam_N) is C^T(lam_N)...C^T(lam_1)|up>
        v = algebra.up_state(spec)
        for lam in (lams if transpose else lams[::-1]):
            v = algebra.monodromy_apply(lam, spec, gamma, v, "C" if transpose else "B", transpose)
        return v

    @pytest.mark.parametrize("M", range(2, 13, 2))
    def test_matches_dense_products(self, gamma, M):
        rng = np.random.default_rng(9100 + M)
        spec = LatticeSpec(M, tuple(0.3 * rng.normal(size=M) + 0.05j * rng.normal(size=M)))
        N = M // 2
        lams = rng.normal(size=(3, N)) * 0.6 + 0.2j * rng.normal(size=(3, N))
        for build, transpose in ((algebra.bethe_state, False), (algebra.dual_state, True)):
            want = np.array([self._dense(row, spec, gamma, transpose) for row in lams])
            scale = np.max(np.abs(want))
            assert np.max(np.abs(build(lams, spec, gamma) - want)) < 1e-13 * scale
            assert np.max(np.abs(build(lams[0], spec, gamma) - want[0])) < 1e-13 * scale

    def test_dual_is_reversed_lattice_ket(self, gamma, rng):
        # reversing the columns turns the transposed sweep into the forward one
        M = 12
        spec = LatticeSpec(M, tuple(0.3 * rng.normal(size=M)))
        flipped = LatticeSpec(M, spec.mu[::-1])
        lams = rng.normal(size=M // 2) * 0.5 + 0.1j * rng.normal(size=M // 2)
        idx = np.arange(spec.dim)
        bitrev = sum(((idx >> b) & 1) << (M - 1 - b) for b in range(M))
        ket = algebra.bethe_state(lams, flipped, gamma)
        bra = algebra.dual_state(lams, spec, gamma)
        assert np.max(np.abs(bra - ket[bitrev])) < 1e-14 * np.max(np.abs(bra))

    @pytest.mark.parametrize("M", [0, 2, 6, 12])
    def test_tables(self, M):
        states, pos = algebra._sector_tables(M)
        pairs = [algebra._pair_table(M, j) for j in range(M)]
        assert len(states) == M + 1
        buffer = np.concatenate(states)
        assert sorted(buffer) == list(range(1 << M))
        assert np.array_equal(pos[buffer], np.arange(1 << M))
        for j, s in enumerate(states):
            assert all(bin(int(i)).count("1") == j for i in s)
        for j, table in enumerate(pairs):
            assert table.shape == (M, 2, len(states[j]) * (M - j) // M)
            for k in range(M):
                down, up = buffer[table[k]]
                assert set(down) <= set(states[j + 1]) and set(up) <= set(states[j])
                assert np.all(down ^ up == 1 << (M - 1 - k))
        for n, s in enumerate(states):
            rev = s[algebra._sector_reversal(M, n)]
            assert all(f"{int(r):0{M}b}" == f"{int(i):0{M}b}"[::-1] for r, i in zip(rev, s))

    def test_tables_are_built_per_sector(self, gamma):
        # an N-factor product reads, and so builds, only the pair tables j < N
        algebra._pair_table.cache_clear()
        spec = homogeneous_spec(8)
        algebra.ket_bra([0.1, -0.2, 0.3], spec, gamma)
        assert algebra._pair_table.cache_info().currsize == 3
        algebra.bethe_state([0.1, -0.2, 0.3, 0.4], spec, gamma)
        assert algebra._pair_table.cache_info().currsize == 4

    def test_more_factors_than_columns_give_zero(self, gamma):
        spec = LatticeSpec(2, (0.1, -0.2))
        assert not np.any(algebra.bethe_state([0.3, -0.1, 0.4], spec, gamma))


class TestKetBra:
    """bethe_state, dual_state and ket_bra against the one-state sweep that
    runs a dual state over the columns from M to 1, bit for bit."""

    @staticmethod
    def _lams(rng, n, branch):
        # real roots, or complex ones on the shifted branch x + i pi/2
        lams = rng.normal(size=n) * 0.6 + 0.05j * rng.normal(size=n)
        return lams.real if branch == "real" else lams + 0.5j * np.pi

    @pytest.mark.parametrize("branch", ["real", "shifted"])
    @pytest.mark.parametrize("M", range(2, 13, 2))
    def test_equals_the_column_order_sweep(self, gamma, M, branch):
        rng = np.random.default_rng(9300 + M)
        spec = LatticeSpec(M, tuple(0.3 * rng.normal(size=M)))
        for n in sorted({0, 1, M // 2}):
            lams = self._lams(rng, n, branch)
            ket = product_state_columns(lams, spec, gamma, dual=False)
            bra = product_state_columns(lams, spec, gamma, dual=True)
            pair = algebra.ket_bra(lams, spec, gamma)
            assert np.array_equal(pair[0], ket) and np.array_equal(pair[1], bra)
            assert np.array_equal(algebra.bethe_state(lams, spec, gamma), ket)
            assert np.array_equal(algebra.dual_state(lams, spec, gamma), bra)

    @pytest.mark.parametrize("M", [4, 8])
    def test_stacks_equal_the_column_order_sweep(self, gamma, M):
        rng = np.random.default_rng(9350 + M)
        spec = LatticeSpec(M, tuple(0.3 * rng.normal(size=M)))
        stack = rng.normal(size=(5, M // 2)) * 0.6 + 0.2j * rng.normal(size=(5, M // 2))
        for build, dual in ((algebra.bethe_state, False), (algebra.dual_state, True)):
            want = [product_state_columns(row, spec, gamma, dual) for row in stack]
            assert np.array_equal(build(stack, spec, gamma), want)

    def test_more_factors_than_columns_give_zero(self, gamma):
        ket, bra = algebra.ket_bra([0.3, -0.1, 0.4], LatticeSpec(2, (0.1, -0.2)), gamma)
        assert not np.any(ket) and not np.any(bra)

    @pytest.mark.parametrize("branch", ["real", "shifted"])
    @pytest.mark.parametrize("M", [2, 6, 12])
    def test_partition_and_pair_keep_their_values(self, gamma, M, branch):
        # the values of the one-state sweeps, bit for bit
        rng = np.random.default_rng(9400 + M)
        spec = LatticeSpec(M, tuple(0.3 * rng.normal(size=M)))
        lams = self._lams(rng, M // 2, branch)
        ket = product_state_columns(lams, spec, gamma, dual=False)
        bra = product_state_columns(lams, spec, gamma, dual=True)
        den = complex(bra @ algebra.flip_apply(ket))
        assert algebra.partition_bruteforce(lams, spec, gamma) == den
        got = algebra.correlator_pair(lams, spec, gamma)
        assert np.array_equal(got[0], ket) and np.array_equal(got[1], bra)
        assert got[2] == den

    def test_brute_force_cap(self, gamma):
        with pytest.raises(ValueError, match="M <= 12"):
            algebra.ket_bra([0.1] * 7, homogeneous_spec(14), gamma)


class TestPartition:
    def test_matches_enumeration_m2(self, gamma, rng):
        lam = rng.normal() * 0.6
        mus = tuple(rng.normal(size=2) * 0.4)
        spec = LatticeSpec(2, mus)
        z_op = algebra.partition_bruteforce([lam], spec, gamma)
        z_enum = dwbc_partition_enum([lam, lam], mus, gamma)
        assert abs(z_op - z_enum) / abs(z_enum) < 1e-12

    def test_matches_enumeration_m4(self, gamma, rng):
        lams = list(rng.normal(size=2) * 0.4)
        mus = tuple(rng.normal(size=4) * 0.3)
        spec = LatticeSpec(4, mus)
        z_op = algebra.partition_bruteforce(lams, spec, gamma)
        z_enum = dwbc_partition_enum(lams + lams, mus, gamma)
        assert abs(z_op - z_enum) / abs(z_enum) < 1e-10

    def test_mu_permutation_invariance(self, gamma, rng):
        lam = rng.normal() * 0.5
        mus = tuple(rng.normal(size=2) * 0.4)
        z1 = algebra.partition_bruteforce([lam], LatticeSpec(2, mus), gamma)
        z2 = algebra.partition_bruteforce([lam], LatticeSpec(2, mus[::-1]), gamma)
        assert abs(z1 - z2) < 1e-12 * abs(z1)

    def test_empty_lattice(self, gamma):
        assert algebra.partition_bruteforce([], LatticeSpec(0, ()), gamma) == 1.0


class TestProjectors:
    def test_projector_property(self, gamma):
        spec = homogeneous_spec(4)
        for k in (1, 3):
            p = algebra.projector_pi(k, spec)
            assert np.allclose(p @ p, p)
            eig = np.diag(p).real
            assert set(np.round(eig).astype(int)) == {0, 1}

    def test_qism_identity(self, gamma, rng):
        for M in (2, 4):
            for mus in ((0.0,) * M, tuple(0.25 * rng.normal(size=M))):
                spec = LatticeSpec(M, mus)
                for k in range(1, M + 1):
                    delta = np.max(
                        np.abs(algebra.qism_pi(k, spec, gamma) - algebra.projector_pi(k, spec))
                    )
                    assert delta < 1e-10

    def test_qism_matches_factor_by_factor_product(self, gamma, rng):
        # one stacked sweep gives every factor of the product
        spec = LatticeSpec(4, tuple(0.25 * rng.normal(size=4)))
        for k in range(1, 5):
            want = np.eye(spec.dim, dtype=complex)
            for l, m in enumerate(spec.mu, 1):
                T = algebra.monodromy(m + gamma.eta / 2, spec, gamma)
                want = want @ (T[3] if l == k else T[0] + T[3])
            assert np.array_equal(algebra.qism_pi(k, spec, gamma), want)

    def test_all_columns_form_takes_one_sweep(self, gamma, rng, monkeypatch):
        spec = LatticeSpec(4, tuple(0.25 * rng.normal(size=4)))
        sweeps = []
        sweep = algebra._sweep
        monkeypatch.setattr(algebra, "_sweep", lambda *a, **k: sweeps.append(1) or sweep(*a, **k))
        stack = algebra.qism_projectors(spec, gamma)
        assert len(sweeps) == 1 and stack.shape == (4, spec.dim, spec.dim)
        for k in range(1, 5):
            assert np.array_equal(stack[k - 1], algebra.qism_pi(k, spec, gamma))
            assert np.max(np.abs(stack[k - 1] - algebra.projector_pi(k, spec))) < 1e-10

    def test_transfer_product_at_shifted_points_is_identity(self, gamma, rng):
        # the consecutive-window reduction of correlators rests on this
        spec = LatticeSpec(4, tuple(0.25 * rng.normal(size=4)))
        out = np.eye(spec.dim, dtype=complex)
        for m in spec.mu:
            out = out @ algebra.transfer(m + gamma.eta / 2, spec, gamma)
        assert np.max(np.abs(out - np.eye(spec.dim))) < 1e-12

    def test_total_down_count(self, gamma, rng):
        spec = homogeneous_spec(6)
        lams = rng.normal(size=3) * 0.4
        v = algebra.bethe_state(lams, spec, gamma)
        acc = np.zeros_like(v)
        for k in range(1, 7):
            acc += algebra.pi_apply(k, spec, v)
        assert np.allclose(acc, 3 * v)

    def test_pi_apply_acts_on_spin_axis(self, rng):
        spec = homogeneous_spec(4)
        for shape in ((spec.dim, spec.dim), (spec.dim, 3)):
            X = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for k in range(1, spec.M + 1):
                expect = algebra.projector_pi(k, spec) @ X
                assert np.max(np.abs(algebra.pi_apply(k, spec, X) - expect)) < 1e-14

    def test_index_out_of_range(self, gamma):
        spec = homogeneous_spec(4)
        with pytest.raises(ValueError):
            algebra.projector_pi(5, spec)


class TestCorrelator:
    def test_single_column_sum_is_n(self, gamma, rng):
        spec = LatticeSpec(4, tuple(0.2 * rng.normal(size=4)))
        lams = rng.normal(size=2) * 0.5  # not Bethe; the sum rule holds anyway
        total = sum(
            algebra.correlator_bruteforce(lams, spec, gamma, [k], return_complex=True)
            for k in range(1, 5)
        )
        assert abs(total - 2) < 1e-10

    def test_homogeneous_two_columns(self, gamma):
        spec = homogeneous_spec(2)
        for k in (1, 2):
            assert abs(algebra.correlator_bruteforce([0.0], spec, gamma, [k]) - 0.5) < 1e-12

    def test_all_columns_down_impossible(self, gamma, rng):
        spec = homogeneous_spec(4)
        lams = rng.normal(size=2) * 0.5
        val = algebra.correlator_bruteforce(lams, spec, gamma, [1, 2, 3, 4], return_complex=True)
        assert abs(val) < 1e-14

    def test_distinct_columns_required(self, gamma):
        spec = homogeneous_spec(4)
        with pytest.raises(ValueError):
            algebra.correlator_bruteforce([0.1, -0.1], spec, gamma, [2, 2])


class TestLatticeSpec:
    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            LatticeSpec(3, (0.0,) * 3)

    def test_mu_length_enforced(self):
        with pytest.raises(ValueError):
            LatticeSpec(4, (0.0,) * 3)

    def test_dense_cap(self, gamma):
        spec = homogeneous_spec(10)
        with pytest.raises(ValueError):
            algebra.monodromy(0.1, spec, gamma)
