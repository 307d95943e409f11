import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import equal_up_to_global_phase

from bqsdc import qcore
from bqsdc.adversary import eavesdrop_unitary
from bqsdc.checks import decoy_state
from bqsdc.codebook import ghz_state
from bqsdc.labels import BellLabel, GhzLabel, ghz_amplitudes
from bqsdc.qcore import (ATOL, ISY, SX, SZ, I, MeasBasis, Rng, StateVector,
                         StreamBlock, apply_single, apply_unitary, basis_outcomes,
                         born_distribution, joint_distribution, make_basis_state,
                         measure, measurement_branches, tensor)

INV = 2 ** -0.5


def random_state(num_qubits: int, seed: int) -> StateVector:
    rng = Rng(seed)
    re = np.array([rng.random() - 0.5 for _ in range(2 ** num_qubits)])
    im = np.array([rng.random() - 0.5 for _ in range(2 ** num_qubits)])
    amps = re + 1j * im
    return StateVector(amps / np.linalg.norm(amps))


class TestStateVector:
    def test_basis_state_indexing(self):
        assert make_basis_state("000").amps[0] == 1
        assert make_basis_state("1").amps[1] == 1
        # index convention: qubit 0 is the most significant bit
        assert make_basis_state("10").amps[2] == 1

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            make_basis_state("")
        with pytest.raises(ValueError):
            make_basis_state("012")

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 1.0])
        with pytest.raises(ValueError):
            StateVector([0.5, 0.5, 0.5])  # not a power-of-two length

    def test_amps_are_frozen(self):
        s = make_basis_state("0")
        with pytest.raises(ValueError):
            s.amps[0] = 0.0


class TestTensor:
    def test_zero_one(self):
        assert tensor(make_basis_state("0"), make_basis_state("1")).amplitude("01") == 1

    def test_double_ghz_expansion(self):
        # hand expansion of the two-triple product: amplitude 1/2 at the
        # four indices 000000, 000111, 111000, 111111
        s = tensor(StateVector(ghz_amplitudes(GhzLabel.PSI0)),
                   StateVector(ghz_amplitudes(GhzLabel.PSI0)))
        expect = np.zeros(64)
        for idx in (0, 7, 56, 63):
            expect[idx] = 0.5
        assert np.allclose(s.amps, expect)

    @given(st.integers(0, 2 ** 31), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_norm_multiplicative(self, seed, na, nb):
        a = random_state(na, seed)
        b = random_state(nb, seed + 1)
        assert abs(np.linalg.norm(tensor(a, b).amps) - 1) < ATOL


class TestSingleQubitOps:
    def test_matrices_match_definitions(self):
        assert np.array_equal(I.matrix, np.eye(2))
        assert np.array_equal(SZ.matrix, [[1, 0], [0, -1]])
        assert np.array_equal(SX.matrix, [[0, 1], [1, 0]])
        assert np.array_equal(ISY.matrix, [[0, 1], [-1, 0]])

    def test_all_real_and_unitary(self):
        for op in (I, SX, ISY, SZ):
            assert np.allclose(op.matrix.imag, 0)
            assert np.allclose(op.matrix.conj().T @ op.matrix, np.eye(2), atol=1e-12)

    def test_isy_squared_is_minus_identity(self):
        assert np.allclose(ISY.matrix @ ISY.matrix, -np.eye(2), atol=1e-12)

    def test_pauli_products(self):
        assert np.allclose(SX.matrix @ SZ.matrix, -ISY.matrix, atol=1e-12)
        assert np.allclose(SZ.matrix @ SX.matrix, ISY.matrix, atol=1e-12)

    def test_sx_flips(self):
        assert apply_single(make_basis_state("0"), SX, 0).amplitude("1") == 1

    def test_isy_on_zero_gives_minus_one(self):
        s = apply_single(make_basis_state("0"), ISY, 0)
        assert s.amplitude("1") == -1

    def test_szsz_fixes_ghz(self):
        ghz = StateVector(ghz_amplitudes(GhzLabel.PSI0))
        out = apply_single(apply_single(ghz, SZ, 0), SZ, 1)
        assert np.allclose(out.amps, ghz.amps)  # exactly, phase +1

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            apply_single(make_basis_state("0"), SX, 1)

    @given(st.integers(0, 2 ** 31), st.sampled_from(["I", "SX", "ISY", "SZ"]), st.integers(0, 2))
    @settings(max_examples=50, deadline=None)
    def test_norm_preserved(self, seed, name, q):
        s = random_state(3, seed)
        out = apply_single(s, qcore.SINGLE_OPS[name], q)
        assert abs(np.linalg.norm(out.amps) - 1) < ATOL


class TestBases:
    def test_arities(self):
        assert [b.arity for b in MeasBasis] == [1, 1, 2, 3]

    @pytest.mark.parametrize("basis", list(MeasBasis))
    def test_orthonormal_complete(self, basis):
        vecs = [v for _, v in basis_outcomes(basis)]
        dim = 2 ** basis.arity
        assert len(vecs) == dim
        gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        assert np.allclose(gram, np.eye(dim), atol=ATOL)
        total = sum(np.outer(v, v.conj()) for v in vecs)
        assert np.allclose(total, np.eye(dim), atol=ATOL)


class TestBornDistribution:
    def test_z_on_plus(self):
        plus = StateVector([INV, INV])
        assert born_distribution(plus, MeasBasis.Z, [0]) == pytest.approx({0: 0.5, 1: 0.5})

    def test_ghz_eigenstate(self):
        s = StateVector(ghz_amplitudes(GhzLabel.PSI3))
        dist = born_distribution(s, MeasBasis.GHZ, [0, 1, 2])
        assert dist[GhzLabel.PSI3] == pytest.approx(1.0)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_bell_marginal_on_double_ghz(self):
        s = tensor(StateVector(ghz_amplitudes(GhzLabel.PSI0)),
                   StateVector(ghz_amplitudes(GhzLabel.PSI0)))
        dist = born_distribution(s, MeasBasis.BELL, [0, 3])
        for lab in BellLabel:
            assert dist[lab] == pytest.approx(0.25)

    def test_joint_bell_uniform_eighth(self):
        s = tensor(StateVector(ghz_amplitudes(GhzLabel.PSI0)),
                   StateVector(ghz_amplitudes(GhzLabel.PSI0)))
        joint = joint_distribution(s, MeasBasis.BELL, [(0, 3), (1, 4), (2, 5)])
        assert len(joint) == 8
        for p in joint.values():
            assert p == pytest.approx(0.125, abs=ATOL)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            born_distribution(make_basis_state("00"), MeasBasis.BELL, [0])

    @given(st.integers(0, 2 ** 31), st.sampled_from(list(MeasBasis)))
    @settings(max_examples=40, deadline=None)
    def test_sums_to_one(self, seed, basis):
        s = random_state(4, seed)
        dist = born_distribution(s, basis, list(range(basis.arity)))
        assert sum(dist.values()) == pytest.approx(1.0, abs=ATOL)


class TestMeasure:
    def test_certain_outcome(self):
        out, post = measure(make_basis_state("1"), MeasBasis.Z, [0], Rng(1))
        assert out == 1 and post.amplitude("1") == 1

    def test_ghz_eigenstate_fixed(self):
        s = StateVector(ghz_amplitudes(GhzLabel.PSI5))
        out, post = measure(s, MeasBasis.GHZ, [0, 1, 2], Rng(9))
        assert out == GhzLabel.PSI5
        assert equal_up_to_global_phase(post, s)

    def test_repeat_reproduces(self):
        s = random_state(3, 77)
        rng = Rng(4)
        out1, post = measure(s, MeasBasis.BELL, [0, 2], rng)
        out2, _ = measure(post, MeasBasis.BELL, [0, 2], rng)
        assert out1 == out2

    def test_deterministic_given_stream(self):
        s = random_state(2, 5)
        seq1 = [measure(s, MeasBasis.Z, [0], Rng(3, stream=t))[0] for t in range(40)]
        seq2 = [measure(s, MeasBasis.Z, [0], Rng(3, stream=t))[0] for t in range(40)]
        assert seq1 == seq2

    def test_empirical_frequencies_match_born(self):
        # frozen oracle: exact Born weights for this state are 0.36 / 0.64
        s = StateVector([0.6, 0.8])
        dist = born_distribution(s, MeasBasis.Z, [0])
        assert dist == pytest.approx({0: 0.36, 1: 0.64})
        trials = 100_000
        ones = sum(measure(s, MeasBasis.Z, [0], Rng(11, stream=t))[0] for t in range(trials))
        assert abs(ones / trials - dist[1]) < 0.01


class TestGlobalPhase:
    def test_sign_flip_equal(self):
        s = StateVector(ghz_amplitudes(GhzLabel.PSI2))
        neg = StateVector(-ghz_amplitudes(GhzLabel.PSI2))
        assert equal_up_to_global_phase(s, neg)

    def test_orthogonal_not_equal(self):
        a = StateVector(ghz_amplitudes(GhzLabel.PSI2))
        b = StateVector(ghz_amplitudes(GhzLabel.PSI3))
        assert not equal_up_to_global_phase(a, b)

    @given(st.integers(0, 2 ** 31), st.floats(0, 2 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_any_phase_equal(self, seed, theta):
        s = random_state(2, seed)
        rotated = StateVector(np.exp(1j * theta) * s.amps)
        assert equal_up_to_global_phase(s, rotated)


class TestRng:
    def test_same_key_same_sequence(self):
        a = Rng(123, stream=7)
        b = Rng(123, stream=7)
        assert [a.u64() for _ in range(10)] == [b.u64() for _ in range(10)]

    def test_streams_differ(self):
        assert [Rng(1, 0).u64() for _ in range(4)] != [Rng(1, 1).u64() for _ in range(4)]

    @given(st.integers(0, 2 ** 60))
    @settings(max_examples=30, deadline=None)
    def test_random_in_unit_interval(self, seed):
        r = Rng(seed).random()
        assert 0.0 <= r < 1.0


class TestStreamBlock:
    SEEDS = [0, 101, 2 ** 63 + 5, 2 ** 64 - 1, -3]
    # (start, n): from 0, from 2**32, and across 2**64, where Rng masks the
    # stream id back to 0
    RANGES = [(0, 16), (2 ** 32, 16), (2 ** 64 - 9, 16)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_block_draws_equal_scalar_streams(self, seed):
        draws = 4
        block = StreamBlock(seed, size=16)
        for start, n in self.RANGES:
            block.key(start, n)
            got = [block.draw(i).tolist() for i in range(draws)]
            for j in range(n):
                rng = Rng(seed, stream=start + j)
                assert [got[i][j] for i in range(draws)] == \
                    [rng.u64() for _ in range(draws)], (seed, start + j)

    def test_part_block_and_reuse(self):
        block = StreamBlock(7, size=8)
        block.key(5, 8)
        block.draw(0)
        block.key(100, 3)
        assert block.draw(1).tolist() == [
            (rng.u64(), rng.u64())[1] for rng in (Rng(7, s) for s in (100, 101, 102))]
        for n in (0, 9):
            with pytest.raises(ValueError):
                block.key(0, n)


def test_apply_unitary_two_qubit():
    swap_mat = np.eye(4)[[0, 2, 1, 3]]
    s = apply_unitary(make_basis_state("10"), swap_mat, (0, 1))
    assert s.amplitude("01") == 1


def reference_grouped(amps, n, qs):
    """Amplitudes as a (2**k, rest) matrix with the qubits qs in front,
    by transposing the (2,) * n tensor."""
    perm = qs + [i for i in range(n) if i not in qs]
    return amps.reshape((2,) * n).transpose(perm).reshape(1 << len(qs), -1), perm


def reference_ungrouped(mat, n, perm):
    return mat.reshape((2,) * n).transpose(np.argsort(perm)).reshape(-1)


def reference_apply_unitary(s, matrix, qubits):
    """Reference for apply_unitary: transpose, matmul, transpose back."""
    n = s.num_qubits
    mat, perm = reference_grouped(s.amps, n, list(qubits))
    return reference_ungrouped(matrix @ mat, n, perm)


def reference_measure(s, basis, qubits, rng):
    """Reference for measure: one projection per outcome, each in its own
    loop pass; returns (label, collapsed amplitudes)."""
    n = s.num_qubits
    mat, perm = reference_grouped(s.amps, n, list(qubits))
    rows = []
    for label, vec in basis_outcomes(basis):
        proj = vec.conj() @ mat
        rows.append((label, float(np.vdot(proj, proj).real), vec, proj))
    r = rng.random()
    acc = 0.0
    for label, prob, vec, proj in rows:
        acc += prob
        if r < acc and prob > qcore.ZERO_TOL:
            break
    else:  # the draw passed the total: the largest outcome
        label, prob, vec, proj = max(rows, key=lambda row: row[1])
    return label, reference_ungrouped(np.outer(vec, proj / np.sqrt(prob)), n, perm)


def random_unitary(dim, seed):
    g = np.random.default_rng(seed)
    q, r = np.linalg.qr(g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


BASES_BY_ARITY = {1: (MeasBasis.Z, MeasBasis.X), 2: (MeasBasis.BELL,), 3: (MeasBasis.GHZ,)}


class TestAgainstReference:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_qubit_tuple_and_basis(self, n):
        stream = 0
        for k in (1, 2, 3):
            for qs in permutations(range(n), k):
                s = random_state(n, 1000 * n + stream)
                u = random_unitary(1 << k, stream)
                got = apply_unitary(s, u, qs).amps
                assert np.max(np.abs(got - reference_apply_unitary(s, u, qs))) < 1e-12, qs
                for basis in BASES_BY_ARITY[k]:
                    stream += 1
                    label, post = measure(s, basis, qs, Rng(n, stream))
                    ref_label, ref_amps = reference_measure(s, basis, qs, Rng(n, stream))
                    assert label == ref_label, (qs, basis)
                    assert np.max(np.abs(post.amps - ref_amps)) < 1e-12, (qs, basis)
                    dist = born_distribution(s, basis, qs)
                    for lab, p, branch in measurement_branches(s, basis, qs):
                        assert p == dist[lab]
                        if lab == label:
                            assert np.array_equal(branch.amps, post.amps)

    def test_non_unitary_or_nan_matrix_raises(self):
        s = random_state(3, 8)
        with pytest.raises(ValueError):
            apply_unitary(s, 2 * np.eye(2), (1,))
        with pytest.raises(ValueError):
            apply_unitary(s, [[1, 1], [0, 1]], (0,))
        with pytest.raises(ValueError):
            apply_unitary(s, np.full((4, 4), np.nan), (0, 2))


class StubDraw:
    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


class TestMeasureGuards:
    def test_draw_past_rounded_total_takes_last_nonzero_outcome(self):
        # probabilities 0.7 and 0.3 - 4e-16, then a draw above their total:
        # exact arithmetic has r < 1 and takes outcome 1, not the larger 0
        s = qcore._unchecked_state(np.array([math.sqrt(0.7), math.sqrt(0.3 - 4e-16)],
                                            dtype=np.complex128))
        r = 1.0 - 2.0 ** -53
        assert sum(born_distribution(s, MeasBasis.Z, [0]).values()) < r
        label, post = measure(s, MeasBasis.Z, [0], StubDraw(r))
        assert label == 1 and post.amplitude("1") == 1

    def test_last_nonzero_skips_zero_outcomes(self):
        # PHI_PLUS, the first Bell outcome, is the only one above ZERO_TOL,
        # and its probability falls short of the draw
        amps = np.array([1, 0, 0, 1 - 8e-16], dtype=np.complex128) * INV
        s = qcore._unchecked_state(amps)
        label, _ = measure(s, MeasBasis.BELL, [0, 1], StubDraw(1.0 - 2.0 ** -53))
        assert label == BellLabel.PHI_PLUS

    @pytest.mark.parametrize("amps", [[1.0, 1.0], [0.5, 0.5], [math.nan, 0.0]])
    def test_unnormalized_state_raises(self, amps):
        s = qcore._unchecked_state(np.array(amps, dtype=np.complex128))
        with pytest.raises(ValueError):
            measure(s, MeasBasis.Z, [0], Rng(1))


class TestSharedStates:
    def test_constants_are_shared_and_read_only(self):
        for label in GhzLabel:
            assert ghz_state(label) is ghz_state(label)
        assert make_basis_state("0") is make_basis_state("0")
        assert eavesdrop_unitary(0.25) is eavesdrop_unitary(0.25)
        for arr in (ghz_state(GhzLabel.PSI0).amps, decoy_state("+").amps,
                    make_basis_state("0").amps, eavesdrop_unitary(0.25)):
            with pytest.raises(ValueError):
                arr[0] = 0.0
