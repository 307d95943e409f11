import math
import warnings
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine as reference
from helpers import amplitude, basis_row, equal_up_to_global_phase

from bqsdc import adversary, codebook, qcore, swap
from bqsdc.adversary import _copy_unitary, eavesdrop_unitary
from bqsdc.checks import decoy_state
from bqsdc.codebook import ghz_rows
from bqsdc.labels import BellLabel, GhzLabel, ghz_amplitudes
from bqsdc.qcore import (ATOL, ISY, SX, SZ, I, MeasBasis, Rng, StateVector,
                         StreamBlock, apply_single, apply_unitary, apply_unitary_rows,
                         basis_labels, basis_outcomes, born_distribution, branch_rows,
                         branch_thresholds, collapse_rows, joint_distribution, measure,
                         measure_rows, sample_branches, tensor, tensor_rows)

INV = 2 ** -0.5


def random_state(num_qubits: int, seed: int) -> StateVector:
    rng = Rng(seed)
    re = np.array([rng.random() - 0.5 for _ in range(2 ** num_qubits)])
    im = np.array([rng.random() - 0.5 for _ in range(2 ** num_qubits)])
    amps = re + 1j * im
    return StateVector(amps / np.linalg.norm(amps))


def draw_outcomes(amps, basis, rounds, draws, which=None):
    """Each round's outcome indices of measuring the rows of amps with the
    draws, as measure_rows draws them, without the collapse: the walk of
    their branch tables, with a basis per row when which is given."""
    tables = branch_thresholds(branch_rows(amps, basis, rounds, which))
    return sample_branches(tables, np.arange(len(amps)), draws)


class TestStateVector:
    def test_basis_state_indexing(self):
        # index convention: qubit 0 is the most significant bit
        flipped = apply_single(StateVector(basis_row("00")), SX, 0)
        assert flipped.amps[2] == 1  # |10>

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [[1.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.0, 1.0],
                                     [math.nan, 0.0], [math.inf, 0.0],
                                     [[0.5, 0.5], [0.5, 0.5]]])
    def test_distributions_reject_what_a_state_rejects(self, bad):
        # not one row of a length that is a power of two >= 2, non-finite
        # or unnormalized amplitudes: the exact distributions take a row
        # and reject it as StateVector does
        for reject in (lambda: StateVector(bad),
                       lambda: born_distribution(bad, MeasBasis.Z, [0]),
                       lambda: joint_distribution(bad, MeasBasis.Z, [(0,)])):
            with pytest.raises(ValueError):
                reject()

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 1.0])
        with pytest.raises(ValueError):
            StateVector([0.5, 0.5, 0.5])  # not a power-of-two length

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [[1.0, 1.0], [math.nan, 0.0], [math.inf, 0.0]])
    def test_same_message_as_tensor_rows(self, bad):
        # one validator: a state and a tensored row fail with one message
        with pytest.raises(ValueError) as state:
            StateVector(bad)
        with pytest.raises(ValueError) as row:
            tensor_rows(np.array([bad], dtype=complex), basis_row("0"))
        assert str(state.value) == str(row.value)

    def test_amps_are_frozen(self):
        s = StateVector(basis_row("0"))
        with pytest.raises(ValueError):
            s.amps[0] = 0.0


class TestTensor:
    def test_zero_one(self):
        zero, one = StateVector(basis_row("0")), StateVector(basis_row("1"))
        assert amplitude(tensor(zero, one).amps, "01") == 1

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
        assert np.array_equal(I, np.eye(2))
        assert np.array_equal(SZ, [[1, 0], [0, -1]])
        assert np.array_equal(SX, [[0, 1], [1, 0]])
        assert np.array_equal(ISY, [[0, 1], [-1, 0]])

    def test_all_real_and_unitary(self):
        for op in (I, SX, ISY, SZ):
            assert op.shape == (2, 2) and op.dtype == np.complex128
            assert np.allclose(op.imag, 0)
            assert np.allclose(op.conj().T @ op, np.eye(2), atol=1e-12)

    def test_isy_squared_is_minus_identity(self):
        assert np.allclose(ISY @ ISY, -np.eye(2), atol=1e-12)

    def test_pauli_products(self):
        assert np.allclose(SX @ SZ, -ISY, atol=1e-12)
        assert np.allclose(SZ @ SX, ISY, atol=1e-12)

    def test_sx_flips(self):
        assert amplitude(apply_single(StateVector(basis_row("0")), SX, 0).amps, "1") == 1

    def test_isy_on_zero_gives_minus_one(self):
        s = apply_single(StateVector(basis_row("0")), ISY, 0)
        assert amplitude(s.amps, "1") == -1

    def test_szsz_fixes_ghz(self):
        ghz = StateVector(ghz_amplitudes(GhzLabel.PSI0))
        out = apply_single(apply_single(ghz, SZ, 0), SZ, 1)
        assert np.allclose(out.amps, ghz.amps)  # exactly, phase +1

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            apply_single(StateVector(basis_row("0")), SX, 1)

    @given(st.integers(0, 2 ** 31), st.sampled_from([I, SX, ISY, SZ]), st.integers(0, 2))
    @settings(max_examples=50, deadline=None)
    def test_norm_preserved(self, seed, op, q):
        s = random_state(3, seed)
        out = apply_single(s, op, q)
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
        plus = [INV, INV]
        assert born_distribution(plus, MeasBasis.Z, [0]) == pytest.approx({0: 0.5, 1: 0.5})

    def test_ghz_eigenstate(self):
        dist = born_distribution(ghz_amplitudes(GhzLabel.PSI3), MeasBasis.GHZ, [0, 1, 2])
        assert dist[GhzLabel.PSI3] == pytest.approx(1.0)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_bell_marginal_on_double_ghz(self):
        s = np.kron(ghz_amplitudes(GhzLabel.PSI0), ghz_amplitudes(GhzLabel.PSI0))
        dist = born_distribution(s, MeasBasis.BELL, [0, 3])
        for lab in BellLabel:
            assert dist[lab] == pytest.approx(0.25)

    def test_joint_bell_uniform_eighth(self):
        s = np.kron(ghz_amplitudes(GhzLabel.PSI0), ghz_amplitudes(GhzLabel.PSI0))
        joint = joint_distribution(s, MeasBasis.BELL, [(0, 3), (1, 4), (2, 5)])
        assert len(joint) == 8
        for p in joint.values():
            assert p == pytest.approx(0.125, abs=ATOL)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            born_distribution(basis_row("00"), MeasBasis.BELL, [0])

    @given(st.integers(0, 2 ** 31), st.sampled_from(list(MeasBasis)))
    @settings(max_examples=40, deadline=None)
    def test_sums_to_one(self, seed, basis):
        s = random_state(4, seed)
        dist = born_distribution(s.amps, basis, list(range(basis.arity)))
        assert sum(dist.values()) == pytest.approx(1.0, abs=ATOL)


class TestMeasure:
    def test_certain_outcome(self):
        out, post = measure(StateVector(basis_row("1")), MeasBasis.Z, [0], Rng(1))
        assert out == 1 and amplitude(post.amps, "1") == 1

    def test_ghz_eigenstate_fixed(self):
        s = StateVector(ghz_amplitudes(GhzLabel.PSI5))
        out, post = measure(s, MeasBasis.GHZ, [0, 1, 2], Rng(9))
        assert out == GhzLabel.PSI5
        assert equal_up_to_global_phase(post.amps, s.amps)

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
        s = np.array([0.6, 0.8], dtype=np.complex128)
        dist = born_distribution(s, MeasBasis.Z, [0])
        assert dist == pytest.approx({0: 0.36, 1: 0.64})
        # trial t draws the first draw of Rng(11, stream=t): lane t of the
        # block keyed at stream 0 (TestStreamBlock)
        trials = 100_000
        block = StreamBlock(11, trials)
        block.key(0, trials)
        amps = np.broadcast_to(s, (trials, 2))
        (j,) = draw_outcomes(amps, MeasBasis.Z, [[0]], list(block.random(1)))
        assert abs(j.sum() / trials - dist[1]) < 0.01


class TestGlobalPhase:
    def test_sign_flip_equal(self):
        s = ghz_amplitudes(GhzLabel.PSI2)
        assert equal_up_to_global_phase(s, -s)

    def test_orthogonal_not_equal(self):
        a = ghz_amplitudes(GhzLabel.PSI2)
        b = ghz_amplitudes(GhzLabel.PSI3)
        assert not equal_up_to_global_phase(a, b)

    @given(st.integers(0, 2 ** 31), st.floats(0, 2 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_any_phase_equal(self, seed, theta):
        s = random_state(2, seed).amps
        assert equal_up_to_global_phase(s, np.exp(1j * theta) * s)


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

    @pytest.mark.parametrize("n", [1, 7, 17])
    def test_draws_of_k_rounds_equal_scalar_streams(self, n):
        # random(k) mixes k * n values at once
        block = StreamBlock(101, size=64)
        start = 2 ** 64 - 5  # across the wrap of the stream id
        block.key(start, n)
        first, rest, last = block.u64().tolist(), block.random(3), block.randrange(7)
        for j in range(n):
            rng = Rng(101, stream=start + j)
            assert first[j] == rng.u64()
            assert rest[:, j].tolist() == [rng.random() for _ in range(3)]
            assert last[j] == rng.randrange(7)

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
    s = apply_unitary(StateVector(basis_row("10")), swap_mat, (0, 1))
    assert amplitude(s.amps, "01") == 1


def assert_matches_reference(got, ref):
    assert list(got) == list(ref)
    assert all(abs(got[key] - ref[key]) < 1e-12 for key in ref)


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
                assert np.max(np.abs(got - reference.apply_unitary(s.amps, u, qs))) < 1e-12, qs
                for basis in BASES_BY_ARITY[k]:
                    stream += 1
                    label, post = measure(s, basis, qs, Rng(n, stream))
                    ref_label, ref_amps = reference.measure(s.amps, basis, qs,
                                                            Rng(n, stream).random())
                    assert label == ref_label, (qs, basis)
                    assert np.max(np.abs(post.amps - ref_amps)) < 1e-12, (qs, basis)
                    ref = {lab: p for lab, p, _ in reference.branches(s.amps, basis, qs)}
                    assert_matches_reference(born_distribution(s.amps, basis, qs), ref)
                    assert_matches_reference(joint_distribution(s.amps, basis, [qs]),
                                             reference.joint(s.amps, basis, [qs]))

    def test_non_unitary_or_nan_matrix_raises(self):
        s = random_state(3, 8)
        with pytest.raises(ValueError):
            apply_unitary(s, 2 * np.eye(2), (1,))
        with pytest.raises(ValueError):
            apply_unitary(s, [[1, 1], [0, 1]], (0,))
        with pytest.raises(ValueError):
            apply_unitary(s, np.full((4, 4), np.nan), (0, 2))


class TestRowKernels:
    """An M-row call equals M one-row calls exactly (they are one code path)
    and the transpose/matmul reference within 1e-12."""

    @pytest.mark.parametrize("rows", [1, 3, 129])
    @pytest.mark.parametrize("n", [3, 4])
    def test_rows_equal_one_row_calls_and_reference(self, rows, n):
        stream = 0
        for k in (1, 2, 3):
            for qs in permutations(range(n), k):
                states = [random_state(n, 7000 * n + 100 * stream + i) for i in range(rows)]
                amps = np.stack([s.amps for s in states])
                stream += 1
                u = random_unitary(1 << k, stream)
                per_row = np.stack([random_unitary(1 << k, 1000 + stream + i)
                                    for i in range(rows)])
                got = apply_unitary_rows(amps, u, qs)
                got_each = apply_unitary_rows(amps, per_row, qs)
                for i, s in enumerate(states):
                    assert np.array_equal(got[i], apply_unitary(s, u, qs).amps)
                    assert np.array_equal(got_each[i], apply_unitary(s, per_row[i], qs).amps)
                    assert np.max(np.abs(got[i] - reference.apply_unitary(s.amps, u, qs))) < 1e-12
                for basis in BASES_BY_ARITY[k]:
                    r = np.array([Rng(n, 50 * stream + i).random() for i in range(rows)])
                    (j,), post = measure_rows(amps, basis, [qs], [r])
                    for i, s in enumerate(states):
                        label, one = measure(s, basis, qs, StubDraw(r[i]))
                        ref_label, ref_amps = reference.measure(s.amps, basis, qs, r[i])
                        assert basis_labels(basis)[j[i]] == label == ref_label, (qs, basis)
                        assert np.array_equal(post[i], one.amps), (qs, basis)
                        assert np.max(np.abs(post[i] - ref_amps)) < 1e-12, (qs, basis)

    def test_tensor_rows_equal_tensor(self):
        a = [random_state(3, 40 + i) for i in range(5)]
        b = [random_state(1, 80 + i) for i in range(5)]
        rows = tensor_rows(np.stack([s.amps for s in a]), np.stack([s.amps for s in b]))
        shared = tensor_rows(np.stack([s.amps for s in a]), b[0].amps)
        for i in range(5):
            assert np.array_equal(rows[i], tensor(a[i], b[i]).amps)
            assert np.array_equal(shared[i], tensor(a[i], b[0]).amps)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [[1.0, 1.0], [0.5, 0.5], [math.nan, 0.0], [math.inf, 0.0]])
    def test_one_bad_row_in_a_block_raises(self, bad):
        amps = np.stack([random_state(1, i).amps for i in range(129)])
        amps[64] = bad
        r = np.full(len(amps), 0.5)
        with pytest.raises(ValueError):
            measure_rows(amps, MeasBasis.Z, [[0]], [r])
        # the bad row, and a second qubit measured after it, in one call,
        # in one basis or one per row
        two = (amps[:, :, None] * basis_row("0")).reshape(len(amps), -1)
        rounds, zero = [[1], [0]], np.zeros(len(amps), dtype=np.intp)
        with pytest.raises(ValueError):
            measure_rows(two, MeasBasis.Z, rounds, [r, r])
        bases, which = (MeasBasis.Z, MeasBasis.X), np.arange(len(amps)) % 2
        with pytest.raises(ValueError):
            branch_rows(two, bases, rounds, which)
        with pytest.raises(ValueError):
            collapse_rows(two, bases, rounds, [zero, zero], which)
        with pytest.raises(ValueError):
            tensor_rows(amps, basis_row("0"))
        with pytest.raises(ValueError):
            tensor_rows(np.stack([basis_row("1")] * len(amps)), amps)
        with pytest.raises(ValueError):
            apply_unitary_rows(amps, SX, [0])

    def test_short_row_takes_last_nonzero_outcome_others_unaffected(self):
        # row 2 has probabilities 0.7 and 0.3 - 4e-16; at a draw above their
        # total it takes outcome 1, as exact arithmetic would, while the
        # other rows draw as they do alone
        short = [math.sqrt(0.7), math.sqrt(0.3 - 4e-16)]
        states = [random_state(1, 60 + i).amps for i in range(5)]
        amps = np.stack(states[:2] + [np.array(short, dtype=np.complex128)] + states[2:])
        r = np.array([0.1, 0.6, 1.0 - 2.0 ** -53, 0.9, 0.35, 0.99])
        assert amps[2].real @ amps[2].real < r[2]
        (j,), post = measure_rows(amps, MeasBasis.Z, [[0]], [r])
        assert j[2] == 1 and np.array_equal(post[2], [0, 1])
        for i in (0, 1, 3, 4, 5):
            (one_j,), one_post = measure_rows(amps[i:i + 1], MeasBasis.Z, [[0]], [r[i:i + 1]])
            assert j[i] == one_j[0] and np.array_equal(post[i], one_post[0])


DRAW = st.integers(0, 2 ** 53 - 1).map(lambda u: u * 2.0 ** -53)  # as Rng.random draws


@st.composite
def rounds_case(draw, bases):
    """A block of random states, 1-3 disjoint rounds of qubits sized for
    the first of bases, and one draw per row and round."""
    k = bases[0].arity
    n = draw(st.integers(k, 7))
    count = draw(st.integers(1, min(3, n // k)))
    qubits = draw(st.permutations(range(n)))[:count * k]
    rows = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2 ** 32))
    amps = np.stack([random_state(n, seed + i).amps for i in range(rows)])
    draws = [np.array(draw(st.lists(DRAW, min_size=rows, max_size=rows)))
             for _ in range(count)]
    return amps, [qubits[i * k:(i + 1) * k] for i in range(count)], draws


class TestRoundsKernel:
    """One measure_rows call over several rounds equals one call per round,
    each on the state the round before collapsed, and one call with a basis
    per row equals one call per basis on its rows."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_rounds_equal_successive_calls(self, data):
        basis = data.draw(st.sampled_from(list(MeasBasis)))
        amps, rounds, draws = data.draw(rounds_case([basis]))
        js, post = measure_rows(amps, basis, rounds, draws)
        state = amps
        for qs, r, j in zip(rounds, draws, js):
            (one,), state = measure_rows(state, basis, [qs], [r])
            assert np.array_equal(j, one), (rounds, basis)
        assert np.max(np.abs(post - state)) < 1e-12, (rounds, basis)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_basis_per_row_equals_rows_split_by_basis(self, data):
        bases = (MeasBasis.Z, MeasBasis.X)
        amps, rounds, draws = data.draw(rounds_case(bases))
        which = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(amps),
                                            max_size=len(amps))))
        js = draw_outcomes(amps, bases, rounds, draws, which)
        post = collapse_rows(amps, bases, rounds, js, which)
        for b, basis in enumerate(bases):
            sel = np.flatnonzero(which == b)
            if sel.size:
                part_js, part = measure_rows(amps[sel], basis, rounds, [r[sel] for r in draws])
                for j, part_j in zip(js, part_js):
                    assert np.array_equal(j[sel], part_j)
                assert np.array_equal(post[sel], part)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_collapse_onto_the_drawn_outcomes_equals_measure(self, data):
        # collapse_rows onto the outcomes measure_rows drew gives the states
        # measure_rows returns (a basis per row: the test above)
        basis = data.draw(st.sampled_from(list(MeasBasis)))
        amps, rounds, draws = data.draw(rounds_case([basis]))
        js, post = measure_rows(amps, basis, rounds, draws)
        assert np.array_equal(collapse_rows(amps, basis, rounds, js), post)

    def test_overlapping_rounds_raise(self):
        amps = random_state(5, 3).amps[None]
        with pytest.raises(ValueError):
            measure_rows(amps, MeasBasis.BELL, [(0, 3), (3, 4)], [np.array([0.5])] * 2)
        with pytest.raises(ValueError):
            measure_rows(amps, MeasBasis.Z, [(1,), (1,)], [np.array([0.5])] * 2)
        with pytest.raises(ValueError):
            branch_rows(amps, MeasBasis.Z, [(1,), (1,)])

    @pytest.mark.parametrize("rounds", [[(0, 1), (2,)], [(0,), (1, 2)], [(0, 1, 2)]])
    def test_round_of_the_wrong_size_raises(self, rounds):
        amps = random_state(4, 5).amps[None]
        with pytest.raises(ValueError):
            measure_rows(amps, MeasBasis.BELL, rounds, [np.array([0.5])] * len(rounds))

    def test_bases_of_two_arities_or_missing_draws_raise(self):
        amps = random_state(4, 6).amps[None]
        with pytest.raises(ValueError):
            branch_rows(amps, (MeasBasis.Z, MeasBasis.BELL), [(0,)], np.array([0]))
        with pytest.raises(ValueError):
            measure_rows(amps, MeasBasis.Z, [(0,), (1,)], [np.array([0.5])])


class TestBranchTables:
    """branch_rows expands every path of measure_rows's rounds, and walking
    its tables with sample_branches gives the outcomes measure_rows draws,
    bit for bit."""

    @staticmethod
    def assert_walk_equals_measure_rows(amps, basis, rounds, draws):
        tables = branch_rows(amps, basis, rounds)
        js, _ = measure_rows(amps, basis, rounds, draws)
        walked = sample_branches(branch_thresholds(tables), np.arange(len(amps)), draws)
        for j, got in zip(js, walked):
            assert np.array_equal(got, j), (rounds, basis)
        return tables

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_walk_equals_measure_rows(self, data):
        basis = data.draw(st.sampled_from(list(MeasBasis)))
        amps, rounds, draws = data.draw(rounds_case([basis]))
        tables = self.assert_walk_equals_measure_rows(amps, basis, rounds, draws)
        # samples read table rows by index, any row any number of times
        rows = np.array(data.draw(st.lists(st.integers(0, len(amps) - 1), min_size=1,
                                           max_size=8)))
        r = [np.resize(d, len(rows)) for d in draws]
        js, _ = measure_rows(amps[rows], basis, rounds, r)
        for j, got in zip(js, sample_branches(branch_thresholds(tables), rows, r)):
            assert np.array_equal(got, j), (rounds, basis)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_basis_per_row_walk_equals_measure_rows(self, data):
        bases = (MeasBasis.Z, MeasBasis.X)
        amps, rounds, draws = data.draw(rounds_case(bases))
        which = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(amps),
                                            max_size=len(amps))))
        tables = branch_rows(amps, bases, rounds, which=which)
        walked = sample_branches(branch_thresholds(tables), np.arange(len(amps)), draws)
        for b, basis in enumerate(bases):
            sel = np.flatnonzero(which == b)
            if sel.size:
                js, _ = measure_rows(amps[sel], basis, rounds, [r[sel] for r in draws])
                for j, got in zip(js, walked):
                    assert np.array_equal(got[sel], j), rounds
                for got, want in zip(tables, branch_rows(amps[sel], basis, rounds)):
                    assert np.array_equal(got[sel], want)

    @pytest.mark.parametrize("r", [0.0, 1.0 - 2.0 ** -53])
    @pytest.mark.parametrize("basis", list(MeasBasis))
    def test_extreme_draws(self, basis, r):
        k = basis.arity
        amps = np.stack([random_state(3 * k, 90 + i).amps for i in range(4)])
        rounds = [tuple(range(i * k, (i + 1) * k)) for i in range(3)]
        self.assert_walk_equals_measure_rows(amps, basis, rounds, [np.full(4, r)] * 3)

    def test_draw_past_rounded_total_takes_last_nonzero_outcome(self):
        # as TestMeasureGuards: probabilities 0.7 and 0.3 - 4e-16 fall short
        # of the draw, and the last nonzero outcome is taken
        short = np.array([[math.sqrt(0.7), math.sqrt(0.3 - 4e-16)]], dtype=np.complex128)
        r = np.array([1.0 - 2.0 ** -53])
        (table,) = branch_rows(short, MeasBasis.Z, [(0,)])
        assert table.sum() < r[0]
        (j,) = sample_branches(branch_thresholds([table]), np.array([0]), [r])
        assert j.tolist() == [1]
        self.assert_walk_equals_measure_rows(short, MeasBasis.Z, [(0,)], [r])

    @staticmethod
    def assert_closed(tables, thresholds):
        """Each row of thresholds against its row of branch_rows tables: the
        running total at each live entry (above ZERO_TOL) but the last, 1.0
        at the last, and -1 at every dead entry, so across a row with none
        live."""
        for table, closed in zip(tables, thresholds, strict=True):
            assert closed.shape == table.shape
            d = table.shape[-1]
            for probs, got in zip(table.reshape(-1, d).tolist(), closed.reshape(-1, d).tolist()):
                live = [j for j, p in enumerate(probs) if p > qcore.ZERO_TOL]
                total, want = 0.0, []
                for j, p in enumerate(probs):
                    total += p
                    want.append(total if j in live else -1.0)
                if live:
                    want[live[-1]] = 1.0
                assert got == want

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_thresholds_close_each_live_row_at_one(self, data):
        # a basis state beside the random rows gives dead entries, and dead
        # rows in the rounds after the first
        basis = data.draw(st.sampled_from(list(MeasBasis)))
        amps, rounds, _ = data.draw(rounds_case([basis]))
        index = data.draw(st.integers(0, amps.shape[1] - 1))
        amps = np.concatenate([amps, np.eye(amps.shape[1], dtype=np.complex128)[index:index + 1]])
        tables = branch_rows(amps, basis, rounds)
        self.assert_closed(tables, branch_thresholds(tables))

    def test_ghz_swap_tables_are_closed(self):
        ghz = ghz_rows()
        g1, g2 = np.divmod(np.arange(len(GhzLabel) ** 2), len(GhzLabel))
        self.assert_closed(swap.bell_tables(ghz[g1], ghz[g2]), swap.ghz_swap_tables())

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(basis=st.sampled_from(list(MeasBasis)), data=st.data())
    def test_draw_at_a_running_total_takes_the_next_live_outcome(self, basis, data):
        # a draw equal to a running total is not below it, so the walk goes
        # on to the next live outcome, as the reference's r < total does.
        # The ties are exact in both engines: each row's nonzero amplitudes
        # are real and sit on basis states no basis vector joins (Z: both;
        # X: |0> alone; Bell, GHZ: the first half, whose complements form the
        # second), so every probability is one rounded product squared
        k, d = basis.arity, len(basis_labels(basis))
        support = 2 if basis is MeasBasis.Z else 1 << (k - 1)
        values = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=support,
                                             max_size=support).filter(any),
                                    min_size=1, max_size=4))
        amps = np.zeros((len(values), 1 << k), dtype=np.complex128)
        amps[:, :support] = values
        amps /= np.linalg.norm(amps, axis=1)[:, None]
        tables = branch_rows(amps, basis, [tuple(range(k))])
        totals = tables[0][:, 0].cumsum(axis=1)
        for c in range(d):
            r = np.where(totals[:, c] < 1.0, totals[:, c], 0.0)
            (j,) = sample_branches(branch_thresholds(tables), np.arange(len(amps)), [r])
            for i, row in enumerate(amps):
                label, _ = reference.measure(row, basis, range(k), r[i])
                assert basis_labels(basis)[j[i]] == label, (values[i], c)

    @pytest.mark.parametrize("basis, rounds", [
        (MeasBasis.Z, [(0,), (1,), (2,)]), (MeasBasis.X, [(2,), (0,), (1,)]),
        (MeasBasis.GHZ, [(0, 1, 2)]), (MeasBasis.BELL, [(0, 3), (1, 4), (2, 5)])])
    def test_zero_branches_stay_zero_without_nan(self, basis, rounds):
        # GHZ triples and basis states (two triples each for the Bell rounds,
        # the swap's case): most branches have probability 0, and their
        # tables must hold 0, never a NaN from a division by zero
        states = list(ghz_rows()) + [basis_row(f"{b:03b}") for b in range(8)]
        if basis is MeasBasis.BELL:
            states = [np.kron(a, b) for a in states[::3] for b in states[1::3]]
        amps = np.stack(states)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tables = branch_rows(amps, basis, rounds)
            for r in (0.0, 0.3, 0.7, 1.0 - 2.0 ** -53):
                self.assert_walk_equals_measure_rows(amps, basis, rounds,
                                                     [np.full(len(amps), r)] * len(rounds))
        for table in tables:
            assert np.isfinite(table).all()
        # the probability of a path is the product along it, and the paths
        # whose every round is above ZERO_TOL are the dense reference's support
        outcomes = len(basis_labels(basis))
        for i, row in enumerate(amps):
            joint = reference.joint(row, basis, rounds)
            paths = {}
            for path in product(range(outcomes), repeat=len(rounds)):
                probs, prefix = [], 0
                for table, j in zip(tables, path):
                    probs.append(table[i, prefix, j])
                    prefix = prefix * outcomes + j
                if min(probs) > qcore.ZERO_TOL:
                    paths[tuple(basis_labels(basis)[j] for j in path)] = math.prod(probs)
            assert paths.keys() == joint.keys()
            assert all(abs(paths[key] - joint[key]) < 1e-12 for key in joint)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_distributions_equal_dense_reference(self, data):
        basis = data.draw(st.sampled_from(list(MeasBasis)))
        amps, rounds, _ = data.draw(rounds_case([basis]))
        for row in amps:
            assert_matches_reference(joint_distribution(row, basis, rounds),
                                     reference.joint(row, basis, rounds))
            ref = reference.branches(row, basis, rounds[0])
            assert_matches_reference(born_distribution(row, basis, rounds[0]),
                                     {label: p for label, p, _ in ref})

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("amps", [[1.0, 1.0], [0.5, 0.5], [math.nan, 0.0]])
    def test_unnormalized_live_branch_raises(self, amps):
        rows = np.array([[1.0, 0.0], amps], dtype=np.complex128)
        with pytest.raises(ValueError):
            branch_rows(rows, MeasBasis.Z, [(0,)])

    def test_missing_draws_or_wrong_round_size_raise(self):
        amps = random_state(4, 6).amps[None]
        tables = branch_rows(amps, MeasBasis.Z, [(0,), (1,)])
        with pytest.raises(ValueError):
            sample_branches(branch_thresholds(tables), np.array([0]), [np.array([0.5])])
        with pytest.raises(ValueError):
            branch_rows(amps, MeasBasis.BELL, [(0, 1), (2,)])
        with pytest.raises(ValueError):
            branch_rows(amps, MeasBasis.BELL, [(0, 1), (1, 2)])


class StubDraw:
    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


class TestMeasureGuards:
    def test_draw_past_rounded_total_takes_last_nonzero_outcome(self):
        # probabilities 0.7 and 0.3 - 4e-16, then a draw above their total:
        # exact arithmetic has r < 1 and takes outcome 1, not the larger 0
        s = StateVector([math.sqrt(0.7), math.sqrt(0.3 - 4e-16)])
        r = 1.0 - 2.0 ** -53
        assert sum(born_distribution(s.amps, MeasBasis.Z, [0]).values()) < r
        label, post = measure(s, MeasBasis.Z, [0], StubDraw(r))
        assert label == 1 and amplitude(post.amps, "1") == 1

    def test_last_nonzero_skips_zero_outcomes(self):
        # PHI_PLUS, the first Bell outcome, is the only one above ZERO_TOL,
        # and its probability falls short of the draw
        amps = np.array([1, 0, 0, 1 - 8e-16], dtype=np.complex128) * INV
        label, _ = measure(StateVector(amps), MeasBasis.BELL, [0, 1], StubDraw(1.0 - 2.0 ** -53))
        assert label == BellLabel.PHI_PLUS

    @pytest.mark.parametrize("amps", [[1.0, 1.0], [0.5, 0.5], [math.nan, 0.0]])
    def test_unnormalized_state_raises(self, amps):
        with pytest.raises(ValueError):
            measure_rows(np.array([amps], dtype=np.complex128), MeasBasis.Z, [(0,)],
                         [np.array([0.5])])
        with pytest.raises(ValueError):
            born_distribution(amps, MeasBasis.Z, [0])
        with pytest.raises(ValueError):
            joint_distribution(amps, MeasBasis.Z, [(0,)])

    def test_reference_takes_the_same_outcome_past_a_rounded_total(self):
        # the states and draw of the two tests above: the dense reference
        # takes the last outcome above ZERO_TOL, as qcore does, not the largest
        r = 1.0 - 2.0 ** -53
        cases = [([math.sqrt(0.7), math.sqrt(0.3 - 4e-16)], MeasBasis.Z, [0], 1),
                 (np.array([1, 0, 0, 1 - 8e-16]) * INV, MeasBasis.BELL, [0, 1],
                  BellLabel.PHI_PLUS)]
        for amps, basis, qubits, want in cases:
            amps = np.array(amps, dtype=np.complex128)
            label, post = measure(StateVector(amps), basis, qubits, StubDraw(r))
            ref_label, ref_post = reference.measure(amps, basis, qubits, r)
            assert label == ref_label == want, basis
            assert np.max(np.abs(post.amps - ref_post)) < 1e-12, basis

    @pytest.mark.parametrize("basis", list(MeasBasis))
    @pytest.mark.parametrize("scale", [1 - 2 * ATOL, 1 - 0.5 * ATOL, 1 + 0.5 * ATOL,
                                       1 + 2 * ATOL])
    def test_expansion_and_collapse_judge_a_norm_alike(self, basis, scale):
        # rows off norm 1 by half the tolerance pass both guards, rows off
        # by twice it raise in both
        amps = np.stack([random_state(3, seed).amps for seed in range(4)]) * scale
        rounds = [tuple(range(basis.arity))]
        kernels = (lambda: branch_rows(amps, basis, rounds),
                   lambda: collapse_rows(amps, basis, rounds, [np.zeros(4, dtype=np.intp)]))
        verdicts = []
        for kernel in kernels:
            try:
                kernel()
                verdicts.append(True)
            except ValueError:
                verdicts.append(False)
        assert verdicts == [abs(scale - 1) < ATOL] * 2


class TestSharedStates:
    def test_constants_are_shared_and_read_only(self):
        assert ghz_rows() is ghz_rows()
        assert eavesdrop_unitary(0.25) is eavesdrop_unitary(0.25)
        assert _copy_unitary(MeasBasis.X) is _copy_unitary(MeasBasis.X)
        # no constant is a view of a writable array, through which it could
        # still be written
        for arr in (ghz_rows(), decoy_state("+").amps, adversary._ZERO,
                    eavesdrop_unitary(0.25), _copy_unitary(MeasBasis.X), I, SZ, SX, ISY,
                    codebook.FIRST_FACTORS, codebook.SECOND_FACTORS):
            with pytest.raises(ValueError):
                arr[0] = 0.0
            assert arr.base is None or not arr.base.flags.writeable
