import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import equal_up_to_global_phase

from bqsdc.codebook import (CompositeOp, apply_composite, classify_ghz, ghz_state,
                            invert_transform, message_to_op, transform_label,
                            verify_transform_table)
from bqsdc.labels import BellLabel, GhzLabel, bell_amplitudes
from bqsdc.qcore import ISY, SX, SZ, I, StateVector


def transform_phases() -> dict[tuple[str, str], float]:
    """Global phase (+1 or -1) by (initial, op) token, as
    verify_transform_table re-derives it from the state vectors."""
    return {(e["initial"], e["op"]): e["phase"] for e in verify_transform_table()["entries"]}

INV = 2 ** -0.5

# Hand-derived amplitude table for the eight GHZ basis states: (first ket
# index, second ket index, relative sign).
GHZ_KETS = {
    GhzLabel.PSI0: ("000", "111", +1),
    GhzLabel.PSI1: ("000", "111", -1),
    GhzLabel.PSI2: ("100", "011", +1),
    GhzLabel.PSI3: ("100", "011", -1),
    GhzLabel.PSI4: ("010", "101", +1),
    GhzLabel.PSI5: ("010", "101", -1),
    GhzLabel.PSI6: ("110", "001", +1),
    GhzLabel.PSI7: ("110", "001", -1),
}

# Independent reference chart, row = initial state, column = outcome state,
# cell = index of the operation carrying row to column.
REFERENCE_CHART = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 0, 3, 2, 5, 4, 7, 6],
    [2, 3, 0, 1, 6, 7, 4, 5],
    [3, 2, 1, 0, 7, 6, 5, 4],
    [4, 5, 6, 7, 0, 1, 2, 3],
    [5, 4, 7, 6, 1, 0, 3, 2],
    [6, 7, 4, 5, 2, 3, 0, 1],
    [7, 6, 5, 4, 3, 2, 1, 0],
]


class TestGhzStates:
    @pytest.mark.parametrize("label,expect", GHZ_KETS.items())
    def test_amplitudes(self, label, expect):
        hi, lo, sign = expect
        s = ghz_state(label)
        assert s.amplitude(hi) == pytest.approx(INV)
        assert s.amplitude(lo) == pytest.approx(sign * INV)
        assert np.count_nonzero(s.amps) == 2

    def test_pairwise_orthogonal(self):
        for a in GhzLabel:
            for b in GhzLabel:
                ov = np.vdot(ghz_state(a).amps, ghz_state(b).amps)
                assert ov == pytest.approx(1.0 if a == b else 0.0)


class TestBellStates:
    def test_phi_plus(self):
        s = StateVector(bell_amplitudes(BellLabel.PHI_PLUS))
        assert s.amplitude("00") == pytest.approx(INV)
        assert s.amplitude("11") == pytest.approx(INV)

    def test_psi_minus(self):
        s = StateVector(bell_amplitudes(BellLabel.PSI_MINUS))
        assert s.amplitude("01") == pytest.approx(INV)
        assert s.amplitude("10") == pytest.approx(-INV)

    def test_orthonormal_basis(self):
        for a in BellLabel:
            for b in BellLabel:
                ov = np.vdot(bell_amplitudes(a), bell_amplitudes(b))
                assert ov == pytest.approx(1.0 if a == b else 0.0)


class TestMessageCode:
    def test_known_codewords(self):
        assert message_to_op((0, 1, 0)) == CompositeOp.U2
        assert message_to_op((1, 0, 1)) == CompositeOp.U5
        assert message_to_op((0, 0, 0)) == CompositeOp.U0

    def test_bijection(self):
        seen = {message_to_op(op.bits) for op in CompositeOp}
        assert seen == set(CompositeOp)

    @given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
    def test_roundtrip(self, b2, b1, b0):
        assert message_to_op((b2, b1, b0)).bits == (b2, b1, b0)

    def test_factor_table(self):
        assert (CompositeOp.U0.first, CompositeOp.U0.second) == (SZ, SZ)
        assert (CompositeOp.U1.first, CompositeOp.U1.second) == (I, SZ)
        assert (CompositeOp.U2.first, CompositeOp.U2.second) == (ISY, SZ)
        assert (CompositeOp.U3.first, CompositeOp.U3.second) == (SX, SZ)
        assert (CompositeOp.U4.first, CompositeOp.U4.second) == (I, SX)
        assert (CompositeOp.U5.first, CompositeOp.U5.second) == (SZ, SX)
        assert (CompositeOp.U6.first, CompositeOp.U6.second) == (SX, SX)
        assert (CompositeOp.U7.first, CompositeOp.U7.second) == (ISY, SX)


class TestApplyComposite:
    def test_u0_fixes_reference_state_exactly(self):
        s = ghz_state(GhzLabel.PSI0)
        assert np.allclose(apply_composite(s, CompositeOp.U0, 0, 1).amps, s.amps)

    def test_u2_gives_sign_flipped_psi2(self):
        out = apply_composite(ghz_state(GhzLabel.PSI0), CompositeOp.U2, 0, 1)
        assert np.allclose(out.amps, -ghz_state(GhzLabel.PSI2).amps)
        assert equal_up_to_global_phase(out, ghz_state(GhzLabel.PSI2))

    def test_u5_gives_psi5(self):
        out = apply_composite(ghz_state(GhzLabel.PSI0), CompositeOp.U5, 0, 1)
        assert equal_up_to_global_phase(out, ghz_state(GhzLabel.PSI5))

    def test_rejects_same_particle(self):
        with pytest.raises(ValueError):
            apply_composite(ghz_state(GhzLabel.PSI0), CompositeOp.U1, 1, 1)


class TestTransformChart:
    def test_matches_reference_chart(self):
        for p in GhzLabel:
            for q in GhzLabel:
                k = CompositeOp(REFERENCE_CHART[p][q])
                assert transform_label(p, k) == q
                assert invert_transform(p, q) == k

    def test_examples(self):
        assert transform_label(GhzLabel.PSI0, CompositeOp.U2) == GhzLabel.PSI2
        assert transform_label(GhzLabel.PSI0, CompositeOp.U0) == GhzLabel.PSI0
        assert transform_label(GhzLabel.PSI6, CompositeOp.U3) == GhzLabel.PSI5

    def test_diagonal_is_identity_op(self):
        for p in GhzLabel:
            assert invert_transform(p, p) == CompositeOp.U0

    def test_rows_and_columns_are_permutations(self):
        for p in GhzLabel:
            assert {transform_label(p, k) for k in CompositeOp} == set(GhzLabel)
        for k in CompositeOp:
            assert {transform_label(p, k) for p in GhzLabel} == set(GhzLabel)

    def test_inverse_roundtrip(self):
        for p in GhzLabel:
            for k in CompositeOp:
                assert invert_transform(p, transform_label(p, k)) == k

    def test_phases_are_signs(self):
        phases = transform_phases()
        assert len(phases) == 64
        assert set(phases.values()) <= {1.0, -1.0}

    def test_hand_derived_phases(self):
        # worked by hand from the operator matrices
        phase = transform_phases()
        assert phase["psi0", "U0"] == 1.0
        assert phase["psi0", "U2"] == -1.0
        assert phase["psi0", "U5"] == 1.0
        assert phase["psi3", "U0"] == -1.0
        assert phase["psi3", "U7"] == 1.0

    def test_group_property_exhaustive(self):
        # label-level composition extracted by brute force at one base
        # point, then verified over all 512 (p, k, l) combinations
        base = GhzLabel.PSI0
        compose = {
            (k, l): invert_transform(base, transform_label(transform_label(base, k), l))
            for k in CompositeOp for l in CompositeOp
        }
        for p in GhzLabel:
            for k in CompositeOp:
                mid = transform_label(p, k)
                for l in CompositeOp:
                    assert transform_label(mid, l) == transform_label(p, compose[(k, l)])


class TestClassify:
    def test_direct_hit(self):
        amps = np.zeros(8, complex)
        amps[0b110] = INV
        amps[0b001] = -INV
        label, phase = classify_ghz(StateVector(amps))
        assert label == GhzLabel.PSI7 and phase == pytest.approx(1.0)

    def test_negated_state(self):
        s = StateVector(-ghz_state(GhzLabel.PSI2).amps)
        label, phase = classify_ghz(s)
        assert label == GhzLabel.PSI2 and phase == pytest.approx(-1.0)

    def test_non_ghz_state(self):
        amps = np.zeros(8, complex)
        amps[0b000] = INV
        amps[0b110] = INV
        assert classify_ghz(StateVector(amps)) is None

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            classify_ghz(StateVector([1, 0]))

    @given(st.sampled_from(list(GhzLabel)), st.floats(0, 6.28))
    @settings(max_examples=30, deadline=None)
    def test_unit_phase(self, label, theta):
        s = StateVector(np.exp(1j * theta) * ghz_state(label).amps)
        got, phase = classify_ghz(s)
        assert got == label
        assert abs(abs(phase) - 1.0) < 1e-9


def test_verify_transform_table_report():
    report = verify_transform_table()
    assert report["mismatches"] == 0
    assert len(report["entries"]) == 64
    assert all(e["expected"] == e["got"] for e in report["entries"])
    assert all(e["phase"] in (1.0, -1.0) for e in report["entries"])


def test_closure_under_all_ops():
    for p in GhzLabel:
        for k in CompositeOp:
            out = apply_composite(ghz_state(p), k, 0, 1)
            assert classify_ghz(out) is not None
