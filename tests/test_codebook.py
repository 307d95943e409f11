import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import amplitude, equal_up_to_global_phase

from bqsdc import cli, codebook
from bqsdc.codebook import (REFERENCE_CHART, CompositeOp, ghz_rows, invert_transform,
                            message_to_op, transform_label, verify_transform_table)
from bqsdc.labels import BellLabel, GhzLabel, bell_amplitudes
from bqsdc.protocol import _encode
from bqsdc.qcore import ISY, SX, SZ, I


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


class TestGhzStates:
    @pytest.mark.parametrize("label,expect", GHZ_KETS.items())
    def test_amplitudes(self, label, expect):
        hi, lo, sign = expect
        s = ghz_rows()[label]
        assert amplitude(s, hi) == pytest.approx(INV)
        assert amplitude(s, lo) == pytest.approx(sign * INV)
        assert np.count_nonzero(s) == 2

    def test_tokens(self):
        # psi0 to psi7 exactly, in any case, surrounding spaces ignored
        for label in GhzLabel:
            assert GhzLabel.from_token(f" {label.token.upper()}\t") is label
        for text in ("psi8", "psi07", "psi\u0663", "psi\u00b3", "psi", "phi0", ""):
            with pytest.raises(ValueError, match="not a GHZ label"):
                GhzLabel.from_token(text)

    def test_pairwise_orthogonal(self):
        ghz = ghz_rows()
        gram = ghz.conj() @ ghz.T
        for a in GhzLabel:
            for b in GhzLabel:
                assert gram[a, b] == pytest.approx(1.0 if a == b else 0.0)


class TestBellStates:
    def test_phi_plus(self):
        s = bell_amplitudes(BellLabel.PHI_PLUS)
        assert amplitude(s, "00") == pytest.approx(INV)
        assert amplitude(s, "11") == pytest.approx(INV)

    def test_psi_minus(self):
        s = bell_amplitudes(BellLabel.PSI_MINUS)
        assert amplitude(s, "01") == pytest.approx(INV)
        assert amplitude(s, "10") == pytest.approx(-INV)

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
        factors = [(SZ, SZ), (I, SZ), (ISY, SZ), (SX, SZ), (I, SX), (SZ, SX), (SX, SX), (ISY, SX)]
        for op, (first, second) in zip(CompositeOp, factors):
            assert op.first is first and op.second is second, op.token
        for stack, factor in ((codebook.FIRST_FACTORS, 0), (codebook.SECOND_FACTORS, 1)):
            assert np.array_equal(stack, [pair[factor] for pair in factors])


def apply_composite(label: GhzLabel, op: CompositeOp) -> np.ndarray:
    """Op on the first and second particles of the GHZ state of label,
    through the factor stacks that a session encodes with."""
    return _encode(ghz_rows()[[label]], np.array([op]))[0]


class TestApplyComposite:
    def test_u0_fixes_reference_state_exactly(self):
        s = ghz_rows()[GhzLabel.PSI0]
        assert np.allclose(apply_composite(GhzLabel.PSI0, CompositeOp.U0), s)

    def test_u2_gives_sign_flipped_psi2(self):
        out = apply_composite(GhzLabel.PSI0, CompositeOp.U2)
        assert np.allclose(out, -ghz_rows()[GhzLabel.PSI2])
        assert equal_up_to_global_phase(out, ghz_rows()[GhzLabel.PSI2])

    def test_u5_gives_psi5(self):
        out = apply_composite(GhzLabel.PSI0, CompositeOp.U5)
        assert equal_up_to_global_phase(out, ghz_rows()[GhzLabel.PSI5])


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


class TestDerivationGuards:
    """The chart's derivation raises its own message for each way the factor
    matrices it reads could break the chart."""

    @staticmethod
    def patch(monkeypatch, stack: str, k: int, matrix):
        factors = getattr(codebook, stack).copy()
        factors[k] = matrix
        monkeypatch.setattr(codebook, stack, factors)

    def test_result_outside_the_ghz_basis(self, monkeypatch):
        self.patch(monkeypatch, "FIRST_FACTORS", 3, INV * np.array([[1, 1], [1, -1]]))
        with pytest.raises(AssertionError,
                           match="codebook closure violated: U3 on psi0 left the GHZ basis"):
            verify_transform_table()

    def test_complex_phase(self, monkeypatch):
        self.patch(monkeypatch, "SECOND_FACTORS", 5, 1j * SX)
        with pytest.raises(AssertionError, match=r"unexpected complex phase -?1j for psi0, U5"):
            verify_transform_table()

    def test_repeated_label_in_a_row(self, monkeypatch):
        # U1 = (I, SZ) becomes U0 = (SZ, SZ)
        self.patch(monkeypatch, "FIRST_FACTORS", 1, SZ)
        with pytest.raises(AssertionError, match="transform rows are not permutations"):
            verify_transform_table()


def test_verify_fails_on_a_wrong_chart(monkeypatch, capsys):
    # U1 and U2 trade first factors, so the chart derived in a fresh process
    # is wrong yet agrees with every re-derivation: only the hand-enumerated
    # chart can tell
    swapped = codebook.FIRST_FACTORS[[0, 2, 1, 3, 4, 5, 6, 7]]
    monkeypatch.setattr(codebook, "FIRST_FACTORS", swapped)
    codebook.transform_chart.cache_clear()
    try:
        assert codebook.transform_chart()[0].tolist()[:4] == [0, 2, 1, 3]
        assert verify_transform_table()["mismatches"] > 0
        assert cli.main(["verify"]) == 1
    finally:
        monkeypatch.undo()
        codebook.transform_chart.cache_clear()
    assert "transform chart: 64/64 entries verified" not in capsys.readouterr().out


def test_verify_transform_table_report():
    report = verify_transform_table()
    assert report["mismatches"] == 0
    assert len(report["entries"]) == 64
    assert all(e["expected"] == e["got"] for e in report["entries"])
    assert all(e["phase"] in (1.0, -1.0) for e in report["entries"])


def test_closure_under_all_ops():
    # every op on every GHZ state, encoded in one call, is plus or minus a
    # GHZ state
    p, k = np.divmod(np.arange(64), 8)
    out = _encode(ghz_rows()[p], k)
    for row in out:
        assert min(min(np.abs(row - g).max(), np.abs(row + g).max())
                   for g in ghz_rows()) < 1e-12
