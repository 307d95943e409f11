"""Discrete algebra of the protocol: GHZ and Bell state constructors, the
eight composite encoding operations, the three-bit message code, and the
GHZ transformation chart.

The transformation chart is never hand-typed. It is derived once from the
state-vector engine (apply the composite operation, classify the result up
to global phase) and can be re-derived on demand by
:func:`verify_transform_table`.
"""

from __future__ import annotations

from enum import IntEnum
from functools import lru_cache

import numpy as np

from . import qcore
from .labels import GhzLabel, ghz_amplitudes
from .qcore import ISY, SX, SZ, I, SingleQubitOp, StateVector

MessageTriple = tuple[int, int, int]


class CompositeOp(IntEnum):
    """Composite two-particle encoding operation, index 0 to 7.

    The operation is a tensor product of one single-particle operation on
    the first encoded particle and one on the second; its index in binary
    is the three-bit message it carries.
    """

    U0 = 0
    U1 = 1
    U2 = 2
    U3 = 3
    U4 = 4
    U5 = 5
    U6 = 6
    U7 = 7

    @property
    def first(self) -> SingleQubitOp:
        return _OP_FACTORS[self][0]

    @property
    def second(self) -> SingleQubitOp:
        return _OP_FACTORS[self][1]

    @property
    def bits(self) -> MessageTriple:
        k = int(self)
        return ((k >> 2) & 1, (k >> 1) & 1, k & 1)

    @property
    def token(self) -> str:
        return f"U{int(self)}"


_OP_FACTORS = {
    CompositeOp.U0: (SZ, SZ),
    CompositeOp.U1: (I, SZ),
    CompositeOp.U2: (ISY, SZ),
    CompositeOp.U3: (SX, SZ),
    CompositeOp.U4: (I, SX),
    CompositeOp.U5: (SZ, SX),
    CompositeOp.U6: (SX, SX),
    CompositeOp.U7: (ISY, SX),
}


@lru_cache(maxsize=None)
def ghz_state(label: GhzLabel) -> StateVector:
    """The three-qubit GHZ basis state for a label, exact amplitudes
    (shared: the result is immutable)."""
    return StateVector(ghz_amplitudes(label))


@lru_cache(maxsize=None)
def ghz_rows() -> np.ndarray:
    """The eight GHZ states as the read-only rows of one array, row k the
    amplitudes of ghz_state(GhzLabel(k))."""
    rows = np.stack([ghz_state(label).amps for label in GhzLabel])
    rows.setflags(write=False)
    return rows


def message_to_op(bits: MessageTriple) -> CompositeOp:
    """Three message bits (b2, b1, b0) to the composite operation."""
    b2, b1, b0 = bits
    if any(b not in (0, 1) for b in (b2, b1, b0)):
        raise ValueError(f"message bits must be 0/1, got {bits!r}")
    return CompositeOp((b2 << 2) | (b1 << 1) | b0)


def apply_composite(s: StateVector, op: CompositeOp, q1: int, q2: int) -> StateVector:
    """Apply the first factor at qubit q1 and the second at qubit q2."""
    if q1 == q2:
        raise ValueError("composite operation needs two distinct particles")
    return qcore.apply_single(qcore.apply_single(s, op.first, q1), op.second, q2)


def classify_ghz(s: StateVector):
    """Identify a 3-qubit state as a GHZ basis state up to global phase.

    Returns (label, phase) with s equal to phase times the basis state, or
    None when the state is not in the GHZ basis. The phase has unit modulus.
    """
    if s.num_qubits != 3:
        raise ValueError("classify_ghz expects a 3-qubit state")
    for label in GhzLabel:
        ov = complex(np.vdot(ghz_amplitudes(label), s.amps))
        if abs(ov) > 1.0 - qcore.ATOL:
            return label, ov / abs(ov)
    return None


def _derive_transform(initial: GhzLabel, op: CompositeOp) -> tuple[GhzLabel, float]:
    """State-vector oracle: result label and real phase of op acting on the
    first and second particles of a GHZ state."""
    result = apply_composite(ghz_state(initial), op, 0, 1)
    hit = classify_ghz(result)
    if hit is None:
        raise AssertionError(
            f"codebook closure violated: {op.token} on {initial.token} left the GHZ basis")
    label, phase = hit
    if abs(phase.imag) > qcore.ATOL:
        raise AssertionError(f"unexpected complex phase {phase} for {initial.token}, {op.token}")
    return label, float(np.sign(phase.real))


@lru_cache(maxsize=None)
def _transform_data() -> dict[tuple[GhzLabel, CompositeOp], GhzLabel]:
    return {(p, k): _derive_transform(p, k)[0] for p in GhzLabel for k in CompositeOp}


def transform_label(initial: GhzLabel, op: CompositeOp) -> GhzLabel:
    """Label of the GHZ state produced by the composite operation."""
    return _transform_data()[(initial, op)]


@lru_cache(maxsize=None)
def _inverse_data() -> dict[tuple[GhzLabel, GhzLabel], CompositeOp]:
    inv = {}
    for (p, k), q in _transform_data().items():
        if (p, q) in inv:
            raise AssertionError("transform rows are not permutations")
        inv[(p, q)] = k
    return inv


def invert_transform(initial: GhzLabel, result: GhzLabel) -> CompositeOp:
    """The unique operation carrying one GHZ label to another."""
    return _inverse_data()[(initial, result)]


def verify_transform_table() -> dict:
    """Re-derive every (initial, op) entry from the state vectors and check
    it against the cached chart. Returns a JSON-ready report."""
    entries = []
    mismatches = 0
    for p in GhzLabel:
        for k in CompositeOp:
            got, phase = _derive_transform(p, k)
            expected = transform_label(p, k)
            ok = got == expected and phase in (1.0, -1.0)
            mismatches += not ok
            entries.append({
                "initial": p.token,
                "op": k.token,
                "expected": expected.token,
                "got": got.token,
                "phase": phase,
            })
    return {"entries": entries, "mismatches": mismatches}
