"""Assertion helpers shared by the test modules."""

import numpy as np

from bqsdc.qcore import ATOL, StateVector


def equal_up_to_global_phase(a: StateVector, b: StateVector, tol: float = ATOL) -> bool:
    """True iff a = c * b for some unit-modulus scalar c, within tol."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("qubit count mismatch")
    ov = np.vdot(b.amps, a.amps)
    c = ov / abs(ov) if abs(ov) > 0 else 1.0
    return float(np.linalg.norm(a.amps - c * b.amps)) <= tol


def amplitude(s: StateVector, bits: str) -> complex:
    """The amplitude of s at the basis state written as a bitstring, qubit 0
    leftmost."""
    if len(bits) != s.num_qubits:
        raise ValueError("bitstring length mismatch")
    return complex(s.amps[int(bits, 2)])
