"""Assertion helpers shared by the test modules."""

from contextlib import contextmanager

import numpy as np
import pytest

from bqsdc import protocol
from bqsdc.qcore import ATOL, StateVector

# The session block that the block-edge tests run at: their sizes sit on
# both sides of its edges, as they would of the production block's.
TEST_BLOCK = 16


@contextmanager
def session_block(size: int = TEST_BLOCK):
    """Inside the with statement, sessions draw, check, swap and write size
    units at a time (protocol._BLOCK is size). A context manager, not a
    fixture, so that a Hypothesis test enters it per example."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "_BLOCK", size)
        yield


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
