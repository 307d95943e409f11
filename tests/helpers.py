"""Assertion helpers shared by the test modules."""

import json
from contextlib import contextmanager

import numpy as np
import pytest

from bqsdc import protocol
from bqsdc.qcore import ATOL

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


def json_groups(transcript) -> list[dict]:
    """The groups of a transcript as its JSON text writes them, one dict
    per group: its number n and its fields, tokens and 3-bit strings, None
    where the session stopped before the step that sets it."""
    return json.loads(transcript.to_json())["groups"]


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = ATOL) -> bool:
    """True iff the amplitude rows satisfy a = c * b for some unit-modulus
    scalar c, within tol."""
    if a.shape != b.shape:
        raise ValueError("qubit count mismatch")
    ov = np.vdot(b, a)
    c = ov / abs(ov) if abs(ov) > 0 else 1.0
    return float(np.linalg.norm(a - c * b)) <= tol


def amplitude(amps: np.ndarray, bits: str) -> complex:
    """The amplitude of the row amps at the basis state written as a
    bitstring, qubit 0 leftmost."""
    if len(bits) != amps.size.bit_length() - 1:
        raise ValueError("bitstring length mismatch")
    return complex(amps[int(bits, 2)])


def basis_row(bits: str) -> np.ndarray:
    """The amplitude row of the computational basis state |bits>, qubit 0
    leftmost."""
    amps = np.zeros(1 << len(bits), dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return amps
