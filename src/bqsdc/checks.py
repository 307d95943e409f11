"""Eavesdropping checks, shared by the session machine and the attack
harness: the two check bases, the four single-particle decoy states, as
rows and as states, the correlation-consistency predicate for GHZ samples,
and the one table per check of which outcomes are errors.

An outcome is an error exactly when it has zero Born probability under the
pristine sample state (zero meaning at or below qcore.ZERO_TOL); any outcome
a clean channel could produce is accepted. The rule is applied here only:
sample_errors() and DECOY_ERRORS hold it for every outcome of every check,
indexed by outcome index in basis order (qcore.basis_labels), and the
session and the harness read them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable

import numpy as np

from . import qcore
from .codebook import ghz_rows
from .labels import GhzLabel
from .qcore import MeasBasis, StateVector, basis_labels

# The bases of every check and of Eve's measurement; basis index w is entry w.
CHECK_BASES = (MeasBasis.Z, MeasBasis.X)


@dataclass(frozen=True)
class DecoyState:
    """One of the four single-particle decoy preparations."""

    token: str          # "0", "1", "+", "-"
    basis: MeasBasis    # preparation (and verification) basis
    expected: Hashable  # outcome a clean channel must reproduce


DECOY_STATES: dict[str, DecoyState] = {
    "0": DecoyState("0", MeasBasis.Z, 0),
    "1": DecoyState("1", MeasBasis.Z, 1),
    "+": DecoyState("+", MeasBasis.X, "+"),
    "-": DecoyState("-", MeasBasis.X, "-"),
}

DECOY_TOKENS = tuple(DECOY_STATES)

# Decoy k = DECOY_TOKENS.index(token), read-only: DECOY_BASIS[k] the index in
# CHECK_BASES of the basis it is checked in, DECOY_ERRORS[k, j] whether
# outcome j of that basis is an error, every outcome but the decoy's own.
DECOY_BASIS = np.array([CHECK_BASES.index(prep.basis) for prep in DECOY_STATES.values()])
DECOY_ERRORS = np.array([[out != prep.expected for out in basis_labels(prep.basis)]
                         for prep in DECOY_STATES.values()])
DECOY_BASIS.setflags(write=False)
DECOY_ERRORS.setflags(write=False)


@lru_cache(maxsize=None)
def decoy_rows() -> np.ndarray:
    """The four decoy states, in DECOY_TOKENS order, as the read-only rows
    of one array: each the basis vector of its expected outcome."""
    rows = np.stack([dict(qcore.basis_outcomes(prep.basis))[prep.expected]
                     for prep in DECOY_STATES.values()])
    qcore._check_rows(rows)
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def decoy_state(token: str) -> StateVector:
    """Single-qubit state for a decoy token, its decoy_rows row (shared, immutable)."""
    if token not in DECOY_STATES:
        raise ValueError(f"unknown decoy token {token!r}")
    return StateVector(decoy_rows()[DECOY_TOKENS.index(token)])


@lru_cache(maxsize=None)
def consistent_ghz_outcomes(label: GhzLabel, basis: MeasBasis) -> frozenset[tuple]:
    """Support of the per-particle (first, second, third) outcome triple when
    all three particles of a pristine GHZ sample are measured in one basis."""
    if basis not in CHECK_BASES:
        raise ValueError("sample check uses the Z or X basis")
    joint = qcore.joint_distribution(ghz_rows()[label], basis, [(0,), (1,), (2,)])
    return frozenset(joint)


def ghz_sample_ok(label: GhzLabel, basis: MeasBasis, outcome: tuple) -> bool:
    """Consistency predicate for one GHZ-sample check round."""
    return outcome in consistent_ghz_outcomes(label, basis)


@lru_cache(maxsize=None)
def sample_errors() -> np.ndarray:
    """errors[label, w, 4a + 2b + c], read-only: whether the outcome indices
    a, b, c of the first, second and third particle fail the check of a GHZ
    sample in state label measured in CHECK_BASES[w], every outcome outside
    consistent_ghz_outcomes."""
    errors = np.array([[[outs not in consistent_ghz_outcomes(label, basis)
                         for outs in itertools.product(basis_labels(basis), repeat=3)]
                        for basis in CHECK_BASES] for label in GhzLabel])
    errors.setflags(write=False)
    return errors
