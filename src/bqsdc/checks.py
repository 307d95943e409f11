"""Eavesdropping-check primitives shared by the session machine and the
attack harness: the four single-particle decoy states, as rows and as
states, and the correlation-consistency predicate for GHZ samples.

An outcome is an error exactly when it has zero Born probability under the
pristine sample state (zero meaning below qcore.ZERO_TOL); any outcome a
clean channel could produce is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable

import numpy as np

from . import qcore
from .codebook import ghz_rows
from .labels import GhzLabel
from .qcore import MeasBasis, StateVector


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
    if basis not in (MeasBasis.Z, MeasBasis.X):
        raise ValueError("sample check uses the Z or X basis")
    joint = qcore.joint_distribution(ghz_rows()[label], basis, [(0,), (1,), (2,)])
    return frozenset(joint)


def ghz_sample_ok(label: GhzLabel, basis: MeasBasis, outcome: tuple) -> bool:
    """Consistency predicate for one GHZ-sample check round."""
    return outcome in consistent_ghz_outcomes(label, basis)
