"""Eavesdropping-check primitives shared by the session machine and the
attack harness: the four single-particle decoy states and the
correlation-consistency predicate for GHZ samples.

An outcome is an error exactly when it has zero Born probability under the
pristine sample state (zero meaning below qcore.ZERO_TOL); any outcome a
clean channel could produce is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable

from . import qcore
from .codebook import ghz_state
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
def decoy_state(token: str) -> StateVector:
    """Single-qubit state for a decoy token, the basis vector of its expected
    outcome (shared: the result is immutable)."""
    prep = DECOY_STATES.get(token)
    if prep is None:
        raise ValueError(f"unknown decoy token {token!r}")
    return StateVector(dict(qcore.basis_outcomes(prep.basis))[prep.expected])


@lru_cache(maxsize=None)
def consistent_ghz_outcomes(label: GhzLabel, basis: MeasBasis) -> frozenset[tuple]:
    """Support of the per-particle (first, second, third) outcome triple when
    all three particles of a pristine GHZ sample are measured in one basis."""
    if basis not in (MeasBasis.Z, MeasBasis.X):
        raise ValueError("sample check uses the Z or X basis")
    joint = qcore.joint_distribution(ghz_state(label), basis, [(0,), (1,), (2,)])
    return frozenset(joint)


def ghz_sample_ok(label: GhzLabel, basis: MeasBasis, outcome: tuple) -> bool:
    """Consistency predicate for one GHZ-sample check round."""
    return outcome in consistent_ghz_outcomes(label, basis)
