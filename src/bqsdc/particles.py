"""Few-qubit registers: one state vector plus a map from roles to qubits.

A register holds one GHZ triple (roles 0, 1, 2 for the first, second and
third particle), one GHZ sample, or one decoy. Whatever an attack leaves
behind, a fake or an ancilla, is appended to the register it hits, so a
role may point past the original qubits. Two registers are tensored only
where the protocol joins them: Bob's swap merges the two triples of a group.
"""

from __future__ import annotations

from typing import Sequence

from . import qcore
from .qcore import MeasBasis, Rng, SingleQubitOp, StateVector


class Register:
    __slots__ = ("state", "at")

    def __init__(self, state: StateVector):
        self.state = state
        self.at = list(range(state.num_qubits))


def merge(a: Register, b: Register) -> Register:
    """A new register with a's qubits first, then b's; b's roles follow a's."""
    reg = Register(qcore.tensor(a.state, b.state))
    offset = a.state.num_qubits
    reg.at = a.at + [q + offset for q in b.at]
    return reg


def append_ancilla(reg: Register, state: StateVector) -> int:
    """Tensor a fresh one-qubit state onto reg; returns its qubit index."""
    qubit = reg.state.num_qubits
    reg.state = qcore.tensor(reg.state, state)
    return qubit


def apply_op(reg: Register, role: int, op: SingleQubitOp) -> None:
    reg.state = qcore.apply_single(reg.state, op, reg.at[role])


def measure_particles(basis: MeasBasis, reg: Register, roles: Sequence[int], rng: Rng):
    """Projective measurement of the given roles; reg collapses in place.

    Returns the outcome label.
    """
    outcome, reg.state = qcore.measure(reg.state, basis, [reg.at[r] for r in roles], rng)
    return outcome
