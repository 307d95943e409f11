"""Few-qubit registers: one state vector plus a map from roles to qubits.

A register holds one GHZ triple (roles 0, 1, 2 for the first, second and
third particle), one GHZ sample, or one decoy. Whatever an attack leaves
behind, a fake or an ancilla, is appended to the register it hits, so a
role may point past the original qubits. Two registers are tensored only
where the protocol joins them: Bob's swap merges the two triples of a group.

Every operation but merge acts on a block of registers at once. The
registers of one block share one layout (the same qubit count and the same
role map), as the registers of one sequence do, because every step treats
them alike. Their states are stacked as the rows of one array, one qcore
row kernel runs over all of them, and the rows are written back to the
registers, or dropped where nothing reads the collapse again.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import qcore
from .qcore import MeasBasis, StateVector


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


def _stack(regs: Sequence[Register]) -> np.ndarray:
    return np.concatenate([reg.state.amps for reg in regs]).reshape(len(regs), -1)


def _store(regs: Sequence[Register], amps: np.ndarray) -> None:
    for reg, state in zip(regs, qcore.rows_as_states(amps)):
        reg.state = state


def append_ancilla(regs: Sequence[Register], states: np.ndarray,
                   coupling: tuple[int, np.ndarray] | None = None) -> int:
    """Tensor a fresh one-qubit state onto every register: states[i] onto
    regs[i], or one state (2,) onto all. With coupling = (role, matrix), the
    two-qubit unitary then acts on the particle at role and the new qubit.
    Returns the new qubit's index."""
    qubit = regs[0].state.num_qubits
    amps = qcore.tensor_rows(_stack(regs), states)
    if coupling is not None:
        role, matrix = coupling
        amps = qcore.apply_unitary_rows(amps, matrix, (regs[0].at[role], qubit))
    _store(regs, amps)
    return qubit


def apply_op(regs: Sequence[Register], ops: Sequence[tuple[int, np.ndarray]]) -> None:
    """Apply single-qubit unitaries in order: each (role, matrices) puts
    matrices[i] on the particle at role of regs[i], or one 2x2 matrix on
    that particle of every register."""
    at = regs[0].at
    amps = _stack(regs)
    for role, matrices in ops:
        amps = qcore.apply_unitary_rows(amps, matrices, (at[role],))
    _store(regs, amps)


def measure_particles(basis: MeasBasis, regs: Sequence[Register],
                      rounds: Sequence[Sequence[int]], draws: Sequence[np.ndarray],
                      keep: bool = False) -> list[np.ndarray]:
    """Projective measurements of the roles of each round in turn, each
    round on the state the one before collapsed, regs[i] drawing with
    draws[k][i] in round k.

    Returns each round's outcome indices in basis order
    (qcore.basis_labels). With keep, the registers hold their collapsed
    states afterwards; without, they are left as they were, for a
    measurement nothing reads again.
    """
    at = regs[0].at
    amps = _stack(regs)
    outs = []
    for k, (roles, r) in enumerate(zip(rounds, draws)):
        j, amps = qcore.measure_rows(amps, basis, [at[x] for x in roles], r,
                                     collapse=keep or k + 1 < len(rounds))
        outs.append(j)
    if keep:
        _store(regs, amps)
    return outs


def measure_in_bases(bases: Sequence[MeasBasis], which: np.ndarray,
                     regs: Sequence[Register], rounds: Sequence[Sequence[int]],
                     draws: Sequence[np.ndarray], keep: bool = False) -> list[np.ndarray]:
    """measure_particles with a basis per register: regs[i] is measured in
    bases[which[i]]."""
    outs = [np.empty(len(regs), dtype=np.intp) for _ in rounds]
    for b, basis in enumerate(bases):
        sel = np.flatnonzero(which == b)
        if sel.size:
            got = measure_particles(basis, [regs[i] for i in sel.tolist()], rounds,
                                    [r[sel] for r in draws], keep)
            for out, j in zip(outs, got):
                out[sel] = j
    return outs
