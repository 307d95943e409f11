"""Blocks of few-qubit registers. A register holds one GHZ triple (roles 0,
1, 2 for the first, second and third particle), one GHZ sample, or one
decoy. The registers of one sequence share one layout (the same qubit
count and role map), because every step treats them alike, so a block
holds them as the rows of one (rows, 2**n) amplitude array with one map
from roles to qubits. Whatever an attack leaves behind, a fake or an
ancilla, is appended to every row, so a role may point past the original
qubits. Every operation runs one qcore row kernel over a block and
replaces its array; a measurement of several rounds, such as the
GHZ-sample check's three single-particle measurements, is one kernel pass.
Bob's swap alone joins two blocks (merge), and only the rows of the pairs
of states it has not met before.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import qcore
from .qcore import MeasBasis


class Block:
    __slots__ = ("amps", "at")

    def __init__(self, amps: np.ndarray, at: list[int] | None = None):
        self.amps = amps
        self.at = list(range(self.num_qubits)) if at is None else at

    @property
    def num_qubits(self) -> int:
        return self.amps.shape[1].bit_length() - 1


def merge(a: Block, b: Block) -> Block:
    """A new block whose row i is row i of a tensored with row i of b, a's
    qubits first; b's roles follow a's.

    Each joined row is built as a checked state (qcore.tensor) from views
    of the rows (qcore.rows_as_states, which leaves a's and b's arrays
    read-only), because the traced benchmark reads the widest state from
    the checked constructions; one tensor_rows would do once it reads
    widths elsewhere. The per-row cost is paid once per distinct pair of
    states a session reaches, a few hundred at most, not once per group
    (protocol.SwapTable).
    """
    joined = [qcore.tensor(x, y).amps
              for x, y in zip(qcore.rows_as_states(a.amps), qcore.rows_as_states(b.amps))]
    offset = a.num_qubits
    return Block(np.stack(joined), a.at + [q + offset for q in b.at])


def append_ancilla(block: Block, states: np.ndarray,
                   coupling: tuple[int, np.ndarray] | None = None) -> int:
    """Tensor a fresh one-qubit state onto every register: states[i] onto
    row i, or one state (2,) onto all. With coupling = (role, matrix), the
    two-qubit unitary then acts on the particle at role and the new qubit.
    Returns the new qubit's index."""
    qubit = block.num_qubits
    amps = qcore.tensor_rows(block.amps, states)
    if coupling is not None:
        role, matrix = coupling
        amps = qcore.apply_unitary_rows(amps, matrix, (block.at[role], qubit))
    block.amps = amps
    return qubit


def apply_op(block: Block, ops: Sequence[tuple[int, np.ndarray]]) -> None:
    """Apply single-qubit unitaries in order: each (role, matrices) puts
    matrices[i] on the particle at role of row i, or one 2x2 matrix on
    that particle of every row."""
    amps = block.amps
    for role, matrices in ops:
        amps = qcore.apply_unitary_rows(amps, matrices, (block.at[role],))
    block.amps = amps


def measure_particles(basis: MeasBasis | Sequence[MeasBasis], block: Block,
                      rounds: Sequence[Sequence[int]], draws: Sequence[np.ndarray],
                      keep: bool = False, which: np.ndarray | None = None) -> list[np.ndarray]:
    """Projective measurements of the roles of each round in turn, all in
    one qcore.measure_rows pass: each round measures what the rounds before
    it left, row i drawing with draws[k][i] in round k. basis is one
    MeasBasis or, with which, a sequence of bases of one arity: row i is
    measured in basis[which[i]].

    Returns each round's outcome indices in basis order
    (qcore.basis_labels). With keep, the block holds the collapsed states
    afterwards; without, it is left as it was, for a measurement nothing
    reads again.
    """
    js, post = qcore.measure_rows(block.amps, basis,
                                  [[block.at[x] for x in roles] for roles in rounds],
                                  draws, collapse=keep, which=which)
    if keep:
        block.amps = post
    return js


def measure_in_bases(bases: Sequence[MeasBasis], which: np.ndarray, block: Block,
                     rounds: Sequence[Sequence[int]], draws: Sequence[np.ndarray],
                     keep: bool = False) -> list[np.ndarray]:
    """measure_particles with a basis per row: row i is measured in
    bases[which[i]]."""
    return measure_particles(bases, block, rounds, draws, keep, which)
