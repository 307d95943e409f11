"""Batched operations on blocks of few-qubit registers. A register holds one
GHZ triple, one GHZ sample or one decoy, and a block holds the registers of
one sequence as the rows of one (rows, 2**n) amplitude array, because every
step treats them alike. A register's roles are its qubits: the first,
second and third particle of a triple are qubits 0, 1 and 2, and a decoy is
qubit 0. Whatever an attack leaves behind, the genuine particle Eve keeps
or her ancilla, is appended after them. Every operation runs one qcore row
kernel over a block and returns the new array; a measurement of several
rounds, such as the GHZ-sample check's three single-particle measurements,
is one kernel pass. Bob's swap alone joins two blocks (merge), and only the
rows of the pairs of states it has not met before.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import qcore


def merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows a[i] (x) b[i], a's qubits first.

    Each joined row is built as a checked state (qcore.tensor) from views
    of the rows (qcore.rows_as_states, which leaves a and b read-only),
    because the traced benchmark reads the widest state from the checked
    constructions; one tensor_rows would do once it reads widths elsewhere.
    The per-row cost is paid once per distinct pair of states a session
    reaches, a few hundred at most, not once per group (protocol.SwapTable).
    """
    return np.stack([qcore.tensor(x, y).amps
                     for x, y in zip(qcore.rows_as_states(a), qcore.rows_as_states(b))])


def append_ancilla(amps: np.ndarray, states: np.ndarray,
                   coupling: tuple[int, np.ndarray] | None = None) -> np.ndarray:
    """Tensor a fresh one-qubit state onto every register, as its last
    qubit: states[i] onto row i, or one state (2,) onto all. With coupling
    = (qubit, matrix), the two-qubit unitary then acts on that qubit and the
    new one."""
    out = qcore.tensor_rows(amps, states)
    if coupling is not None:
        qubit, matrix = coupling
        out = qcore.apply_unitary_rows(out, matrix, (qubit, amps.shape[1].bit_length() - 1))
    return out


def apply_op(amps: np.ndarray, ops: Sequence[tuple[int, np.ndarray]]) -> np.ndarray:
    """Apply single-qubit unitaries in order: each (qubit, matrices) puts
    matrices[i] on that qubit of row i, or one 2x2 matrix on that qubit of
    every row."""
    for qubit, matrices in ops:
        amps = qcore.apply_unitary_rows(amps, matrices, (qubit,))
    return amps


def measure_particles(*args, **kwargs):
    """qcore.measure_rows, looked up on qcore at every call, so that a
    kernel patched there sees every block measurement too."""
    return qcore.measure_rows(*args, **kwargs)
