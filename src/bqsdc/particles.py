"""Row operations on few-qubit registers: the kernels a session's
transitions run on the states it has not met before (protocol.StateTable).
The registers of one layout are the rows of one (rows, 2**n) amplitude
array, a register's roles are its qubits (see protocol), and every
operation runs qcore row kernels and returns a new array.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import qcore


def merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows a[i] (x) b[i], a's qubits first, each checked by
    qcore.tensor_rows. The first is also built as a qcore.StateVector, the
    construction where the traced benchmark reads the widest state. A
    session joins each distinct pair of an odd triple's id and an even
    triple's GHZ label once (Branches.swapping), but for the pairs of two
    GHZ states, whose tables it starts with (swap.ghz_swap_tables)."""
    joint = qcore.tensor_rows(a, b)
    qcore.StateVector(joint[0])
    return joint


def append_ancilla(amps: np.ndarray, states: np.ndarray,
                   coupling: tuple[int, np.ndarray] | None = None) -> np.ndarray:
    """Tensor a fresh one-qubit state onto every register as its last
    qubit, states[i] onto row i or one state (2,) onto all; with coupling =
    (qubit, matrix), the unitary then acts on that qubit and the new one."""
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
