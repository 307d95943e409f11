"""The swap's join of two registers (swap.bell_tables), a module of its own
because the traced benchmark counts merge here and reads the width of the
state it builds (bench/tracer.py); the row operations a session runs sit
beside their callers (protocol and adversary).
"""

from __future__ import annotations

import numpy as np

from . import qcore


def merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows a[i] (x) b[i], a's qubits first (qcore.tensor_rows, which
    checks each). The first is also built as a qcore.StateVector, the
    construction where the traced benchmark reads the widest state."""
    joint = qcore.tensor_rows(a, b)
    qcore.StateVector(joint[0])
    return joint
