"""A dense one-state engine, the reference that qcore's row kernels and the
batched session are held to.

A state is a plain complex amplitude vector over n qubits, qubit 0 the most
significant. Each function gathers the qubits it acts on by transposing the
(2,) * n tensor and calls no qcore function: what it reads from the package
is data, the basis vectors of qcore.basis_outcomes and qcore.ZERO_TOL. So a
defect in qcore's gather plans, projections, remainders or sampling shows
as a difference between the two engines.
"""

import math
from functools import lru_cache

import numpy as np

from bqsdc.qcore import ZERO_TOL, basis_outcomes


def _grouped(amps, qubits):
    """amps as a (2**k, rest) matrix with the qubits in front, in order, and
    the axis order that undoes it (_ungrouped)."""
    n = amps.size.bit_length() - 1
    perm = list(qubits) + [i for i in range(n) if i not in qubits]
    return amps.reshape((2,) * len(perm)).transpose(perm).reshape(1 << len(qubits), -1), perm


def _ungrouped(mat, perm):
    return mat.reshape((2,) * len(perm)).transpose(np.argsort(perm)).reshape(-1)


@lru_cache(maxsize=None)
def _basis(basis):
    """(labels, the basis vectors conjugated as the rows of one matrix)."""
    labels, vecs = zip(*basis_outcomes(basis))
    return labels, np.array(vecs).conj()


def apply_unitary(amps, matrix, qubits):
    """The state after a k-qubit unitary on the given qubits."""
    mat, perm = _grouped(amps, qubits)
    return _ungrouped(np.asarray(matrix) @ mat, perm)


def branches(amps, basis, qubits):
    """Every (label, probability, collapsed amplitudes) of one measurement,
    one projection per outcome, each in its own loop pass; the collapsed
    amplitudes are None at or below ZERO_TOL."""
    mat, perm = _grouped(amps, qubits)
    rows = []
    for label, vec in basis_outcomes(basis):
        proj = vec.conj() @ mat
        prob = float(np.vdot(proj, proj).real)
        post = (_ungrouped(np.outer(vec, proj / np.sqrt(prob)), perm)
                if prob > ZERO_TOL else None)
        rows.append((label, prob, post))
    return rows


def measure(amps, basis, qubits, r):
    """(label, collapsed amplitudes) of one measurement with the uniform
    draw r in [0, 1): the first outcome above ZERO_TOL whose running total
    of probabilities exceeds r, or, where rounding left the total at or
    below r, the last outcome above ZERO_TOL."""
    labels, conj = _basis(basis)
    mat, perm = _grouped(amps, qubits)
    projs = conj @ mat
    probs = (projs.real ** 2 + projs.imag ** 2).sum(axis=1).tolist()
    total = 0.0
    for j, prob in enumerate(probs):
        total += prob
        if prob > ZERO_TOL:
            taken = j
            if r < total:
                break
    post = np.outer(conj[taken].conj(), projs[taken] / math.sqrt(probs[taken]))
    return labels[taken], _ungrouped(post, perm)


def joint(amps, basis, groups):
    """The joint distribution of measuring each group in turn, each on the
    state the group before collapsed, following every outcome above
    ZERO_TOL; keys in lexicographic basis order, weights multiplied left to
    right."""
    paths = {(): (1.0, amps)}
    for qs in groups:
        paths = {outs + (label,): (p * q, post)
                 for outs, (p, state) in paths.items()
                 for label, q, post in branches(state, basis, qs)
                 if q > ZERO_TOL}
    return {outs: p for outs, (p, _) in paths.items()}
