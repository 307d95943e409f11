"""The session one register at a time: the reference that the batched
Session is held to in test_protocol.py.

Every step is a loop over triples, groups, samples or decoys. Each unit
draws from its own scalar Rng(seed, place << 56 | unit), and its state is
a plain amplitude vector that runs on the dense engine of
reference_engine.py: np.kron joins registers, the engine's apply_unitary
applies each op and Eve's coupling, and the engine's measure draws each
outcome, sharing no code with qcore's row kernels or its sampler. Each
side decodes its group by composing the two charts from the prepared or
measured label (alice_decode, bob_decode), where Session reads one table
of operations that never sees a label. Only the loops, the draws, the
blocks, the engine and the decoding path differ from Session, so both must
write the same transcripts, byte for byte, but for a draw that falls
between the two engines' roundings of one running total (about 2**-50 a
draw). Each triple, sample and
decoy is its own Register here, computed for itself, where Session holds
each as the id of its state in a table of the distinct states it has met
and computes each distinct state once. Each group writes its own entries
of the transcript's columns, where Session writes a block's slice. The
samples and decoys are drawn up front, each set as its sequence is sent,
and held until their check, where Session draws, attacks and measures them
a block at a time within the check: equal transcripts show that the order
of those draws does not matter.
"""

import numpy as np
import reference_engine as engine

from bqsdc.adversary import eavesdrop_unitary
from bqsdc.checks import DECOY_STATES, DECOY_TOKENS, decoy_state, ghz_sample_ok
from bqsdc.codebook import (CompositeOp, ghz_state, invert_transform, message_to_op,
                            transform_label)
from bqsdc.labels import BellLabel, GhzLabel
from bqsdc.protocol import (_A_OP, _B_OP, _BELL, _BOB_GHZ, _BY_ALICE, _BY_BOB, _CHECK,
                            _EVE_EXTRAS, _EVE_TRIPLES, _GROUP_LABEL, _P_LABEL, _PREPARED,
                            _ROLES, _SWAP, _UNIT_BITS, _UNITS, Session, _columns)
from bqsdc.qcore import MeasBasis, Rng
from bqsdc.swap import BellTriple, collection_of, collection_table


def alice_decode(prepared, a_op, announcement):
    """Bob's message bits from what Alice knows: the label her operation
    gave the prepared state, the one label of Bob's triple that the swap
    chart pairs with it under the announcement, and the operation that
    carries the prepared state there."""
    own = transform_label(prepared, a_op)
    [other] = [q for q in GhzLabel if collection_table(own, q) == announcement]
    return invert_transform(prepared, other).bits


def bob_decode(measured, b_op, announcement):
    """Alice's message bits from what Bob knows, the measured label in place
    of the prepared one and his triple second in the swap chart."""
    own = transform_label(measured, b_op)
    [other] = [q for q in GhzLabel if collection_table(q, own) == announcement]
    return invert_transform(measured, other).bits


def width(amps):
    return amps.size.bit_length() - 1


class Register:
    """One amplitude vector plus a map from roles to qubits."""

    def __init__(self, amps):
        self.amps = amps
        self.at = list(range(width(amps)))


def merge(a, b):
    """A new register with a's qubits first, then b's; b's roles follow a's,
    offset by a's width, which counts the qubits of a fake or an ancilla
    that are no role's."""
    reg = Register(np.kron(a.amps, b.amps))
    reg.at = a.at + [q + width(a.amps) for q in b.at]
    return reg


def measure_particles(basis, reg, roles, rng):
    """Projective measurement of the given roles; reg collapses in place."""
    outcome, reg.amps = engine.measure(reg.amps, basis, [reg.at[r] for r in roles],
                                       rng.random())
    return outcome


def apply_op(reg, role, op):
    reg.amps = engine.apply_unitary(reg.amps, op.matrix, [reg.at[role]])


def append_ancilla(reg, amps):
    qubit = width(reg.amps)
    reg.amps = np.kron(reg.amps, amps)
    return qubit


def apply_attack(reg, role, cfg, rng):
    """Eve's strategy on the particle at reg's role."""
    if cfg.strategy == "intercept_resend":
        token = cfg.fake_state if cfg.fake_state is not None else DECOY_TOKENS[rng.randrange(4)]
        reg.at[role] = append_ancilla(reg, decoy_state(token).amps)
    elif cfg.strategy == "measure_resend":
        basis = cfg.eve_basis if cfg.eve_basis is not None else ("Z", "X")[rng.randrange(2)]
        measure_particles(MeasBasis(basis), reg, [role], rng)
    elif cfg.strategy == "entangle_measure":
        ancilla = append_ancilla(reg, np.array([1, 0], dtype=np.complex128))
        reg.amps = engine.apply_unitary(reg.amps, eavesdrop_unitary(cfg.beta_squared),
                                        [reg.at[role], ancilla])


class ReferenceSession(Session):
    def __init__(self, cfg, alice_bits, bob_bits):
        super().__init__(cfg, alice_bits, bob_bits)
        self.triples = []  # one Register per triple
        self.samples = []  # (label, register) per GHZ sample
        self.decoys = {}   # sequence name: (token, register) per decoy
        self.announced = []  # the collection of each group's Bell triple

    def _rng(self, place, unit):
        return Rng(self.cfg.seed, stream=place << _UNIT_BITS | unit)

    def prepare(self):
        cfg = self.cfg
        self.transcript.columns = _columns(cfg.n_groups)
        for n in range(cfg.n_groups):
            label = cfg.initial_label if cfg.initial_label is not None \
                else GhzLabel(self._rng(_GROUP_LABEL, n).randrange(8))
            self.transcript.columns[_PREPARED, n] = label
            self.triples.append(Register(ghz_state(label).amps))
            self.triples.append(Register(ghz_state(label).amps))
        for i in range(cfg.resolved_decoys()):
            label = GhzLabel(self._rng(_UNITS["S_C"], i).randrange(8))
            self.samples.append((label, Register(ghz_state(label).amps)))
        self._transmit("S_C")

    def _transmit(self, name):
        attack = self.cfg.attack
        if attack is None or attack.target != name:
            return
        role = _ROLES[name]
        for t, reg in enumerate(self.triples):
            apply_attack(reg, role, attack, self._rng(_EVE_TRIPLES[name], t))
        extras, extra_role = (self.samples, role) if name == "S_C" else (self.decoys[name], 0)
        for i, (_, reg) in enumerate(extras):
            apply_attack(reg, extra_role, attack, self._rng(_EVE_EXTRAS[name], i))

    def check1(self):
        errors = 0
        for i, (label, reg) in enumerate(self.samples):
            rng = self._rng(_CHECK["S_C"], i)
            basis = MeasBasis.Z if rng.randrange(2) == 0 else MeasBasis.X
            c_out = measure_particles(basis, reg, [2], rng)
            a_out = measure_particles(basis, reg, [0], rng)
            b_out = measure_particles(basis, reg, [1], rng)
            errors += not ghz_sample_ok(label, basis, (a_out, b_out, c_out))
        return self._record_check(2, errors)

    def alice_encode(self):
        for n, k in enumerate(self.alice_ops.tolist()):
            op = CompositeOp(k)
            apply_op(self.triples[2 * n], 0, op.first)
            apply_op(self.triples[2 * n], 1, op.second)
            self.transcript.columns[_A_OP, n] = op
        self._draw_decoys("S_B")
        self._transmit("S_B")

    def _draw_decoys(self, name):
        tokens = [DECOY_TOKENS[self._rng(_UNITS[name], i).randrange(4)]
                  for i in range(self.cfg.resolved_decoys())]
        self.decoys[name] = [(token, Register(decoy_state(token).amps)) for token in tokens]

    def check3(self):
        self._draw_decoys("S_A")
        self._transmit("S_A")
        return self._decoy_check(5, "S_A")

    def _decoy_check(self, step, name):
        errors = 0
        for i, (token, reg) in enumerate(self.decoys[name]):
            prep = DECOY_STATES[token]
            out = measure_particles(prep.basis, reg, [0], self._rng(_CHECK[name], i))
            errors += out != prep.expected
        return self._record_check(step, errors)

    def bob_encode(self):
        for n, k in enumerate(self.bob_ops.tolist()):
            op = CompositeOp(k)
            i = 2 * n + 1
            p_label = measure_particles(MeasBasis.GHZ, self.triples[i], [0, 1, 2],
                                        self._rng(_BOB_GHZ, n))
            fresh = Register(ghz_state(p_label).amps)
            apply_op(fresh, 0, op.first)
            apply_op(fresh, 1, op.second)
            self.triples[i] = fresh
            self.transcript.columns[_P_LABEL, n] = p_label
            self.transcript.columns[_B_OP, n] = op

    def swap_and_announce(self):
        bell = list(BellLabel)  # in basis order
        for n in range(self.cfg.n_groups):
            joint = merge(self.triples[2 * n], self.triples[2 * n + 1])
            rng = self._rng(_SWAP, n)
            triple = BellTriple(*(measure_particles(MeasBasis.BELL, joint, [r, r + 3], rng)
                                  for r in range(3)))
            a, b, c = map(bell.index, triple)
            self.transcript.columns[_BELL, n] = 16 * a + 4 * b + c
            self.announced.append(collection_of(triple))

    def decode(self):
        columns = self.transcript.columns
        known = [_PREPARED, _A_OP, _P_LABEL, _B_OP]
        for n, m in enumerate(self.announced):
            prepared, a_op, p_label, b_op = columns[known, n].tolist()
            a_bits = alice_decode(GhzLabel(prepared), CompositeOp(a_op), m)
            b_bits = bob_decode(GhzLabel(p_label), CompositeOp(b_op), m)
            columns[_BY_ALICE, n] = message_to_op(a_bits)
            columns[_BY_BOB, n] = message_to_op(b_bits)
