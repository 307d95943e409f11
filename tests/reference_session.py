"""The session one register at a time: the reference that the batched
Session is held to in test_protocol.py.

Every step is a loop over triples, groups, samples or decoys. Each unit
draws from its own scalar Rng(seed, place << 56 | unit) and goes through
the one-state qcore functions (measure, apply_single, apply_unitary,
tensor). Each side decodes its group by composing the two charts from
the prepared or measured label (alice_decode, bob_decode), where Session
reads one table of operations that never sees a label. Only the loops,
the draws, the blocks and the decoding path differ from Session, so both
must write the same transcripts, byte for byte. Each triple, sample and
decoy is its own Register here, where Session holds a sequence's units as
the rows of plain amplitude arrays.
"""

from bqsdc import qcore
from bqsdc.adversary import eavesdrop_unitary
from bqsdc.checks import DECOY_STATES, DECOY_TOKENS, decoy_state, ghz_sample_ok
from bqsdc.codebook import ghz_state, invert_transform, transform_label
from bqsdc.labels import GhzLabel
from bqsdc.protocol import (_BOB_GHZ, _CHECK, _DECOY_TOKEN, _EVE_EXTRAS, _EVE_TRIPLES,
                            _GROUP_LABEL, _ROLES, _SAMPLE_LABEL, _SWAP, _UNIT_BITS,
                            GroupRecord, Session)
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


class Register:
    """One state vector plus a map from roles to qubits."""

    def __init__(self, state):
        self.state = state
        self.at = list(range(state.num_qubits))


def merge(a, b):
    """A new register with a's qubits first, then b's; b's roles follow a's."""
    reg = Register(qcore.tensor(a.state, b.state))
    offset = a.state.num_qubits
    reg.at = a.at + [q + offset for q in b.at]
    return reg


def measure_particles(basis, reg, roles, rng):
    """Projective measurement of the given roles; reg collapses in place."""
    outcome, reg.state = qcore.measure(reg.state, basis, [reg.at[r] for r in roles], rng)
    return outcome


def apply_op(reg, role, op):
    reg.state = qcore.apply_single(reg.state, op, reg.at[role])


def append_ancilla(reg, state):
    qubit = reg.state.num_qubits
    reg.state = qcore.tensor(reg.state, state)
    return qubit


def apply_attack(reg, role, cfg, rng):
    """Eve's strategy on the particle at reg's role."""
    if cfg.strategy == "intercept_resend":
        token = cfg.fake_state if cfg.fake_state is not None else DECOY_TOKENS[rng.randrange(4)]
        reg.at[role] = append_ancilla(reg, decoy_state(token))
    elif cfg.strategy == "measure_resend":
        basis = cfg.eve_basis if cfg.eve_basis is not None else ("Z", "X")[rng.randrange(2)]
        measure_particles(MeasBasis(basis), reg, [role], rng)
    elif cfg.strategy == "entangle_measure":
        ancilla = append_ancilla(reg, qcore.make_basis_state("0"))
        reg.state = qcore.apply_unitary(reg.state, eavesdrop_unitary(cfg.beta_squared),
                                        (reg.at[role], ancilla))


class ReferenceSession(Session):
    def _rng(self, place, unit):
        return Rng(self.cfg.seed, stream=place << _UNIT_BITS | unit)

    def prepare(self):
        cfg = self.cfg
        for n in range(cfg.n_groups):
            label = cfg.initial_label if cfg.initial_label is not None \
                else GhzLabel(self._rng(_GROUP_LABEL, n).randrange(8))
            self.transcript.groups.append(GroupRecord(index=n + 1, prepared_label=label))
            self.triples.append(Register(ghz_state(label)))
            self.triples.append(Register(ghz_state(label)))
        for i in range(cfg.resolved_decoys()):
            label = GhzLabel(self._rng(_SAMPLE_LABEL, i).randrange(8))
            self.samples.append((label, Register(ghz_state(label))))
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
        return self._record_check(2, len(self.samples), errors)

    def alice_encode(self):
        for n, op in enumerate(self.alice_ops):
            apply_op(self.triples[2 * n], 0, op.first)
            apply_op(self.triples[2 * n], 1, op.second)
            self.transcript.groups[n].a_op = op
        self._draw_decoys("S_B")
        self._transmit("S_B")

    def _draw_decoys(self, name):
        tokens = [DECOY_TOKENS[self._rng(_DECOY_TOKEN[name], i).randrange(4)]
                  for i in range(self.cfg.resolved_decoys())]
        self.decoys[name] = [(token, Register(decoy_state(token))) for token in tokens]

    def _decoy_check(self, step, name):
        errors = 0
        for i, (token, reg) in enumerate(self.decoys[name]):
            prep = DECOY_STATES[token]
            out = measure_particles(prep.basis, reg, [0], self._rng(_CHECK[name], i))
            errors += out != prep.expected
        return self._record_check(step, len(self.decoys[name]), errors)

    def bob_encode(self):
        for n, op in enumerate(self.bob_ops):
            i = 2 * n + 1
            p_label = measure_particles(MeasBasis.GHZ, self.triples[i], [0, 1, 2],
                                        self._rng(_BOB_GHZ, n))
            fresh = Register(ghz_state(p_label))
            apply_op(fresh, 0, op.first)
            apply_op(fresh, 1, op.second)
            self.triples[i] = fresh
            self.transcript.groups[n].p_label = p_label
            self.transcript.groups[n].b_op = op

    def swap_and_announce(self):
        for n in range(self.cfg.n_groups):
            joint = merge(self.triples[2 * n], self.triples[2 * n + 1])
            rng = self._rng(_SWAP, n)
            triple = BellTriple(*(measure_particles(MeasBasis.BELL, joint, [r, r + 3], rng)
                                  for r in range(3)))
            rec = self.transcript.groups[n]
            rec.bell_triple = triple
            rec.announcement = collection_of(triple)

    def decode(self):
        for rec in self.transcript.groups:
            a_bits = alice_decode(rec.prepared_label, rec.a_op, rec.announcement)
            b_bits = bob_decode(rec.p_label, rec.b_op, rec.announcement)
            rec.decoded_by_alice = "".join(map(str, a_bits))
            rec.decoded_by_bob = "".join(map(str, b_bits))
