import dataclasses
import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import equal_up_to_global_phase
from reference_session import ReferenceSession, alice_decode, bob_decode

from bqsdc import particles, protocol, qcore
from bqsdc.adversary import STRATEGIES, TARGETS, AttackConfig, apply_attack, decoy_rows
from bqsdc.checks import DECOY_TOKENS, consistent_ghz_outcomes, decoy_state
from bqsdc.codebook import CompositeOp, ghz_rows, ghz_state, transform_label
from bqsdc.labels import CollectionLabel, GhzLabel
from bqsdc.particles import append_ancilla, measure_particles, merge
from bqsdc.protocol import (_BLOCK, _CHECK_BASES, _PAIR, Branches, GroupRecord, Session,
                            SessionConfig, SessionTranscript, StateTable, SwapTable, _decoded,
                            _invert_announcements, default_decoy_count, message_ops,
                            random_message_bits, run_session)
from bqsdc.qcore import (MeasBasis, Rng, StateVector, StreamBlock, born_distribution,
                         make_basis_state)
from bqsdc.swap import collection_members, collection_table


def quiet_cfg(n, seed=0, **kw):
    kw.setdefault("decoys", 0)
    return SessionConfig(n_groups=n, seed=seed, **kw)


def ghz_block(*labels):
    """A block of GHZ triples, one row per label."""
    return ghz_rows()[list(labels)]


def row_state(block, row):
    """Row row of the block as a checked state."""
    return StateVector(block[row])


def num_qubits(block):
    return block.shape[1].bit_length() - 1


def triple_state(s, n, side):
    """Group n's odd (side 0) or even (side 1) triple as a checked state,
    read from the session's state table."""
    return StateVector(s.states.rows[s.triples[n, side]])


class TestRegister:
    def test_merge_puts_b_roles_after_a(self):
        a = ghz_block(GhzLabel.PSI0, GhzLabel.PSI2)
        b = append_ancilla(ghz_block(GhzLabel.PSI1, GhzLabel.PSI3), make_basis_state("1").amps)
        before = a.copy()
        joint = merge(a, b)
        assert num_qubits(joint) == 7
        # the inputs are left as they were
        assert num_qubits(a) == 3 and np.array_equal(a, before)
        for row in range(2):
            expect = qcore.tensor(row_state(a, row), row_state(b, row))
            assert np.array_equal(joint[row], expect.amps)
            # b's ancilla, its last qubit, is the joint state's last
            assert born_distribution(expect, MeasBasis.Z, [6])[1] == pytest.approx(1.0)

    def test_measurement_collapses(self):
        a = ghz_block(GhzLabel.PSI0)
        outs = []
        for role, seed in ((0, 1), (1, 2), (2, 3)):
            draw = np.array([Rng(seed).random()])
            (j,), a = measure_particles(a, MeasBasis.Z, [(role,)], [draw])
            outs.append(j[0])
        # remaining particles are perfectly correlated with the outcome
        assert outs[0] == outs[1] == outs[2]

    def test_rounds_collapse_and_keep(self):
        # three Z rounds on GHZ triples agree within each row; without
        # collapse no state is returned and the block is left as it was
        block = ghz_block(*[GhzLabel.PSI0] * 5)
        before = block.copy()
        draws = [np.array([Rng(seed, stream=k).random() for seed in range(5)]) for k in range(3)]
        (a, b, c), post = measure_particles(block, MeasBasis.Z, [(0,), (1,), (2,)], draws,
                                            collapse=False)
        assert (a == b).all() and (b == c).all() and 0 < a.sum() < 5
        assert post is None and np.array_equal(block, before)

    def test_basis_per_register(self):
        # |0> in Z and |+> in X are certain; each row gets its own basis
        block = decoy_rows()[[DECOY_TOKENS.index("0"), DECOY_TOKENS.index("+")]]
        which = np.array([0, 1])
        (out,), _ = measure_particles(block, (MeasBasis.Z, MeasBasis.X), [(0,)],
                                      [np.array([0.99, 0.99])], collapse=False, which=which)
        assert out.tolist() == [0, 0]


class TestConfig:
    def test_default_decoy_rule(self):
        assert default_decoy_count(1) == 16
        assert default_decoy_count(16) == 16
        assert default_decoy_count(40) == 40

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(n_groups=0)
        with pytest.raises(ValueError):
            SessionConfig(n_groups=1, check_threshold=1.0)
        with pytest.raises(ValueError):
            SessionConfig(n_groups=1, decoys=-1)

    def test_message_validation(self):
        for bits in ("0101", "01x", "01/", "01\u00e9", "0 1"):
            with pytest.raises(ValueError):
                message_ops(bits, 1)
        assert message_ops("010101", 2).tolist() == [CompositeOp.U2, CompositeOp.U5]
        for op in CompositeOp:
            assert message_ops("".join(map(str, op.bits)) * 2, 2).tolist() == [op, op]


class TestPrepare:
    def test_minimal_session_shape(self):
        s = Session(quiet_cfg(1, seed=4), "000", "000")
        s.prepare()
        assert s.triples.shape == (1, 2)
        block = s.states.amps(s.triples.reshape(-1))
        assert block.shape == (2, 8)
        # both triples of the group carry the same prepared label
        from bqsdc.codebook import classify_ghz
        odd = classify_ghz(row_state(block, 0))
        even = classify_ghz(row_state(block, 1))
        assert odd[0] == even[0] == s.transcript.groups[0].prepared_label

    def test_sample_insertion_and_alignment(self):
        cfg = SessionConfig(n_groups=4, seed=9, decoys=2)
        s = Session(cfg, "0" * 12, "0" * 12)
        s.prepare()
        assert s.states.amps(s.triples.reshape(-1)).shape == (8, 8)
        # check1 draws its samples: read the states it measures
        [(labels, ids, _)] = list(s._checked_units("S_C", len(GhzLabel), 0, 2))
        assert len(labels) == 2
        samples = s.states.amps(ids)
        # each sample is one GHZ triple in the state of its label
        assert samples.shape == (2, 8)
        for row, label in enumerate(labels):
            assert equal_up_to_global_phase(row_state(samples, row), ghz_state(GhzLabel(label)))

    def test_forced_initial_label(self):
        s = Session(quiet_cfg(3, seed=1, initial_label=GhzLabel.PSI6), "0" * 9, "0" * 9)
        s.prepare()
        assert [g.prepared_label for g in s.transcript.groups] == [GhzLabel.PSI6] * 3

    def test_prepared_labels_uniform(self):
        # frequency of each of the eight labels over 1e4 groups within
        # 2 percentage points of 1/8
        s = Session(quiet_cfg(10_000, seed=123), "0" * 30_000, "0" * 30_000)
        s.prepare()
        counts = {lab: 0 for lab in GhzLabel}
        for g in s.transcript.groups:
            counts[g.prepared_label] += 1
        for lab, c in counts.items():
            assert abs(c / 10_000 - 0.125) < 0.02


class TestRowTables:
    def test_rows_are_the_derived_states(self):
        # every block is built by indexing these tables, so each row must be
        # the state it stands for, and no block may write through to it
        ghz, decoys = ghz_rows(), decoy_rows()
        assert ghz.shape == (8, 8) and decoys.shape == (4, 2)
        for label in GhzLabel:
            assert np.array_equal(ghz[label], ghz_state(label).amps)
        for k, token in enumerate(DECOY_TOKENS):
            assert np.array_equal(decoys[k], decoy_state(token).amps)
        for table, cached in ((ghz, ghz_rows()), (decoys, decoy_rows())):
            assert table is cached
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0


class TestChecks:
    def test_clean_channel_no_errors(self):
        cfg = SessionConfig(n_groups=2, seed=5, decoys=12)
        t = run_session(cfg, "010110", "101001")
        assert [c.errors for c in t.checks] == [0, 0, 0]
        assert [c.step for c in t.checks] == [2, 4, 5]
        assert not t.aborted

    def test_consistent_sets_for_reference_sample(self):
        z = consistent_ghz_outcomes(GhzLabel.PSI0, MeasBasis.Z)
        assert z == {(0, 0, 0), (1, 1, 1)}
        x = consistent_ghz_outcomes(GhzLabel.PSI0, MeasBasis.X)
        assert x == {("+", "+", "+"), ("-", "-", "+"), ("+", "-", "-"), ("-", "+", "-")}

    def test_decoy_states_are_the_hand_written_vectors(self):
        # decoy_state derives each state from its DECOY_STATES entry; these
        # literals are the independent fixture
        r = 2.0 ** -0.5
        expected = {"0": [1, 0], "1": [0, 1], "+": [r, r], "-": [r, -r]}
        assert tuple(expected) == DECOY_TOKENS
        for token, amps in expected.items():
            state = decoy_state(token)
            assert state.amps.dtype == np.complex128
            assert np.array_equal(state.amps, np.array(amps, dtype=np.complex128)), token
        for token in ("2", "x", "00", ""):
            with pytest.raises(ValueError):
                decoy_state(token)

    def test_zero_decoys_check_passes(self):
        t = run_session(quiet_cfg(1, seed=2), "010", "101")
        assert all(c.samples == 0 and c.error_rate == 0.0 for c in t.checks)
        assert not t.aborted


class TestEncoding:
    def test_alice_encode_transforms_odd_triple(self):
        s = Session(quiet_cfg(1, seed=8, initial_label=GhzLabel.PSI0), "010", "000")
        s.prepare()
        s.check1()
        s.alice_encode()
        expect = ghz_state(transform_label(GhzLabel.PSI0, CompositeOp.U2))
        assert equal_up_to_global_phase(triple_state(s, 0, 0), expect)

    def test_identity_op_leaves_label(self):
        # U0 keeps every label fixed, though not always with phase +1: on
        # PSI3 the two sign flips hit different kets and contribute -1
        s = Session(quiet_cfg(1, seed=8, initial_label=GhzLabel.PSI3), "000", "000")
        s.prepare()
        s.check1()
        s.alice_encode()
        out = triple_state(s, 0, 0)
        assert equal_up_to_global_phase(out, ghz_state(GhzLabel.PSI3))
        assert np.allclose(out.amps, -ghz_state(GhzLabel.PSI3).amps)

    def test_decoys_never_touch_data_states(self):
        # same encoding must come out whether or not decoys ride along
        cfg = SessionConfig(n_groups=1, seed=8, initial_label=GhzLabel.PSI0, decoys=6)
        s = Session(cfg, "010", "000")
        s.prepare()
        s.check1()
        s.alice_encode()
        expect = ghz_state(transform_label(GhzLabel.PSI0, CompositeOp.U2))
        assert equal_up_to_global_phase(triple_state(s, 0, 0), expect)

    def test_decoy_states_drawn_uniformly(self):
        cfg = SessionConfig(n_groups=1, seed=14, decoys=400)
        s = Session(cfg, "010", "101")
        # each check draws its own decoys, so count them as the checks read them
        counts = {tok: 0 for tok in "01+-"}
        units = s._checked_units

        def count_decoys(name, kinds, first, role):
            for units_drawn, ids, lanes in units(name, kinds, first, role):
                if name != "S_C":
                    for k in units_drawn.tolist():
                        counts[DECOY_TOKENS[k]] += 1
                yield units_drawn, ids, lanes

        s._checked_units = count_decoys
        s.prepare()
        s.check1()
        s.alice_encode()
        s.check2()
        s.check3()
        assert sum(counts.values()) == 800
        for tok, c in counts.items():
            assert abs(c / 800 - 0.25) < 0.06

    def test_bob_measures_prepared_label(self):
        for seed in range(5):
            cfg = quiet_cfg(2, seed=seed)
            s = Session(cfg, "010101", "110011")
            s.prepare()
            s.check1()
            s.alice_encode()
            s.check2()
            s.check3()
            s.bob_encode()
            assert all(g.p_label == g.prepared_label for g in s.transcript.groups)

    def test_bob_encode_label_change(self):
        s = Session(quiet_cfg(1, seed=3, initial_label=GhzLabel.PSI0), "000", "101")
        s.prepare()
        s.check1()
        s.alice_encode()
        s.check2()
        s.check3()
        s.bob_encode()
        assert s.triples.shape == (1, 2)
        even_state = triple_state(s, 0, 1)
        assert equal_up_to_global_phase(even_state, ghz_state(GhzLabel.PSI5))


class TestSwapAnnounce:
    def test_worked_example_announces_c7(self):
        cfg = quiet_cfg(1, seed=7, initial_label=GhzLabel.PSI0)
        t = run_session(cfg, "010", "101")
        assert t.groups[0].announcement == CollectionLabel.C7

    def test_equal_ops_announce_c0(self):
        for seed in range(6):
            t = run_session(quiet_cfg(1, seed=seed), "011", "011")
            assert t.groups[0].announcement == CollectionLabel.C0

    def test_measured_triple_in_announced_collection(self):
        for seed in range(8):
            t = run_session(quiet_cfg(1, seed=seed), "100", "001")
            g = t.groups[0]
            assert g.bell_triple in collection_members(g.announcement)


class TestDecode:
    def test_worked_example(self):
        assert alice_decode(GhzLabel.PSI0, CompositeOp.U2, CollectionLabel.C7) == (1, 0, 1)
        assert bob_decode(GhzLabel.PSI0, CompositeOp.U5, CollectionLabel.C7) == (0, 1, 0)
        # the table holds op indices: Bob's U5 is "101", Alice's U2 is "010"
        alice, bob = _decoded()
        assert alice[CompositeOp.U2, CollectionLabel.C7] == 5 == int("101", 2)
        assert bob[CompositeOp.U5, CollectionLabel.C7] == 2 == int("010", 2)

    def test_chart_level_roundtrip_all_512(self):
        # the session's table and chart composition from the label agree
        alice, bob = _decoded()
        for p in GhzLabel:
            for a in CompositeOp:
                for b in CompositeOp:
                    m = collection_table(transform_label(p, a), transform_label(p, b))
                    assert alice_decode(p, a, m) == b.bits
                    assert bob_decode(p, b, m) == a.bits
                    assert alice[a, m] == b
                    assert bob[b, m] == a

    def test_table_rejects_an_undecodable_chart(self):
        # a collection repeated along a row leaves Alice two candidates for
        # Bob's operation, and down a column Bob two for Alice's; the
        # builder must refuse either rather than pick one
        def xor_chart():
            return [[CollectionLabel(a ^ b) for b in range(8)] for a in range(8)]

        assert np.array_equal(_invert_announcements(xor_chart()), _decoded())
        bad_row = xor_chart()
        bad_row[3][5] = bad_row[3][6]
        bad_column = xor_chart()
        row = bad_column[0]
        row[1], row[2] = row[2], row[1]  # row 0 is still a permutation
        for announced in (bad_row, bad_column):
            with pytest.raises(AssertionError, match="cannot be decoded"):
                _invert_announcements(announced)


class TestSessions:
    def test_full_roundtrip_random_messages(self):
        rng = Rng(21)
        alice = random_message_bits(6, rng)
        bob = random_message_bits(6, rng)
        t = run_session(SessionConfig(n_groups=6, seed=13), alice, bob)
        assert t.alice_message_bits() == bob
        assert t.bob_message_bits() == alice

    def test_capacity_six_bits_per_group(self):
        n = 5
        t = run_session(quiet_cfg(n, seed=1), "010" * n, "101" * n)
        assert len(t.alice_message_bits()) == 3 * n
        assert len(t.bob_message_bits()) == 3 * n
        for g in t.groups:
            assert len(g.decoded_by_alice) + len(g.decoded_by_bob) == 6

    def test_transcripts_byte_identical(self):
        cfg = SessionConfig(n_groups=3, seed=99)
        t1 = run_session(cfg, "010101110", "001100110")
        t2 = run_session(cfg, "010101110", "001100110")
        assert t1.to_json() == t2.to_json()

    def test_different_seeds_differ(self):
        a = run_session(SessionConfig(n_groups=3, seed=1), "010101110", "001100110")
        b = run_session(SessionConfig(n_groups=3, seed=2), "010101110", "001100110")
        assert a.to_json() != b.to_json()

    def test_transcript_json_schema(self):
        t = run_session(SessionConfig(n_groups=1, seed=0), "010", "101")
        doc = json.loads(t.to_json())
        assert set(doc) == {"version", "config", "groups", "checks", "abort"}
        assert set(doc["config"]) == {"n_groups", "seed", "decoys", "check_threshold",
                                      "attack", "initial_label"}
        g = doc["groups"][0]
        assert set(g) == {"n", "prepared_label", "a_op", "p_label", "b_op",
                          "bell_triple", "announcement", "decoded_by_alice",
                          "decoded_by_bob"}
        c = doc["checks"][0]
        assert set(c) == {"step", "samples", "errors", "error_rate", "aborted"}
        assert doc["abort"] == {"aborted": False, "step": None}

    def test_exhaustive_roundtrip_512_sessions(self):
        # every initial label and op pair, end to end through the quantum path
        for p in GhzLabel:
            for a in CompositeOp:
                for b in CompositeOp:
                    cfg = quiet_cfg(1, seed=17, initial_label=p)
                    t = run_session(cfg, "".join(map(str, a.bits)),
                                    "".join(map(str, b.bits)))
                    assert t.groups[0].decoded_by_bob == "".join(map(str, a.bits))
                    assert t.groups[0].decoded_by_alice == "".join(map(str, b.bits))


# No attack, then every strategy on every target.
ATTACKS = [None, *(AttackConfig.entangling(0.25, target=target)
                   if strategy == "entangle_measure" else AttackConfig(strategy, target=target)
                   for strategy in ("intercept_resend", "measure_resend", "entangle_measure")
                   for target in ("S_C", "S_B", "S_A"))]
ATTACK_IDS = ["none" if a is None else f"{a.strategy}-{a.target}" for a in ATTACKS]


class TestKeyedStreams:
    @pytest.mark.parametrize("attack", ATTACKS, ids=ATTACK_IDS)
    @given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(1, 3),
           extra=st.integers(1, 3), decoys=st.integers(1, 6))
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_group_record_independent_of_n_and_decoys(self, attack, seed, n, extra, decoys):
        # the first n groups' records are the same for N = n and N = n + extra,
        # with and without decoys, in every session that does not abort
        msg_rng = Rng(seed, stream=2)
        alice = random_message_bits(n + extra, msg_rng)
        bob = random_message_bits(n + extra, msg_rng)
        records = []
        for n_groups in (n, n + extra):
            for d in (0, decoys):
                cfg = SessionConfig(n_groups=n_groups, seed=seed, decoys=d,
                                    check_threshold=0.99, attack=attack)
                t = run_session(cfg, alice[:3 * n_groups], bob[:3 * n_groups])
                if not t.aborted:
                    records.append(t.groups[:n])
        assert len(records) >= 2  # sessions without decoys never abort
        assert all(r == records[0] for r in records)

    @pytest.mark.parametrize("attack", ATTACKS, ids=ATTACK_IDS)
    def test_stream_ids_distinct_from_each_other_and_message_streams(self, attack,
                                                                     monkeypatch):
        # every stream a scalar Rng or a StreamBlock lane is keyed to
        streams = []
        init, key = Rng.__init__, StreamBlock.key

        def record(self, seed, stream=0):
            init(self, seed, stream)
            streams.append(self.stream)

        def record_block(self, start, n):
            key(self, start, n)
            streams.extend(start + j for j in range(n))

        monkeypatch.setattr(Rng, "__init__", record)
        monkeypatch.setattr(StreamBlock, "key", record_block)
        # every step, whatever the checks find, so that every place draws
        s = Session(SessionConfig(n_groups=3, seed=5, decoys=4, attack=attack),
                    "010110011", "101001100")
        for step in (s.prepare, s.check1, s.alice_encode, s.check2, s.check3,
                     s.bob_encode, s.swap_and_announce):
            step()
        assert streams, "no stream was keyed"
        assert len(streams) == len(set(streams))
        assert not set(streams) & {0, 1, 2}


def assert_written_as_json_dumps(text):
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


class TestTranscriptWriter:
    """SessionTranscript.to_json writes, byte for byte, what
    json.dumps(indent=2) writes for the document it encodes."""

    @pytest.mark.parametrize("attack", ATTACKS, ids=ATTACK_IDS)
    def test_every_attack(self, attack):
        cfg = SessionConfig(n_groups=3, seed=11, decoys=4, check_threshold=0.99, attack=attack)
        t = run_session(cfg, "010110011", "101001100")
        assert not t.aborted
        assert_written_as_json_dumps(t.to_json())

    @pytest.mark.parametrize("target, step", [("S_C", 2), ("S_B", 4), ("S_A", 5)])
    def test_aborted_sessions(self, target, step):
        cfg = SessionConfig(n_groups=2, seed=3, decoys=64,
                            attack=AttackConfig("intercept_resend", target=target))
        t = run_session(cfg, "010110", "101001")
        assert t.abort_step == step
        assert_written_as_json_dumps(t.to_json())

    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_group_counts_at_block_edges(self, n):
        msg_rng = Rng(n, stream=2)
        alice, bob = random_message_bits(n, msg_rng), random_message_bits(n, msg_rng)
        t = run_session(SessionConfig(n_groups=n, seed=n), alice, bob)
        assert len(t.groups) == n and not t.aborted
        assert_written_as_json_dumps(t.to_json())

    def test_forced_initial_label(self):
        t = run_session(quiet_cfg(2, seed=5, initial_label=GhzLabel.PSI6), "011100", "110001")
        text = t.to_json()
        assert '"initial_label": "psi6"' in text
        assert_written_as_json_dumps(text)

    def test_non_round_floats(self):
        cfg = SessionConfig(n_groups=2, seed=5, decoys=3, check_threshold=0.1 + 0.2,
                            attack=AttackConfig.entangling(1 / 7, target="S_B"))
        text = run_session(cfg, "011100", "110001").to_json()
        assert '"check_threshold": 0.30000000000000004' in text
        assert '"beta_squared": 0.142857142857' in text
        assert_written_as_json_dumps(text)

    def test_no_groups(self):
        text = SessionTranscript(SessionConfig(n_groups=1)).to_json()
        assert json.loads(text)["groups"] == []
        assert_written_as_json_dumps(text)


def reader_sessions():
    """Transcripts of every attack, of the three aborted sessions of
    TestTranscriptWriter and of group counts at a block edge."""
    for attack in ATTACKS:
        cfg = SessionConfig(n_groups=3, seed=11, decoys=4, check_threshold=0.99, attack=attack)
        yield run_session(cfg, "010110011", "101001100")
    for target in ("S_C", "S_B", "S_A"):
        cfg = SessionConfig(n_groups=2, seed=3, decoys=64,
                            attack=AttackConfig("intercept_resend", target=target))
        yield run_session(cfg, "010110", "101001")
    for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1):
        msg_rng = Rng(n, stream=2)
        alice, bob = random_message_bits(n, msg_rng), random_message_bits(n, msg_rng)
        yield run_session(SessionConfig(n_groups=n, seed=n), alice, bob)


def record_json(value):
    return None if value is None else value if isinstance(value, str) else value.token


def test_group_view_and_json_read_the_same_columns():
    # t.groups and t.to_json() each build a group's fields from the
    # columns; so do the decoded message strings
    aborted = []
    for t in reader_sessions():
        doc = json.loads(t.to_json())["groups"]
        records = t.groups
        assert len(records) == len(doc) == t.config.n_groups
        names = [f.name for f in dataclasses.fields(GroupRecord)][1:]  # after index
        for rec, obj in zip(records, doc):
            assert obj == {"n": rec.index, **{k: record_json(getattr(rec, k)) for k in names}}
        aborted.append(t.aborted)
        if t.aborted:
            assert t.alice_message_bits() is None and t.bob_message_bits() is None
        else:
            assert t.alice_message_bits() == "".join(r.decoded_by_alice for r in records)
            assert t.bob_message_bits() == "".join(r.decoded_by_bob for r in records)
    assert aborted.count(True) == 3


def test_group_records_are_read_only():
    t = run_session(quiet_cfg(1, seed=2), "010", "101")
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.groups[0].a_op = CompositeOp.U0


# Uniform and fixed attack parameters: Eve's fake state and basis drawn per
# particle or fixed, and two values of beta squared.
BOUNDARY_ATTACKS = [None, *(
    AttackConfig(strategy, target=target, **params)
    for target in ("S_C", "S_B", "S_A")
    for strategy, params in [("intercept_resend", {}), ("intercept_resend", {"fake_state": "+"}),
                             ("measure_resend", {}), ("measure_resend", {"eve_basis": "X"}),
                             ("entangle_measure", {"beta_squared": 0.25}),
                             ("entangle_measure", {"beta_squared": 0.7})])]
BOUNDARY_IDS = ["none" if a is None else
                f"{a.strategy}-{a.target}-{a.fake_state or a.eve_basis or a.beta_squared or 'uniform'}"
                for a in BOUNDARY_ATTACKS]
# unit counts on both sides of the block edges, each taken by the group
# count and by the decoy count
BOUNDARY_SIZES = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)


def reference_transcript(cfg, alice, bob):
    return ReferenceSession(cfg, alice, bob).run().to_json()


class TestBlockBoundaries:
    """The batched session writes the transcript of the session run one
    register at a time (reference_session.py), for group and decoy counts
    on both sides of every block edge. Threshold 0 aborts at the first
    check an attack disturbs; 0.99 lets most sessions run every step."""

    @pytest.mark.parametrize("threshold", [0.0, 0.99])
    @pytest.mark.parametrize("attack", BOUNDARY_ATTACKS, ids=BOUNDARY_IDS)
    def test_batched_equals_per_register(self, attack, threshold):
        aborted = set()  # whether each session aborted
        for i, (n, decoys) in enumerate(zip(BOUNDARY_SIZES, reversed(BOUNDARY_SIZES))):
            cfg = SessionConfig(n_groups=n, seed=1000 * i + 7, decoys=decoys,
                                check_threshold=threshold, attack=attack)
            msg_rng = Rng(cfg.seed, stream=2)
            alice, bob = random_message_bits(n, msg_rng), random_message_bits(n, msg_rng)
            got = run_session(cfg, alice, bob).to_json()
            assert got == reference_transcript(cfg, alice, bob), (n, decoys)
            aborted.add(json.loads(got)["abort"]["aborted"])
        # an attack is caught at threshold 0; at 0.99 sessions run to the end
        if attack is None:
            assert aborted == {False}
        else:
            assert (threshold == 0.0) in aborted

    @pytest.mark.parametrize("attack", [None, AttackConfig("measure_resend", target="S_A")],
                             ids=["none", "measure_resend-S_A"])
    def test_forced_initial_label(self, attack):
        for n in BOUNDARY_SIZES:
            cfg = SessionConfig(n_groups=n, seed=n, decoys=n, check_threshold=0.99,
                                attack=attack, initial_label=GhzLabel.PSI5)
            alice, bob = "011" * n, "110" * n
            got = run_session(cfg, alice, bob).to_json()
            assert got == reference_transcript(cfg, alice, bob), n


# Every strategy on every target; the draws below fix Eve's fake state or
# basis or draw it per particle, and pick beta squared.
STRATEGY_TARGETS = [("none", "S_C"), *((strategy, target) for strategy in STRATEGIES[1:]
                                       for target in TARGETS)]


class TestDifferential:
    """The batched session against the reference at sizes TestBlockBoundaries
    does not list: an index slip in the interleaved triple blocks (2 *
    _BLOCK rows) or at bob_encode's odd/even split changes some group's
    transcript."""

    @pytest.mark.parametrize("strategy, target", STRATEGY_TARGETS)
    @given(n=st.integers(1, 2 * _BLOCK + 3), decoys=st.integers(0, _BLOCK + 1),
           fake=st.sampled_from([None, *DECOY_TOKENS]), basis=st.sampled_from([None, "Z", "X"]),
           beta_squared=st.floats(0.0, 1.0), threshold=st.sampled_from([0.0, 0.99]),
           seed=st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=3, deadline=None, derandomize=True)
    def test_session_equals_reference(self, strategy, target, n, decoys, fake, basis,
                                      beta_squared, threshold, seed):
        params = {"intercept_resend": {"fake_state": fake}, "measure_resend": {"eve_basis": basis},
                  "entangle_measure": {"beta_squared": beta_squared}}.get(strategy, {})
        cfg = SessionConfig(n_groups=n, seed=seed, decoys=decoys, check_threshold=threshold,
                            attack=AttackConfig(strategy, target=target, **params))
        msg_rng = Rng(seed, stream=2)
        alice, bob = random_message_bits(n, msg_rng), random_message_bits(n, msg_rng)
        assert run_session(cfg, alice, bob).to_json() == reference_transcript(cfg, alice, bob)


class TestSwapTable:
    """The swap expands each distinct (odd id, even id) pair of a session
    once, and the pairs a session reaches stay few as N grows."""

    BOUND = 1024

    @pytest.mark.parametrize("attack", BOUNDARY_ATTACKS, ids=BOUNDARY_IDS)
    def test_each_pair_built_once_and_table_bounded(self, monkeypatch, attack):
        n = 20 * _BLOCK
        msg_rng = Rng(n, stream=2)
        s = Session(quiet_cfg(n, seed=11, attack=attack),
                    random_message_bits(n, msg_rng), random_message_bits(n, msg_rng))
        for step in (s.prepare, s.check1, s.alice_encode, s.check2, s.check3, s.bob_encode):
            step()
        distinct = set(zip(*s.triples.T.tolist()))  # (odd id, even id)
        table = s.swap_table  # the swap releases it
        joined = []
        real_merge = particles.merge

        def counting_merge(a, b):
            joined.append(len(a))
            return real_merge(a, b)

        monkeypatch.setattr(particles, "merge", counting_merge)
        s.swap_and_announce()
        assert s.transcript.groups[-1].announcement is not None
        assert sum(joined) == len(distinct) == len(table.entries)
        assert set(table.entries) == {odd << _PAIR | even for odd, even in distinct}
        assert len(distinct) <= self.BOUND

    def test_each_width_gets_its_own_bell_tables(self):
        # odd states of 3 qubits, then of 4 (a fake at qubit 2, the genuine
        # third particle at 3): each entry holds the Bell tables of its own
        # joint state, whose cross pairs are (r, w + r)
        states, table = StateTable(), SwapTable()
        even = np.array([GhzLabel.PSI1, GhzLabel.PSI2])  # GHZ label k is state k
        narrow = np.array([GhzLabel.PSI0, GhzLabel.PSI5])
        wide = states.intern(apply_attack(ghz_block(GhzLabel.PSI0, GhzLabel.PSI5), 2,
                                          AttackConfig("intercept_resend", fake_state="+"),
                                          DECOY_TOKENS.index("+")))

        def entries_of(odd):
            return table.entries_of(states, odd << _PAIR | even).tolist()

        assert entries_of(narrow) == [0, 1]
        assert entries_of(wide) == [2, 3]
        assert entries_of(narrow) == [0, 1]
        for odd, entries in ((narrow, [0, 1]), (wide, [2, 3])):
            w = num_qubits(states.amps(odd))
            for row, entry in enumerate(entries):
                joint = qcore.tensor(StateVector(states.rows[odd[row]]),
                                     StateVector(states.rows[even[row]]))
                expect = qcore.branch_rows(joint.amps[None], MeasBasis.BELL,
                                           [(r, w + r) for r in range(3)])
                for got, want in zip(table.probs, expect, strict=True):
                    assert np.array_equal(got[entry], want[0])


class TestInterning:
    """A session runs each distinct transition of its states, each entry of
    its measurement tables and each swap pair through the dense kernels
    once, and its tables stay within a bound per strategy as N grows."""

    # (states, entries of the check, identification and Eve tables, swap
    # pairs) under uniform attack parameters. At 10**4 groups the sessions
    # below reach at most 18, 28 and 172 without an attack, 90, 100 and 784
    # under intercept-resend, 59, 92 and 434 under measure-resend and 36, 32
    # and 188 under the entangling attack; at 10**3 as many states and
    # entries, and fewer pairs.
    BOUNDS = {"none": (24, 32, 192), "intercept_resend": (96, 112, 800),
              "measure_resend": (64, 96, 448), "entangle_measure": (40, 40, 192)}

    @pytest.mark.parametrize("n", [10 ** 3, 10 ** 4])
    @pytest.mark.parametrize("strategy, target", STRATEGY_TARGETS)
    def test_each_state_built_once_and_tables_bounded(self, monkeypatch, strategy, target, n):
        built = {"moves": 0, "entries": 0, "pairs": 0}
        widths = []

        def counting(kind, kernel):
            def wrapper(amps, *args, **kwargs):
                built[kind] += len(amps)
                out = kernel(amps, *args, **kwargs)
                if kind == "pairs":
                    widths.append(num_qubits(out))
                return out
            return wrapper

        run_session(quiet_cfg(1), "000", "000")  # derive the cached charts uncounted
        # the kernels of the misses, at the names the session looks up
        monkeypatch.setattr(protocol, "apply_op", counting("moves", protocol.apply_op))
        monkeypatch.setattr(protocol, "apply_attack", counting("moves", protocol.apply_attack))
        monkeypatch.setattr(qcore, "branch_rows", counting("entries", qcore.branch_rows))
        monkeypatch.setattr(particles, "merge", counting("pairs", particles.merge))
        attack = AttackConfig.entangling(0.25, target=target) \
            if strategy == "entangle_measure" else AttackConfig(strategy, target=target)
        msg_rng = Rng(n, stream=2)
        s = Session(SessionConfig(n_groups=n, seed=n, check_threshold=0.99, attack=attack),
                    random_message_bits(n, msg_rng), random_message_bits(n, msg_rng))
        states, tables, swap = s.states, s.tables, s.swap_table  # the swap releases them
        t = s.run()
        assert not t.aborted and t.groups[-1].decoded_by_bob is not None
        entries = sum(len(table.entries) for table in tables.values())
        assert len({row.tobytes() for row in states.rows}) == len(states.rows)
        assert built["moves"] == sum(int((moves >= 0).sum()) for moves in states.moves.values())
        assert built["entries"] == entries + len(swap.entries)
        assert built["pairs"] == len(swap.entries)
        bounds = self.BOUNDS[strategy]
        assert len(states.rows) <= bounds[0] and entries <= bounds[1]
        assert len(swap.entries) <= bounds[2]
        assert max(widths) == TestWidth.WIDEST[strategy]

    def test_certain_outcomes_are_neither_keyed_nor_drawn(self):
        # a Z measurement of |0> (state 8) or of |1> (9) has one live
        # outcome, of |+> (10) two: only a block that reaches |+> keys its
        # lanes and draws, and its |0> and |1> keep their outcomes
        states, table = StateTable(), Branches(_CHECK_BASES, ((0,),))
        keyed = []

        def lanes():
            keyed.append(True)
            rng = StreamBlock(0, 3)
            rng.key(0, 3)
            return rng

        (out,) = table.sample(states, 2 * np.array([8, 9, 9]), lanes)
        assert out.tolist() == [0, 1, 1] and not keyed
        (out,) = table.sample(states, 2 * np.array([9, 10, 8]), lanes)
        assert keyed and out[[0, 2]].tolist() == [1, 0]
        assert table.fixed[:, 0].tolist() == [0, 1, -1]


class TestStepMemory:
    def test_swap_buffers_do_not_grow_with_groups(self, monkeypatch):
        # transient peak of the swap (peak minus the heap before it) at 16B
        # groups against B: it writes its Bell indices into columns that
        # prepare allocated, and its block buffers must not grow at all; one
        # block of all 16B groups grows them by about 210 KB
        attack = AttackConfig.entangling(0.25, target="S_A")

        def transient(n):
            s = Session(quiet_cfg(n, seed=4, attack=attack), "101" * n, "011" * n)
            for step in (s.prepare, s.check1, s.alice_encode, s.check2, s.check3,
                         s.bob_encode):
                step()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                s.swap_and_announce()
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        transient(_BLOCK)  # warm the caches
        growth = transient(16 * _BLOCK) - transient(_BLOCK)
        assert growth <= 8 * 1024
        monkeypatch.setattr("bqsdc.protocol._BLOCK", 16 * _BLOCK)
        assert transient(16 * _BLOCK) - transient(_BLOCK) > 100 * 1024 + growth

    def test_held_state_per_group(self):
        # the heap a session holds entering the swap grows by at most 32
        # bytes a group from 64 to 4096 groups (about 25 measured): after an
        # entangling attack on S_A, a group's two triple ids take 16 bytes,
        # its seven column entries 7 and its two message operations 2. Its
        # two triples' amplitudes took about 384 bytes a group, and one
        # register object per triple about 1500.
        attack = AttackConfig.entangling(0.25, target="S_A")

        def held(n):
            tracemalloc.start()
            try:
                s = Session(quiet_cfg(n, seed=4, check_threshold=0.99, attack=attack),
                            "101" * n, "011" * n)
                for step in (s.prepare, s.check1, s.alice_encode, s.check2, s.check3,
                             s.bob_encode):
                    step()
                gc.collect()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        held(64)  # warm the caches
        assert held(4096) - held(64) <= 32 * (4096 - 64)

    def test_checked_units_released_before_the_swap(self):
        # the heap a session holds entering the swap, at a fixed group
        # count, does not grow with the decoy count: no step holds a sample
        # or decoy once the block it was drawn in is measured (held to the
        # swap, 1024 of each would take about 0.7 MB more than 16). The
        # interpreter's free lists keep up to some 25 KB of freed floats and
        # tuples that tracemalloc counts as held; a full collection empties
        # them, and a few hundred bytes remain.
        attack = AttackConfig.entangling(0.25, target="S_A")

        def held(decoys):
            tracemalloc.start()
            try:
                s = Session(SessionConfig(n_groups=8, seed=4, decoys=decoys,
                                          check_threshold=0.99, attack=attack),
                            "101" * 8, "011" * 8)
                for step in (s.prepare, s.check1, s.alice_encode, s.check2, s.check3,
                             s.bob_encode):
                    step()
                assert not s.transcript.aborted
                gc.collect()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        held(1024)  # warm the caches
        assert held(1024) - held(16) <= 8 * 1024

    def test_finished_transcript_per_group(self):
        # a finished transcript holds at most 16 bytes a group: seven int8
        # column entries (_PREPARED, ...). A record object per group, with
        # its decoded strings, held about 190 bytes a group.
        def held(n):
            tracemalloc.start()
            try:
                t = run_session(SessionConfig(n, seed=4, decoys=0), "101" * n, "011" * n)
                gc.collect()
                assert not t.aborted
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        held(_BLOCK)  # warm the caches
        assert held(8 * _BLOCK) - held(_BLOCK) <= 16 * 7 * _BLOCK

    @pytest.mark.parametrize("target", ["S_C", "S_B", "S_A"])
    def test_session_peak_does_not_grow_with_decoys(self, target):
        # each check draws, attacks and measures its samples or decoys a
        # block at a time, so a session's peak heap is the same at 8 blocks
        # of them as at one. Units held from their draw to their check would
        # raise it by 110-315 KB; the few KB that remain are the
        # interpreter's free lists and numpy's buffer cache.
        attack = AttackConfig.entangling(0.25, target=target)

        def peak(decoys):
            cfg = SessionConfig(n_groups=8, seed=4, decoys=decoys, check_threshold=0.99,
                                attack=attack)
            tracemalloc.start()
            try:
                t = run_session(cfg, "101" * 8, "011" * 8)
                high = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert not t.aborted
            return high

        peak(_BLOCK)  # warm the caches
        assert peak(8 * _BLOCK) - peak(_BLOCK) <= 32 * 1024


class TestAborts:
    def test_intercept_with_many_decoys_always_aborts(self):
        attack = AttackConfig("intercept_resend", target="S_C")
        for seed in range(1000):
            cfg = SessionConfig(n_groups=1, seed=seed, decoys=64, attack=attack)
            t = run_session(cfg, "010", "101")
            assert t.abort_step == 2
            assert t.alice_message_bits() is None

    def test_abort_probability_monotone_in_decoys(self):
        attack = AttackConfig("intercept_resend", target="S_C", fake_state="0")
        rates = []
        for decoys in (1, 2, 4):
            aborts = 0
            for seed in range(1000):
                cfg = SessionConfig(n_groups=1, seed=seed, decoys=decoys, attack=attack)
                aborts += run_session(cfg, "010", "101").aborted
            rates.append(aborts / 1000)
        assert rates[0] <= rates[1] <= rates[2]
        assert rates[0] == pytest.approx(0.5, abs=0.06)
        assert rates[2] == pytest.approx(1 - 0.5 ** 4, abs=0.04)

    def test_abort_skips_later_steps(self):
        attack = AttackConfig("measure_resend", target="S_B")
        cfg = SessionConfig(n_groups=1, seed=5, decoys=64, attack=attack)
        t = run_session(cfg, "010", "101")
        assert t.abort_step == 4
        assert [c.step for c in t.checks] == [2, 4]
        assert t.groups[0].b_op is None and t.groups[0].announcement is None

    def test_threshold_tolerates_errors(self):
        attack = AttackConfig("measure_resend", target="S_B")
        cfg = SessionConfig(n_groups=1, seed=5, decoys=64, attack=attack,
                            check_threshold=0.99)
        t = run_session(cfg, "010", "101")
        assert not t.aborted


class TestWidth:
    # widest state per strategy: two triples joined at the swap, plus the
    # fake or ancilla an attack on one transmission leaves in a triple
    WIDEST = {"none": 6, "intercept_resend": 7, "measure_resend": 6, "entangle_measure": 7}

    @pytest.mark.parametrize("target", ["S_C", "S_B", "S_A"])
    @pytest.mark.parametrize("strategy", list(WIDEST))
    def test_no_state_wider_than_seven_qubits(self, monkeypatch, strategy, target):
        # every state counts: the checked constructions, and the inputs and
        # results of the row kernels, whose rows skip those checks
        widths = []
        kernels = []
        post_init = StateVector.__post_init__

        def record(self):
            post_init(self)
            widths.append(self.num_qubits)

        def record_rows(*arrays):
            kernels.extend(a.shape[-1].bit_length() - 1 for a in arrays
                           if a is not None and a.ndim == 2)

        def recording(kernel, result=lambda out: out, calls=None):
            def wrapper(amps, *args, **kwargs):
                out = kernel(amps, *args, **kwargs)
                record_rows(amps, result(out))
                if calls is not None:
                    calls.append(amps.shape)
                return out
            return wrapper

        # the session collapses a state only under measure-resend, through
        # qcore.collapse_rows, looked up on the module
        measured, branched = [], []
        monkeypatch.setattr(StateVector, "__post_init__", record)
        monkeypatch.setattr(qcore, "tensor_rows", recording(qcore.tensor_rows))
        monkeypatch.setattr(qcore, "apply_unitary_rows", recording(qcore.apply_unitary_rows))
        monkeypatch.setattr(qcore, "collapse_rows", recording(qcore.collapse_rows, calls=measured))
        # every measurement, the swap's too, expands its states through
        # qcore.branch_rows, which returns probability tables, no states
        monkeypatch.setattr(qcore, "branch_rows",
                            recording(qcore.branch_rows, lambda out: None, branched))
        attack = AttackConfig.entangling(0.25, target=target) \
            if strategy == "entangle_measure" else AttackConfig(strategy, target=target)
        cfg = SessionConfig(n_groups=2, seed=3, check_threshold=0.99, attack=attack)
        t = run_session(cfg, "010110", "101001")
        assert t.groups[-1].announcement is not None
        assert kernels, "no row kernel input or result was recorded"
        assert bool(measured) == (strategy == "measure_resend"), "collapses recorded"
        assert branched, "no branch expansion was recorded"
        assert max(widths + kernels) == self.WIDEST[strategy]
