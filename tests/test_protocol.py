import functools
import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import TEST_BLOCK, basis_row, equal_up_to_global_phase, json_groups, session_block
from reference_session import ReferenceSession, alice_decode, bob_decode

from bqsdc import checks, cli, particles, protocol, qcore
from bqsdc.adversary import STRATEGIES, TARGETS, AttackConfig, apply_attack
from bqsdc.checks import (CHECK_BASES, DECOY_STATES, DECOY_TOKENS, consistent_ghz_outcomes,
                          decoy_rows, decoy_state, ghz_sample_ok)
from bqsdc.codebook import CompositeOp, ghz_rows, transform_chart, transform_label
from bqsdc.labels import CollectionLabel, GhzLabel, ghz_amplitudes
from bqsdc.particles import merge
from bqsdc.protocol import (_BLOCK, Branches, Session, SessionConfig, SessionTranscript,
                            StateTable, _decoded, _invert_announcements, default_decoy_count,
                            message_ops, random_message_bits, run_session)
from bqsdc.qcore import (MeasBasis, Rng, StateVector, StreamBlock, basis_labels, born_distribution,
                         measure_rows)
from bqsdc.swap import (announcement_chart, bell_triples, collection_members, collection_table,
                        ghz_swap_tables, swap_chart)


def quiet_cfg(n, seed=0, **kw):
    kw.setdefault("decoys", 0)
    return SessionConfig(n_groups=n, seed=seed, **kw)


def boundary_sizes(block):
    """Unit counts on both sides of the edges of blocks of block units."""
    return (1, block - 1, block, block + 1, 2 * block + 3)


def ghz_block(*labels):
    """A block of GHZ triples, one row per label."""
    return ghz_rows()[list(labels)]


def num_qubits(block):
    return block.shape[1].bit_length() - 1


def triple_state(s, n, side):
    """Group n's odd (side 0) or even (side 1) triple, read from the
    session's state table."""
    return s.states.rows[s.triples[n, side]]


class TestRegister:
    def test_merge_puts_b_roles_after_a(self):
        a = ghz_block(GhzLabel.PSI0, GhzLabel.PSI2)
        b = qcore.tensor_rows(ghz_block(GhzLabel.PSI1, GhzLabel.PSI3), basis_row("1"))
        before = a.copy()
        joint = merge(a, b)
        assert num_qubits(joint) == 7
        # the inputs are left as they were
        assert num_qubits(a) == 3 and np.array_equal(a, before)
        for row in range(2):
            expect = np.kron(a[row], b[row])
            assert np.array_equal(joint[row], expect)
            # b's ancilla, its last qubit, is the joint state's last
            assert born_distribution(expect, MeasBasis.Z, [6])[1] == pytest.approx(1.0)

    def test_measurement_collapses(self):
        a = ghz_block(GhzLabel.PSI0)
        outs = []
        for role, seed in ((0, 1), (1, 2), (2, 3)):
            draw = np.array([Rng(seed).random()])
            (j,), a = measure_rows(a, MeasBasis.Z, [(role,)], [draw])
            outs.append(j[0])
        # remaining particles are perfectly correlated with the outcome
        assert outs[0] == outs[1] == outs[2]

    def test_rounds_collapse_and_keep(self):
        # three Z rounds on GHZ triples agree within each row, each row
        # collapses onto |000> or |111>, and the block is left as it was
        block = ghz_block(*[GhzLabel.PSI0] * 5)
        before = block.copy()
        draws = [np.array([Rng(seed, stream=k).random() for seed in range(5)]) for k in range(3)]
        (a, b, c), post = measure_rows(block, MeasBasis.Z, [(0,), (1,), (2,)], draws)
        assert (a == b).all() and (b == c).all() and 0 < a.sum() < 5
        assert np.array_equal(np.abs(post), np.eye(8)[7 * a])
        assert np.array_equal(block, before)

    def test_basis_per_register(self):
        # |0> in Z and |+> in X are certain; each row gets its own basis
        block = decoy_rows()[[DECOY_TOKENS.index("0"), DECOY_TOKENS.index("+")]]
        tables = qcore.branch_rows(block, (MeasBasis.Z, MeasBasis.X), [(0,)], np.array([0, 1]))
        (out,) = qcore.sample_branches(qcore.branch_thresholds(tables), np.arange(2),
                                       [np.array([0.99, 0.99])])
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

    def test_integer_fields_are_integers(self):
        # a float once failed deep inside (a float decoy count in the stream
        # block, n_groups 2.5 as "7.5 message bits"), and True passed as 1
        for name in ("n_groups", "seed", "decoys"):
            for bad in (1.5, 2.0, True, "2"):
                with pytest.raises(TypeError, match=name):
                    SessionConfig(**{"n_groups": 1, name: bad})
        cfg = SessionConfig(n_groups=np.int64(2), seed=np.uint8(3), decoys=np.int32(4))
        assert [type(v) for v in (cfg.n_groups, cfg.seed, cfg.decoys)] == [int] * 3
        for bad in (True, False):
            with pytest.raises(TypeError, match="initial_label"):
                SessionConfig(n_groups=1, initial_label=bad)

    def test_initial_label_is_a_label_and_always_written(self):
        # psi0 is label 0, which is falsy: a run forced to it still says so
        for label in GhzLabel:
            for given in (label, int(label)):
                cfg = SessionConfig(n_groups=1, initial_label=given)
                assert cfg.initial_label is label
                assert cfg.to_json_dict()["initial_label"] == label.token
        assert SessionConfig(n_groups=1).to_json_dict()["initial_label"] is None
        for bad in (-1, 8, 9, 1.5, "psi1"):
            with pytest.raises(ValueError):
                SessionConfig(n_groups=1, initial_label=bad)

    def test_message_validation(self):
        for bits in ("0101", "01x", "01/", "01\u00e9", "0 1"):
            with pytest.raises(ValueError):
                message_ops(bits, 1)
        assert message_ops("010101", 2).tolist() == [CompositeOp.U2, CompositeOp.U5]
        for op in CompositeOp:
            assert message_ops("".join(map(str, op.bits)) * 2, 2).tolist() == [op, op]

    def test_random_message_draws_hold_no_string_per_bit(self):
        # 3 * 10**4 bits: a list of shared one-character strings and the
        # joined text peak near 0.28 MB; a new string per bit took 1.78 MB
        random_message_bits(1, Rng(3, 2))  # warm the interpreter's caches
        tracemalloc.start()
        try:
            bits = random_message_bits(10 ** 4, Rng(3, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(bits) == 3 * 10 ** 4 and set(bits) <= {"0", "1"}
        assert peak < 0.5 * 2 ** 20


class TestPrepare:
    def test_minimal_session_shape(self):
        s = Session(quiet_cfg(1, seed=4), "000", "000")
        s.prepare()
        assert s.triples.shape == (1, 2)
        block = s.states.amps(s.triples.reshape(-1))
        assert block.shape == (2, 8)
        # both triples of the group carry the same prepared label: a GHZ
        # state's id is its label
        assert np.array_equal(block, ghz_rows()[s.triples[0]])
        assert [GhzLabel(k).token for k in s.triples[0]] == \
            [json_groups(s.transcript)[0]["prepared_label"]] * 2

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
            assert equal_up_to_global_phase(samples[row], ghz_rows()[label])

    def test_forced_initial_label(self):
        s = Session(quiet_cfg(3, seed=1, initial_label=GhzLabel.PSI6), "0" * 9, "0" * 9)
        s.prepare()
        assert [g["prepared_label"] for g in json_groups(s.transcript)] == ["psi6"] * 3

    def test_prepared_labels_uniform(self):
        # frequency of each of the eight labels over 1e4 groups within
        # 2 percentage points of 1/8
        s = Session(quiet_cfg(10_000, seed=123), "0" * 30_000, "0" * 30_000)
        s.prepare()
        counts = {lab.token: 0 for lab in GhzLabel}
        for g in json_groups(s.transcript):
            counts[g["prepared_label"]] += 1
        for lab, c in counts.items():
            assert abs(c / 10_000 - 0.125) < 0.02


class TestRowTables:
    def test_rows_are_the_derived_states(self):
        # every block is built by indexing these tables, so each row must be
        # the state it stands for, and no block may write through to it
        ghz, decoys = ghz_rows(), decoy_rows()
        assert ghz.shape == (8, 8) and decoys.shape == (4, 2)
        for label in GhzLabel:
            assert np.array_equal(ghz[label], ghz_amplitudes(label))
        for k, token in enumerate(DECOY_TOKENS):
            assert np.array_equal(decoys[k], decoy_state(token).amps)
        for table, cached in ((ghz, ghz_rows()), (decoys, decoy_rows())):
            assert table is cached
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0

    def test_decoy_rows_build_no_state_vector(self, monkeypatch):
        # the rows come from DECOY_STATES and basis_outcomes, checked once
        # as rows; a cold decoy_state builds the one state it returns
        built = []
        post_init = StateVector.__post_init__

        def record(self):
            post_init(self)
            built.append(self)

        monkeypatch.setattr(StateVector, "__post_init__", record)
        rows = checks.decoy_rows.__wrapped__()  # as on a cold cache
        assert not built
        assert np.array_equal(rows, decoy_rows()) and not rows.flags.writeable
        state = checks.decoy_state.__wrapped__("+")
        assert len(built) == 1
        assert np.array_equal(state.amps, rows[DECOY_TOKENS.index("+")])

    def test_cached_charts_are_read_only(self):
        # every session reads these, so a write into one would reach all
        # later sessions of the process
        charts = {"transform": transform_chart, "swap": lambda: swap_chart()[0],
                  "triple collections": lambda: swap_chart()[1],
                  "announcement": announcement_chart, "decoded": protocol._decoded,
                  "sample errors": checks.sample_errors,
                  "decoy errors": lambda: checks.DECOY_ERRORS,
                  "decoy bases": lambda: checks.DECOY_BASIS}
        for name, chart in charts.items():
            table = chart()
            assert table is chart(), name
            assert not table.flags.writeable, name
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 0


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

    def test_error_tables_apply_the_check_rule(self):
        # every sample entry is the predicate's verdict on its outcome
        # triple; a decoy's entries flag every outcome of its basis but its own
        sample = checks.sample_errors()
        assert sample.shape == (len(GhzLabel), len(CHECK_BASES), 8)
        for label in GhzLabel:
            for w, basis in enumerate(CHECK_BASES):
                names = basis_labels(basis)
                for k in range(8):
                    outs = (names[k >> 2], names[k >> 1 & 1], names[k & 1])
                    assert sample[label, w, k] == (not ghz_sample_ok(label, basis, outs))
        assert checks.DECOY_BASIS.tolist() == [0, 0, 1, 1]
        assert checks.DECOY_ERRORS.tolist() == [[False, True], [True, False]] * 2
        for k, prep in enumerate(DECOY_STATES.values()):
            assert CHECK_BASES[checks.DECOY_BASIS[k]] is prep.basis
            assert checks.DECOY_ERRORS[k].tolist() == [out != prep.expected
                                                       for out in basis_labels(prep.basis)]

    def test_pristine_units_fail_no_check(self):
        # what lets a session skip the check of a sequence Eve left alone
        # and read Bob's label off an untouched triple: every outcome of
        # positive weight of a pristine GHZ sample, in every check basis, and
        # of a pristine decoy, in its basis, is not an error, and a GHZ
        # state's GHZ measurement has one live outcome, its label
        labels, w = np.divmod(np.arange(len(GhzLabel) * len(CHECK_BASES)), len(CHECK_BASES))
        weights = qcore.path_weights(qcore.branch_rows(
            ghz_rows()[labels], CHECK_BASES, ((2,), (0,), (1,)), which=w))
        c, a, b = np.unravel_index(np.arange(8), (2, 2, 2))
        errors = checks.sample_errors()[labels, w][:, 4 * a + 2 * b + c]
        assert (weights > 0).any(axis=1).all() and not (errors & (weights > 0)).any()
        weights = qcore.path_weights(qcore.branch_rows(
            decoy_rows(), CHECK_BASES, ((0,),), which=checks.DECOY_BASIS))
        assert not (checks.DECOY_ERRORS & (weights > 0)).any()
        weights = qcore.path_weights(qcore.branch_rows(ghz_rows(), MeasBasis.GHZ, ((0, 1, 2),)))
        assert [np.flatnonzero(row).tolist() for row in weights] == [[g] for g in GhzLabel]

    def test_decoy_states_are_the_hand_written_vectors(self):
        # decoy_rows derives each state from its DECOY_STATES entry, and
        # decoy_state wraps its row; these literals are the independent fixture
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
        expect = ghz_rows()[transform_label(GhzLabel.PSI0, CompositeOp.U2)]
        assert equal_up_to_global_phase(triple_state(s, 0, 0), expect)

    def test_identity_op_leaves_label(self):
        # U0 keeps every label fixed, though not always with phase +1: on
        # PSI3 the two sign flips hit different kets and contribute -1. The
        # session interns states up to sign, so its odd triple is PSI3's id.
        psi3 = ghz_rows()[[GhzLabel.PSI3]]
        assert np.array_equal(protocol._encode(psi3, np.array([CompositeOp.U0])), -psi3)
        s = Session(quiet_cfg(1, seed=8, initial_label=GhzLabel.PSI3), "000", "000")
        s.prepare()
        s.check1()
        s.alice_encode()
        assert s.triples[0, 0] == GhzLabel.PSI3
        assert equal_up_to_global_phase(triple_state(s, 0, 0), ghz_rows()[GhzLabel.PSI3])

    def test_decoys_never_touch_data_states(self):
        # same encoding must come out whether or not decoys ride along
        cfg = SessionConfig(n_groups=1, seed=8, initial_label=GhzLabel.PSI0, decoys=6)
        s = Session(cfg, "010", "000")
        s.prepare()
        s.check1()
        s.alice_encode()
        expect = ghz_rows()[transform_label(GhzLabel.PSI0, CompositeOp.U2)]
        assert equal_up_to_global_phase(triple_state(s, 0, 0), expect)

    def test_decoy_states_drawn_uniformly(self):
        # each check draws its own decoys, so count them as the checks read
        # them; only a check of an attacked sequence draws them, so attack
        # S_B in one session and S_A in another
        counts = {tok: 0 for tok in "01+-"}
        for target in ("S_B", "S_A"):
            cfg = SessionConfig(n_groups=1, seed=14, decoys=400, check_threshold=0.99,
                                attack=AttackConfig.entangling(0.25, target=target))
            s = Session(cfg, "010", "101")
            units = s._checked_units

            def count_decoys(name, kinds, first, role):
                for units_drawn, ids, rng in units(name, kinds, first, role):
                    if name != "S_C":
                        for k in units_drawn.tolist():
                            counts[DECOY_TOKENS[k]] += 1
                    yield units_drawn, ids, rng

            s._checked_units = count_decoys
            for step in (s.prepare, s.check1, s.alice_encode, s.check2, s.check3):
                step()
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
            assert all(g["p_label"] == g["prepared_label"] for g in json_groups(s.transcript))

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
        assert equal_up_to_global_phase(even_state, ghz_rows()[GhzLabel.PSI5])


class TestSwapAnnounce:
    def test_worked_example_announces_c7(self):
        cfg = quiet_cfg(1, seed=7, initial_label=GhzLabel.PSI0)
        t = run_session(cfg, "010", "101")
        assert json_groups(t)[0]["announcement"] == "c7"

    def test_equal_ops_announce_c0(self):
        for seed in range(6):
            t = run_session(quiet_cfg(1, seed=seed), "011", "011")
            assert json_groups(t)[0]["announcement"] == "c0"

    def test_measured_triple_in_announced_collection(self):
        members = {m.token: {triple.token for triple in collection_members(m)}
                   for m in CollectionLabel}
        for seed in range(8):
            t = run_session(quiet_cfg(1, seed=seed), "100", "001")
            g = json_groups(t)[0]
            assert g["bell_triple"] in members[g["announcement"]]


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
        for g in json_groups(t):
            assert len(g["decoded_by_alice"]) + len(g["decoded_by_bob"]) == 6

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
                    assert t.bob_message_bits() == "".join(map(str, a.bits))
                    assert t.alice_message_bits() == "".join(map(str, b.bits))


# No attack, then every strategy on every target.
ATTACKS = [None, *(AttackConfig.entangling(0.25, target=target)
                   if strategy == "entangle_measure" else AttackConfig(strategy, target=target)
                   for strategy in ("intercept_resend", "measure_resend", "entangle_measure")
                   for target in ("S_C", "S_B", "S_A"))]
ATTACK_IDS = ["none" if a is None else f"{a.strategy}-{a.target}" for a in ATTACKS]


# Every strategy on every target; the draws below fix Eve's fake state or
# basis or draw it per particle, and pick beta squared.
STRATEGY_TARGETS = [("none", "S_C"), *((strategy, target) for strategy in STRATEGIES[1:]
                                       for target in TARGETS)]


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
                    records.append(json_groups(t)[:n])
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

    @pytest.mark.parametrize("strategy, target", STRATEGY_TARGETS)
    def test_untouched_units_key_no_stream(self, strategy, target, monkeypatch):
        # the check of a sequence Eve leaves alone draws no unit and measures
        # none, and without an attack Bob reads his labels without a draw
        places = set()
        key = StreamBlock.key

        def record(self, start, n):
            key(self, start, n)
            places.add(start >> protocol._UNIT_BITS)

        monkeypatch.setattr(StreamBlock, "key", record)
        attack = AttackConfig.entangling(0.25, target=target) \
            if strategy == "entangle_measure" else AttackConfig(strategy, target=target)
        s = Session(SessionConfig(n_groups=3, seed=5, decoys=4, check_threshold=0.99,
                                  attack=attack), "010110011", "101001100")
        for step in (s.prepare, s.check1, s.alice_encode, s.check2, s.check3,
                     s.bob_encode, s.swap_and_announce):
            step()
        attacked = set() if strategy == "none" else {target}
        for name in TARGETS:
            checked = {protocol._UNITS[name], protocol._CHECK[name]}
            assert checked & places == (checked if name in attacked else set()), name
        assert (protocol._BOB_GHZ in places) == (strategy != "none")


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

    @pytest.mark.parametrize("n", boundary_sizes(TEST_BLOCK))
    def test_group_counts_at_block_edges(self, n):
        msg_rng = Rng(n, stream=2)
        alice, bob = random_message_bits(n, msg_rng), random_message_bits(n, msg_rng)
        with session_block():
            t = run_session(SessionConfig(n_groups=n, seed=n), alice, bob)
            assert len(json_groups(t)) == n and not t.aborted
            assert_written_as_json_dumps(t.to_json())

    @pytest.mark.parametrize("attack, step", [(None, None), ("intercept:S_B", 4)])
    def test_cli_writes_every_block(self, tmp_path, capsys, attack, step):
        # the writer's chunks cover every group once: a slip at a chunk edge
        # drops or repeats a group of a session longer than one chunk
        n = 2 * TEST_BLOCK + 3
        alice, bob = "011" * n, "110" * n
        path = tmp_path / "t.json"
        argv = ["run", "--N", str(n), "--alice", alice, "--bob", bob, "--seed", "5",
                "--decoys", "64", *(["--attack", attack] if attack else []), "--out", str(path)]
        with session_block():
            assert cli.main(argv) == 0
        capsys.readouterr()
        cfg = SessionConfig(n_groups=n, seed=5, decoys=64,
                            attack=attack and AttackConfig("intercept_resend", target="S_B"))
        t = run_session(cfg, alice, bob)
        assert t.abort_step == step and len(json_groups(t)) == n
        text = path.read_text()
        assert text == t.to_json()
        assert_written_as_json_dumps(text)
        assert [g["n"] for g in json.loads(text)["groups"]] == list(range(1, n + 1))

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

    def test_group_tables_are_json_dumps_of_each_entry(self):
        # every entry of the four tables, null entries included, in a group
        # whose other fields take their tables' first entries, against the
        # group json.dumps writes: each field's value by column entry, None
        # last, at entry -1
        bits = ["".join(map(str, op.bits)) for op in CompositeOp]
        fields = {"prepared_label": GhzLabel, "a_op": CompositeOp, "p_label": GhzLabel,
                  "b_op": CompositeOp, "bell_triple": bell_triples(),
                  "announcement": map(CollectionLabel, swap_chart()[1].tolist()),
                  "decoded_by_alice": bits, "decoded_by_bob": bits}
        values = [[*(v if isinstance(v, str) else v.token for v in entries), None]
                  for entries in fields.values()]
        names, tables = list(fields), protocol._group_tables()
        before, after = protocol._GROUP_JSON.split("%s")[0].split("%d")
        checked = 0
        for i, (table, _) in enumerate(tables):
            for index in np.ndindex(table.shape):
                entries = [0] * len(names)
                # table i holds fields 2i and 2i + 1; the Bell table one index for both
                entries[2 * i:2 * i + 2] = index if len(index) == 2 else index * 2
                group = {"n": 1, **{name: values[k][entry]
                                    for k, (name, entry) in enumerate(zip(names, entries))}}
                texts = [other[index if j == i else (0,) * other.ndim]
                         for j, (other, _) in enumerate(tables)]
                doc = json.dumps({"groups": [group]}, indent=2)
                assert doc == '{\n  "groups": [\n' + before + "1" + after + "".join(texts) + \
                    "\n  ]\n}", (names[2 * i], index)
                checked += 1
        assert checked == 9 * 9 + 9 * 9 + 65 + 9 * 9 == 308

    def test_writer_holds_one_chunk(self):
        # to_json(fh) holds the text of one chunk of _BLOCK groups at a time
        # (about 0.32 MB), so 16 chunks peak as one does; the text of a whole
        # transcript of 16 * 512 groups would take some 2 MB
        class Sink:
            def write(self, text):
                pass

        def peak(n):
            t = run_session(quiet_cfg(n, seed=4), "101" * n, "011" * n)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                t.to_json(Sink())
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        peak(_BLOCK)  # warm the caches
        assert peak(16 * _BLOCK) - peak(_BLOCK) <= 8 * 1024


class TestBlockInvariance:
    """Every draw is keyed by its place and unit, so the block size changes
    no byte of a transcript: not what the steps draw and measure, nor how
    the writer cuts its chunks, null entries of aborted sessions included.
    Group and decoy counts cross several blocks of each size."""

    CASES = [*((strategy, target, 0.99, None) for strategy, target in STRATEGY_TARGETS),
             ("intercept_resend", "S_C", 0.0, 2), ("intercept_resend", "S_B", 0.0, 4),
             ("intercept_resend", "S_A", 0.0, 5)]

    @pytest.mark.parametrize("strategy, target, threshold, step", CASES)
    def test_transcript_equal_at_every_block(self, strategy, target, threshold, step):
        n = 2 * _BLOCK + 3
        attack = AttackConfig.entangling(0.25, target=target) \
            if strategy == "entangle_measure" else AttackConfig(strategy, target=target)
        cfg = SessionConfig(n_groups=n, seed=n, decoys=_BLOCK + 5, check_threshold=threshold,
                            attack=attack)
        msg_rng = Rng(n, stream=2)
        alice, bob = random_message_bits(n, msg_rng), random_message_bits(n, msg_rng)
        texts = set()
        for block in (TEST_BLOCK, 128, _BLOCK):
            with session_block(block):
                t = run_session(cfg, alice, bob)
                texts.add(t.to_json())
            assert t.abort_step == step
        assert len(texts) == 1


def reader_sessions():
    """Transcripts of every attack, of the three aborted sessions of
    TestTranscriptWriter and of group counts at an edge of TEST_BLOCK, which
    the caller runs at (session_block)."""
    for attack in ATTACKS:
        cfg = SessionConfig(n_groups=3, seed=11, decoys=4, check_threshold=0.99, attack=attack)
        yield run_session(cfg, "010110011", "101001100")
    for target in ("S_C", "S_B", "S_A"):
        cfg = SessionConfig(n_groups=2, seed=3, decoys=64,
                            attack=AttackConfig("intercept_resend", target=target))
        yield run_session(cfg, "010110", "101001")
    for n in (TEST_BLOCK - 1, TEST_BLOCK, TEST_BLOCK + 1):
        msg_rng = Rng(n, stream=2)
        alice, bob = random_message_bits(n, msg_rng), random_message_bits(n, msg_rng)
        yield run_session(SessionConfig(n_groups=n, seed=n), alice, bob)


def test_message_strings_and_json_read_the_same_columns():
    # t.to_json() and the decoded message strings each read the groups'
    # decoded columns: the strings join the JSON's decoded fields, and both
    # are null where the session aborted
    aborted = []
    with session_block():
        for t in reader_sessions():
            doc = json_groups(t)
            assert [g["n"] for g in doc] == list(range(1, t.config.n_groups + 1))
            aborted.append(t.aborted)
            by_alice, by_bob = ([g[k] for g in doc] for k in ("decoded_by_alice", "decoded_by_bob"))
            if t.aborted:
                assert t.alice_message_bits() is None and t.bob_message_bits() is None
                assert set(by_alice) == set(by_bob) == {None}
            else:
                assert t.alice_message_bits() == "".join(by_alice)
                assert t.bob_message_bits() == "".join(by_bob)
    assert aborted.count(True) == 3


def test_message_strings_are_none_until_decode():
    # before decode the decoded columns hold -1, which is no op's message:
    # the strings are None, as the JSON's decoded fields are null
    s = Session(SessionConfig(2, seed=1, decoys=0), "010110", "101001")
    t = s.transcript
    for step in (s.prepare, s.check1, s.alice_encode, s.check2, s.check3, s.bob_encode,
                 s.swap_and_announce):
        assert t.alice_message_bits() is None and t.bob_message_bits() is None
        step()
        assert not t.aborted
    assert {g[k] for g in json_groups(t) for k in ("decoded_by_alice", "decoded_by_bob")} == {None}
    assert t.alice_message_bits() is None and t.bob_message_bits() is None
    s.decode()
    assert t.alice_message_bits() == "101001" and t.bob_message_bits() == "010110"


@pytest.mark.parametrize("skipped, unset", [
    ("swap_and_announce", {"decoded_by_alice", "decoded_by_bob"}),
    ("alice_encode", {"decoded_by_alice"}), ("bob_encode", {"decoded_by_bob"})])
def test_decode_leaves_unset_what_it_cannot_read(skipped, unset):
    # an entry no step has set (-1) must not wrap to triple 63's collection
    # or op 7: a side decodes to -1 where the announcement or its own op is
    # unset, so its string is None and its JSON field null
    s = Session(SessionConfig(2, seed=1, decoys=0), "010110", "101001")
    for step in ("prepare", "check1", "alice_encode", "check2", "check3", "bob_encode",
                 "swap_and_announce", "decode"):
        if step != skipped:
            getattr(s, step)()
    t, groups = s.transcript, json_groups(s.transcript)
    if skipped == "swap_and_announce":
        assert [g["announcement"] for g in groups] == [None, None]
    for field, bits in (("decoded_by_alice", t.alice_message_bits()),
                        ("decoded_by_bob", t.bob_message_bits())):
        decoded = [g[field] for g in groups]
        if field in unset:
            assert bits is None and decoded == [None, None], field
        else:
            assert bits == "".join(decoded), field


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
# One attack of each strategy, uniform where it draws a parameter, each
# on a target of its own: the boundary cases that also run at the
# production block.
PRODUCTION_ATTACKS = [None, AttackConfig("intercept_resend", target="S_C"),
                      AttackConfig("measure_resend", target="S_B"),
                      AttackConfig.entangling(0.25, target="S_A")]


def reference_transcript(cfg, alice, bob):
    return ReferenceSession(cfg, alice, bob).run().to_json()


class TestBlockBoundaries:
    """The batched session writes the transcript of the session run one
    register at a time (reference_session.py), for group and decoy counts
    on both sides of every block edge: at TEST_BLOCK, and for one attack of
    each strategy at the production _BLOCK. Threshold 0 aborts at the first
    check an attack disturbs; 0.99 lets most sessions run every step."""

    @staticmethod
    def aborts(attack, threshold, block):
        """Whether each session at the edges of block aborted."""
        aborted = set()
        sizes = boundary_sizes(block)
        for i, (n, decoys) in enumerate(zip(sizes, reversed(sizes))):
            cfg = SessionConfig(n_groups=n, seed=1000 * i + 7, decoys=decoys,
                                check_threshold=threshold, attack=attack)
            msg_rng = Rng(cfg.seed, stream=2)
            alice, bob = random_message_bits(n, msg_rng), random_message_bits(n, msg_rng)
            with session_block(block):
                got = run_session(cfg, alice, bob).to_json()
            assert got == reference_transcript(cfg, alice, bob), (n, decoys)
            aborted.add(json.loads(got)["abort"]["aborted"])
        return aborted

    @pytest.mark.parametrize("threshold", [0.0, 0.99])
    @pytest.mark.parametrize("attack", BOUNDARY_ATTACKS, ids=BOUNDARY_IDS)
    def test_batched_equals_per_register(self, attack, threshold):
        aborted = self.aborts(attack, threshold, TEST_BLOCK)
        # an attack is caught at threshold 0; at 0.99 sessions run to the end
        if attack is None:
            assert aborted == {False}
        else:
            assert (threshold == 0.0) in aborted

    @pytest.mark.parametrize("attack", PRODUCTION_ATTACKS,
                             ids=["none", "intercept_resend-S_C", "measure_resend-S_B",
                                  "entangle_measure-S_A"])
    def test_batched_equals_per_register_at_production_block(self, attack):
        assert False in self.aborts(attack, 0.99, _BLOCK)

    @pytest.mark.parametrize("attack", [None, AttackConfig("measure_resend", target="S_A")],
                             ids=["none", "measure_resend-S_A"])
    def test_forced_initial_label(self, attack):
        for n in boundary_sizes(TEST_BLOCK):
            cfg = SessionConfig(n_groups=n, seed=n, decoys=n, check_threshold=0.99,
                                attack=attack, initial_label=GhzLabel.PSI5)
            alice, bob = "011" * n, "110" * n
            with session_block():
                got = run_session(cfg, alice, bob).to_json()
            assert got == reference_transcript(cfg, alice, bob), n


class TestDifferential:
    """The batched session against the reference at sizes TestBlockBoundaries
    does not list, at TEST_BLOCK: an index slip in the interleaved triple
    blocks (2 * _BLOCK rows) or at bob_encode's odd/even split changes some
    group's transcript."""

    @pytest.mark.parametrize("strategy, target", STRATEGY_TARGETS)
    @given(n=st.integers(1, 2 * TEST_BLOCK + 3), decoys=st.integers(0, TEST_BLOCK + 1),
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
        with session_block():
            got = run_session(cfg, alice, bob).to_json()
        assert got == reference_transcript(cfg, alice, bob)


def measured(s):
    """The session's Branches of Eve's measurements, the decoy check's
    among them, the sample check and Bob's identification; the swap
    releases them."""
    return [*s.eve, s.samples, s.identify]


def derive_charts_and_swap_seed():
    """Derive the cached charts, the sample check's error table and the
    swap's seed."""
    run_session(quiet_cfg(1), "000", "000")
    checks.sample_errors()


class TestBobLabels:
    """Bob's rebuilt triple is never sent, so after bob_encode each even id
    is the transform-chart label of the label Bob found and his op: the
    sign his op may leave is not interned as a state of its own."""

    @pytest.mark.parametrize("strategy, target", STRATEGY_TARGETS)
    def test_even_id_is_chart_label(self, strategy, target):
        attack = AttackConfig.entangling(0.25, target=target) \
            if strategy == "entangle_measure" else AttackConfig(strategy, target=target)
        bob = "".join(f"{k:03b}" for k in range(8))  # group k takes op k
        for initial in GhzLabel:
            s = Session(quiet_cfg(8, seed=int(initial), check_threshold=0.99, attack=attack,
                                  initial_label=initial), "011" * 8, bob)
            for step in (s.prepare, s.check1, s.alice_encode, s.check2, s.check3, s.bob_encode):
                step()
            columns, even = s.transcript.columns, s.triples[:, 1]
            assert columns[protocol._B_OP].tolist() == list(range(8))
            assert even.tolist() == transform_chart()[columns[protocol._P_LABEL],
                                                      columns[protocol._B_OP]].tolist()
            assert even.max() <= 7
            assert np.array_equal(s.states.amps(even), ghz_rows()[even])
            if strategy == "none":
                assert (columns[protocol._P_LABEL] == initial).all()


def assert_seeded_entries_are_built(states, swap):
    """The entries a session starts with (Session.__init__ and the swap's
    seed) are the ones its kernels would build: op k on GHZ state p,
    interned in a fresh table, and the swap's tables of each pair of GHZ
    states, joined by merge."""
    fresh = StateTable()
    p, k = np.divmod(np.arange(len(GhzLabel) ** 2), len(GhzLabel))
    assert np.array_equal(states.memos["op"][:len(GhzLabel)].reshape(-1),
                          fresh.intern(protocol._encode(ghz_rows()[p], k)))
    assert np.array_equal(states.memos[swap][:len(GhzLabel)].reshape(-1), np.arange(len(p)))
    built = qcore.branch_thresholds(swap.tables(fresh, p, k))
    for got, want in zip(swap.thresholds, built, strict=True):
        assert np.array_equal(got[:len(p)], want)


# The swap pairs a session starts with: every pair of GHZ states.
GHZ_PAIRS = {(g1, g2) for g1 in range(len(GhzLabel)) for g2 in range(len(GhzLabel))}


class TestSwapTable:
    """The swap starts with the entries of the 64 pairs of GHZ states,
    expands each other distinct (odd id, even id) pair of a session once,
    and the pairs a session reaches stay few as N grows."""

    BOUND = 1024

    @pytest.mark.parametrize("attack", BOUNDARY_ATTACKS, ids=BOUNDARY_IDS)
    def test_each_pair_built_once_and_table_bounded(self, monkeypatch, attack, n=20 * _BLOCK):
        swap_chart()  # derive the swap's seed uncounted
        msg_rng = Rng(n, stream=2)
        s = Session(quiet_cfg(n, seed=11, attack=attack),
                    random_message_bits(n, msg_rng), random_message_bits(n, msg_rng))
        for step in (s.prepare, s.check1, s.alice_encode, s.check2, s.check3, s.bob_encode):
            step()
        distinct = set(zip(*s.triples.T.tolist()))  # (odd id, even id)
        states, table = s.states, s.swap  # the swap releases them
        joined = []
        real_merge = particles.merge

        def counting_merge(a, b):
            joined.append(len(a))
            return real_merge(a, b)

        monkeypatch.setattr(particles, "merge", counting_merge)
        s.swap_and_announce()
        assert '"announcement": null' not in s.transcript.to_json()
        memo = states.memos[table]
        assert memo.shape[1] == len(GhzLabel)
        assert sum(joined) == len(distinct - GHZ_PAIRS) == \
            len(table.thresholds[0]) - len(GHZ_PAIRS)
        assert set(zip(*np.nonzero(memo >= 0))) == distinct | GHZ_PAIRS
        assert len(distinct) <= self.BOUND
        assert_seeded_entries_are_built(states, table)

    def test_each_width_gets_its_own_bell_tables(self):
        # odd states of 3 qubits, then of 4 (a fake at qubit 2, the genuine
        # third particle at 3): each entry holds the Bell tables of its own
        # joint state, whose cross pairs are (r, w + r)
        # wide pairs are built after the 64 of GHZ states, entry 8 g1 + g2
        states = StateTable()
        table = Branches.swapping()
        even = np.array([GhzLabel.PSI1, GhzLabel.PSI2])  # GHZ label k is state k
        narrow = np.array([GhzLabel.PSI0, GhzLabel.PSI5])
        wide = states.intern(apply_attack(ghz_block(GhzLabel.PSI0, GhzLabel.PSI5), 2,
                                          AttackConfig("intercept_resend", fake_state="+"),
                                          DECOY_TOKENS.index("+")))

        def entries_of(odd):
            return table.lookup(states, odd, even).tolist()

        assert entries_of(narrow) == [1, 42]
        assert entries_of(wide) == [64, 65]
        assert entries_of(narrow) == [1, 42]
        for odd, entries in ((narrow, [1, 42]), (wide, [64, 65])):
            w = num_qubits(states.amps(odd))
            for row, entry in enumerate(entries):
                joint = np.kron(states.rows[odd[row]], states.rows[even[row]])
                expect = qcore.branch_rows(joint[None], MeasBasis.BELL,
                                           [(r, w + r) for r in range(3)])
                for got, want in zip(table.thresholds, qcore.branch_thresholds(expect),
                                     strict=True):
                    assert np.array_equal(got[entry], want[0])

    def test_new_pairs_fill_chunks_across_blocks(self, monkeypatch):
        # uniform intercept-resend on S_C spreads new pairs over the three
        # blocks of 2B + 3 groups: the swap joins them all _SWAP_CHUNK at a
        # time, before its first block, not a block's at a time
        n = 2 * _BLOCK + 3
        swap_chart()  # derive the swap's seed uncounted
        s = Session(quiet_cfg(n, seed=11, attack=AttackConfig("intercept_resend", target="S_C")),
                    "011" * n, "101" * n)
        for step in (s.prepare, s.check1, s.alice_encode, s.check2, s.check3, s.bob_encode):
            step()
        new = set(zip(*s.triples.T.tolist())) - GHZ_PAIRS
        joined = []
        real_merge = particles.merge

        def counting_merge(a, b):
            joined.append(len(a))
            return real_merge(a, b)

        monkeypatch.setattr(particles, "merge", counting_merge)
        s.swap_and_announce()
        full, last = divmod(len(new), protocol._SWAP_CHUNK)
        assert full >= 2
        assert joined == [protocol._SWAP_CHUNK] * full + ([last] if last else [])


class TestInterning:
    """A session starts its op memo and its swap from the charts and its
    measurement tables empty, runs each other distinct transition of its
    states, each entry of its measurement tables and each other swap pair
    through the dense kernels once, and its tables stay within a bound per
    strategy as N grows."""

    # (states, entries of the check, identification and Eve tables built,
    # swap pairs built) under uniform attack parameters, each the maximum
    # measured at 10**3 and 10**4 groups over the targets. A session
    # measures only the units Eve touched, and Eve measures only under
    # measure-resend, so a clean session builds no entry: these entry
    # bounds are the measured maxima, below the 28, 100, 68 and 32 measured
    # when a session measured every unit it reached. The 64 pairs of GHZ
    # states come from the swap's seed, derived once per process, and none
    # of them is built. States are interned up to sign, and Bob's triple is
    # its chart label.
    BOUNDS = {"none": (12, 0, 0), "intercept_resend": (60, 96, 256),
              "measure_resend": (28, 64, 128), "entangle_measure": (24, 24, 64)}
    # The memos (StateTable.memos) are int32 arrays of (id, second index),
    # regrown to twice the state count when a lookup meets an id beyond
    # them: each has at most 2 * len(states.rows) rows, so together they
    # take at most 4 * 2 * BOUNDS[strategy][0] bytes per column of their
    # summed width. How many states a session has met at each regrowth
    # depends on which units share a block, so their measured bytes move
    # with _BLOCK. The swap's memo is 8 wide, one column per GHZ label, and
    # the decoy check reads Eve's table of qubit 0, building no second table
    # of the same decoys.

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

        derive_charts_and_swap_seed()  # uncounted
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
        states, measurements, swap = s.states, measured(s), s.swap  # the swap releases them
        t = s.run()
        assert not t.aborted and t.bob_message_bits() is not None
        # a table that was never looked up has no entries
        assert all(not table.thresholds for table in measurements if table not in states.memos)
        measurements = [table for table in measurements if table in states.memos]
        known = {kind: int((memo >= 0).sum()) for kind, memo in states.memos.items()}
        # the entries the session started with: op k on each GHZ state, and
        # the swap's seed, the 64 pairs of GHZ states
        seeded = {"op": len(GHZ_PAIRS), swap: len(GHZ_PAIRS)}
        entries = sum(len(table.thresholds[0]) for table in measurements)
        assert entries == sum(known[table] for table in measurements)
        keys = [protocol._keys(row[None])[0] for row in states.rows]
        assert len(set(keys)) == len(states.rows)
        assert built["moves"] == sum(n - seeded.get(kind, 0) for kind, n in known.items()
                                     if not isinstance(kind, Branches))
        pairs = len(swap.thresholds[0]) - seeded[swap]
        assert built["entries"] == entries + pairs
        assert built["pairs"] == pairs == known[swap] - seeded[swap]
        bounds = self.BOUNDS[strategy]
        assert len(states.rows) <= bounds[0] and entries <= bounds[1]
        assert built["pairs"] <= bounds[2]
        memos = states.memos.values()
        assert all(memo.dtype == np.int32 and len(memo) <= 2 * len(states.rows) for memo in memos)
        assert sum(memo.nbytes for memo in memos) <= \
            4 * 2 * bounds[0] * sum(memo.shape[1] for memo in memos)
        # a pair is joined only when its odd state is not a GHZ state
        assert max(widths, default=None) == \
            (None if strategy == "none" else TestWidth.WIDEST[strategy])
        assert_seeded_entries_are_built(states, swap)


@functools.lru_cache(maxsize=None)
def reached_states() -> tuple[np.ndarray, ...]:
    """Every state that a session of 64 groups and 64 decoys per check
    reaches before its swap, under each STRATEGY_TARGETS pair."""
    rows = []
    for strategy, target in STRATEGY_TARGETS:
        attack = AttackConfig.entangling(0.25, target=target) \
            if strategy == "entangle_measure" else AttackConfig(strategy, target=target)
        s = Session(SessionConfig(64, seed=5, decoys=64, check_threshold=0.99, attack=attack),
                    "011" * 64, "101" * 64)
        for step in (s.prepare, s.check1, s.alice_encode, s.check2, s.check3, s.bob_encode):
            step()
        rows += s.states.rows
    return tuple(rows)


def folded(amps):
    """The bytes of amps' float pairs, -0.0 folded into 0.0."""
    return (amps.view(np.float64) + 0.0).tobytes()


def born_tables(x):
    """(name, branch_rows tables) of every measurement a session may run on
    the one-row state x: Eve's and the decoy check's of each qubit in both
    bases, and for a triple the sample check, Bob's identification and the
    swap with each GHZ state."""
    n = num_qubits(x)
    both = np.array([0, 1])
    out = [(f"qubit {q}", qcore.branch_rows(x[[0, 0]], CHECK_BASES, ((q,),), which=both))
           for q in range(n)]
    if n >= 3:
        out.append(("sample", qcore.branch_rows(x[[0, 0]], CHECK_BASES, ((2,), (0,), (1,)),
                                                which=both)))
        out.append(("identify", qcore.branch_rows(x, MeasBasis.GHZ, ((0, 1, 2),))))
        out.append(("swap", qcore.branch_rows(merge(x[[0] * 8], ghz_rows()), MeasBasis.BELL,
                                              [(r, n + r) for r in range(3)])))
    return out


def row_kernels(x):
    """(name, f) of every row kernel a session may run on the one-row state
    x: each composite op, each attack on each qubit with each of Eve's
    choices of nonzero probability, a join with each GHZ state and each
    collapse of one qubit onto an outcome of nonzero probability."""
    n = num_qubits(x)
    out = [(f"op {k}", lambda a, k=k: protocol._encode(a, np.array([k]))) for k in range(8)] \
        if n >= 2 else []
    out.append(("merge", lambda a: merge(a[[0] * 8], ghz_rows())))
    for q in range(n):
        (table,) = qcore.branch_rows(x[[0, 0]], CHECK_BASES, ((q,),), which=np.array([0, 1]))
        live = list(zip(*np.nonzero(table[:, 0] > qcore.ZERO_TOL)))  # (basis, outcome)
        out += [(f"collapse {q} {w} {j}", lambda a, q=q, w=w, j=j: qcore.collapse_rows(
            a, CHECK_BASES, [(q,)], [np.array([j])], which=np.array([w]))) for w, j in live]
        out += [(f"measure_resend {q} {2 * w + j}", lambda a, q=q, c=2 * w + j: apply_attack(
            a, q, AttackConfig("measure_resend"), c)) for w, j in live]
        out += [(f"intercept {q} {c}", lambda a, q=q, c=c: apply_attack(
            a, q, AttackConfig("intercept_resend"), c)) for c in range(len(DECOY_TOKENS))]
        out.append((f"entangle {q}", lambda a, q=q: apply_attack(
            a, q, AttackConfig.entangling(0.25), 0)))
    return out


class TestSignBlindInterning:
    """A session interns a state and its negative as one (StateTable): no
    table or move can tell them apart, and i times a state stays apart."""

    @given(data=st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_negation_is_exact(self, data):
        x = data.draw(st.sampled_from(reached_states()))[None]
        for (name, tables), (_, negated) in zip(born_tables(x), born_tables(-x), strict=True):
            for got, want in zip(negated, tables, strict=True):
                assert got.tobytes() == want.tobytes(), name
            for got, want in zip(qcore.branch_thresholds(negated),
                                 qcore.branch_thresholds(tables), strict=True):
                assert got.tobytes() == want.tobytes(), name
        for name, kernel in row_kernels(x):
            assert folded(kernel(-x)) == folded(-kernel(x)), name
        assert protocol._keys(-x) == protocol._keys(x)
        assert protocol._keys(1j * x) != protocol._keys(x)
        assert protocol._keys(-1j * x) != protocol._keys(x)


class TestSeededEntries:
    """The entries a session starts from the charts are built ones."""

    def test_op_on_a_ghz_state_interns_to_its_chart_label(self):
        for p in GhzLabel:
            for k in CompositeOp:
                states = StateTable()
                (got,) = states.intern(protocol._encode(ghz_rows()[[p]], np.array([k])))
                assert got == transform_chart()[p, k]
                assert len(states.rows) == 12

    def test_ghz_pair_entries_are_built_ones(self):
        # the swap's kernel path, over all 64 pairs at once and one at a
        # time, against one Born expansion of the 64 joint states
        states = StateTable()
        swap = Branches.swapping()
        g1, g2 = np.divmod(np.arange(64), 8)
        expanded = qcore.branch_rows(qcore.tensor_rows(ghz_rows()[g1], ghz_rows()[g2]),
                                     MeasBasis.BELL, [(r, 3 + r) for r in range(3)])
        for rows in [np.arange(64), *np.arange(64)[:, None]]:
            tables = swap.tables(states, g1[rows], g2[rows])
            for got, want in zip(tables, expanded, strict=True):
                assert np.array_equal(got, want[rows])
            built = qcore.branch_thresholds(tables)
            for got, want in zip(built, ghz_swap_tables(), strict=True):
                assert np.array_equal(got, want[rows])
        assert swap.lookup(states, g1, g2).tolist() == list(range(64))
        assert len(swap.thresholds[0]) == 64


class TestSeedTables:
    """Only the swap starts from a seed (swap.ghz_swap_tables), derived once
    per process from the tables the swap chart is read off. Each
    measurement table starts empty, and a clean session looks none of them
    up: it checks no sequence and reads Bob's labels off the triples."""

    @pytest.mark.parametrize("decoys", [0, 16])
    @pytest.mark.parametrize("n", [1, 600, 1100])
    def test_clean_session_runs_no_dense_kernel(self, monkeypatch, n, decoys):
        derive_charts_and_swap_seed()

        def refuse(*args, **kwargs):
            raise AssertionError("a clean session ran a dense kernel")

        for name in ("branch_rows", "apply_unitary_rows", "tensor_rows", "collapse_rows"):
            monkeypatch.setattr(qcore, name, refuse)
        t = run_session(quiet_cfg(n, seed=n, decoys=decoys), "011" * n, "101" * n)
        assert not t.aborted and t.bob_message_bits() == "011" * n

    def test_only_the_swap_starts_seeded(self):
        # the swap's seed is read-only, and its first lookup maps pair
        # (g1, g2) to entry 8 g1 + g2
        s = Session(quiet_cfg(1), "000", "000")
        for table in measured(s):
            assert table.seed is None and not table.thresholds
        assert s.swap.seed is ghz_swap_tables
        assert not any(a.flags.writeable for a in s.swap.seed())
        s.swap.lookup(s.states, np.array([0]), 0)
        memo = s.states.memos[s.swap][:len(GhzLabel)]
        assert np.array_equal(memo, np.arange(len(GHZ_PAIRS)).reshape(len(GhzLabel), -1))

    def test_clean_session_derives_only_the_swap_seed(self, monkeypatch):
        derived = []
        real_seed = protocol.ghz_swap_tables

        def recording():
            derived.append(True)
            return real_seed()

        monkeypatch.setattr(protocol, "ghz_swap_tables", recording)
        s = Session(SessionConfig(1000, seed=3), "011" * 1000, "101" * 1000)
        states, measurements = s.states, measured(s)  # the swap releases them
        t = s.run()
        assert not t.aborted and [c.samples for c in t.checks] == [1000] * 3
        assert derived == [True]
        assert not any(table in states.memos for table in measurements)


class TestStepMemory:
    def test_swap_buffers_do_not_grow_with_groups(self, monkeypatch):
        # transient peak of the swap (peak minus the heap before it) at 16B
        # groups against B: it writes its Bell indices into columns that
        # prepare allocated, and its block buffers must not grow at all; one
        # block of all 16B groups grows them by about 810 KB (at B = 512)
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
        # interpreter's free lists keep a few KB of freed floats and tuples
        # (2.3 KB measured) that tracemalloc counts as held; a full
        # collection empties them, and about 1.1 KB remains.
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
        # of them as at one. One block of all 8B of them raises it by 430-450
        # KB (at B = 512); the few hundred bytes that remain are the
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
        g = json_groups(t)[0]
        assert g["b_op"] is None and g["announcement"] is None

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
        # a session starts the swap of each pair of GHZ states from their
        # tables (ghz_swap_tables), derived once as its seed:
        # derive them again here
        monkeypatch.setattr(protocol, "ghz_swap_tables", ghz_swap_tables.__wrapped__)
        attack = AttackConfig.entangling(0.25, target=target) \
            if strategy == "entangle_measure" else AttackConfig(strategy, target=target)
        cfg = SessionConfig(n_groups=2, seed=3, check_threshold=0.99, attack=attack)
        t = run_session(cfg, "010110", "101001")
        assert json_groups(t)[-1]["announcement"] is not None
        assert kernels, "no row kernel input or result was recorded"
        assert bool(measured) == (strategy == "measure_resend"), "collapses recorded"
        assert branched, "no branch expansion was recorded"
        assert max(widths + kernels) == self.WIDEST[strategy]
