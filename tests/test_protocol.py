import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import equal_up_to_global_phase
from reference_session import ReferenceSession, alice_decode, bob_decode

from bqsdc import qcore
from bqsdc.adversary import AttackConfig
from bqsdc.checks import consistent_ghz_outcomes
from bqsdc.codebook import CompositeOp, ghz_state, transform_label
from bqsdc.labels import CollectionLabel, GhzLabel
from bqsdc.particles import (Register, append_ancilla, measure_in_bases, measure_particles,
                             merge)
from bqsdc.protocol import (_BLOCK, Session, SessionConfig, _decoded, _invert_announcements,
                            default_decoy_count, message_ops, random_message_bits,
                            run_session)
from bqsdc.qcore import MeasBasis, Rng, StateVector, StreamBlock, make_basis_state
from bqsdc.swap import collection_members, collection_table


def quiet_cfg(n, seed=0, **kw):
    kw.setdefault("decoys", 0)
    return SessionConfig(n_groups=n, seed=seed, **kw)


class TestRegister:
    def test_merge_puts_b_roles_after_a(self):
        a = Register(ghz_state(GhzLabel.PSI0))
        b = Register(ghz_state(GhzLabel.PSI1))
        b.at[2] = append_ancilla([b], make_basis_state("0").amps)
        joint = merge(a, b)
        assert joint.state.num_qubits == 7
        assert joint.at == [0, 1, 2, 3, 4, 6]
        assert a.state.num_qubits == 3  # the inputs are left as they were

    def test_measurement_collapses_in_place(self):
        a = Register(ghz_state(GhzLabel.PSI0))
        outs = [measure_particles(MeasBasis.Z, [a], [(role,)], [np.array([Rng(seed).random()])],
                                  keep=True)[0][0]
                for role, seed in ((0, 1), (1, 2), (2, 3))]
        # remaining particles are perfectly correlated with the outcome
        assert outs[0] == outs[1] == outs[2]

    def test_rounds_collapse_and_keep(self):
        # three Z rounds on GHZ triples agree within each register; without
        # keep the registers are left as they were
        regs = [Register(ghz_state(GhzLabel.PSI0)) for _ in range(5)]
        before = [reg.state for reg in regs]
        draws = [np.array([Rng(seed, stream=k).random() for seed in range(5)]) for k in range(3)]
        a, b, c = measure_particles(MeasBasis.Z, regs, [(0,), (1,), (2,)], draws)
        assert (a == b).all() and (b == c).all() and 0 < a.sum() < 5
        assert [reg.state for reg in regs] == before

    def test_basis_per_register(self):
        # |0> in Z and |+> in X are certain; each register gets its own basis
        regs = [Register(make_basis_state("0")), Register(qcore.StateVector([2 ** -0.5] * 2))]
        which = np.array([0, 1])
        out, = measure_in_bases((MeasBasis.Z, MeasBasis.X), which, regs, [(0,)],
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

    def test_message_validation(self):
        for bits in ("0101", "01x", "01/", "01\u00e9", "0 1"):
            with pytest.raises(ValueError):
                message_ops(bits, 1)
        assert message_ops("010101", 2) == [CompositeOp.U2, CompositeOp.U5]
        for op in CompositeOp:
            assert message_ops("".join(map(str, op.bits)) * 2, 2) == [op, op]


class TestPrepare:
    def test_minimal_session_shape(self):
        s = Session(quiet_cfg(1, seed=4), "000", "000")
        s.prepare()
        assert len(s.triples) == 2 and s.samples == []
        # both triples of the group carry the same prepared label
        from bqsdc.codebook import classify_ghz
        odd = classify_ghz(s.triples[0].state)
        even = classify_ghz(s.triples[1].state)
        assert odd[0] == even[0] == s.transcript.groups[0].prepared_label

    def test_sample_insertion_and_alignment(self):
        cfg = SessionConfig(n_groups=4, seed=9, decoys=2)
        s = Session(cfg, "0" * 12, "0" * 12)
        s.prepare()
        assert len(s.triples) == 8 and len(s.samples) == 2
        # each sample is one GHZ triple in the state of its label
        for label, reg in s.samples:
            assert reg.at == [0, 1, 2]
            assert equal_up_to_global_phase(reg.state, ghz_state(label))

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
        assert equal_up_to_global_phase(s.triples[0].state, expect)

    def test_identity_op_leaves_label(self):
        # U0 keeps every label fixed, though not always with phase +1: on
        # PSI3 the two sign flips hit different kets and contribute -1
        s = Session(quiet_cfg(1, seed=8, initial_label=GhzLabel.PSI3), "000", "000")
        s.prepare()
        s.check1()
        s.alice_encode()
        out = s.triples[0].state
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
        assert equal_up_to_global_phase(s.triples[0].state, expect)

    def test_decoy_states_drawn_uniformly(self):
        cfg = SessionConfig(n_groups=1, seed=14, decoys=400)
        s = Session(cfg, "010", "101")
        s.prepare()
        s.check1()
        s.alice_encode()
        s.check2()
        s.check3()
        counts = {tok: 0 for tok in "01+-"}
        for name in ("S_B", "S_A"):
            for token, _ in s.decoys[name]:
                counts[token] += 1
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
        even_state = s.triples[1].state
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
        alice, bob = _decoded()
        assert alice[CompositeOp.U2][CollectionLabel.C7] == "101"
        assert bob[CompositeOp.U5][CollectionLabel.C7] == "010"

    def test_chart_level_roundtrip_all_512(self):
        # the session's table and chart composition from the label agree
        alice, bob = _decoded()
        for p in GhzLabel:
            for a in CompositeOp:
                for b in CompositeOp:
                    m = collection_table(transform_label(p, a), transform_label(p, b))
                    assert alice_decode(p, a, m) == b.bits
                    assert bob_decode(p, b, m) == a.bits
                    assert alice[a][m] == "".join(map(str, b.bits))
                    assert bob[b][m] == "".join(map(str, a.bits))

    def test_table_rejects_an_undecodable_chart(self):
        # a collection repeated along a row leaves Alice two candidates for
        # Bob's operation, and down a column Bob two for Alice's; the
        # builder must refuse either rather than pick one
        def xor_chart():
            return [[CollectionLabel(a ^ b) for b in range(8)] for a in range(8)]

        assert _invert_announcements(xor_chart()) == _decoded()
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
                    records.append([g.to_json_dict() for g in t.groups[:n]])
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


class TestStepMemory:
    def test_swap_buffers_do_not_grow_with_groups(self, monkeypatch):
        # transient peak of the swap (peak minus the heap before it) at 4B
        # groups against B: the records it fills take some 30 bytes a group,
        # its block buffers must not grow at all; one block of all 4B groups
        # grows them by about 1 MB
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
        growth = transient(4 * _BLOCK) - transient(_BLOCK)
        assert growth <= 8 * 1024
        monkeypatch.setattr("bqsdc.protocol._BLOCK", 4 * _BLOCK)
        assert transient(4 * _BLOCK) - transient(_BLOCK) > 100 * 1024 + growth


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
        # every state counts: the checked constructions and the results of
        # unitaries and collapses, which skip the checks
        widths = []
        unchecked = []
        post_init = StateVector.__post_init__
        unchecked_state = qcore._unchecked_state

        def record(self):
            post_init(self)
            widths.append(self.num_qubits)

        def record_unchecked(amps):
            s = unchecked_state(amps)
            unchecked.append(s.num_qubits)
            return s

        monkeypatch.setattr(StateVector, "__post_init__", record)
        monkeypatch.setattr(qcore, "_unchecked_state", record_unchecked)
        attack = AttackConfig.entangling(0.25, target=target) \
            if strategy == "entangle_measure" else AttackConfig(strategy, target=target)
        cfg = SessionConfig(n_groups=2, seed=3, check_threshold=0.99, attack=attack)
        t = run_session(cfg, "010110", "101001")
        assert t.groups[-1].announcement is not None
        assert unchecked, "no unitary or collapse result was recorded"
        assert max(widths + unchecked) == self.WIDEST[strategy]
