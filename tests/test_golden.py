"""Golden transcripts: a sweep of sessions over every attack strategy and
target, fixed and uniform attack parameters, three decoy counts and two
abort thresholds, hashed together. The hash pins the exact random-draw
order and every measured outcome, so a refactor of the session engine
that changes any transcript byte fails here.

A deliberate format change bumps the transcript version and records the
new hash in CHANGES.md.
"""

import hashlib

from bqsdc.adversary import AttackConfig
from bqsdc.protocol import SessionConfig, random_message_bits, run_session
from bqsdc.qcore import Rng

GOLDEN_SHA256 = "ca6f4da0bf1f39e74414df3eecbf205f73e7cfa35a6ba8459999e5038978e7d0"

N_GROUPS = 3


def sweep_attacks():
    yield None
    for target in ("S_C", "S_B", "S_A"):
        yield AttackConfig("none", target=target)
        yield AttackConfig("intercept_resend", target=target)
        yield AttackConfig("intercept_resend", target=target, fake_state="+")
        yield AttackConfig("measure_resend", target=target)
        yield AttackConfig("measure_resend", target=target, eve_basis="X")
        yield AttackConfig.entangling(0.25, target=target)


def sweep_transcripts():
    for seed in (0, 1):
        for attack in sweep_attacks():
            for decoys in (0, 3, None):
                for threshold in (0.0, 0.9):
                    cfg = SessionConfig(n_groups=N_GROUPS, seed=seed, decoys_step1=decoys,
                                        decoys_step3=decoys, decoys_step5=decoys,
                                        check_threshold=threshold, attack=attack)
                    msg_rng = Rng(seed, stream=2)
                    alice = random_message_bits(N_GROUPS, msg_rng)
                    bob = random_message_bits(N_GROUPS, msg_rng)
                    yield run_session(cfg, alice, bob).to_json()


def test_golden_transcripts():
    digest = hashlib.sha256("".join(sweep_transcripts()).encode()).hexdigest()
    assert digest == GOLDEN_SHA256
