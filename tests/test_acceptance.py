"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with -s to see the lines for passing criteria as well).

Criterion 5 checks each Monte Carlo detection rate against its hand-derived
Born value and pins the advertised chart through `claimed_value`. Three
advertised figures (fake |+>/|-> under a Z check at 0.75, X-basis
measure-resend over a uniform check at 0.375) treat the three sample
outcomes as independent uniform bits, 1 - 2/8 = 0.75. The Born rule says
otherwise:
  - an action on C alone leaves Alice's pair A,B exactly Z-correlated;
  - so a fake |+>/|-> under a Z check is caught only when Bob's uniform Z
    outcome disagrees with that pair: 1/2;
  - measure-resend in X leaves the X check undisturbed (0) and is caught by
    the Z check with 1/2, so 1/4 over a uniform check basis.
"""

import pytest
from helpers import json_groups

from bqsdc import analysis, cli
from bqsdc.adversary import AttackConfig, CheckTemplate, estimate_detection
from bqsdc.codebook import CompositeOp, verify_transform_table
from bqsdc.labels import CollectionLabel, GhzLabel
from bqsdc.protocol import SessionConfig, run_session
from bqsdc.swap import (REFERENCE_COLLECTIONS, collection_members,
                        verify_swap_table)

TRIALS = 100_000


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())


def test_criterion_1_transform_chart():
    rep = verify_transform_table()
    ok = (rep["mismatches"] == 0
          and len(rep["entries"]) == 64
          and all(e["phase"] in (1.0, -1.0) for e in rep["entries"]))
    report("1 transform-chart 64/64 up to sign", ok)
    assert ok


def test_criterion_2_swap_collections():
    rep = verify_swap_table()
    fixtures_ok = all(
        collection_members(CollectionLabel(m)) == REFERENCE_COLLECTIONS[m]
        for m in range(8))
    ok = (rep["mismatches"] == 0 and rep["partition_ok"]
          and rep["max_prob_deviation"] <= 1e-9 and fixtures_ok)
    report("2 swap-collections 64/64, partition, probs 1/8", ok)
    assert ok


def test_criterion_3_worked_example():
    cfg = SessionConfig(n_groups=1, seed=7, initial_label=GhzLabel.PSI0)
    t = run_session(cfg, "010", "101")
    ok = (json_groups(t)[0]["announcement"] == CollectionLabel.C7.token
          and t.alice_message_bits() == "101"
          and t.bob_message_bits() == "010")
    report("3 worked example announces c7, decodes 101/010", ok)
    assert ok


def test_criterion_4_exhaustive_roundtrip_and_capacity():
    failures = 0
    for p in GhzLabel:
        for a in CompositeOp:
            for b in CompositeOp:
                cfg = SessionConfig(n_groups=1, seed=29, initial_label=p, decoys=0)
                t = run_session(cfg, "".join(map(str, a.bits)), "".join(map(str, b.bits)))
                by_alice, by_bob = t.alice_message_bits(), t.bob_message_bits()
                if by_bob != "".join(map(str, a.bits)):
                    failures += 1
                if by_alice != "".join(map(str, b.bits)):
                    failures += 1
                if len(by_alice) + len(by_bob) != 6:
                    failures += 1
    ok = failures == 0
    report("4 exhaustive 512-case roundtrip, 6 bits per group", ok,
           f"({failures} failures)")
    assert ok


# (case id, attack, template, advertised value, Born value)
ATTACK_CASES = [
    ("ir-fake0-Z", AttackConfig("intercept_resend", "S_C", fake_state="0"),
     CheckTemplate(bob_basis="Z"), 0.50, 0.50),
    ("ir-fake0-X", AttackConfig("intercept_resend", "S_C", fake_state="0"),
     CheckTemplate(bob_basis="X"), 0.50, 0.50),
    ("ir-fake1-Z", AttackConfig("intercept_resend", "S_C", fake_state="1"),
     CheckTemplate(bob_basis="Z"), 0.50, 0.50),
    ("ir-fake1-X", AttackConfig("intercept_resend", "S_C", fake_state="1"),
     CheckTemplate(bob_basis="X"), 0.50, 0.50),
    ("ir-fake+-Z", AttackConfig("intercept_resend", "S_C", fake_state="+"),
     CheckTemplate(bob_basis="Z"), 0.75, 0.50),
    ("ir-fake+-X", AttackConfig("intercept_resend", "S_C", fake_state="+"),
     CheckTemplate(bob_basis="X"), 0.50, 0.50),
    ("ir-fake--Z", AttackConfig("intercept_resend", "S_C", fake_state="-"),
     CheckTemplate(bob_basis="Z"), 0.75, 0.50),
    ("ir-fake--X", AttackConfig("intercept_resend", "S_C", fake_state="-"),
     CheckTemplate(bob_basis="X"), 0.50, 0.50),
    ("mr-Z-total", AttackConfig("measure_resend", "S_C", eve_basis="Z"),
     CheckTemplate(), 0.25, 0.25),
    ("mr-X-total", AttackConfig("measure_resend", "S_C", eve_basis="X"),
     CheckTemplate(), 0.375, 0.25),
    ("bb84-ir", AttackConfig("intercept_resend", "S_B"), CheckTemplate(), 0.50, 0.50),
    ("bb84-mr", AttackConfig("measure_resend", "S_B"), CheckTemplate(), 0.25, 0.25),
    ("em-b2=0.1", AttackConfig.entangling(0.1, target="S_A"),
     CheckTemplate(decoy_basis="Z"), 0.10, 0.10),
    ("em-b2=0.25", AttackConfig.entangling(0.25, target="S_A"),
     CheckTemplate(decoy_basis="Z"), 0.25, 0.25),
    ("em-b2=0.5", AttackConfig.entangling(0.5, target="S_A"),
     CheckTemplate(decoy_basis="Z"), 0.50, 0.50),
]


@pytest.mark.parametrize("case_id,attack,template,advertised,born",
                         ATTACK_CASES, ids=[c[0] for c in ATTACK_CASES])
def test_criterion_5_attack_statistics(case_id, attack, template, advertised, born):
    est = estimate_detection(attack, template, trials=TRIALS, seed=101)
    ok = (abs(est.rate - born) <= 0.01 and est.exact_value == born
          and est.claimed_value == advertised)
    report(f"5 attack {case_id}", ok,
           f"(rate {est.rate:.4f} vs born {born:.4f}, advertised {advertised:.4f})")
    assert ok, (f"{case_id}: measured {est.rate:.4f}, born {born:.4f}, "
                f"exact_value {est.exact_value!r}, advertised {advertised:.4f}, "
                f"claimed_value {est.claimed_value!r}")


def test_criterion_6_analysis_figures():
    rep = analysis.leakage_report()
    eff = analysis.cabello_efficiency(6, 6, 3)
    rows = analysis.comparison_report()
    by_id = {r.protocol: r for r in rows}
    tuples_ok = (
        all((by_id[k].bits_per_round, by_id[k].leaked_bits) == (4, 2)
            for k in ("zhang2004a", "zhang2004b", "nguyen2004", "man2005",
                      "chen2007", "shan2009", "ye2013b"))
        and all((by_id[k].bits_per_round, by_id[k].leaked_bits) == (4, 3)
                for k in ("jin2006", "man2006a", "man2006b", "ye2013a"))
        and (by_id["man2007"].bits_per_round, by_id["man2007"].leaked_bits) == (3, 2)
        and all((by_id[k].bits_per_round, by_id[k].leaked_bits) == (2, 1)
                for k in ("ji2006", "yang2007"))
        and all((by_id[k].bits_per_round, by_id[k].leaked_bits,
                 round(by_id[k].efficiency, 4)) == (4, 0, 0.6667)
                for k in ("shi2009", "gao2010"))
        and (by_id["shi2010a"].bits_per_round, by_id["shi2010a"].leaked_bits,
             round(by_id["shi2010a"].efficiency, 4)) == (2, 0, 0.6667)
        and (by_id["shi2010b"].bits_per_round, by_id["shi2010b"].leaked_bits,
             round(by_id["shi2010b"].efficiency, 4)) == (3, 0, 0.75)
        and (by_id["this_work"].bits_per_round, by_id["this_work"].leaked_bits,
             round(by_id["this_work"].efficiency, 4)) == (6, 0, 0.6667)
    )
    ok = (rep["computed"]["entropy_bits"] == 6.0
          and f"{eff:.1%}" == "66.7%"
          and tuples_ok)
    report("6 analysis figures (entropy 6.0, eff 66.7%, comparison)", ok)
    assert ok


def test_criterion_7_leakage_oracle_consistency():
    rep = analysis.leakage_report()
    c = rep["computed"]
    identity_ok = abs(c["entropy_bits"] - c["conditional_entropy_bits"]
                      - c["mutual_information_bits"]) < 1e-12
    exhaustive = c["conditional_entropy_bits"]
    mc_ok, flags = True, []
    for seed in (5, 17):
        mc = analysis.leakage_monte_carlo(n_groups=10_000, seed=seed)
        empirical = mc["empirical_conditional_entropy_bits"]
        mc_ok &= abs(empirical - exhaustive) <= 0.02 * exhaustive
        mc_ok &= all(abs(f - 0.125) <= 0.02
                     for f in mc["announcement_frequencies"].values())
        # empirical evidence of nonzero leakage, per seed
        flags.append(c["entropy_bits"] - empirical > 0.5)
    stable_flag = len(set(flags)) == 1 and flags[0] == rep["discrepancy"]
    ok = identity_ok and mc_ok and stable_flag
    report("7 leakage oracle vs monte carlo (2%), identity 1e-12, stable flag", ok)
    assert ok


def test_criterion_8_command_determinism(tmp_path):
    def run_twice(argv_template):
        outs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{'_'.join(argv_template[:1])}_{tag}.json"
            argv = [arg.format(out=str(path)) for arg in argv_template]
            assert cli.main(argv) == 0
            outs.append(path.read_bytes())
        return outs[0] == outs[1]

    ok = (run_twice(["run", "--N", "2", "--random-messages", "--seed", "31",
                     "--out", "{out}"])
          and run_twice(["attack", "--strategy", "intercept-resend", "--target",
                         "S_B", "--trials", "3000", "--seed", "31", "--out", "{out}"])
          and run_twice(["analyze", "--seed", "31", "--monte-carlo", "400",
                         "--out", "{out}"])
          and run_twice(["verify", "--out", "{out}"]))
    report("8 byte-identical outputs under a fixed seed", ok)
    assert ok
