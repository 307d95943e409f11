"""Information-theoretic evaluation of the protocol.

What an outside observer learns from the public announcement is computed
two ways and reported side by side with the advertised figures: the
advertised numbers are labelled as claimed, the enumeration results as
computed, and a discrepancy flag is raised when they differ. The module
takes no side on which reading is intended.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Hashable, Mapping

from .codebook import CompositeOp
from .labels import CollectionLabel
from .protocol import _A_OP, _B_OP, _BELL, SessionConfig, random_message_bits, run_session
from .qcore import Rng
from .swap import announcement, swap_chart

OpPair = tuple[CompositeOp, CompositeOp]

CLAIMED_EVE_ENTROPY_BITS = 6.0
CLAIMED_LEAKAGE_BITS = 0.0

_DIST_TOL = 1e-9


def uniform_op_pair_prior() -> dict[OpPair, float]:
    """Uniform prior over the 64 operation pairs (1/64 each)."""
    return {(a, b): 1.0 / 64.0 for a in CompositeOp for b in CompositeOp}


def _validate_distribution(dist: Mapping[Hashable, float]) -> None:
    # written so that NaN, which fails every comparison, fails both checks
    if not all(p >= 0 for p in dist.values()):
        raise ValueError("probabilities must be nonnegative")
    if not abs(sum(dist.values()) - 1.0) <= _DIST_TOL:
        raise ValueError("probabilities must sum to 1")


def shannon_entropy(dist: Mapping[Hashable, float]) -> float:
    """Entropy in bits, with 0 log 0 = 0."""
    _validate_distribution(dist)
    return -sum(p * math.log2(p) for p in dist.values() if p > 0.0)


def _entropy_given_announcement(weights: Mapping[tuple[CollectionLabel, OpPair], float]) -> float:
    """H(operation pair | announcement) from joint weights w(m, pair), read
    as probabilities once divided by their total: the sum over m of
    w_m / total times the entropy of the pairs within m."""
    total = sum(weights.values())
    buckets: dict[CollectionLabel, dict[OpPair, float]] = {}
    for (m, pair), w in weights.items():
        buckets.setdefault(m, {})[pair] = w
    h_cond = 0.0
    for bucket in buckets.values():
        w_m = sum(bucket.values())
        h_cond += (w_m / total) * shannon_entropy({k: v / w_m for k, v in bucket.items()})
    return h_cond


def conditional_entropy_given_announcement(prior: Mapping[OpPair, float]) -> float:
    """H(operation pair | announced collection), by exhaustive enumeration.

    The announcement for each pair comes from swap.announcement, the same
    chart the session decodes with; it is one collection for every prepared
    state, so the unknown initial state adds nothing to enumerate.
    """
    _validate_distribution(prior)
    return _entropy_given_announcement(
        {(announcement(*pair), pair): p for pair, p in prior.items() if p != 0.0})


def leakage_report(prior: Mapping[OpPair, float] | None = None) -> dict:
    """Unconditional entropy, announcement-conditioned entropy, and their
    difference, next to the claimed figures. No correctness ruling."""
    if prior is None:
        prior = uniform_op_pair_prior()
    h = shannon_entropy(prior)
    h_cond = conditional_entropy_given_announcement(prior)
    mutual = h - h_cond
    return {
        "computed": {
            "entropy_bits": h,
            "conditional_entropy_bits": h_cond,
            "mutual_information_bits": mutual,
        },
        "claimed": {
            "entropy_bits": CLAIMED_EVE_ENTROPY_BITS,
            "leaked_bits": CLAIMED_LEAKAGE_BITS,
        },
        "discrepancy": abs(mutual - CLAIMED_LEAKAGE_BITS) > 1e-9,
    }


def leakage_monte_carlo(n_groups: int = 10_000, seed: int = 0) -> dict:
    """Empirical announcement-conditioned entropy from full protocol groups.

    Runs one session of n_groups with random messages and no decoys,
    tabulates (announcement, operation pair) frequencies off its columns,
    and compares the plug-in conditional entropy with the exhaustive one.
    """
    rng = Rng(seed, stream=1)
    alice_bits = random_message_bits(n_groups, rng)
    bob_bits = random_message_bits(n_groups, rng)
    cfg = SessionConfig(n_groups=n_groups, seed=seed, decoys=0)
    transcript = run_session(cfg, alice_bits, bob_bits)
    announced = list(map(CollectionLabel, swap_chart()[1][transcript.columns[_BELL]].tolist()))
    # counted in order of first occurrence, the order in which the entropy sums
    ops = zip(*(map(CompositeOp, transcript.columns[row].tolist()) for row in (_A_OP, _B_OP)))
    h_cond = _entropy_given_announcement(Counter(zip(announced, ops)))
    m_counts = Counter(announced)
    exhaustive = conditional_entropy_given_announcement(uniform_op_pair_prior())
    return {
        "groups": n_groups,
        "seed": seed,
        "empirical_conditional_entropy_bits": h_cond,
        "exhaustive_conditional_entropy_bits": exhaustive,
        "abs_difference": abs(h_cond - exhaustive),
        "announcement_frequencies": {
            m.token: m_counts[m] / n_groups for m in CollectionLabel
        },
    }


def cabello_efficiency(secret_bits: float, qubits_used: float, classical_bits: float) -> float:
    """Information-theoretic efficiency: secret bits over qubits plus
    classical bits consumed."""
    if secret_bits < 0 or qubits_used < 0 or classical_bits < 0:
        raise ValueError("arguments must be nonnegative")
    denom = qubits_used + classical_bits
    if denom <= 0:
        raise ValueError("qubits plus classical bits must be positive")
    return secret_bits / denom


def capacity_report() -> dict:
    """Per-round accounting: six secret bits over six qubits plus three
    classical bits, within the one-bit-per-qubit bound."""
    bits, qubits, classical = 6, 6, 3
    return {
        "bits_per_round": bits,
        "qubits_per_round": qubits,
        "classical_bits_per_round": classical,
        "bits_per_qubit": bits / qubits,
        "within_holevo_bound": bits / qubits <= 1.0,
        "efficiency": cabello_efficiency(bits, qubits, classical),
    }


@dataclass(frozen=True)
class ComparisonRow:
    """One earlier two-way direct-communication protocol, for comparison."""

    protocol: str
    bits_per_round: int
    leaked_bits: int
    efficiency: float | None = None
    note: str = ""

    def to_json_dict(self) -> dict:
        return asdict(self)


def comparison_report() -> list[ComparisonRow]:
    """Static (bits per round, bits leaked, efficiency) comparison of this
    protocol against earlier bidirectional protocols, by author and year."""
    two_thirds = cabello_efficiency(4, 4, 2)
    rows = [
        ComparisonRow("zhang2004a", 4, 2),
        ComparisonRow("zhang2004b", 4, 2),
        ComparisonRow("nguyen2004", 4, 2),
        ComparisonRow("man2005", 4, 2),
        ComparisonRow("chen2007", 4, 2),
        ComparisonRow("shan2009", 4, 2),
        ComparisonRow("ye2013b", 4, 2),
        ComparisonRow("jin2006", 4, 3),
        ComparisonRow("man2006a", 4, 3),
        ComparisonRow("man2006b", 4, 3),
        ComparisonRow("ye2013a", 4, 3),
        ComparisonRow("man2007", 3, 2),
        ComparisonRow("ji2006", 2, 1),
        ComparisonRow("yang2007", 2, 1),
        ComparisonRow("shi2009", 4, 0, two_thirds),
        ComparisonRow("gao2010", 4, 0, two_thirds),
        ComparisonRow("shi2010a", 2, 0, cabello_efficiency(2, 2, 1)),
        ComparisonRow("shi2010b", 3, 0, cabello_efficiency(3, 3, 1)),
        ComparisonRow("this_work", 6, 0, cabello_efficiency(6, 6, 3),
                      note="leakage figure as claimed; see leakage report"),
    ]
    return rows
