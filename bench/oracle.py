"""Correctness checkers for the benchmark, written apart from the program.

Each checker is a standalone function over the JSON a command wrote (a
`bqsdc run` transcript or a `bqsdc attack` estimate) and returns a list of
error strings, empty when the output is correct. The expected values are
derived by hand in README.md from the Pauli algebra of GHZ states; none of
them is copied from an earlier output. The one table taken from the
program is `bqsdc.swap.REFERENCE_COLLECTIONS`, the collections enumerated
by hand apart from the code that derives them.

Each checker also has a list of deliberate corruptions (`*_corruptions`).
The benchmark feeds every corrupted copy of its first real output back to
the checker and requires it to fail, so no checker is silent.
"""

from __future__ import annotations

import copy
import functools
import math

SIGMAS = 5.0


@functools.cache
def _collection_of() -> dict[str, int]:
    """Bell triple token -> index of the collection that holds it in the
    hand-enumerated fixture `bqsdc.swap.REFERENCE_COLLECTIONS`."""
    from bqsdc.swap import REFERENCE_COLLECTIONS
    return {t.token: m for m, members in enumerate(REFERENCE_COLLECTIONS) for t in members}


def _index(token: str, prefix: str) -> int:
    if not token.startswith(prefix):
        raise ValueError(f"{token!r} is not a {prefix} label")
    return int(token[len(prefix):])


def _triples(bits: str) -> list[int]:
    return [int(bits[i:i + 3], 2) for i in range(0, len(bits), 3)]


def _within(observed: int, n: int, p: float, what: str) -> list[str]:
    """Binomial bound: observed/n lies within SIGMAS sigma of p."""
    sigma = math.sqrt(p * (1.0 - p) / n)
    rate = observed / n
    if abs(rate - p) > SIGMAS * sigma:
        return [f"{what}: {rate:.4f} is more than {SIGMAS:g} sigma ({sigma:.4f}) from {p:.4f}"]
    return []


def _group_errors(t: dict, alice: str, bob: str) -> list[str]:
    """Per-group properties that hold on any channel: the operations carry
    the sent bits, the Bell triple lies in the announced collection, and
    each side decodes by XOR with its own operation (README, section on
    the decode rule)."""
    errors = []
    a_msgs, b_msgs = _triples(alice), _triples(bob)
    groups = t["groups"]
    if len(groups) != len(a_msgs):
        return [f"{len(groups)} groups, expected {len(a_msgs)}"]
    for g, a, b in zip(groups, a_msgs, b_msgs):
        n = g["n"]
        ann = _index(g["announcement"], "c")
        if _index(g["a_op"], "U") != a or _index(g["b_op"], "U") != b:
            errors.append(f"group {n}: {g['a_op']}, {g['b_op']} do not carry the sent bits")
        if _collection_of().get(g["bell_triple"]) != ann:
            errors.append(f"group {n}: {g['bell_triple']} not in {g['announcement']}")
        if int(g["decoded_by_alice"], 2) != ann ^ a:
            errors.append(f"group {n}: Alice's decode is not {ann ^ a:03b}")
        if int(g["decoded_by_bob"], 2) != ann ^ b:
            errors.append(f"group {n}: Bob's decode is not {ann ^ b:03b}")
    return errors


def check_clean(t: dict, alice: str, bob: str) -> list[str]:
    """A session with no attack: every group delivers both messages."""
    if t["abort"]["aborted"]:
        return [f"session aborted at step {t['abort']['step']}"]
    errors = [f"check at step {c['step']}: {c['errors']} errors"
              for c in t["checks"] if c["errors"]]
    errors += _group_errors(t, alice, bob)
    for g, a, b in zip(t["groups"], _triples(alice), _triples(bob)):
        n = g["n"]
        if g["decoded_by_bob"] != f"{a:03b}" or g["decoded_by_alice"] != f"{b:03b}":
            errors.append(f"group {n}: decoded {g['decoded_by_bob']}/{g['decoded_by_alice']}, "
                          f"sent {a:03b}/{b:03b}")
        if g["p_label"] != g["prepared_label"]:
            errors.append(f"group {n}: Bob found {g['p_label']}, not {g['prepared_label']}")
        if _index(g["announcement"], "c") != a ^ b:
            errors.append(f"group {n}: announced {g['announcement']}, expected c{a ^ b}")
    return errors


def check_entangled(t: dict, alice: str, bob: str, beta2: float) -> list[str]:
    """A session under the entangling attack on S_A with flip probability
    beta2: steps 2 and 4 are clean, and the step-5 error rate, Bob's
    label errors and the decoding errors follow the rates derived in
    README.md."""
    if t["abort"]["aborted"]:
        return [f"session aborted at step {t['abort']['step']}"]
    checks = {c["step"]: c for c in t["checks"]}
    if sorted(checks) != [2, 4, 5]:
        return [f"checks at steps {sorted(checks)}, expected 2, 4 and 5"]
    errors = [f"check at step {s}: {checks[s]['errors']} errors" for s in (2, 4)
              if checks[s]["errors"]]
    c5 = checks[5]
    errors += _within(c5["errors"], c5["samples"], beta2 / 2, "step-5 error rate")
    errors += _group_errors(t, alice, bob)
    groups = t["groups"]
    n = len(groups)
    relabelled = sum(g["p_label"] != g["prepared_label"] for g in groups)
    errors += _within(relabelled, n, beta2, "share of groups Bob relabels")
    flip_rate = 2 * beta2 * (1 - beta2)
    for side, sent in (("decoded_by_bob", alice), ("decoded_by_alice", bob)):
        wrong = sum(g[side] != sent[3 * i:3 * i + 3] for i, g in enumerate(groups))
        errors += _within(wrong, n, flip_rate, f"{side} error rate")
    return errors


def check_detection(est: dict, case: dict, trials: int) -> list[str]:
    """One detection case: the estimate records the attack and check the
    case asked for, the Born-exact value equals the hand-derived one to
    1e-9 and the Monte Carlo rate lies within 5 sigma of it."""
    p = case["expected"]
    errors = []
    if (est["strategy"], est["target"]) != (case["strategy"], case["target"]):
        errors.append(f"ran {est['strategy']} on {est['target']}")
    for key, want in case["params"].items():
        got = est["params"].get(key)
        if got != want and not (isinstance(want, float) and isinstance(got, float)
                                and abs(got - want) <= 1e-9):
            errors.append(f"{key} is {got!r}, asked for {want!r}")
    if est["trials"] != trials:
        errors.append(f"{est['trials']} trials, asked for {trials}")
    if abs(est["exact_value"] - p) > 1e-9:
        errors.append(f"exact value {est['exact_value']!r}, derived {p}")
    if est["rate"] != est["detections"] / est["trials"]:
        errors.append(f"rate {est['rate']} is not detections / trials")
    errors += _within(est["detections"], est["trials"], p, "detection rate")
    return errors


# -- deliberate corruptions --------------------------------------------------


def _neighbour_announcement(t: dict) -> dict:
    t = copy.deepcopy(t)
    g = t["groups"][0]
    g["announcement"] = f"c{(_index(g['announcement'], 'c') + 1) % 8}"
    return t


def _flip_decoded_bit(t: dict) -> dict:
    t = copy.deepcopy(t)
    g = t["groups"][-1]
    bits = g["decoded_by_bob"]
    g["decoded_by_bob"] = bits[:-1] + ("1" if bits[-1] == "0" else "0")
    return t


def _mark_aborted(t: dict) -> dict:
    t = copy.deepcopy(t)
    t["abort"] = {"aborted": True, "step": 5}
    return t


def _relabel_one(t: dict) -> dict:
    t = copy.deepcopy(t)
    g = t["groups"][0]
    g["p_label"] = f"psi{(_index(g['prepared_label'], 'psi') + 1) % 8}"
    return t


def _moved(observed: int, n: int, p: float) -> int:
    """observed moved 6 sigma further away from the expected count p*n."""
    step = math.ceil(6 * math.sqrt(p * (1 - p) * n))
    return observed + step if observed >= p * n else observed - step


def _step_error(step: int):
    def corrupt(t: dict) -> dict:
        t = copy.deepcopy(t)
        c = next(c for c in t["checks"] if c["step"] == step)
        c["errors"] += 1
        c["error_rate"] = c["errors"] / c["samples"]
        return t
    return corrupt


def _step5_moved(beta2: float):
    def corrupt(t: dict) -> dict:
        t = copy.deepcopy(t)
        c = next(c for c in t["checks"] if c["step"] == 5)
        c["errors"] = _moved(c["errors"], c["samples"], beta2 / 2)
        c["error_rate"] = c["errors"] / c["samples"]
        return t
    return corrupt


def _relabel_share_moved(beta2: float):
    def corrupt(t: dict) -> dict:
        t = copy.deepcopy(t)
        groups = t["groups"]
        wrong = sum(g["p_label"] != g["prepared_label"] for g in groups)
        target = _moved(wrong, len(groups), beta2)
        for g in groups:
            if wrong == target:
                break
            same = g["p_label"] == g["prepared_label"]
            if target > wrong and same:
                g["p_label"] = f"psi{_index(g['prepared_label'], 'psi') ^ 2}"
                wrong += 1
            elif target < wrong and not same:
                g["p_label"] = g["prepared_label"]
                wrong -= 1
        return t
    return corrupt


def clean_corruptions() -> list:
    return [("one decoded bit flipped", _flip_decoded_bit),
            ("announcement swapped for a neighbour", _neighbour_announcement),
            ("Bob's label differs from the prepared one", _relabel_one),
            ("abort recorded", _mark_aborted)]


def entangled_corruptions(beta2: float) -> list:
    return [("one decoded bit flipped", _flip_decoded_bit),
            ("announcement swapped for a neighbour", _neighbour_announcement),
            ("one step-4 error", _step_error(4)),
            ("step-5 errors moved 6 sigma", _step5_moved(beta2)),
            ("relabelled share moved 6 sigma", _relabel_share_moved(beta2)),
            ("abort recorded", _mark_aborted)]


def _detections_moved(est: dict, case: dict) -> dict:
    est = dict(est)
    est["detections"] = _moved(est["detections"], est["trials"], case["expected"])
    est["rate"] = est["detections"] / est["trials"]
    return est


def _exact_off(est: dict, case: dict) -> dict:
    est = dict(est)
    est["exact_value"] += 1e-6
    return est


def _fake_state_changed(est: dict, case: dict) -> dict:
    est = dict(est, params=dict(est["params"]))
    est["params"]["fake_state"] = "1" if est["params"]["fake_state"] == "0" else "0"
    return est


def detection_corruptions() -> list:
    return [("detection count moved 6 sigma", _detections_moved),
            ("exact value off by 1e-6", _exact_off),
            ("fake state changed", _fake_state_changed)]
