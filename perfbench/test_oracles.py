"""Tests of the benchmark's own checks: each reference computation is
compared with an independent one, and each checker is shown to reject a
perturbed output.  Run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import inputs
import oracles


def small_corridor(sections, probs, gates):
    """The corridor as a tree dict, for brute-force enumeration."""
    events = {oracles.SIGNAL: {"kind": "primary",
                               "probability": probs[oracles.SIGNAL]}}
    branches = []
    for s in range(1, sections + 1):
        for leaf in (oracles.ohv(s), oracles.other(s)):
            events[leaf] = {"kind": "primary", "probability": probs[leaf]}
        events[oracles.section_gate(s)] = {"kind": "intermediate", "gate": {
            "type": gates.get(s, "and"),
            "inputs": [oracles.ohv(s), oracles.SIGNAL]}}
        branches += [oracles.section_gate(s), oracles.other(s)]
    events["top"] = {"kind": "hazard",
                     "gate": {"type": "or", "inputs": branches}}
    return {"schema": 1, "name": "small", "top": "top", "events": events}


def brute_force(tree):
    """Enumerate every leaf state of the whole tree (no module shortcut)."""
    events = tree["events"]
    leaves = sorted(n for n, e in events.items()
                    if e["kind"] in ("primary", "condition"))

    def state(name, assignment):
        entry = events[name]
        if entry["kind"] in ("primary", "condition"):
            return assignment[name]
        if entry["kind"] == "house":
            return entry["state"]
        gate = entry["gate"]
        values = [state(c, assignment) for c in gate["inputs"]]
        kind = gate["type"]
        if kind == "and":
            return all(values)
        if kind == "or":
            return any(values)
        if kind == "kofn":
            return sum(values) >= gate["k"]
        if kind == "xor":
            return sum(values) % 2 == 1
        if kind == "not":
            return not values[0]
        return values[0] and assignment[gate["condition"]]   # inhibit

    total = 0.0
    for bits in itertools.product((False, True), repeat=len(leaves)):
        assignment = dict(zip(leaves, bits))
        if state(tree["top"], assignment):
            total += math.prod(events[n]["probability"] if b
                               else 1 - events[n]["probability"]
                               for n, b in assignment.items())
    return total


@pytest.mark.parametrize("seed", range(6))
def test_corridor_closed_form_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    sections = 4
    probs = {oracles.SIGNAL: rng.uniform(0.01, 0.5)}
    for s in range(1, sections + 1):
        probs[oracles.ohv(s)] = rng.uniform(0.01, 0.5)
        probs[oracles.other(s)] = rng.uniform(0.001, 0.1)
    gates = {s: str(rng.choice(["and", "or", "xor"]))
             for s in range(1, sections + 1)}
    tree = small_corridor(sections, probs, gates)
    expect = brute_force(tree)
    assert oracles.corridor_exact(probs, gates, sections) == \
        pytest.approx(expect, rel=1e-12, abs=0)
    assert oracles.tree_probability(tree) == pytest.approx(expect, rel=1e-12,
                                                           abs=0)


def test_corridor_closed_form_keeps_tiny_probabilities():
    assert oracles.corridor_exact() == pytest.approx(7.020009071135115e-05,
                                                     rel=1e-12, abs=0)
    tiny = {oracles.SIGNAL: 1e-12}
    tiny.update({oracles.other(s): 1e-15 for s in range(1, 65)})
    # 64 residual leaves plus the signal times P(any OHV); the cross
    # terms are ~1e-27, far below the tolerance.
    expect = 64e-15 + 1e-12 * -math.expm1(64 * math.log1p(-oracles.OHV_P))
    assert oracles.corridor_exact(tiny) == pytest.approx(expect, rel=1e-9,
                                                         abs=0)


def test_rare_event_is_the_cut_set_sum():
    probs = {oracles.SIGNAL: 0.01, oracles.ohv(3): 0.2, oracles.other(5): 0.1}
    base = oracles.corridor_rare_event()
    moved = oracles.corridor_rare_event(probs)
    expect = base + 0.01 * (63 * oracles.OHV_P + 0.2) \
        - oracles.SIGNAL_P * 64 * oracles.OHV_P + 0.1 - oracles.OTHER_P
    assert moved == pytest.approx(expect, rel=1e-12, abs=0)


def test_corridor_matrix_matches_scalar():
    rng = np.random.default_rng(3)
    names = inputs.corridor_leaves()
    matrix = rng.uniform(1e-6, 0.05, size=(5, len(names)))
    values = oracles.corridor_exact_matrix(matrix, names)
    for row, value in zip(matrix, values):
        assert value == pytest.approx(
            oracles.corridor_exact(dict(zip(names, row))), rel=1e-12, abs=0)


@pytest.mark.parametrize("seed", range(5))
def test_module_enumeration_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    tree = inputs.module_tree(rng, "t", modules=2, leaves_per_module=5)
    memo = {}
    assert oracles.tree_probability(tree, memo=memo) == \
        pytest.approx(brute_force(tree), rel=1e-12, abs=0)
    # Edits change the answer the same way on both sides, memo or not.
    edits = inputs.module_tree_edits(rng, tree, 6, structural_share=0.5)
    overrides = {}
    for edit in edits:
        tree, overrides = inputs.apply_edit(tree, overrides, edit)
    edited = {**tree, "events": {
        n: ({**e, "probability": overrides[n]} if n in overrides else e)
        for n, e in tree["events"].items()}}
    assert oracles.tree_probability(tree, overrides, memo=memo) == \
        pytest.approx(brute_force(edited), rel=1e-12, abs=0)


def test_check_values_rejects_a_nudged_value():
    assert oracles.check_values("x", [1.0 + 1e-12], [1.0]) == []
    assert oracles.check_values("x", [1.0 + 1e-8], [1.0]) != []


def test_check_monte_carlo():
    p, n = 0.1, 40_000
    assert oracles.check_monte_carlo(int(p * n), n, n, p) == []
    assert oracles.check_monte_carlo(int(p * n), n, n + 1, p) != []
    shifted = int(p * n + 10 * math.sqrt(n * p * (1 - p)))
    assert oracles.check_monte_carlo(shifted, n, n, p) != []


def uq_like(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    params = oracles.corridor_lognormals()
    names = list(params)
    mu = np.array([params[k][0] for k in names])
    sigma = np.array([params[k][1] for k in names])
    draws = np.exp(mu + sigma * rng.standard_normal((n, len(names))))
    return scale * oracles.corridor_exact_matrix(np.minimum(draws, 1.0),
                                                 names)


def test_check_uq():
    reference = oracles.uq_reference(40_000, seed=9)
    values = uq_like(10_000, seed=4)
    qs = {q: float(np.percentile(values, q)) for q in (5, 50, 95)}
    assert oracles.check_uq(values, 10_000, qs, reference) == []
    assert oracles.check_uq(values[:-1], 10_000, qs, reference) != []
    assert oracles.check_uq(np.append(values[:-1], 1.5), 10_000, qs,
                            reference) != []
    assert oracles.check_uq(values, 10_000, {5: 2.0, 50: 1.0}, reference) \
        != []
    assert oracles.check_uq(values * 1.5, 10_000, qs, reference) != []


def lhs_design(n, seed):
    from scipy.stats import lognorm
    rng = np.random.default_rng(seed)
    params = oracles.corridor_lognormals()
    names = list(params)
    columns = []
    for name in names:
        u = (rng.permutation(n) + rng.random(n)) / n
        mu, sigma = params[name]
        columns.append(lognorm(s=sigma, scale=math.exp(mu)).ppf(u))
    return np.column_stack(columns), names


def test_check_lhs_columns():
    design, names = lhs_design(64, seed=2)
    assert oracles.check_lhs_columns(design, names) == []
    broken = design.copy()
    column = broken[:, 0]
    lo, hi = np.argmin(column), np.argmax(column)
    column[lo] = column[hi] * 1.01          # two values in one stratum
    assert oracles.check_lhs_columns(broken, names) != []


def test_capped_mgf_matches_the_closed_form():
    from scipy.stats import norm
    lam, mu, sigma = 0.13, oracles.TRANSIT_MU, oracles.TRANSIT_SIGMA
    shifted = mu - lam * sigma ** 2      # exp(-lam x) tilts the normal
    mass = norm.cdf(mu / sigma)

    def closed(cap):
        body = math.exp(-lam * mu + (lam * sigma) ** 2 / 2) * (
            norm.cdf((cap - shifted) / sigma) - norm.cdf(-shifted / sigma))
        return (body + math.exp(-lam * cap)
                * norm.sf((cap - mu) / sigma)) / mass

    for cap in (60.0, 15.6, 2.0):
        assert oracles.truncated_normal_capped_mgf(lam, cap) == \
            pytest.approx(closed(cap), rel=1e-9, abs=0)
    assert oracles.truncated_normal_capped_mgf(lam, 1e-9) == \
        pytest.approx(1.0, abs=1e-8)


def des_rows(p, count=10, ohvs=2000):
    alarmed = int(round(p * ohvs))
    return [{"ohvs_total": ohvs, "ohvs_correct": ohvs, "ohvs_incorrect": 0,
             "alarms_total": alarmed + 5, "false_alarms": alarmed,
             "justified_alarms": 5, "correct_ohvs_alarmed": alarmed}
            for _ in range(count)]


def test_check_des():
    p = oracles.alarm_closed_forms(15.6)["with_LB4"]
    assert oracles.check_des("v", des_rows(p), p) == []
    broken = des_rows(p)
    broken[3]["ohvs_total"] += 1
    assert oracles.check_des("v", broken, p) != []
    broken = des_rows(p)
    broken[0]["alarms_total"] += 1
    assert oracles.check_des("v", broken, p) != []
    broken = des_rows(p)
    broken[0]["correct_ohvs_alarmed"] = broken[0]["ohvs_correct"] + 1
    assert oracles.check_des("v", broken, p) != []
    assert oracles.check_des("v", des_rows(p + 0.05), p) != []


def test_check_timer_study():
    assert oracles.check_timer_study((19.01, 15.60), -0.0999, 0.0004) == []
    assert oracles.check_timer_study((25.0, 15.6), -0.0999, 0.0004) != []
    assert oracles.check_timer_study((19.0, 15.6), -0.02, 0.0004) != []
    assert oracles.check_timer_study((19.0, 15.6), -0.0999, 0.002) != []


def test_check_robust_study():
    assert oracles.check_robust_study(0.9, 1.0) == []
    assert oracles.check_robust_study(1.1, 1.0) != []


def test_wilson_brackets_the_estimate():
    lo, hi = oracles.wilson(30, 100)
    assert lo < 0.3 < hi
    assert oracles.wilson(0, 100)[0] == 0.0


def test_check_sweep():
    axes = {oracles.SIGNAL: [1e-4, 1e-3], oracles.ohv(2): [0.01, 0.02, 0.05]}
    base = {oracles.other(7): 1e-5}
    points = [{oracles.SIGNAL: s, oracles.ohv(2): a}
              for s in axes[oracles.SIGNAL] for a in axes[oracles.ohv(2)]]
    values = [oracles.corridor_exact({**base, **p}) for p in points]
    check = oracles.corridor_exact
    assert oracles.check_sweep("s", axes, base, points, values, check) == []
    assert oracles.check_sweep("s", axes, base, points[:-1], values[:-1],
                               check) != []
    moved = [dict(p) for p in points]
    moved[0][oracles.SIGNAL] = 2e-4
    assert oracles.check_sweep("s", axes, base, moved, values, check) != []
    nudged = list(values)
    nudged[3] *= 1 + 1e-7
    assert oracles.check_sweep("s", axes, base, points, nudged, check) != []
