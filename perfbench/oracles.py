"""Reference computations the benchmark checks the program against.

Nothing here imports ``repro``: every number is derived from the
benchmark's own knowledge of the models (the corridor's structure and
default leaf probabilities, the Elbtunnel design-variant formulas) or
from a property the method must have.  Each ``check_*`` function returns
a list of human-readable misses; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

#: The corridor model: a wide OR over ``SECTIONS`` branches
#: ``AND(OHV in section s ignores stop, Signal not shown)`` plus one
#: residual leaf per section, with these declared leaf probabilities.
SECTIONS = 64
SIGNAL = "Signal not shown"
SIGNAL_P = 1e-4
OHV_P = 1e-3
OTHER_P = 1e-6

#: Relative tolerance for exact results: the program and the closed
#: form sum a few hundred double-precision terms in different orders.
RTOL = 1e-9

#: Normal quantile of the interval checks on stochastic outputs.  At
#: z = 6 a correct program misses with probability ~2e-9 per check.
Z_HIGH = 6.0

#: Largest leaf set a gate with shared leaves is enumerated over.
MAX_ENUMERATED_LEAVES = 18


def ohv(section: int) -> str:
    return f"OHV in section {section} ignores stop"


def other(section: int) -> str:
    return f"Other collision causes in section {section}"


def section_gate(section: int) -> str:
    return f"Collision at section {section}"


def corridor_defaults(sections: int = SECTIONS) -> Dict[str, float]:
    probs = {SIGNAL: SIGNAL_P}
    for s in range(1, sections + 1):
        probs[ohv(s)] = OHV_P
        probs[other(s)] = OTHER_P
    return probs


def _branch_given_signal(gate: str, a: float, signal: bool) -> float:
    """P(section branch fires | signal state) for a two-input gate."""
    if gate == "and":
        return a if signal else 0.0
    if gate == "or":
        return 1.0 if signal else a
    if gate == "xor":
        return 1.0 - a if signal else a
    raise ValueError(f"no closed form for section gate {gate!r}")


def corridor_exact(overrides: Optional[Mapping[str, float]] = None,
                   gates: Optional[Mapping[int, str]] = None,
                   sections: int = SECTIONS) -> float:
    """Exact corridor top probability, conditioning on the shared signal.

    Given the signal state the section branches and residual leaves are
    independent, so ``P(top) = sum_s P(S=s) * (1 - prod(1 - p_i | s))``;
    each product is accumulated as a sum of ``log1p`` terms and closed
    with ``expm1``, so no digits cancel however small the result.
    ``gates`` maps a section number to its (edited) gate type.
    """
    probs = corridor_defaults(sections)
    probs.update(overrides or {})
    gates = gates or {}
    q = probs[SIGNAL]
    residual = sum(math.log1p(-probs[other(s)])
                   for s in range(1, sections + 1))
    total = 0.0
    for signal, weight in ((False, 1.0 - q), (True, q)):
        log_none = residual
        for s in range(1, sections + 1):
            p = _branch_given_signal(gates.get(s, "and"), probs[ohv(s)],
                                     signal)
            if p >= 1.0:
                log_none = -math.inf
                break
            log_none += math.log1p(-p)
        total += weight * -math.expm1(log_none)
    return total


def corridor_rare_event(overrides: Optional[Mapping[str, float]] = None
                        ) -> float:
    """Rare-event sum over the corridor's minimal cut sets
    ``{OHV_s, Signal}`` and ``{Other_s}``, capped at 1."""
    probs = corridor_defaults()
    probs.update(overrides or {})
    q = probs[SIGNAL]
    total = sum(probs[ohv(s)] * q + probs[other(s)]
                for s in range(1, SECTIONS + 1))
    return min(1.0, total)


def corridor_exact_matrix(matrix: np.ndarray, names: Sequence[str]
                          ) -> np.ndarray:
    """Vectorized :func:`corridor_exact` (all gates AND) over the rows
    of a leaf-probability matrix whose columns are ``names``."""
    column = {name: j for j, name in enumerate(names)}
    q = matrix[:, column[SIGNAL]]
    a = matrix[:, [column[ohv(s)] for s in range(1, SECTIONS + 1)]]
    r = matrix[:, [column[other(s)] for s in range(1, SECTIONS + 1)]]
    residual = np.log1p(-r).sum(axis=1)
    with_signal = residual + np.log1p(-a).sum(axis=1)
    return (1.0 - q) * -np.expm1(residual) + q * -np.expm1(with_signal)


# ----------------------------------------------------------------------
# Exact enumeration of tree dicts (the tree_from_dict format)
# ----------------------------------------------------------------------
def _combine_independent(gate: Mapping, ps: List[float],
                         condition: Optional[float]) -> float:
    """Gate output probability for independent inputs."""
    kind = gate["type"]
    if kind == "and":
        return math.prod(ps)
    if kind == "or":
        return -math.expm1(sum(math.log1p(-p) for p in ps)) \
            if max(ps) < 1.0 else 1.0
    if kind == "not":
        return 1.0 - ps[0]
    if kind == "inhibit":
        return ps[0] * condition
    # kofn / xor: distribution of the number of true inputs.
    counts = [1.0]
    for p in ps:
        nxt = [0.0] * (len(counts) + 1)
        for k, mass in enumerate(counts):
            nxt[k] += mass * (1.0 - p)
            nxt[k + 1] += mass * p
        counts = nxt
    if kind == "kofn":
        return sum(counts[gate["k"]:])
    if kind == "xor":
        return sum(counts[1::2])
    raise ValueError(f"unknown gate type {kind!r}")


def tree_probability(tree: Mapping, overrides: Optional[Mapping[str, float]]
                     = None, memo: Optional[Dict] = None) -> float:
    """Exact top probability of a ``tree_from_dict`` tree.

    A gate whose inputs share no leaf combines its inputs' probabilities
    as independent events (module by module); any other gate is
    evaluated by enumerating every state of the leaves below it.  A
    ``memo`` dict shared between calls reuses enumerations of subtrees
    whose structure and leaf probabilities are unchanged.
    """
    events = tree["events"]
    overrides = overrides or {}
    memo = {} if memo is None else memo
    leaves_memo: Dict[str, frozenset] = {}

    def leaf_p(name: str) -> float:
        if name in overrides:
            return float(overrides[name])
        return float(events[name]["probability"])

    def leaves(name: str) -> frozenset:
        if name not in leaves_memo:
            entry = events[name]
            if entry["kind"] in ("primary", "condition"):
                found = frozenset([name])
            elif entry["kind"] == "house":
                found = frozenset()
            else:
                gate = entry["gate"]
                found = frozenset().union(
                    *(leaves(child) for child in gate["inputs"]))
                if "condition" in gate:
                    found |= leaves(gate["condition"])
            leaves_memo[name] = found
        return leaves_memo[name]

    def truth(name: str, column: Mapping[str, np.ndarray],
              rows: int) -> np.ndarray:
        """The node's value in every row of an enumeration grid."""
        entry = events[name]
        if entry["kind"] in ("primary", "condition"):
            return column[name]
        if entry["kind"] == "house":
            return np.full(rows, bool(entry["state"]))
        gate = entry["gate"]
        values = [truth(child, column, rows) for child in gate["inputs"]]
        kind = gate["type"]
        if kind == "and":
            return np.logical_and.reduce(values)
        if kind == "or":
            return np.logical_or.reduce(values)
        if kind == "kofn":
            return np.sum(values, axis=0) >= gate["k"]
        if kind == "xor":
            return np.sum(values, axis=0) % 2 == 1
        if kind == "not":
            return ~values[0]
        if kind == "inhibit":
            return values[0] & column[gate["condition"]]
        raise ValueError(f"unknown gate type {kind!r}")

    def probability(name: str) -> float:
        entry = events[name]
        if entry["kind"] in ("primary", "condition"):
            return leaf_p(name)
        if entry["kind"] == "house":
            return 1.0 if entry["state"] else 0.0
        gate = entry["gate"]
        inputs = list(gate["inputs"])
        if "condition" in gate:
            inputs.append(gate["condition"])
        seen: set = set()
        disjoint = True
        for child in inputs:
            child_leaves = leaves(child)
            if seen & child_leaves:
                disjoint = False
                break
            seen |= child_leaves
        if disjoint:
            ps = [probability(child) for child in gate["inputs"]]
            condition = probability(gate["condition"]) \
                if "condition" in gate else None
            return _combine_independent(gate, ps, condition)
        key = signature(name)
        if key in memo:
            return memo[key]
        names = sorted(leaves(name))
        if len(names) > MAX_ENUMERATED_LEAVES:
            raise ValueError(
                f"gate {name!r} shares leaves across {len(names)} leaves; "
                f"too many to enumerate")
        rows = 1 << len(names)
        grid = (np.arange(rows)[:, None] >> np.arange(len(names))) & 1 == 1
        column = {leaf: grid[:, j] for j, leaf in enumerate(names)}
        ps = np.array([leaf_p(leaf) for leaf in names])
        weights = np.prod(np.where(grid, ps, 1.0 - ps), axis=1)
        total = float(weights[truth(name, column, rows)].sum())
        memo[key] = total
        return total

    def signature(name: str) -> tuple:
        """Everything the probability of ``name`` depends on."""
        entry = events[name]
        if entry["kind"] in ("primary", "condition"):
            return (name, leaf_p(name))
        if entry["kind"] == "house":
            return (name, bool(entry["state"]))
        gate = entry["gate"]
        children = list(gate["inputs"])
        if "condition" in gate:
            children.append(gate["condition"])
        return (name, gate["type"], gate.get("k"),
                tuple(signature(child) for child in children))

    return probability(tree["top"])


# ----------------------------------------------------------------------
# Interval and distribution checks
# ----------------------------------------------------------------------
def wilson(successes: int, trials: int, z: float = Z_HIGH):
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be > 0")
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials
                         + z * z / (4 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def close(value: float, reference: float, rtol: float = RTOL,
          atol: float = 1e-300) -> bool:
    return abs(value - reference) <= max(atol, rtol * abs(reference))


def check_values(label: str, values: Iterable[float],
                 references: Iterable[float],
                 rtol: float = RTOL) -> List[str]:
    misses = []
    for i, (value, reference) in enumerate(zip(values, references)):
        if not close(value, reference, rtol):
            misses.append(f"{label}[{i}]: {value!r} != {reference!r}")
    return misses


def check_sweep(label: str, axes: Mapping[str, Sequence[float]],
                base: Mapping[str, float], points: Sequence[Mapping],
                values: Sequence[float], closed) -> List[str]:
    """The grid is the product of the axes, and each value matches
    ``closed(base overlaid with its point)``."""
    names = sorted(axes)
    want = set(itertools.product(*(axes[name] for name in names)))
    got = [tuple(point[name] for name in names) for point in points]
    if len(got) != len(want) or set(got) != want or len(values) != len(got):
        return [f"{label}: {len(got)} grid points returned, not the "
                f"{len(want)} of the axes' product"]
    refs = [closed({**base, **point}) for point in points]
    return check_values(label, values, refs)


def check_monte_carlo(occurrences: int, samples: int, requested: int,
                      reference: float) -> List[str]:
    misses = []
    if samples != requested:
        misses.append(f"montecarlo: {samples} samples returned, "
                      f"{requested} requested")
    lo, hi = wilson(occurrences, samples)
    if not lo <= reference <= hi:
        misses.append(f"montecarlo: Wilson interval [{lo:.6g}, {hi:.6g}] "
                      f"misses the closed form {reference:.6g}")
    return misses


# ----------------------------------------------------------------------
# Uncertainty propagation
# ----------------------------------------------------------------------
#: Error factors of the corridor's uncertainty model, per leaf family;
#: ``sigma = ln(EF) / z_0.95`` as in reliability databases.
Z95 = 1.6448536269514722
CORRIDOR_EF = {"signal": 5.0, "ohv": 3.0, "other": 10.0}


def corridor_lognormals():
    """``{leaf: (mu, sigma)}`` of the corridor's lognormal leaves."""
    params = {SIGNAL: (math.log(SIGNAL_P),
                       math.log(CORRIDOR_EF["signal"]) / Z95)}
    for s in range(1, SECTIONS + 1):
        params[ohv(s)] = (math.log(OHV_P),
                          math.log(CORRIDOR_EF["ohv"]) / Z95)
        params[other(s)] = (math.log(OTHER_P),
                            math.log(CORRIDOR_EF["other"]) / Z95)
    return params


#: Rows of the reference Monte Carlo drawn at a time.
UQ_REFERENCE_CHUNK = 2_000


def uq_reference(samples: int, seed: int):
    """Plain Monte Carlo of the corridor's lognormal leaves through the
    closed form: returns ``(mean, standard error)``."""
    rng = np.random.default_rng([seed, 0x5151])
    params = corridor_lognormals()
    names = list(params)
    mu = np.array([params[n][0] for n in names])
    sigma = np.array([params[n][1] for n in names])
    total = total_sq = 0.0
    for start in range(0, samples, UQ_REFERENCE_CHUNK):
        rows = min(UQ_REFERENCE_CHUNK, samples - start)
        draws = np.exp(mu + sigma * rng.standard_normal((rows, len(names))))
        values = corridor_exact_matrix(np.minimum(draws, 1.0), names)
        total += float(values.sum())
        total_sq += float(np.square(values).sum())
    mean = total / samples
    variance = (total_sq - samples * mean * mean) / (samples - 1)
    return mean, math.sqrt(max(variance, 0.0) / samples)


def check_uq(samples: Sequence[float], requested: int,
             percentiles: Mapping[float, float], reference) -> List[str]:
    """Shape, range and ordering checks, then the mean against a
    ``(mean, standard error)`` reference from :func:`uq_reference`."""
    misses = []
    values = np.asarray(samples, dtype=np.float64)
    if values.size != requested:
        misses.append(f"uq: {values.size} samples, {requested} requested")
    if values.size and (values.min() < 0.0 or values.max() > 1.0):
        misses.append("uq: a sample lies outside [0, 1]")
    ordered = [percentiles[q] for q in sorted(percentiles)]
    if any(b < a for a, b in zip(ordered, ordered[1:])):
        misses.append(f"uq: percentiles out of order: {ordered}")
    if values.size < 2:
        return misses
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size))
    ref_mean, ref_se = reference
    if abs(mean - ref_mean) > Z_HIGH * math.hypot(se, ref_se):
        misses.append(f"uq: mean {mean:.6g} is more than {Z_HIGH} "
                      f"standard errors from the reference {ref_mean:.6g}")
    return misses


def check_lhs_columns(matrix: np.ndarray, names: Sequence[str]
                      ) -> List[str]:
    """Latin hypercube property: in each column the k-th smallest of
    ``n`` values lies between the lognormal quantiles at k/n, (k+1)/n
    (widened by :data:`RTOL` for the ppf's rounding)."""
    from scipy.stats import lognorm
    params = corridor_lognormals()
    n = matrix.shape[0]
    k = np.arange(n)
    misses = []
    for j, name in enumerate(names):
        mu, sigma = params[name]
        dist = lognorm(s=sigma, scale=math.exp(mu))
        lo = dist.ppf(k / n)
        hi = dist.ppf((k + 1) / n)
        column = np.sort(matrix[:, j])
        below = column < lo * (1 - RTOL)
        above = column > np.minimum(hi * (1 + RTOL), 1.0)
        if below.any() or above.any():
            bad = int(np.flatnonzero(below | above)[0])
            misses.append(f"lhs: column {name!r} order statistic {bad} = "
                          f"{column[bad]:.6g} outside "
                          f"[{lo[bad]:.6g}, {hi[bad]:.6g}]")
    return misses


# ----------------------------------------------------------------------
# Discrete-event simulation
# ----------------------------------------------------------------------
#: Elbtunnel constants behind the Fig. 6 design variants (per minute).
HV_RATE_HEAVY = 0.13
TRANSIT_MU = 4.0
TRANSIT_SIGMA = 2.0
P_FD_LB4 = 1e-3
LB_PASSAGE = 0.3


#: Gauss-Legendre nodes of the transit-time quadrature.  The integrand
#: is smooth: 64 nodes agree with adaptive quadrature to 1e-14 for caps
#: up to 60 minutes.
QUADRATURE_NODES = 64


def normal_sf(z: float) -> float:
    """Standard normal survival function."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def truncated_normal_capped_mgf(lam: float, cap: float) -> float:
    """``E[exp(-lam * min(X, cap))]`` for the transit time X ~
    Normal(TRANSIT_MU, TRANSIT_SIGMA) | X >= 0, by Gauss-Legendre
    quadrature of the density over ``[0, cap]`` plus the mass beyond.

    NumPy only, so that checking a round loads nothing into the program
    process that its pool workers would inherit.
    """
    mu, sigma = TRANSIT_MU, TRANSIT_SIGMA
    mass = normal_sf(-mu / sigma)
    nodes, weights = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    x = 0.5 * cap * (nodes + 1.0)
    density = np.exp(-0.5 * ((x - mu) / sigma) ** 2) \
        / (sigma * math.sqrt(2.0 * math.pi) * mass)
    body = 0.5 * cap * float(np.sum(weights * np.exp(-lam * x) * density))
    tail = normal_sf((cap - mu) / sigma) / mass
    return body + math.exp(-lam * cap) * tail


def alarm_closed_forms(t2: float) -> Dict[str, float]:
    """Per-OHV false-alarm probability of each design variant."""
    lam = HV_RATE_HEAVY
    return {
        "without_LB4": -math.expm1(-lam * t2),
        "with_LB4": 1.0 - truncated_normal_capped_mgf(lam, t2),
        "lb_at_odfinal": 1.0 - (1.0 - P_FD_LB4) * math.exp(
            -lam * LB_PASSAGE),
    }


def check_des(variant: str, rows: Sequence[Mapping[str, int]],
              reference: float) -> List[str]:
    """Counter conservation per replication, then the pooled alarm
    fraction's high-confidence interval must bracket ``reference``."""
    misses = []
    alarmed = correct = 0
    for i, row in enumerate(rows):
        if row["ohvs_total"] != row["ohvs_correct"] + row["ohvs_incorrect"]:
            misses.append(f"des {variant}[{i}]: ohvs_total does not "
                          f"conserve")
        if row["alarms_total"] != row["false_alarms"] \
                + row["justified_alarms"]:
            misses.append(f"des {variant}[{i}]: alarms_total does not "
                          f"conserve")
        if row["correct_ohvs_alarmed"] > row["ohvs_correct"]:
            misses.append(f"des {variant}[{i}]: more alarmed than "
                          f"correct OHVs")
        alarmed += row["correct_ohvs_alarmed"]
        correct += row["ohvs_correct"]
    if correct == 0:
        misses.append(f"des {variant}: no correct OHV simulated")
        return misses
    lo, hi = wilson(alarmed, correct)
    if not lo <= reference <= hi:
        misses.append(f"des {variant}: pooled alarm interval "
                      f"[{lo:.5f}, {hi:.5f}] misses {reference:.5f}")
    return misses


# ----------------------------------------------------------------------
# Design studies (paper Sect. IV-C)
# ----------------------------------------------------------------------
PAPER_OPTIMUM = (19.0, 15.6)
#: How far the zoom optimum may lie from the paper's, per axis.
OPTIMUM_RESOLUTION = 0.6


def check_timer_study(optimum: Sequence[float],
                      false_alarm_change: float,
                      collision_change: float) -> List[str]:
    """The zoom optimum is the paper's (19, 15.6) within the paper's
    one-decimal reporting; versus (30, 30) the false-alarm risk improves
    by about 10 % and the collision risk moves by less than 0.1 %.
    ``*_change`` are relative changes (negative = risk went down)."""
    misses = []
    if any(abs(x - ref) > OPTIMUM_RESOLUTION
           for x, ref in zip(optimum, PAPER_OPTIMUM)):
        misses.append(f"study: optimum {tuple(optimum)} is not near "
                      f"{PAPER_OPTIMUM}")
    if not -0.13 <= false_alarm_change <= -0.07:
        misses.append(f"study: false-alarm change {false_alarm_change:+.3%} "
                      f"is not an improvement of about 10 %")
    if abs(collision_change) >= 1e-3:
        misses.append(f"study: collision change {collision_change:+.4%} "
                      f"is not below 0.1 %")
    return misses


def check_robust_study(optimum_value: float, start_value: float
                       ) -> List[str]:
    if not optimum_value <= start_value:
        return [f"robust: optimum objective {optimum_value:.6g} is worse "
                f"than the start's {start_value:.6g}"]
    return []
