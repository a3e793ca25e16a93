"""Declarative JSON job specs — the wire format of `repro batch`/`serve`.

One JSON description of work, two front ends: the ``repro batch`` CLI
reads job specs from a file, the :mod:`repro.serve` HTTP service accepts
the *same* format over ``POST /jobs``.  This module is the single
translation layer both share — spec → validated
:class:`~repro.engine.jobs.Job` on the way in, job +
:class:`~repro.engine.engine.RunOutcome` → one common *result envelope*
on the way out — so a script developed against batch files runs
unchanged against a server, and vice versa.

A job spec is a JSON object with a ``type`` field::

    {"type": "quantify",   "tree": "fig2", "method": "exact"}
    {"type": "sweep",      "tree": {...},  "axes": {"A": [0.1, 0.2]}}
    {"type": "montecarlo", "tree": "collision", "samples": 100000}

``tree`` is a built-in name (``fig2``/``collision``/``false-alarm``),
an inline tree dict (:func:`repro.fta.tree_from_dict` format), or
``{"file": path}`` (CLI only — the server rejects file references so
clients cannot read server-side paths).
"""

from __future__ import annotations

import numbers
from typing import Any, Dict, List, Optional

from repro.engine.engine import RunOutcome
from repro.engine.jobs import (
    IncrementalJob,
    Job,
    MonteCarloJob,
    QuantifyJob,
    SweepJob,
)
from repro.errors import EngineError

#: Job types expressible as JSON specs (the batch/serve wire format).
SPEC_TYPES = ("quantify", "sweep", "montecarlo", "incremental")


def tree_from_spec(spec: Any, allow_files: bool = True):
    """Resolve a ``tree`` spec: builtin name, ``{"file": ...}``, or
    an inline tree dict."""
    from repro.fta import tree_from_dict, tree_from_json
    if isinstance(spec, str):
        from repro.elbtunnel import (
            collision_fault_tree,
            corridor_fault_tree,
            false_alarm_fault_tree,
            fig2_fault_tree,
        )
        builders = {"fig2": fig2_fault_tree,
                    "collision": collision_fault_tree,
                    "false-alarm": false_alarm_fault_tree,
                    "corridor": corridor_fault_tree}
        try:
            return builders[spec]()
        except KeyError:
            raise EngineError(
                f"unknown built-in tree {spec!r}; "
                f"expected one of {sorted(builders)}") from None
    if isinstance(spec, dict) and "file" in spec:
        if not allow_files:
            raise EngineError(
                "tree file references are not allowed here; "
                "inline the tree or name a built-in")
        with open(spec["file"]) as handle:
            return tree_from_json(handle.read())
    if isinstance(spec, dict):
        return tree_from_dict(spec)
    raise EngineError(f"cannot interpret tree spec {spec!r}")


def _integer(spec: Dict[str, Any], field: str,
             default: Optional[int]) -> Optional[int]:
    """An integer job field; booleans, floats and strings are refused
    (``int(1.5)`` would quietly run one sample).  ``null`` is accepted
    only where the field's default is ``None``."""
    value = spec.get(field, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise EngineError(
            f"job field {field!r} must be an integer, got {value!r}")
    return value


def _number(spec: Dict[str, Any], field: str, default: float) -> float:
    """A real-valued job field (an int or a float, not a bool)."""
    value = spec.get(field, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise EngineError(
            f"job field {field!r} must be a number, got {value!r}")
    return float(value)


def _axes(spec: Dict[str, Any]) -> Dict[str, List[float]]:
    """A sweep's ``axes``: leaf name -> non-empty list of numbers."""
    axes = spec.get("axes")
    if not isinstance(axes, dict) or not axes:
        raise EngineError(
            "sweep jobs need a non-empty 'axes' mapping of leaf names "
            "to value lists")
    for leaf, values in axes.items():
        if not isinstance(values, list) or not values or any(
                isinstance(v, bool) or not isinstance(v, numbers.Real)
                for v in values):
            raise EngineError(
                f"sweep axis {leaf!r} must be a non-empty list of "
                f"numbers, got {values!r}")
    return axes


def job_from_spec(spec: Any, allow_files: bool = True) -> Job:
    """Build one engine job from its JSON description."""
    from repro.core.parametric import identity
    from repro.fta import ConstraintPolicy
    if not isinstance(spec, dict) or "type" not in spec:
        raise EngineError(
            f"each job needs a 'type' field, got {spec!r}")
    kind = spec["type"]
    if kind not in SPEC_TYPES:
        raise EngineError(
            f"unknown job type {kind!r}; "
            f"expected one of {', '.join(repr(t) for t in SPEC_TYPES)}")
    tree = tree_from_spec(spec.get("tree", "fig2"),
                          allow_files=allow_files)
    try:
        policy = ConstraintPolicy(spec.get("policy", "independent"))
    except ValueError:
        raise EngineError(
            f"unknown policy {spec.get('policy')!r}; expected one of "
            f"{[p.value for p in ConstraintPolicy]}") from None
    method = spec.get("method", "rare_event")
    if kind == "quantify":
        return QuantifyJob(tree, spec.get("probabilities"),
                           method=method, policy=policy)
    if kind == "incremental":
        return IncrementalJob(tree, spec.get("probabilities"),
                              edits=spec.get("edits"),
                              sift_threshold=_integer(
                                  spec, "sift_threshold", None))
    if kind == "sweep":
        axes = _axes(spec)
        # Each axis sweeps one leaf's probability directly; fixed
        # 'probabilities' cover the leaves that are not swept.
        assignments = {leaf: identity(leaf) for leaf in axes}
        return SweepJob.from_axes(tree, assignments, axes,
                                  method=method, policy=policy,
                                  probabilities=spec.get("probabilities"))
    return MonteCarloJob(tree, spec.get("probabilities"),
                         samples=_integer(spec, "samples", 100_000),
                         seed=_integer(spec, "seed", 0),
                         confidence=_number(spec, "confidence", 0.95),
                         shards=_integer(spec, "shards", 1))


def jobs_from_payload(payload: Any,
                      allow_files: bool = True) -> List[Job]:
    """Build the job list of one batch request.

    ``payload`` is either a list of job specs, a single job spec
    (an object with a ``type`` field), or an object with a ``jobs``
    list — the shapes accepted by ``repro batch`` files and the
    service's ``POST /jobs`` body alike.
    """
    if isinstance(payload, dict) and "type" in payload:
        specs: Any = [payload]
    elif isinstance(payload, dict):
        specs = payload.get("jobs")
    else:
        specs = payload
    if not isinstance(specs, list) or not specs:
        raise EngineError(
            "job payload must be a non-empty list of jobs (or an "
            "object with a 'jobs' list)")
    return [job_from_spec(spec, allow_files=allow_files)
            for spec in specs]


def result_envelope(job: Job, outcome: RunOutcome,
                    job_id: Optional[str] = None,
                    index: Optional[int] = None) -> Dict[str, Any]:
    """The common JSON result shape of one finished job.

    Emitted per job by ``repro batch --json`` and streamed as the
    ``result`` event by the service, so both surfaces report identical
    provenance: fingerprint, cache hit/miss, whether the computation
    was coalesced with another client's, and the wall time this request
    actually spent.
    """
    envelope: Dict[str, Any] = {}
    if job_id is not None:
        envelope["id"] = job_id
    if index is not None:
        envelope["index"] = index
    envelope.update({
        "type": job.kind,
        "job": job.describe(),
        "fingerprint": outcome.fingerprint,
        "cache_hit": outcome.cache_hit,
        "coalesced": outcome.coalesced,
        "wall_time_s": outcome.wall_time,
        "result": job.encode_result(outcome.result),
    })
    return envelope
