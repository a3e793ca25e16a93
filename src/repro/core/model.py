"""The :class:`SafetyModel`: hazards, parameters and costs wired together.

This is the object the whole method operates on (paper Sect. III): a set
of hazards whose probabilities are functions of the system's free
parameters, plus a cost model linking them.  Hazard probabilities can come
from two sources:

* :class:`FaultTreeHazard` — a fault tree whose leaf probabilities are
  parameterized (paper Eq. 3/4: substitute ``P(PF)(X)`` into the cut set
  sum), with a configurable quantification method and constraint policy;
* :class:`FormulaHazard` — a closed-form
  :class:`~repro.core.parametric.ParametricProbability`, for models like
  the paper's Sect. IV-B.3 formulas where the cut set structure has
  already been folded into an explicit expression.

``SafetyModel.to_problem()`` produces the optimization problem of
Sect. III-B; :class:`~repro.core.optimizer.SafetyOptimizer` drives it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.core.cost import CostModel
from repro.core.parameters import ParameterSpace
from repro.core.parametric import ParametricProbability, as_parametric
from repro.errors import ModelError
from repro.fta.constraints import ConstraintPolicy
from repro.fta.cutsets import CutSetCollection, mocus
from repro.fta.quantify import hazard_probability as _quantify
from repro.fta.tree import FaultTree
from repro.opt.problem import Problem, Vector

Values = Dict[str, float]
Assignment = Union[float, ParametricProbability]


class HazardModel:
    """Base: something that maps parameter values to a hazard probability."""

    parameters: frozenset

    def probability(self, values: Values) -> float:
        """Hazard probability for one parameter valuation."""
        raise NotImplementedError


class FormulaHazard(HazardModel):
    """A hazard given by a closed-form parametric probability."""

    def __init__(self, formula: ParametricProbability):
        self.formula = as_parametric(formula)
        self.parameters = self.formula.parameters

    def probability(self, values: Values) -> float:
        return self.formula(values)

    def __repr__(self) -> str:
        return f"FormulaHazard({self.formula.label})"


class FaultTreeHazard(HazardModel):
    """A hazard quantified from a fault tree with parameterized leaves.

    Parameters
    ----------
    tree:
        The hazard's fault tree.
    assignments:
        Maps leaf names (primary failures and conditions) to either fixed
        probabilities or :class:`ParametricProbability` objects.  Leaves
        absent here must carry default probabilities on their events.
    method:
        Quantification method (see :func:`repro.fta.quantify.hazard_probability`);
        the paper's standard choice is ``rare_event``.
    policy:
        Constraint-probability policy for INHIBIT conditions.

    Where the method supports it (:func:`repro.compile.supports_compilation`)
    the tree is compiled once and reused across every :meth:`probability`
    call — the optimizer-objective hot path — with results bit-identical
    to the interpreted quantification, which remains the fallback for
    the other methods.
    """

    def __init__(self, tree: FaultTree,
                 assignments: Optional[Mapping[str, Assignment]] = None,
                 method: str = "rare_event",
                 policy: ConstraintPolicy = ConstraintPolicy.INDEPENDENT):
        from repro.compile import supports_compilation
        self.tree = tree
        self.method = method
        self.policy = policy
        self._compilable = supports_compilation(tree, method)
        self._evaluator = None
        self.assignments: Dict[str, ParametricProbability] = {}
        for name, value in (assignments or {}).items():
            if name not in tree:
                raise ModelError(
                    f"assignment for unknown leaf {name!r} "
                    f"in tree {tree.name!r}")
            self.assignments[name] = as_parametric(value)
        self.parameters = frozenset().union(
            *(p.parameters for p in self.assignments.values())) \
            if self.assignments else frozenset()
        # Cut sets do not depend on the parameter values; cache them once
        # so repeated evaluations during optimization stay cheap.
        self._cut_sets: Optional[CutSetCollection] = None
        if method in ("rare_event", "mcub", "inclusion_exclusion") \
                and tree.is_coherent:
            self._cut_sets = mocus(tree)

    def _compiled_evaluator(self):
        """The lazily built (and then reused) compiled evaluator.

        Returns ``None`` when the method is not compilable (e.g.
        ``inclusion_exclusion``, or cut-set methods on non-coherent
        trees — those fall back to the interpreted path and fail there
        with the interpreted path's own diagnostics).
        """
        if self._evaluator is None and self._compilable:
            from repro.compile import compile_tree
            self._evaluator = compile_tree(
                self.tree, self.method, self.policy,
                cut_sets=self._cut_sets)
        return self._evaluator

    def probability(self, values: Values) -> float:
        overrides = {name: p(values)
                     for name, p in self.assignments.items()}
        evaluator = self._compiled_evaluator()
        if evaluator is not None:
            return evaluator.scalar(overrides)
        return _quantify(self.tree, overrides, method=self.method,
                         policy=self.policy, cut_sets=self._cut_sets)

    def probability_batch(self, points: Sequence[Values]) -> List[float]:
        """Hazard probabilities for many parameter valuations at once.

        The compiled batch path: parameterized leaves are evaluated per
        point (closures stay in-process), then the whole batch runs
        through one :mod:`repro.compile` evaluation.  Falls back to
        per-point :meth:`probability` calls for non-compilable methods;
        values are identical either way.
        """
        overrides = [{name: p(values)
                      for name, p in self.assignments.items()}
                     for values in points]
        evaluator = self._compiled_evaluator()
        if evaluator is not None:
            return [float(v) for v in evaluator.evaluate(overrides)]
        return [_quantify(self.tree, o, method=self.method,
                          policy=self.policy, cut_sets=self._cut_sets)
                for o in overrides]

    def to_sweep_job(self, axes=None, grid=None, chunks=None):
        """Package a grid quantification of this hazard as an engine job.

        Give exactly one of ``axes`` (per-parameter value lists whose
        cartesian product forms the grid) or ``grid`` (explicit list of
        parameter valuations).  The job inherits this hazard's tree,
        assignments, method and policy.
        """
        from repro.engine.jobs import SweepJob
        if (axes is None) == (grid is None):
            raise ModelError("give exactly one of axes= or grid=")
        if axes is not None:
            return SweepJob.from_axes(self.tree, self.assignments, axes,
                                      method=self.method,
                                      policy=self.policy, chunks=chunks)
        return SweepJob(self.tree, self.assignments, grid,
                        method=self.method, policy=self.policy,
                        chunks=chunks)

    def probability_grid(self, axes=None, grid=None, engine=None):
        """Quantify this hazard over a parameter grid.

        The engine-backed fast path for grid sweeps: with an
        :class:`~repro.engine.Engine` the evaluation is chunked across
        its worker pool and content-address cached; without one the same
        job runs serially in-process.  Returns a
        :class:`~repro.engine.SweepResult` either way, with values
        identical to calling :meth:`probability` point by point.
        """
        job = self.to_sweep_job(axes=axes, grid=grid)
        if engine is None:
            return job.run_serial()
        return engine.run(job)

    def __repr__(self) -> str:
        return (f"FaultTreeHazard({self.tree.name!r}, "
                f"method={self.method!r}, "
                f"{len(self.assignments)} parameterized leaves)")


class SafetyModel:
    """A complete safety-optimization model.

    Parameters
    ----------
    space:
        The free parameters and their compact domains.
    hazards:
        Mapping from hazard name to its :class:`HazardModel` (or a bare
        :class:`ParametricProbability`, auto-wrapped).
    cost_model:
        The hazard cost weights; must cover exactly the hazards given.
    name:
        Display name of the system under analysis.
    """

    def __init__(self, space: ParameterSpace,
                 hazards: Mapping[str, Union[HazardModel,
                                             ParametricProbability]],
                 cost_model: CostModel, name: str = "system"):
        if not hazards:
            raise ModelError("safety model needs at least one hazard")
        self.space = space
        self.name = name
        self.hazards: Dict[str, HazardModel] = {}
        for hazard_name, model in hazards.items():
            if isinstance(model, HazardModel):
                self.hazards[hazard_name] = model
            else:
                self.hazards[hazard_name] = FormulaHazard(model)
        self.cost_model = cost_model
        self._validate()

    def _validate(self) -> None:
        model_hazards = set(self.hazards)
        cost_hazards = set(self.cost_model.hazards)
        if model_hazards != cost_hazards:
            raise ModelError(
                f"cost model hazards {sorted(cost_hazards)} do not match "
                f"model hazards {sorted(model_hazards)}")
        known = set(self.space.names)
        for hazard_name, hazard in self.hazards.items():
            unknown = hazard.parameters - known
            if unknown:
                raise ModelError(
                    f"hazard {hazard_name!r} reads parameters "
                    f"{sorted(unknown)} not present in the parameter space")

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _values(self, point: Union[Sequence[float], Values]) -> Values:
        if isinstance(point, dict):
            # Round-trip through the vector form validates completeness.
            return self.space.to_dict(self.space.to_vector(point))
        return self.space.to_dict(point)

    def hazard_probability(self, hazard: str,
                           point: Union[Sequence[float], Values]) -> float:
        """Probability of one hazard at a configuration."""
        try:
            model = self.hazards[hazard]
        except KeyError:
            raise ModelError(f"unknown hazard {hazard!r}") from None
        return model.probability(self._values(point))

    def hazard_probabilities(self, point: Union[Sequence[float], Values]
                             ) -> Dict[str, float]:
        """Probabilities of all hazards at a configuration."""
        values = self._values(point)
        return {name: model.probability(values)
                for name, model in self.hazards.items()}

    def cost(self, point: Union[Sequence[float], Values]) -> float:
        """Expected cost at a configuration (paper Eq. 6)."""
        return self.cost_model.mean_cost(self.hazard_probabilities(point))

    def cost_breakdown(self, point: Union[Sequence[float], Values]
                       ) -> Dict[str, float]:
        """Per-hazard cost contributions at a configuration."""
        return self.cost_model.contributions(
            self.hazard_probabilities(point))

    # ------------------------------------------------------------------
    # Optimization interface
    # ------------------------------------------------------------------
    def to_problem(self) -> Problem:
        """The minimization problem of Sect. III-B over the parameter box."""
        return Problem(lambda x: self.cost(x), self.space.box(),
                       name=f"{self.name}:cost")

    def objectives(self, point: Vector) -> tuple:
        """Hazard-probability vector for multi-objective analysis."""
        probabilities = self.hazard_probabilities(point)
        return tuple(probabilities[name] for name in sorted(self.hazards))

    def __repr__(self) -> str:
        return (f"SafetyModel({self.name!r}, "
                f"hazards={sorted(self.hazards)}, "
                f"parameters={list(self.space.names)})")
