"""Job specs: validation, serial/parallel equivalence, result codecs."""

import pytest

from repro.core import (
    CostModel,
    HazardCost,
    Parameter,
    ParameterSpace,
    SafetyModel,
    constant,
    identity,
)
from repro.engine import (
    MonteCarloJob,
    OptimizeJob,
    QuantifyJob,
    SweepJob,
    SweepResult,
    WorkerPool,
)
from repro.errors import EngineError
from repro.fta import ConstraintPolicy, FaultTree, hazard_probability
from repro.fta.dsl import AND, OR, hazard, primary
from repro.sim import monte_carlo_probability


def small_tree():
    return FaultTree(hazard("H", OR_gate=[
        AND("AB", primary("A", 0.1), primary("B", 0.2)),
        primary("C", 0.05)]))


def small_model():
    space = ParameterSpace([Parameter("T", 1.0, 30.0, 15.0)])
    return SafetyModel(
        space,
        {"H": constant(0.1) * constant(0.5)},
        CostModel([HazardCost("H", 1000.0)]))


class TestQuantifyJob:
    def test_matches_direct_call(self):
        tree = small_tree()
        job = QuantifyJob(tree)
        assert job.run_serial() == hazard_probability(tree)

    def test_methods_agree_with_direct_api(self):
        tree = small_tree()
        for method in ("rare_event", "mcub", "exact"):
            job = QuantifyJob(tree, method=method)
            assert job.run_serial() == \
                hazard_probability(tree, method=method)

    def test_override_probabilities(self):
        tree = small_tree()
        job = QuantifyJob(tree, {"C": 0.5})
        assert job.run_serial() == hazard_probability(tree, {"C": 0.5})

    def test_fingerprint_distinguishes_method_and_overrides(self):
        tree = small_tree()
        base = QuantifyJob(tree).fingerprint()
        assert QuantifyJob(tree, method="exact").fingerprint() != base
        assert QuantifyJob(tree, {"C": 0.1}).fingerprint() != base
        assert QuantifyJob(
            tree, policy=ConstraintPolicy.WORST_CASE).fingerprint() != base

    def test_rejects_bad_inputs(self):
        tree = small_tree()
        with pytest.raises(EngineError):
            QuantifyJob("nope")
        with pytest.raises(EngineError):
            QuantifyJob(tree, method="wat")
        with pytest.raises(EngineError):
            QuantifyJob(tree, {"C": 1.5})
        with pytest.raises(EngineError):
            QuantifyJob(tree, policy="independent")


class TestSweepJob:
    def test_matches_point_by_point_direct_calls(self):
        tree = small_tree()
        job = SweepJob.from_axes(tree, {"A": identity("pA")},
                                 {"pA": [0.0, 0.1, 0.3]})
        result = job.run_serial()
        for point, value in result:
            assert value == hazard_probability(tree, {"A": point["pA"]})

    def test_serial_and_parallel_results_identical(self):
        tree = small_tree()
        job = SweepJob.from_axes(
            tree, {"A": identity("pA"), "B": identity("pB")},
            {"pA": [0.05, 0.1], "pB": [0.1, 0.2, 0.3]})
        assert job.run(WorkerPool(1)) == job.run(WorkerPool(2))

    def test_base_probabilities_apply_at_every_point(self):
        tree = small_tree()
        job = SweepJob.from_axes(tree, {"A": identity("pA")},
                                 {"pA": [0.1]},
                                 probabilities={"C": 0.5})
        (point, value), = list(job.run_serial())
        assert value == hazard_probability(tree, {"A": 0.1, "C": 0.5})

    def test_grid_is_row_major_cartesian_product(self):
        tree = small_tree()
        job = SweepJob.from_axes(tree, {"A": identity("pA"),
                                        "B": identity("pB")},
                                 {"pA": [0.1, 0.2], "pB": [0.3, 0.4]})
        assert job.grid == [
            {"pA": 0.1, "pB": 0.3}, {"pA": 0.1, "pB": 0.4},
            {"pA": 0.2, "pB": 0.3}, {"pA": 0.2, "pB": 0.4}]

    def test_best_and_series_helpers(self):
        tree = small_tree()
        job = SweepJob.from_axes(tree, {"A": identity("pA")},
                                 {"pA": [0.3, 0.0, 0.1]})
        result = job.run_serial()
        point, value = result.best()
        assert point == {"pA": 0.0}
        assert value == min(result.values)
        assert [x for x, _y in result.series("pA")] == [0.3, 0.0, 0.1]

    def test_encode_decode_round_trip(self):
        tree = small_tree()
        job = SweepJob.from_axes(tree, {"A": identity("pA")},
                                 {"pA": [0.1, 0.2]})
        result = job.run_serial()
        assert SweepJob.decode_result(job.encode_result(result)) == result

    def test_fingerprint_covers_grid_and_assignments(self):
        tree = small_tree()
        base = SweepJob.from_axes(tree, {"A": identity("pA")},
                                  {"pA": [0.1, 0.2]}).fingerprint()
        assert SweepJob.from_axes(tree, {"A": identity("pA")},
                                  {"pA": [0.1, 0.3]}).fingerprint() != base
        assert SweepJob.from_axes(tree, {"B": identity("pA")},
                                  {"pA": [0.1, 0.2]}).fingerprint() != base
        assert SweepJob.from_axes(tree, {"A": identity("pA")},
                                  {"pA": [0.1, 0.2]},
                                  probabilities={"C": 0.4}
                                  ).fingerprint() != base

    def test_validation(self):
        tree = small_tree()
        with pytest.raises(EngineError):
            SweepJob(tree, {}, [{"pA": 0.1}])
        with pytest.raises(EngineError):
            SweepJob(tree, {"nope": identity("pA")}, [{"pA": 0.1}])
        with pytest.raises(EngineError):
            SweepJob(tree, {"A": identity("pA")}, [])
        with pytest.raises(EngineError):
            SweepJob(tree, {"A": identity("pA")}, [{"other": 0.1}])


class TestMonteCarloJob:
    def test_single_shard_is_bit_identical_to_direct_api(self):
        tree = small_tree()
        job = MonteCarloJob(tree, samples=5000, seed=11)
        assert job.run_serial() == \
            monte_carlo_probability(tree, samples=5000, seed=11)

    def test_sharded_run_is_deterministic_and_pool_independent(self):
        tree = small_tree()
        job = MonteCarloJob(tree, samples=8000, seed=3, shards=4)
        serial = job.run(WorkerPool(1))
        parallel = job.run(WorkerPool(2))
        assert serial == parallel
        assert serial.samples == 8000

    def test_sharded_estimate_agrees_with_analytic_value(self):
        tree = small_tree()
        exact = hazard_probability(tree, method="exact")
        job = MonteCarloJob(tree, samples=40_000, seed=5, shards=4)
        assert job.run_serial().agrees_with(exact)

    def test_shard_plan_partitions_samples(self):
        job = MonteCarloJob(small_tree(), samples=10_001, seed=1, shards=4)
        plan = job.shard_plan()
        assert sum(n for n, _seed in plan) == 10_001
        assert len({seed for _n, seed in plan}) == 4

    def test_single_shard_uses_the_seed_unchanged(self):
        job = MonteCarloJob(small_tree(), samples=100, seed=7)
        assert job.shard_plan() == [(100, 7)]

    def test_encode_decode_round_trip(self):
        job = MonteCarloJob(small_tree(), samples=2000, seed=1, shards=2)
        estimate = job.run_serial()
        assert MonteCarloJob.decode_result(
            job.encode_result(estimate)) == estimate

    def test_validation(self):
        tree = small_tree()
        with pytest.raises(EngineError):
            MonteCarloJob(tree, samples=0)
        with pytest.raises(EngineError):
            MonteCarloJob(tree, samples=10, shards=0)
        with pytest.raises(EngineError):
            MonteCarloJob(tree, samples=10, shards=11)
        with pytest.raises(EngineError):
            MonteCarloJob(tree, samples=10, confidence=1.0)

    def test_fingerprint_includes_sampling_plan(self):
        tree = small_tree()
        base = MonteCarloJob(tree, samples=1000, seed=0).fingerprint()
        assert MonteCarloJob(tree, samples=1000,
                             seed=1).fingerprint() != base
        assert MonteCarloJob(tree, samples=2000,
                             seed=0).fingerprint() != base
        assert MonteCarloJob(tree, samples=1000, seed=0,
                             shards=2).fingerprint() != base


class TestOptimizeJob:
    def test_runs_the_optimizer(self):
        job = OptimizeJob(small_model(), method="zoom")
        result = job.run_serial()
        assert result.method == "zoom"
        assert result.optimal_cost == pytest.approx(50.0)

    def test_is_not_persistable(self):
        assert OptimizeJob.persistable is False

    def test_validation(self):
        with pytest.raises(EngineError):
            OptimizeJob("not a model")
        with pytest.raises(EngineError):
            OptimizeJob(small_model(), method="wat")
        with pytest.raises(EngineError):
            OptimizeJob(small_model(), baseline=(1.0, 2.0))

    def test_fingerprint_distinguishes_method_and_options(self):
        model = small_model()
        base = OptimizeJob(model, method="zoom").fingerprint()
        assert OptimizeJob(model, method="grid").fingerprint() != base
        assert OptimizeJob(model, method="zoom",
                           baseline=(10.0,)).fingerprint() != base


class TestSweepResult:
    def test_len_and_iter(self):
        result = SweepResult(points=({"x": 1.0}, {"x": 2.0}),
                             values=(0.1, 0.2))
        assert len(result) == 2
        assert list(result) == [({"x": 1.0}, 0.1), ({"x": 2.0}, 0.2)]
