"""The Engine façade: caching semantics, stats, wiring into core/sim/cli."""

import json

import pytest

from repro.core import (
    CostModel,
    FaultTreeHazard,
    HazardCost,
    Parameter,
    ParameterSpace,
    SafetyModel,
    constant,
    exceedance,
    identity,
)
from repro.engine import (
    Engine,
    MonteCarloJob,
    OptimizeJob,
    QuantifyJob,
    SweepJob,
)
from repro.errors import EngineError
from repro.fta import FaultTree, hazard_probability
from repro.fta.dsl import AND, OR, hazard, primary
from repro.sim import monte_carlo_probability
from repro.stats import TruncatedNormal


def small_tree():
    return FaultTree(hazard("H", OR_gate=[
        AND("AB", primary("A", 0.1), primary("B", 0.2)),
        primary("C", 0.05)]))


class TestRun:
    def test_cache_returns_identical_results_to_direct_calls(self):
        engine = Engine()
        tree = small_tree()
        direct = hazard_probability(tree)
        first = engine.run(QuantifyJob(tree))
        second = engine.run(QuantifyJob(tree))
        assert first == direct
        assert second == direct
        assert engine.executed == 1

    def test_structurally_identical_trees_share_cache_entries(self):
        engine = Engine()
        engine.run(QuantifyJob(small_tree()))
        engine.run(QuantifyJob(small_tree()))      # rebuilt, same structure
        assert engine.executed == 1
        assert engine.stats().cache["hits"] == 1

    def test_different_jobs_do_not_collide(self):
        engine = Engine()
        tree = small_tree()
        p_quant = engine.run(QuantifyJob(tree))
        est = engine.run(MonteCarloJob(tree, samples=1000, seed=0))
        assert engine.executed == 2
        assert est.samples == 1000
        assert p_quant == hazard_probability(tree)

    def test_rejects_non_jobs(self):
        with pytest.raises(EngineError):
            Engine().run("job")
        with pytest.raises(EngineError):
            Engine().submit(42)

    def test_different_raw_callables_never_share_cache_entries(self):
        from repro.core import from_function
        engine = Engine()
        tree = small_tree()
        low = engine.run(SweepJob(
            tree, {"A": from_function(lambda v: v["p"] * 0.1, {"p"})},
            [{"p": 1.0}]))
        high = engine.run(SweepJob(
            tree, {"A": from_function(lambda v: v["p"] * 0.9, {"p"})},
            [{"p": 1.0}]))
        assert engine.executed == 2
        assert low.values != high.values

    def test_returned_results_cannot_corrupt_the_cache(self):
        from repro.core import identity as ident
        engine = Engine()
        job = SweepJob.from_axes(small_tree(), {"A": ident("pA")},
                                 {"pA": [0.1, 0.2]})
        first = engine.run(job)
        first.points[0]["pA"] = 99.0          # caller mutates the result
        job.grid[1]["pA"] = -1.0              # and the job's own grid
        second = engine.run(SweepJob.from_axes(
            small_tree(), {"A": ident("pA")}, {"pA": [0.1, 0.2]}))
        assert engine.executed == 1           # served from cache ...
        assert second.points[0]["pA"] == 0.1  # ... uncorrupted
        assert second.points[1]["pA"] == 0.2

    def test_optimize_results_are_cached_in_memory(self):
        space = ParameterSpace([Parameter("T", 1.0, 30.0, 15.0)])
        model = SafetyModel(space, {"H": constant(0.25)},
                            CostModel([HazardCost("H", 100.0)]))
        engine = Engine()
        first = engine.run(OptimizeJob(model, method="zoom"))
        second = engine.run(OptimizeJob(model, method="zoom"))
        assert first is second       # raw object served from memory
        assert engine.executed == 1


class TestSubmitRunAll:
    def test_results_in_submission_order(self):
        engine = Engine()
        tree = small_tree()
        engine.submit(QuantifyJob(tree))
        engine.submit(QuantifyJob(tree, {"C": 0.5}))
        assert engine.pending == 2
        results = engine.run_all()
        assert engine.pending == 0
        assert results == [hazard_probability(tree),
                           hazard_probability(tree, {"C": 0.5})]

    def test_duplicate_submissions_execute_once(self):
        engine = Engine()
        tree = small_tree()
        for _ in range(4):
            engine.submit(QuantifyJob(tree))
        results = engine.run_all()
        assert len(set(results)) == 1
        assert engine.executed == 1
        assert engine.submitted == 4


class TestStats:
    def test_summary_mentions_counters(self):
        engine = Engine(workers=1)
        engine.run(QuantifyJob(small_tree()))
        engine.run(QuantifyJob(small_tree()))
        text = engine.stats().summary()
        assert "executed=1" in text
        assert "hits=1" in text
        assert "hit_rate=50.0%" in text


class TestDiskPersistence:
    def test_results_survive_engine_restarts(self, tmp_path):
        path = str(tmp_path / "cache.db")
        tree = small_tree()
        job = SweepJob.from_axes(tree, {"A": identity("pA")},
                                 {"pA": [0.1, 0.2, 0.3]})
        first_engine = Engine(cache_path=path)
        first = first_engine.run(job)
        assert first_engine.save_cache() == 1

        second_engine = Engine(cache_path=path)
        second = second_engine.run(
            SweepJob.from_axes(small_tree(), {"A": identity("pA")},
                               {"pA": [0.1, 0.2, 0.3]}))
        assert second == first
        assert second_engine.executed == 0

    def test_cache_object_and_path_are_exclusive(self, tmp_path):
        from repro.engine import ResultCache
        with pytest.raises(EngineError):
            Engine(cache=ResultCache(capacity=2),
                   cache_path=str(tmp_path / "c.db"))


class TestCoreWiring:
    def fault_tree_hazard(self):
        tree = FaultTree(hazard("H", OR_gate=[
            primary("A", 0.01),
            primary("OT")]))
        return FaultTreeHazard(
            tree, {"OT": exceedance(TruncatedNormal(4.0, 2.0), "T")})

    def test_probability_grid_matches_pointwise_probability(self):
        h = self.fault_tree_hazard()
        axes = {"T": [2.0, 4.0, 8.0]}
        result = h.probability_grid(axes=axes)
        for point, value in result:
            assert value == h.probability(point)

    def test_probability_grid_through_engine_is_cached(self):
        h = self.fault_tree_hazard()
        engine = Engine()
        axes = {"T": [2.0, 4.0]}
        first = h.probability_grid(axes=axes, engine=engine)
        second = h.probability_grid(axes=axes, engine=engine)
        assert first == second
        assert engine.executed == 1

    def test_probability_grid_requires_exactly_one_spec(self):
        from repro.errors import ModelError
        h = self.fault_tree_hazard()
        with pytest.raises(ModelError):
            h.probability_grid()
        with pytest.raises(ModelError):
            h.probability_grid(axes={"T": [1.0]}, grid=[{"T": 1.0}])


class TestSimWiring:
    def test_sharded_fast_path_matches_engine_job(self):
        tree = small_tree()
        via_sim = monte_carlo_probability(tree, samples=4000, seed=9,
                                          shards=4)
        via_job = MonteCarloJob(tree, samples=4000, seed=9,
                                shards=4).run_serial()
        assert via_sim == via_job

    def test_default_path_unchanged(self):
        tree = small_tree()
        classic = monte_carlo_probability(tree, samples=2000, seed=1)
        assert classic.samples == 2000
        # shards=1 goes through the historical single-stream sampler.
        assert monte_carlo_probability(tree, samples=2000, seed=1,
                                       shards=1) == classic

    def test_sim_surface_keeps_its_simulation_error_contract(self):
        from repro.errors import SimulationError
        tree = small_tree()
        for kwargs in ({"samples": 0, "shards": 4},
                       {"samples": 100, "shards": 0},
                       {"samples": 100, "shards": 101},
                       {"samples": 100, "workers": 0}):
            with pytest.raises(SimulationError):
                monte_carlo_probability(tree, **kwargs)


class TestBatchCli:
    def jobs_file(self, tmp_path):
        tree_probs = {"A": 0.1, "B": 0.2, "C": 0.05}
        spec = {"jobs": [
            {"type": "quantify",
             "tree": self.tree_dict(), "probabilities": tree_probs},
            {"type": "sweep", "tree": self.tree_dict(),
             "probabilities": {"B": 0.2, "C": 0.05},
             "axes": {"A": [0.0, 0.1]}},
            {"type": "montecarlo", "tree": self.tree_dict(),
             "probabilities": tree_probs,
             "samples": 500, "seed": 4, "shards": 2},
        ]}
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(spec))
        return str(path)

    @staticmethod
    def tree_dict():
        from repro.fta import tree_to_dict
        return tree_to_dict(FaultTree(hazard("H", OR_gate=[
            AND("AB", primary("A"), primary("B")), primary("C")])))

    def test_batch_text_report(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["batch", self.jobs_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "batch: 3 jobs" in out
        assert "quantify 'H'" in out
        assert "sweep 'H' over 2 points" in out
        assert "montecarlo 'H'" in out
        assert "engine:" in out

    def test_batch_json_output(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["batch", self.jobs_file(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 3
        kinds = [entry["type"] for entry in payload["results"]]
        assert kinds == ["quantify", "sweep", "montecarlo"]

    def test_batch_cache_warms_across_invocations(self, tmp_path, capsys):
        from repro.cli import main
        jobs = self.jobs_file(tmp_path)
        cache = str(tmp_path / "cache.db")
        assert main(["batch", jobs, "--cache", cache]) == 0
        cold = capsys.readouterr().out
        assert "executed=3" in cold
        assert main(["batch", jobs, "--cache", cache]) == 0
        warm = capsys.readouterr().out
        assert "executed=0" in warm
        assert "hits=3" in warm
        # identical reported results
        def strip(text):
            return [line for line in text.splitlines()
                    if line.startswith("[")]
        assert strip(cold) == strip(warm)

    def test_batch_builtin_tree_and_errors(self, tmp_path, capsys):
        from repro.cli import main
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"jobs": [{"type": "wat"}]}))
        assert main(["batch", str(bad)]) == 1
        assert "unknown job type" in capsys.readouterr().err

        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"jobs": []}))
        assert main(["batch", str(empty)]) == 1

        invalid = tmp_path / "invalid.json"
        invalid.write_text("{")
        assert main(["batch", str(invalid)]) == 1

    def test_batch_malformed_fields_get_clean_errors(self, tmp_path,
                                                     capsys):
        from repro.cli import main
        probs = {"A": 0.1, "B": 0.2, "C": 0.05}

        bad_policy = tmp_path / "p.json"
        bad_policy.write_text(json.dumps({"jobs": [
            {"type": "quantify", "tree": self.tree_dict(),
             "probabilities": probs, "policy": "bogus"}]}))
        assert main(["batch", str(bad_policy)]) == 1
        assert "unknown policy 'bogus'" in capsys.readouterr().err

        bad_samples = tmp_path / "s.json"
        bad_samples.write_text(json.dumps({"jobs": [
            {"type": "montecarlo", "tree": self.tree_dict(),
             "probabilities": probs, "samples": "lots"}]}))
        assert main(["batch", str(bad_samples)]) == 1
        assert "'samples' must be an integer" in capsys.readouterr().err
