"""Compiled evaluators wired into engine, core, sim and CLI hot paths."""

import json

import pytest

from repro.compile import compile_tree, supports_compilation
from repro.core import FaultTreeHazard, identity
from repro.core.parametric import exceedance
from repro.engine import SweepJob, WorkerPool
from repro.engine.pool import run_quantify_chunk
from repro.fta.constraints import ConstraintPolicy
from repro.fta.cutsets import mocus
from repro.fta.dsl import AND, hazard, primary
from repro.fta.quantify import hazard_probability
from repro.fta.tree import FaultTree
from repro.stats.distributions import TruncatedNormal


def small_tree():
    shared = primary("S", 0.05)
    return FaultTree(hazard("H", OR_gate=[
        AND("L", shared, primary("A", 0.1)),
        AND("R", shared, primary("B", 0.2)),
        primary("C", 0.01)]))


def sweep_job(method="rare_event", chunks=None):
    values = [0.05 * i for i in range(1, 8)]
    return SweepJob.from_axes(
        small_tree(), {"A": identity("pA"), "B": identity("pB")},
        {"pA": values, "pB": values}, method=method, chunks=chunks)


def pointwise(job):
    """The reference: per-point interpreted quantification of a sweep."""
    return tuple(hazard_probability(job.tree,
                                    {"A": point["pA"], "B": point["pB"]},
                                    job.method)
                 for point in job.grid)


class TestSweepJob:
    @pytest.mark.parametrize("method", ["rare_event", "mcub", "exact"])
    def test_compiled_matches_interpreted(self, method):
        job = sweep_job(method)
        assert supports_compilation(job.tree, method)
        result = job.run_serial()
        assert result.values == pointwise(job)
        assert all(isinstance(v, float) for v in result.values)

    def test_fingerprint_matches_earlier_stores(self):
        # Pinned: the sweep route never entered the fingerprint, and
        # sqlite stores written before it became the only route must
        # stay warm.
        assert sweep_job().fingerprint() == (
            "7215133b8ebf23d6a6036ae7eb87f37f"
            "fda317b07cd56c17fa468f404f0a1584")
        assert sweep_job("exact").fingerprint() == (
            "387fd87462a903d4af3428102dbc630b"
            "d18caaff058b918bda67623f407fb523")

    def test_parallel_matches_serial(self):
        job = sweep_job("exact", chunks=3)
        assert job.run(WorkerPool(2)) == job.run_serial()

    @pytest.mark.parametrize("method", ["rare_event", "mcub", "exact"])
    def test_parallel_matches_pointwise(self, method):
        job = sweep_job(method, chunks=3)
        assert job.run(WorkerPool(2)).values == pointwise(job)

    def test_inclusion_exclusion_falls_back(self):
        job = sweep_job("inclusion_exclusion")
        assert not supports_compilation(job.tree, job.method)
        assert job.run_serial().values == pointwise(job)
        assert job.run(WorkerPool(2)).values == pointwise(job)

    def test_json_round_trip_of_compiled_values(self):
        result = sweep_job("exact").run_serial()
        encoded = json.loads(json.dumps(SweepJob.encode_result(result)))
        assert SweepJob.decode_result(encoded) == result


class TestQuantifyChunk:
    def test_chunk_matches_pointwise(self):
        tree = small_tree()
        cut_sets = mocus(tree)
        chunk = [(0, {"A": 0.3}), (1, {"B": 0.4})]
        result = run_quantify_chunk(
            (tree, cut_sets, "rare_event",
             ConstraintPolicy.INDEPENDENT, chunk))
        assert result == [(index, hazard_probability(tree, overrides))
                          for index, overrides in chunk]

    def test_compiled_chunk_exact(self):
        tree = small_tree()
        chunk = [(i, {"A": 0.1 * (i + 1)}) for i in range(4)]
        result = run_quantify_chunk(
            (tree, None, "exact", ConstraintPolicy.INDEPENDENT, chunk))
        for (index, overrides), (out_index, value) in zip(chunk, result):
            assert out_index == index
            assert value == hazard_probability(tree, overrides, "exact")


class TestFaultTreeHazard:
    leak = exceedance(TruncatedNormal(4.0, 2.0), "T")

    def hazard_model(self, method="rare_event"):
        return FaultTreeHazard(small_tree(), {"A": self.leak},
                               method=method)

    def reference(self, model, point):
        return hazard_probability(model.tree, {"A": self.leak(point)},
                                  model.method)

    @pytest.mark.parametrize("method", ["rare_event", "mcub", "exact"])
    def test_compiled_probability_matches_interpreted(self, method):
        model = self.hazard_model(method)
        for t in (1.0, 3.5, 7.0):
            assert model.probability({"T": t}) == \
                self.reference(model, {"T": t})
        assert model._evaluator is not None

    def test_evaluator_is_reused_across_calls(self):
        model = self.hazard_model("exact")
        model.probability({"T": 2.0})
        first = model._evaluator
        model.probability({"T": 5.0})
        assert model._evaluator is first

    def test_probability_batch_matches_pointwise(self):
        model = self.hazard_model("exact")
        points = [{"T": t} for t in (1.0, 2.0, 4.0, 8.0)]
        batch = model.probability_batch(points)
        assert batch == [model.probability(p) for p in points]

    def test_unsupported_method_falls_back(self):
        model = self.hazard_model("inclusion_exclusion")
        point = {"T": 3.0}
        assert model.probability(point) == self.reference(model, point)
        assert model.probability_batch([point]) == \
            [self.reference(model, point)]
        assert model._evaluator is None

    def test_probability_grid_uses_compiled_sweep(self):
        model = self.hazard_model("exact")
        axes = {"T": [1.0, 2.0, 3.0]}
        result = model.probability_grid(axes=axes)
        for point, value in result:
            assert value == model.probability(point)


class TestCompileCache:
    def test_compile_tree_memoizes_per_tree_object(self):
        tree = small_tree()
        assert compile_tree(tree, "exact") is compile_tree(tree, "exact")
        assert compile_tree(tree, "exact") is not \
            compile_tree(tree, "rare_event")
        assert compile_tree(small_tree(), "exact") is not \
            compile_tree(tree, "exact")

    def test_different_cut_sets_never_share_an_evaluator(self):
        tree = small_tree()
        truncated = mocus(tree, max_order=1)
        full = compile_tree(tree, "rare_event")
        partial = compile_tree(tree, "rare_event", cut_sets=truncated)
        assert partial is not full
        point = {"S": 0.3, "A": 0.3, "B": 0.3, "C": 0.1}
        assert partial.scalar(point) == hazard_probability(
            tree, point, "rare_event", cut_sets=truncated)
        assert full.scalar(point) == hazard_probability(
            tree, point, "rare_event")
        assert partial.scalar(point) != full.scalar(point)

    def test_sampler_cache_entries_are_collectable(self):
        import gc
        import weakref
        from repro.compile import compile_sampler
        tree = small_tree()
        compile_sampler(tree)
        ref = weakref.ref(tree)
        del tree
        gc.collect()
        assert ref() is None

    def test_terminal_root_still_validates_leaves(self):
        from repro.errors import QuantificationError
        from repro.fta.dsl import house
        tree = FaultTree(hazard("H", OR_gate=[
            house("ON", True), primary("A")]))  # A has no default
        evaluator = compile_tree(tree, "exact", cache=False)
        # The interpreted path rejects the missing leaf probability even
        # though the house event collapses the BDD to TRUE; so must we.
        with pytest.raises(QuantificationError):
            hazard_probability(tree, {}, "exact")
        with pytest.raises(QuantificationError):
            evaluator.scalar({})
        with pytest.raises(QuantificationError):
            evaluator.evaluate([{}])
        assert evaluator.scalar({"A": 0.5}) == 1.0
        assert evaluator.evaluate([{"A": 0.5}])[0] == 1.0


class TestCli:
    def test_compiled_and_interpreted_cli_results_agree(self, tmp_path,
                                                        capsys):
        from repro.cli import main
        from repro.elbtunnel import collision_fault_tree
        axes = {"OT1": [0.01, 0.02, 0.03], "OT2": [0.01, 0.02]}
        fixed = {"Other collision causes": 0.001}
        jobs = {"jobs": [{"type": "sweep", "tree": "collision",
                          "axes": axes, "probabilities": fixed}]}
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(jobs))
        assert main(["batch", str(path), "--json"]) == 0
        result = json.loads(capsys.readouterr().out)["results"][0]
        tree = collision_fault_tree()
        expected = [hazard_probability(tree, {**fixed, **point})
                    for point in result["result"]["points"]]
        assert result["result"]["values"] == expected
