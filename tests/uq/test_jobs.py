"""UncertaintyJob: engine integration, sharding determinism, caching."""

import json

import pytest

from repro.elbtunnel import corridor_fault_tree, corridor_uncertain_model
from repro.engine import Engine, UncertaintyJob
from repro.errors import EngineError
from repro.stats import Uniform
from repro.uq import from_error_factors

from tests._oracles.uq import loop_propagate


@pytest.fixture(scope="module")
def tree():
    return corridor_fault_tree(sections=6)


@pytest.fixture(scope="module")
def model(tree):
    return corridor_uncertain_model(sections=6)


class TestValidation:
    def test_requires_uncertain_model(self, tree):
        with pytest.raises(EngineError):
            UncertaintyJob(tree, {"A": 0.5})

    def test_rejects_bad_parameters(self, tree, model):
        with pytest.raises(EngineError):
            UncertaintyJob(tree, model, samples=0)
        with pytest.raises(EngineError):
            UncertaintyJob(tree, model, sampler="sobol")
        with pytest.raises(EngineError):
            UncertaintyJob(tree, model, method="inclusion_exclusion")

    def test_describe(self, tree, model):
        text = UncertaintyJob(tree, model, samples=128).describe()
        assert "uncertainty" in text and "128" in text


class TestDeterminism:
    def test_bit_identical_across_worker_counts(self, tree, model):
        """The ISSUE-4 determinism pin: workers 1/2/4 agree bit for bit,
        and all match the scalar per-sample reference loop."""
        results = []
        for workers in (1, 2, 4):
            engine = Engine(workers=workers)
            job = UncertaintyJob(tree, model, samples=96, seed=11,
                                 sampler="lhs")
            results.append(engine.run(job))
        assert results[0].samples == results[1].samples
        assert results[0].samples == results[2].samples
        reference = loop_propagate(tree, model, n_samples=96,
                                   seed=11, sampler="lhs")
        assert results[0].samples == reference.samples

    @pytest.mark.parametrize("blocks_per_worker", [1, 3, 8])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunks_match_the_loop_oracle(self, tree, model, workers,
                                          blocks_per_worker, monkeypatch):
        monkeypatch.setattr("repro.engine.pool.BLOCKS_PER_WORKER",
                            blocks_per_worker)
        job = UncertaintyJob(tree, model, samples=40, seed=5,
                             sampler="lhs")
        reference = loop_propagate(tree, model, n_samples=40, seed=5,
                                   sampler="lhs")
        assert Engine(workers=workers).run(job).samples \
            == reference.samples

    def test_bit_identical_across_chunk_counts(self, tree, model,
                                               monkeypatch):
        results = []
        for blocks_per_worker in (1, 3, 7):
            monkeypatch.setattr("repro.engine.pool.BLOCKS_PER_WORKER",
                                blocks_per_worker)
            engine = Engine(workers=2)
            job = UncertaintyJob(tree, model, samples=50, seed=4,
                                 sampler="mc")
            results.append(engine.run(job))
        assert results[0].samples == results[1].samples
        assert results[0].samples == results[2].samples

    def test_serial_run_equals_pooled_run(self, tree, model):
        job = UncertaintyJob(tree, model, samples=64, seed=2)
        serial = job.run_serial()
        pooled = Engine(workers=3).run(
            UncertaintyJob(tree, model, samples=64, seed=2))
        assert serial.samples == pooled.samples


class TestFingerprints:
    def test_semantically_identical_jobs_share_keys(self, tree, model):
        a = UncertaintyJob(tree, model, samples=64, seed=2)
        b = UncertaintyJob(corridor_fault_tree(sections=6),
                           corridor_uncertain_model(sections=6),
                           samples=64, seed=2)
        assert a.fingerprint() == b.fingerprint()

    def test_every_option_feeds_the_key(self, tree, model):
        base = UncertaintyJob(tree, model, samples=64, seed=2)
        variants = [
            UncertaintyJob(tree, model, samples=65, seed=2),
            UncertaintyJob(tree, model, samples=64, seed=3),
            UncertaintyJob(tree, model, samples=64, seed=2,
                           sampler="mc"),
            UncertaintyJob(tree, model, samples=64, seed=2,
                           method="rare_event"),
            UncertaintyJob(tree, model.updated(
                {"Signal not shown": Uniform(0.0, 0.1)}),
                samples=64, seed=2),
        ]
        keys = {base.fingerprint()} | {v.fingerprint()
                                       for v in variants}
        assert len(keys) == len(variants) + 1


class TestCaching:
    def test_cache_hit_returns_equal_result(self, tree, model):
        engine = Engine(workers=1)
        first = engine.run(UncertaintyJob(tree, model, samples=48,
                                          seed=7))
        second = engine.run(UncertaintyJob(tree, model, samples=48,
                                           seed=7))
        assert engine.executed == 1
        assert engine.stats().cache["hits"] == 1
        assert second == first
        assert second.samples == first.samples

    def test_cache_payloads_are_byte_equal(self, tree, model):
        """Two independent executions encode to byte-identical JSON —
        the disk-persisted cache is reproducible across sessions."""
        job = UncertaintyJob(tree, model, samples=48, seed=7)
        a = json.dumps(UncertaintyJob.encode_result(job.run_serial()),
                       sort_keys=True).encode()
        b = json.dumps(UncertaintyJob.encode_result(job.run_serial()),
                       sort_keys=True).encode()
        assert a == b

    def test_disk_round_trip(self, tree, model, tmp_path):
        path = str(tmp_path / "uq-cache.db")
        engine = Engine(workers=1, cache_path=path)
        job = UncertaintyJob(tree, model, samples=32, seed=1)
        original = engine.run(job)
        engine.save_cache()

        fresh = Engine(workers=1, cache_path=path)
        revived = fresh.run(UncertaintyJob(tree, model, samples=32,
                                           seed=1))
        assert fresh.executed == 0
        assert revived == original


class TestSmallModelsThroughJobs:
    def test_error_factor_model_on_fixture_tree(self, bridge_tree):
        model = from_error_factors(bridge_tree, 3.0)
        result = Engine(workers=1).run(
            UncertaintyJob(bridge_tree, model, samples=40, seed=0))
        assert result.n_samples == 40
        reference = loop_propagate(bridge_tree, model,
                                   n_samples=40, seed=0)
        assert result.samples == reference.samples
