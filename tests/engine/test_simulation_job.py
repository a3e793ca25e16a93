"""SimulationJob: validation, fingerprints, sharding, caching, codecs."""

from dataclasses import replace

import pytest

from repro.elbtunnel import (
    DesignVariant,
    SimulationConfig,
    TrafficConfig,
    simulate,
    simulate_batch,
)
from repro.engine import Engine, SimulationJob, WorkerPool
from repro.errors import EngineError
from repro.sim.batch import replication_seeds

TRAFFIC = TrafficConfig(ohv_rate=1 / 120.0, p_correct=1.0,
                        hv_odfinal_rate=0.13)


def config(**kwargs):
    defaults = dict(duration=60.0 * 24 * 5, timer1=30.0, timer2=15.6,
                    variant=DesignVariant.WITHOUT_LB4, traffic=TRAFFIC,
                    seed=0)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestValidation:
    def test_rejects_non_config(self):
        with pytest.raises(EngineError):
            SimulationJob({"duration": 10.0})

    def test_rejects_bad_replications(self):
        with pytest.raises(EngineError):
            SimulationJob(config(), replications=0)

    def test_seed_defaults_to_config_seed(self):
        assert SimulationJob(config(seed=9)).seed == 9
        assert SimulationJob(config(seed=9), seed=2).seed == 2


class TestFingerprint:
    def test_identical_requests_share_a_key(self):
        a = SimulationJob(config(), replications=4)
        b = SimulationJob(config(), replications=4)
        assert a.fingerprint() == b.fingerprint()

    def test_key_covers_the_simulation_config(self):
        base = SimulationJob(config(), replications=4)
        for changed in (config(timer2=12.0),
                        config(variant=DesignVariant.WITH_LB4),
                        config(od_miss_probability=0.1),
                        config(traffic=replace(TRAFFIC,
                                               hv_odfinal_rate=0.2)),
                        config(single_ohv_assumption=True),
                        config(seed=1)):
            assert SimulationJob(changed, replications=4).fingerprint() \
                != base.fingerprint()

    def test_key_covers_replications_and_seed(self):
        base = SimulationJob(config(), replications=4)
        assert SimulationJob(config(),
                             replications=8).fingerprint() != \
            base.fingerprint()
        assert SimulationJob(config(), replications=4,
                             seed=5).fingerprint() != base.fingerprint()

    def test_superseded_config_seed_does_not_split_the_key(self):
        """An explicit seed overrides the config's; two such jobs run
        byte-identical replications and must share a cache entry."""
        a = SimulationJob(config(seed=99), replications=4, seed=123)
        b = SimulationJob(config(seed=0), replications=4, seed=123)
        assert a.fingerprint() == b.fingerprint()
        assert list(a.run_serial().counters.rows()) == \
            list(b.run_serial().counters.rows())


class TestExecution:
    def test_single_replication_reproduces_scalar_simulate(self):
        result = SimulationJob(config(seed=3)).run_serial()
        assert result.counters.row(0) == \
            simulate(config(seed=3)).counters()

    def test_matches_in_process_batch(self):
        job = SimulationJob(config(), replications=6)
        assert list(job.run_serial().counters.rows()) == \
            list(simulate_batch(config(), 6).counters.rows())

    def test_seed_plan_matches_replication_seeds(self):
        job = SimulationJob(config(), replications=5, seed=11)
        assert job.seed_plan() == replication_seeds(11, 5)

    @pytest.mark.parametrize("workers,blocks_per_worker",
                             [(2, None), (3, 2), (4, 8), (2, 16)])
    def test_worker_and_shard_invariance(self, workers, blocks_per_worker,
                                         monkeypatch):
        """The acceptance contract: layout cannot perturb any counter."""
        if blocks_per_worker is not None:
            monkeypatch.setattr("repro.engine.pool.BLOCKS_PER_WORKER",
                                blocks_per_worker)
        reference = SimulationJob(config(),
                                  replications=8).run_serial()
        sharded = SimulationJob(config(),
                                replications=8).run(WorkerPool(workers))
        assert list(sharded.counters.rows()) == \
            list(reference.counters.rows())
        assert sharded.seeds == reference.seeds

    def test_describe_names_the_workload(self):
        text = SimulationJob(config(), replications=4).describe()
        assert "without_LB4" in text
        assert "4 replications" in text


class TestEngineIntegration:
    def test_cache_hit_on_identical_request(self):
        engine = Engine(workers=1)
        first = engine.run(SimulationJob(config(), replications=3))
        second = engine.run(SimulationJob(config(), replications=3))
        assert list(first.counters.rows()) == \
            list(second.counters.rows())
        stats = engine.stats()
        assert stats.executed == 1
        assert stats.cache["hits"] == 1

    def test_disk_cache_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.db")
        engine = Engine(workers=1, cache_path=path)
        result = engine.run(SimulationJob(config(), replications=3))
        engine.save_cache()

        fresh = Engine(workers=1, cache_path=path)
        cached = fresh.run(SimulationJob(config(), replications=3))
        assert fresh.executed == 0
        assert list(cached.counters.rows()) == \
            list(result.counters.rows())
        assert cached.seeds == result.seeds
