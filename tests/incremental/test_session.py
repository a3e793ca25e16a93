"""IncrementalSession: decomposition, caching, dirty tracking, sifting."""

import pytest

from repro.engine.cache import ResultCache, create_cache
from repro.errors import IncrementalError
from repro.fta import hazard_probability, modular_probability
from repro.fta.dsl import AND, hazard, house, primary
from repro.fta.tree import FaultTree
from repro.incremental import IncrementalSession, IncrementalStats


def wide_tree(blocks=5):
    """One independent AND module per block under the top OR."""
    parts = [AND(f"block{i}",
                 primary(f"a{i}", 0.01), primary(f"b{i}", 0.02))
             for i in range(blocks)]
    return FaultTree(hazard("H", OR_gate=parts))


def shared_leaf_tree():
    """A shared leaf across branches: no modules, monolithic spine."""
    power = primary("power", 0.01)
    left = AND("left", power, primary("a", 0.1))
    right = AND("right", power, primary("b", 0.2))
    return FaultTree(hazard("H", OR_gate=[left, right]))


class TestQuantify:
    def test_bit_identical_to_modular_exact(self):
        tree = wide_tree()
        session = IncrementalSession(tree)
        assert session.quantify() == \
            modular_probability(tree, method="exact")
        assert session.modules == [f"block{i}" for i in range(5)]

    def test_no_modules_is_bit_identical_to_monolithic(self):
        tree = shared_leaf_tree()
        session = IncrementalSession(tree)
        assert session.modules == []
        assert session.quantify() == \
            hazard_probability(tree, method="exact")

    def test_overrides_respected(self):
        tree = wide_tree()
        session = IncrementalSession(tree, {"a0": 0.5})
        assert session.quantify() == \
            modular_probability(tree, {"a0": 0.5}, method="exact")
        assert session.overrides == {"a0": 0.5}

    def test_requires_fault_tree_and_valid_threshold(self):
        with pytest.raises(IncrementalError):
            IncrementalSession("not-a-tree")
        with pytest.raises(IncrementalError):
            IncrementalSession(wide_tree(), sift_threshold=0)

    def test_repeat_quantify_is_memoized(self):
        session = IncrementalSession(wide_tree())
        first = session.quantify()
        compiles = session.stats.as_dict()["module_compiles"]
        assert session.quantify() == first
        assert session.stats.as_dict()["module_compiles"] == compiles


class TestDirtyTracking:
    def test_rate_edit_recomputes_only_owner_module(self):
        session = IncrementalSession(wide_tree())
        session.quantify()
        report = session.apply([{"op": "set_rate", "event": "a2",
                                 "probability": 0.05}])
        assert report.dirty == ("block2", "H")
        assert set(report.clean) == {"block0", "block1", "block3",
                                     "block4"}
        assert not report.structural
        assert report.value == modular_probability(
            wide_tree(), {"a2": 0.05}, method="exact")

    def test_gate_edit_keeps_other_modules_clean(self):
        session = IncrementalSession(wide_tree())
        session.quantify()
        report = session.apply([{"op": "set_gate", "event": "block1",
                                 "type": "or"}])
        assert report.structural
        assert report.dirty == ("block1", "H")
        cold = IncrementalSession(session.tree).quantify()
        assert report.value == cold

    def test_house_edit_flows_through(self):
        parts = [AND("m0", primary("a", 0.1), primary("b", 0.2)),
                 house("override", False)]
        tree = FaultTree(hazard("H", OR_gate=parts))
        session = IncrementalSession(tree)
        assert session.quantify() < 1.0
        report = session.apply([{"op": "set_house", "event": "override",
                                 "state": True}])
        assert report.value == 1.0

    def test_edit_then_requantify_equals_cold(self):
        session = IncrementalSession(wide_tree())
        session.quantify()
        session.apply([{"op": "set_rate", "event": "b4",
                        "probability": 0.3}])
        report = session.apply([{"op": "set_gate", "event": "block0",
                                 "type": "or"}])
        cold = IncrementalSession(session.tree,
                                  session.overrides).quantify()
        assert report.value == cold

    def test_report_is_json_safe(self):
        import json
        session = IncrementalSession(wide_tree())
        report = session.apply([{"op": "set_rate", "event": "a0",
                                 "probability": 0.2}])
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["value"] == report.value
        assert payload["dirty"] == list(report.dirty)


class TestCachePersistence:
    def test_second_session_serves_values_from_cache(self):
        cache = ResultCache(capacity=128)
        tree = wide_tree()
        first = IncrementalSession(tree, cache=cache)
        value = first.quantify()
        second = IncrementalSession(tree, cache=cache)
        assert second.quantify() == value
        stats = second.stats.as_dict()
        assert stats["module_compiles"] == 0
        assert stats["value_misses"] == 0
        assert stats["value_hits"] == 6    # 5 modules + spine

    def test_tapes_survive_for_fresh_values(self):
        cache = ResultCache(capacity=128)
        tree = wide_tree()
        IncrementalSession(tree, cache=cache).quantify()
        second = IncrementalSession(tree, {"a0": 0.9}, cache=cache)
        second.quantify()
        stats = second.stats.as_dict()
        # block0's value changed, so its tape is fetched (not rebuilt)
        # and re-evaluated; the other values hit outright.
        assert stats["module_compiles"] == 0
        assert stats["tape_hits"] == 2     # block0 + spine
        assert stats["value_hits"] == 4

    def test_sqlite_backend_round_trip(self, tmp_path):
        path = str(tmp_path / "incr.db")
        tree = wide_tree()
        cache = create_cache(path=path)
        baseline = IncrementalSession(tree, cache=cache).quantify()
        cache.save()
        cache.close()
        warm = create_cache(path=path)
        session = IncrementalSession(tree, cache=warm)
        assert session.quantify() == baseline
        assert session.stats.as_dict()["module_compiles"] == 0
        warm.close()

    def test_corrupt_tape_payload_recompiles(self):
        cache = ResultCache(capacity=128)
        tree = shared_leaf_tree()
        session = IncrementalSession(tree, cache=cache)
        baseline = session.quantify()
        for key in list(cache.hot_keys()):
            if key.startswith("incr-tape|"):
                cache.put(key, {"garbage": True})
            if key.startswith("incr-val|"):
                cache.put(key, "not-a-float")
        again = IncrementalSession(tree, cache=cache)
        assert again.quantify() == baseline
        assert again.stats.as_dict()["module_compiles"] == 1


class TestSifting:
    def adversarial(self, n=8):
        xs = [primary(f"x{i}", 0.01) for i in range(n)]
        ys = [primary(f"y{i}", 0.02) for i in range(n)]
        probe = AND("probe", *xs)
        pairs = [AND(f"pair{i}", xs[i], ys[i]) for i in range(n)]
        return FaultTree(hazard("H", OR_gate=[probe] + pairs))

    def test_threshold_triggers_sifting(self):
        tree = self.adversarial()
        plain = IncrementalSession(tree)
        sifted = IncrementalSession(tree, sift_threshold=32)
        stats = sifted.stats.as_dict()
        assert stats["sift_passes"] == 0   # nothing compiled yet
        value = sifted.quantify()
        stats = sifted.stats.as_dict()
        assert stats["sift_passes"] >= 1
        assert stats["sift_nodes_after"] < stats["sift_nodes_before"]
        assert value == pytest.approx(plain.quantify(), rel=1e-12)

    def test_sift_setting_partitions_the_cache(self):
        cache = ResultCache(capacity=128)
        tree = self.adversarial()
        IncrementalSession(tree, cache=cache).quantify()
        sifted = IncrementalSession(tree, cache=cache, sift_threshold=32)
        sifted.quantify()
        # Different arithmetic => different keys => no cross-hits.
        assert sifted.stats.as_dict()["tape_hits"] == 0
        assert sifted.stats.as_dict()["value_hits"] == 0

    def test_below_threshold_does_not_sift(self):
        session = IncrementalSession(wide_tree(),
                                     sift_threshold=10_000)
        session.quantify()
        assert session.stats.as_dict()["sift_passes"] == 0


class TestStats:
    def test_shared_stats_aggregate(self):
        stats = IncrementalStats()
        IncrementalSession(wide_tree(), stats=stats).quantify()
        IncrementalSession(wide_tree(), stats=stats).quantify()
        snapshot = stats.as_dict()
        assert snapshot["sessions"] == 2
        assert snapshot["requantifications"] == 2

    def test_describe(self):
        session = IncrementalSession(wide_tree(), sift_threshold=64)
        info = session.describe()
        assert info["tree"] == "H"
        assert info["units"] == 6
        assert info["sift_threshold"] == 64
        assert info["cached"] is False
