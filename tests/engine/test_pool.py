"""Worker pool: chunking, seed derivation, serial/parallel equivalence."""

import pytest

from repro.engine import WorkerPool, derive_seed
from repro.engine.pool import (
    chunk_indices,
    run_monte_carlo_shard,
    run_quantify_chunk,
)
from repro.errors import EngineError
from repro.fta import ConstraintPolicy, FaultTree, mocus
from repro.fta.dsl import OR, hazard, primary


def small_tree():
    return FaultTree(hazard("H", OR_gate=[primary("A", 0.1),
                                          primary("B", 0.2)]))


def _offset_rows(payload):
    """A row-wise worker function: every row plus the common offset."""
    offset, block = payload
    return [offset + row for row in block]


class RecordingPool(WorkerPool):
    """Runs ``map`` in-process and keeps every payload it was given."""

    def __init__(self, workers):
        super().__init__(workers)
        self.payloads = []

    def map(self, fn, payloads, timeout=None):
        self.payloads.extend(payloads)
        return [fn(payload) for payload in payloads]


class TestChunking:
    def test_even_split(self):
        assert chunk_indices(6, 3) == [(0, 2), (2, 4), (4, 6)]

    def test_remainder_spread_over_leading_chunks(self):
        assert chunk_indices(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_more_chunks_than_items_collapses(self):
        assert chunk_indices(2, 5) == [(0, 1), (1, 2)]

    def test_covers_every_index_exactly_once(self):
        bounds = chunk_indices(23, 4)
        seen = [i for start, stop in bounds for i in range(start, stop)]
        assert seen == list(range(23))

    def test_rejects_empty(self):
        with pytest.raises(EngineError):
            chunk_indices(0, 3)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)

    def test_distinct_across_shards_and_seeds(self):
        seeds = {derive_seed(s, i) for s in range(4) for i in range(8)}
        assert len(seeds) == 32

    def test_no_additive_collision(self):
        # seed+shard arithmetic would make (1, 2) collide with (2, 1).
        assert derive_seed(1, 2) != derive_seed(2, 1)


class TestWorkerPool:
    def test_workers_default_to_cpu_count(self):
        assert WorkerPool().workers >= 1

    def test_rejects_zero_workers(self):
        with pytest.raises(EngineError):
            WorkerPool(0)

    def test_serial_map_preserves_order(self):
        pool = WorkerPool(1)
        results = pool.map(run_monte_carlo_shard,
                           [(small_tree(), None, 100, seed)
                            for seed in (1, 2, 3)])
        assert [samples for _occ, samples in results] == [100, 100, 100]

    def test_empty_payloads(self):
        assert WorkerPool(2).map(run_monte_carlo_shard, []) == []

    def test_parallel_map_matches_serial(self):
        tree = small_tree()
        common = (tree, mocus(tree), "rare_event",
                  ConstraintPolicy.INDEPENDENT)
        points = [{"A": 0.01 * (i + 1), "B": 0.2} for i in range(8)]
        payloads = [(common, points[:4]), (common, points[4:])]
        serial = WorkerPool(1).map(run_quantify_chunk, payloads)
        parallel = WorkerPool(2).map(run_quantify_chunk, payloads)
        assert serial == parallel

    def test_worker_exceptions_propagate(self):
        tree = small_tree()
        payloads = [((tree, None, "no_such_method",
                      ConstraintPolicy.INDEPENDENT), [{}])]
        from repro.errors import QuantificationError
        with pytest.raises(QuantificationError):
            WorkerPool(1).map(run_quantify_chunk, payloads)


class TestMapRows:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_come_back_in_row_order(self, workers):
        rows = list(range(23))
        assert WorkerPool(workers).map_rows(_offset_rows, 100, rows) == \
            [100 + row for row in rows]

    def test_one_block_at_one_worker(self):
        pool = RecordingPool(1)
        pool.map_rows(_offset_rows, 0, list(range(40)))
        assert pool.payloads == [(0, list(range(40)))]

    def test_blocks_per_worker_through_map(self, monkeypatch):
        # The layout lever the invariance tests turn must reach the split.
        monkeypatch.setattr("repro.engine.pool.BLOCKS_PER_WORKER", 2)
        pool = RecordingPool(3)
        assert pool.map_rows(_offset_rows, 1, list(range(40))) == \
            list(range(1, 41))
        assert len(pool.payloads) == 2 * 3
        assert [row for _common, block in pool.payloads
                for row in block] == list(range(40))
