"""CLI: every subcommand runs and prints the expected artifacts."""

import json

import pytest

from repro.cli import build_parser, main
from repro.fta import tree_to_json


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_study(self, capsys):
        assert main(["study"]) == 0
        out = capsys.readouterr().out
        assert "19" in out and "15.6" in out

    def test_optimize(self, capsys):
        assert main(["optimize", "--method", "nelder_mead"]) == 0
        out = capsys.readouterr().out
        assert "optimum" in out

    def test_fig5(self, capsys):
        assert main(["fig5", "--points", "5"]) == 0
        out = capsys.readouterr().out
        assert "minimum" in out

    def test_fig6(self, capsys):
        assert main(["fig6", "--points", "5"]) == 0
        out = capsys.readouterr().out
        assert "without_LB4" in out and "with_LB4" in out

    @pytest.mark.parametrize("tree", ["fig2", "collision", "false-alarm"])
    def test_cutsets_builtin(self, capsys, tree):
        assert main(["cutsets", "--tree", tree]) == 0
        out = capsys.readouterr().out
        assert "Minimal cut sets" in out

    def test_cutsets_from_file(self, capsys, tmp_path, simple_or_tree):
        path = tmp_path / "tree.json"
        path.write_text(tree_to_json(simple_or_tree))
        assert main(["cutsets", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "{A}" in out and "{B}" in out

    def test_report_from_file(self, capsys, tmp_path, bridge_tree):
        path = tmp_path / "tree.json"
        path.write_text(tree_to_json(bridge_tree))
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Top minimal cut sets" in out
        assert "Importance ranking" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "--days", "20", "--variant",
                     "with_LB4"]) == 0
        out = capsys.readouterr().out
        assert "P(alarm|OHV)" in out
        assert "collisions" in out

    def test_simulate_batched_replications(self, capsys):
        assert main(["simulate", "--days", "5", "--replications", "3",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "5 days x 3 replications" in out
        assert "between-run var" in out
        assert "rep 2" in out

    def test_simulate_json_payload(self, capsys):
        assert main(["simulate", "--days", "5", "--replications", "2",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["replications"] == 2
        assert len(payload["counters"]) == 2
        assert len(payload["seeds"]) == 2
        pooled = payload["pooled"]
        assert pooled["counters"]["ohvs_total"] == \
            sum(row["ohvs_total"] for row in payload["counters"])
        low, high = pooled["ci"]
        assert 0.0 <= low <= pooled["correct_ohv_alarm_fraction"] \
            <= high <= 1.0

    def test_fig6_simulation_check(self, capsys):
        assert main(["fig6", "--points", "5", "--simulate",
                     "--replications", "2", "--days", "10"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6 simulation check" in out
        assert "measured" in out


class TestUncertainty:
    @pytest.mark.parametrize("tree", ["collision", "false-alarm",
                                      "corridor"])
    def test_uq_builtin_trees(self, capsys, tree):
        assert main(["uq", "--tree", tree, "--samples", "80"]) == 0
        out = capsys.readouterr().out
        assert "uncertainty of" in out
        assert "90% band" in out
        assert "p95" in out
        assert "distribution" in out
        assert "Exceedance curve" in out
        assert "90% credible region" in out

    def test_uq_custom_percentiles(self, capsys):
        assert main(["uq", "--samples", "50",
                     "--percentiles", "10,90"]) == 0
        out = capsys.readouterr().out
        assert "p10" in out and "p90" in out and "p95" not in out

    def test_uq_sobol(self, capsys):
        assert main(["uq", "--tree", "collision", "--samples", "80",
                     "--sobol"]) == 0
        out = capsys.readouterr().out
        assert "Sobol sensitivity" in out
        assert "S1" in out and "ST" in out

    def test_uq_from_file(self, capsys, tmp_path, bridge_tree):
        path = tmp_path / "tree.json"
        path.write_text(tree_to_json(bridge_tree))
        assert main(["uq", "--file", str(path), "--samples", "60",
                     "--sampler", "mc", "--ef", "5"]) == 0
        out = capsys.readouterr().out
        assert "uncertainty of 'H'" in out
        assert "60 mc samples" in out

    def test_uq_json_output(self, capsys):
        assert main(["uq", "--samples", "50", "--sobol",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["samples"] == 50
        assert set(payload["percentiles"]) == {"5", "50", "95"}
        assert payload["interval90"][0] <= payload["interval90"][1]
        assert "sobol" in payload and "first" in payload["sobol"]

    def test_uq_seed_determinism(self, capsys):
        assert main(["uq", "--samples", "50", "--seed", "3",
                     "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["uq", "--samples", "50", "--seed", "3",
                     "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_uq_workers_match_serial(self, capsys):
        assert main(["uq", "--samples", "50", "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(["uq", "--samples", "50", "--workers", "2",
                     "--json"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert parallel["mean"] == serial["mean"]
        assert parallel["percentiles"] == serial["percentiles"]

    def test_uq_bad_percentiles_reported(self, capsys):
        assert main(["uq", "--percentiles", "5,abc"]) == 1
        assert "error" in capsys.readouterr().err
        assert main(["uq", "--percentiles", "5,150"]) == 1
        assert "error" in capsys.readouterr().err

    def test_report_uncertain_section(self, capsys, tmp_path,
                                      bridge_tree):
        path = tmp_path / "tree.json"
        path.write_text(tree_to_json(bridge_tree))
        assert main(["report", str(path), "--uncertain"]) == 0
        out = capsys.readouterr().out
        assert "Top minimal cut sets" in out
        assert "uncertainty of 'H'" in out
        assert "90% band" in out


class TestErrors:
    def test_missing_file_is_reported(self, capsys):
        assert main(["report", "/nonexistent/tree.json"]) == 1
        err = capsys.readouterr().err
        assert "error" in err

    def test_invalid_json_is_reported(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["report", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestBatchJson:
    def run_batch(self, tmp_path, capsys, payload):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(payload))
        assert main(["batch", str(path), "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_envelope_fields(self, tmp_path, capsys):
        payload = {"jobs": [
            {"type": "quantify", "tree": "corridor", "method": "exact"},
            {"type": "montecarlo", "tree": "corridor",
             "samples": 5_000, "seed": 2}]}
        output = self.run_batch(tmp_path, capsys, payload)
        results = output["results"]
        assert [entry["id"] for entry in results] == ["job-1", "job-2"]
        assert [entry["index"] for entry in results] == [0, 1]
        for entry in results:
            assert set(entry) >= {"id", "index", "type", "job",
                                  "fingerprint", "cache_hit",
                                  "coalesced", "wall_time_s", "result"}
            assert entry["cache_hit"] is False
            assert entry["coalesced"] is False
            assert entry["wall_time_s"] >= 0.0
            assert len(entry["fingerprint"]) == 64
        assert output["stats"]["misses"] == 2

    def test_cache_hit_reported_on_repeat(self, tmp_path, capsys):
        payload = {"jobs": [
            {"type": "quantify", "tree": "corridor", "method": "exact"},
            {"type": "quantify", "tree": "corridor", "method": "exact"}]}
        results = self.run_batch(tmp_path, capsys, payload)["results"]
        assert results[0]["cache_hit"] is False
        assert results[1]["cache_hit"] is True
        assert results[0]["fingerprint"] == results[1]["fingerprint"]
        assert results[0]["result"] == results[1]["result"]


class TestBatchCacheBackends:
    PAYLOAD = {"jobs": [
        {"type": "quantify", "tree": "corridor", "method": "exact"}]}

    def run_batch(self, tmp_path, capsys, *extra):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(self.PAYLOAD))
        assert main(["batch", str(path), "--json", *extra]) == 0
        return json.loads(capsys.readouterr().out)

    def test_sqlite_cache_warms_across_runs(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.db")
        cold = self.run_batch(tmp_path, capsys, "--cache", cache)
        assert cold["stats"]["backend"] == "sqlite"
        assert cold["results"][0]["cache_hit"] is False
        # A second CLI invocation is a fresh process in deployment:
        # the hit must come from the persisted sqlite store.
        warm = self.run_batch(tmp_path, capsys, "--cache", cache)
        assert warm["results"][0]["cache_hit"] is True
        assert warm["results"][0]["result"] == \
            cold["results"][0]["result"]

    def test_any_cache_path_is_sqlite(self, tmp_path, capsys):
        assert self.run_batch(tmp_path, capsys)["stats"]["backend"] \
            == "memory"
        for name in ("cache.json", "cache.store"):
            output = self.run_batch(tmp_path, capsys,
                                    "--cache", str(tmp_path / name))
            assert output["stats"]["backend"] == "sqlite"

    def test_json_store_is_reported_and_kept(self, tmp_path, capsys):
        store = tmp_path / "results-cache.json"
        store.write_text('{"entries": {}, "version": 1}')
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(self.PAYLOAD))
        assert main(["batch", str(path), "--cache", str(store)]) == 1
        assert "results-cache.json" in capsys.readouterr().err
        assert store.read_text() == '{"entries": {}, "version": 1}'

    def test_write_then_warm_manifest(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.db")
        manifest = tmp_path / "hot.json"
        cold = self.run_batch(tmp_path, capsys, "--cache", cache,
                              "--write-manifest", str(manifest))
        keys = json.loads(manifest.read_text())["keys"]
        assert cold["results"][0]["fingerprint"] in keys
        warm = self.run_batch(tmp_path, capsys, "--cache", cache,
                              "--warm-manifest", str(manifest))
        assert warm["results"][0]["cache_hit"] is True

    def test_fault_plan_degrades_honestly(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "version": 1, "seed": 3,
            "faults": [{"site": "cache.put", "kind": "io_error",
                        "times": 1}]}))
        cache = str(tmp_path / "cache.db")
        faulted = self.run_batch(tmp_path, capsys, "--cache", cache,
                                 "--fault-plan", str(plan))
        clean = self.run_batch(tmp_path, capsys, "--cache", cache)
        # The injected write failure changed nothing but the stats:
        # the put retried and the next run still hits the cache.
        assert clean["results"][0]["cache_hit"] is True
        assert clean["results"][0]["result"] == \
            faulted["results"][0]["result"]

    def test_malformed_fault_plan_is_reported(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text("{\"version\": 99}")
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(self.PAYLOAD))
        assert main(["batch", str(path), "--json",
                     "--fault-plan", str(plan)]) == 1
        assert "error" in capsys.readouterr().err

    def test_ttl_flag_needs_a_cache(self, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(self.PAYLOAD))
        assert main(["batch", str(path), "--json",
                     "--cache-ttl", "60"]) == 1
        assert "needs a cache path" in capsys.readouterr().err


class TestWhatif:
    EDITS = [{"op": "set_rate", "event": "Signal not shown",
              "probability": 2e-4},
             {"op": "set_rate", "event": "Signal not shown",
              "probability": 1e-4}]

    def write_edits(self, tmp_path, payload=None):
        path = tmp_path / "edits.json"
        path.write_text(json.dumps(self.EDITS if payload is None
                                   else payload))
        return str(path)

    def test_text_output(self, tmp_path, capsys):
        assert main(["whatif", self.write_edits(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "baseline P =" in out
        assert "[1] set_rate Signal not shown=0.0002" in out
        assert "dirty:" in out and "stats:" in out

    def test_json_stream(self, tmp_path, capsys):
        assert main(["whatif", self.write_edits(tmp_path),
                     "--json"]) == 0
        events = [json.loads(line) for line in
                  capsys.readouterr().out.splitlines()]
        assert [e["event"] for e in events] == \
            ["baseline", "edit", "edit", "done"]
        assert events[0]["tree"] == "Corridor collision"
        # The second edit restores the default rate bit-exactly.
        assert events[2]["value"] == events[0]["value"]
        assert events[-1]["stats"]["requantifications"] == 3

    def test_edits_from_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(
            json.dumps({"edits": self.EDITS[:1]})))
        assert main(["whatif", "-", "--json"]) == 0
        events = [json.loads(line) for line in
                  capsys.readouterr().out.splitlines()]
        assert [e["event"] for e in events] == \
            ["baseline", "edit", "done"]

    def test_tree_from_file(self, tmp_path, capsys, simple_or_tree):
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(tree_to_json(simple_or_tree))
        edits = self.write_edits(tmp_path, [
            {"op": "set_rate", "event": "A", "probability": 0.5}])
        assert main(["whatif", edits, "--file", str(tree_path),
                     "--json"]) == 0
        events = [json.loads(line) for line in
                  capsys.readouterr().out.splitlines()]
        assert events[1]["value"] != events[0]["value"]

    def test_cache_warms_across_runs(self, tmp_path, capsys):
        edits = self.write_edits(tmp_path)
        cache = str(tmp_path / "whatif.db")
        assert main(["whatif", edits, "--cache", cache, "--json"]) == 0
        capsys.readouterr()
        assert main(["whatif", edits, "--cache", cache, "--json"]) == 0
        events = [json.loads(line) for line in
                  capsys.readouterr().out.splitlines()]
        assert events[-1]["stats"]["module_compiles"] == 0

    def test_sift_threshold_flag(self, tmp_path, capsys):
        edits = self.write_edits(tmp_path, [])
        assert main(["whatif", edits, "--sift-threshold", "8",
                     "--json"]) == 0
        events = [json.loads(line) for line in
                  capsys.readouterr().out.splitlines()]
        assert events[-1]["stats"]["sift_passes"] >= 1

    def test_bad_edits_file_reported(self, tmp_path, capsys):
        path = tmp_path / "edits.json"
        path.write_text("{not json")
        assert main(["whatif", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_non_list_edits_reported(self, tmp_path, capsys):
        assert main(["whatif",
                     self.write_edits(tmp_path, {"edits": 42})]) == 1
        assert "error" in capsys.readouterr().err


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.workers == 1
        assert args.cache is None
        assert args.cache_ttl is None
        assert args.cache_max_bytes is None
        assert args.warm_manifest is None
        assert args.max_concurrency == 8
        assert args.queue_limit == 32
        assert args.timeout == 60.0

    def test_parser_overrides(self):
        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "9000",
             "--workers", "2", "--cache", "/tmp/c.db",
             "--cache-capacity", "128",
             "--cache-ttl", "3600", "--cache-max-bytes", "1000000",
             "--warm-manifest", "/tmp/hot.json",
             "--max-concurrency", "4",
             "--queue-limit", "16", "--timeout", "5"])
        assert args.host == "0.0.0.0" and args.port == 9000
        assert args.workers == 2 and args.cache == "/tmp/c.db"
        assert args.cache_capacity == 128
        assert args.cache_ttl == 3600.0
        assert args.cache_max_bytes == 1_000_000
        assert args.warm_manifest == "/tmp/hot.json"
        assert args.max_concurrency == 4 and args.queue_limit == 16
        assert args.timeout == 5.0

    def test_bad_config_is_reported(self, capsys):
        assert main(["serve", "--max-concurrency", "0"]) == 1
        assert "error" in capsys.readouterr().err
