"""The JSON job-spec wire format shared by `repro batch` and serve."""

import json
import re

import pytest

from repro.engine import (
    SPEC_TYPES,
    Engine,
    MonteCarloJob,
    QuantifyJob,
    SweepJob,
    job_from_spec,
    jobs_from_payload,
    result_envelope,
    tree_from_spec,
)
from repro.errors import EngineError
from repro.fta import FaultTree, tree_to_dict, tree_to_json
from repro.fta.dsl import AND, hazard, primary
from tests.engine._bad_specs import BAD_SPECS


def inline_tree_dict():
    top = hazard("H", OR_gate=[
        AND("AB", primary("A", 0.1), primary("B", 0.2)),
        primary("C", 0.05)])
    return tree_to_dict(FaultTree(top))


class TestTreeFromSpec:
    @pytest.mark.parametrize("name", ["fig2", "collision", "false-alarm",
                                      "corridor"])
    def test_builtin_names(self, name):
        tree = tree_from_spec(name)
        assert isinstance(tree, FaultTree)

    def test_unknown_builtin(self):
        with pytest.raises(EngineError, match="unknown built-in tree"):
            tree_from_spec("nope")

    def test_inline_dict(self):
        tree = tree_from_spec(inline_tree_dict())
        assert "A" in tree and "C" in tree

    def test_file_reference(self, tmp_path, simple_or_tree):
        path = tmp_path / "tree.json"
        path.write_text(tree_to_json(simple_or_tree))
        tree = tree_from_spec({"file": str(path)})
        assert "A" in tree

    def test_file_reference_refused_when_disallowed(self, tmp_path):
        with pytest.raises(EngineError, match="not allowed"):
            tree_from_spec({"file": str(tmp_path / "x.json")},
                           allow_files=False)

    def test_garbage_spec(self):
        with pytest.raises(EngineError, match="cannot interpret"):
            tree_from_spec(42)


class TestJobFromSpec:
    def test_quantify(self):
        job = job_from_spec({"type": "quantify",
                             "tree": inline_tree_dict(),
                             "method": "exact"})
        assert isinstance(job, QuantifyJob)
        assert job.method == "exact"

    def test_sweep(self):
        job = job_from_spec({"type": "sweep",
                             "tree": inline_tree_dict(),
                             "axes": {"A": [0.1, 0.2]},
                             "probabilities": {"B": 0.3}})
        assert isinstance(job, SweepJob)
        assert len(job.grid) == 2

    def test_montecarlo(self):
        job = job_from_spec({"type": "montecarlo",
                             "tree": inline_tree_dict(),
                             "samples": 500, "seed": 4, "shards": 2})
        assert isinstance(job, MonteCarloJob)
        assert job.samples == 500 and job.shards == 2

    def test_unknown_type(self):
        with pytest.raises(EngineError, match="unknown job type"):
            job_from_spec({"type": "wat"})

    def test_missing_type(self):
        with pytest.raises(EngineError, match="'type' field"):
            job_from_spec({"tree": "fig2"})

    def test_bad_policy(self):
        with pytest.raises(EngineError, match="unknown policy"):
            job_from_spec({"type": "quantify",
                           "tree": inline_tree_dict(),
                           "policy": "bogus"})

    def test_bad_number_field(self):
        with pytest.raises(EngineError, match="must be an integer"):
            job_from_spec({"type": "montecarlo",
                           "tree": inline_tree_dict(),
                           "samples": "many"})

    def test_spec_types_constant(self):
        assert SPEC_TYPES == ("quantify", "sweep", "montecarlo",
                              "incremental")


class TestRejectsMalformedFields:
    @pytest.mark.parametrize("spec, message", BAD_SPECS)
    def test_typed_error(self, spec, message):
        with pytest.raises(EngineError, match=re.escape(message)):
            jobs_from_payload(spec, allow_files=False)

    def test_well_formed_fields_still_pass(self):
        jobs = jobs_from_payload([
            {"type": "quantify", "tree": "corridor",
             "probabilities": {"Signal not shown": 0.5}},
            {"type": "montecarlo", "tree": "corridor", "samples": 10,
             "seed": 3, "shards": 2, "confidence": 0.9},
            {"type": "sweep", "tree": "corridor",
             "axes": {"Signal not shown": [0, 0.5, 1]}},
            {"type": "incremental", "tree": "corridor",
             "sift_threshold": None}])
        assert jobs[0].probabilities == {"Signal not shown": 0.5}
        assert (jobs[1].samples, jobs[1].seed, jobs[1].shards) == \
            (10, 3, 2)
        assert len(jobs[2].grid) == 3
        assert jobs[3].sift_threshold is None


class TestJobsFromPayload:
    def test_list_payload(self):
        jobs = jobs_from_payload([
            {"type": "quantify", "tree": inline_tree_dict()},
            {"type": "montecarlo", "tree": inline_tree_dict(),
             "samples": 100}])
        assert [job.kind for job in jobs] == ["quantify", "montecarlo"]

    def test_jobs_object_payload(self):
        jobs = jobs_from_payload(
            {"jobs": [{"type": "quantify",
                       "tree": inline_tree_dict()}]})
        assert len(jobs) == 1

    def test_single_spec_payload(self):
        jobs = jobs_from_payload({"type": "quantify",
                                  "tree": inline_tree_dict()})
        assert len(jobs) == 1

    @pytest.mark.parametrize("payload", [None, [], {}, {"jobs": []},
                                         {"jobs": "x"}, "nope"])
    def test_invalid_payloads(self, payload):
        with pytest.raises(EngineError, match="non-empty list"):
            jobs_from_payload(payload)


class TestResultEnvelope:
    def test_envelope_shape_and_json_safety(self):
        engine = Engine(workers=1)
        job = job_from_spec({"type": "quantify",
                             "tree": inline_tree_dict(),
                             "method": "exact"})
        outcome = engine.run_shared(job)
        envelope = result_envelope(job, outcome, job_id="j-1", index=0)
        assert envelope["id"] == "j-1"
        assert envelope["index"] == 0
        assert envelope["type"] == "quantify"
        assert envelope["fingerprint"] == job.fingerprint()
        assert envelope["cache_hit"] is False
        assert envelope["coalesced"] is False
        assert envelope["wall_time_s"] > 0.0
        assert envelope["result"] == pytest.approx(outcome.result)
        json.dumps(envelope)  # must be wire-safe

    def test_envelope_ids_optional(self):
        engine = Engine(workers=1)
        job = job_from_spec({"type": "quantify",
                             "tree": inline_tree_dict(),
                             "method": "exact"})
        envelope = result_envelope(job, engine.run_shared(job))
        assert "id" not in envelope and "index" not in envelope

    def test_cli_and_server_speak_the_same_envelope(self):
        # One engine, two fronts: the fields the CLI writes per job are
        # exactly the fields the server streams in its result events.
        engine = Engine(workers=1)
        job = job_from_spec({"type": "quantify",
                             "tree": inline_tree_dict(),
                             "method": "exact"})
        envelope = result_envelope(job, engine.run_shared(job),
                                   job_id="x", index=0)
        assert set(envelope) == {"id", "index", "type", "job",
                                 "fingerprint", "cache_hit", "coalesced",
                                 "wall_time_s", "result"}
