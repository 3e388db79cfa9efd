"""Tests for the differential conformance harness (:mod:`repro.verify`).

Covers the four tentpole pieces end to end:

* trace round-trips through every on-disk format with exact float64;
* record -> replay is bit-identical (answers, digests, and ``verify.*``
  counters) across independent invocations;
* the differential runner sees every registered exact engine agree on a
  fuzzed workload and pins divergences to a cycle/query with counters attached;
* a deliberately injected tie-break bug (mutation test) is caught by the
  fuzzer and shrunk to a trace of at most 5 cycles.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.answers import AnswerList
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.verify import (
    EXACT_METHODS,
    MethodSpec,
    TraceRecorder,
    Workload,
    canonical_cycle,
    churn_scenario,
    digest_cycle,
    load_trace,
    make_scenario,
    make_specs,
    replay,
    run_differential,
    run_metamorphic,
    run_workload,
    save_trace,
    scale_workload,
    shrink_workload,
    translate_workload,
    workload_valid,
)
from repro.verify.cli import main as cli_main


def tiny_workload(k=2):
    """Three cycles, lattice coordinates, one knife-edge distance tie."""
    return Workload(
        k=k,
        method="fast_grid",
        cycles=[
            [
                {"t": "join", "oid": 0, "xy": [0.5, 0.5]},
                {"t": "join", "oid": 1, "xy": [0.5, 0.75]},
                {"t": "join", "oid": 2, "xy": [0.75, 0.5]},  # tie with oid 1
                {"t": "join", "oid": 3, "xy": [0.1, 0.9]},
                {"t": "reg", "hid": 0, "xy": [0.5, 0.5]},
            ],
            [
                {
                    "t": "move",
                    "oids": [0, 1, 2, 3],
                    "xy": [[0.5, 0.5], [0.25, 0.5], [0.5, 0.25], [0.2, 0.9]],
                },
                {"t": "reg", "hid": 1, "xy": [0.75, 0.75]},
            ],
            [
                {"t": "leave", "oid": 3},
                {"t": "drop", "hid": 0},
            ],
        ],
    )


# ----------------------------------------------------------------------
# Trace round-trips
# ----------------------------------------------------------------------
class TestTraceRoundTrip:
    @pytest.mark.parametrize("ext", ["jsonl", "jsonl.gz", "npz"])
    def test_exact_roundtrip(self, tmp_path, ext):
        w = tiny_workload()
        # Awkward floats: 0.1 and 1/3 have no finite binary expansion, so
        # only shortest-repr (jsonl) / binary (npz) round-trips keep them.
        w.cycles[0][0]["xy"] = [0.1, 1.0 / 3.0]
        w.cycles[1][0]["xy"][0] = [np.nextafter(0.5, 1.0), 0.5]
        w.options = {"ncells": 8}
        w.meta = {"seed": 7}
        w.digests = ["ab" * 16, None, "cd" * 16]
        path = str(tmp_path / f"t.{ext}")
        save_trace(w, path)
        back = load_trace(path)
        assert back.k == w.k
        assert back.method == "fast_grid"
        assert back.options == {"ncells": 8}
        assert back.meta == {"seed": 7}
        assert back.cycles == w.cycles
        assert back.digests == w.digests

    def test_digestless_trace_loads_with_none(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        save_trace(tiny_workload(), path)
        assert load_trace(path).digests is None

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"t": "header", "version": 99, "k": 2}\n')
        with pytest.raises(ConfigurationError, match="version"):
            load_trace(str(path))

    def test_rejects_events_after_last_tick(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"t": "header", "version": 1, "k": 1}\n'
            '{"t": "join", "oid": 0, "xy": [0.5, 0.5]}\n'
        )
        with pytest.raises(ConfigurationError, match="after the last tick"):
            load_trace(str(path))

    def test_rejects_unknown_event(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"t": "header", "version": 1, "k": 1}\n{"t": "warp"}\n'
        )
        with pytest.raises(ConfigurationError, match="warp"):
            load_trace(str(path))

    def test_workload_valid(self):
        assert workload_valid(tiny_workload())
        bad = tiny_workload()
        bad.cycles[2].append({"t": "leave", "oid": 999})  # never joined
        assert not workload_valid(bad)
        under_k = tiny_workload(k=5)  # only 4 objects ever live
        assert not workload_valid(under_k)
        repeated = tiny_workload()  # the session rejects a repeated id
        repeated.cycles[1][0] = {
            "t": "move", "oids": [0, 0], "xy": [[0.5, 0.5], [0.6, 0.6]]
        }
        assert not workload_valid(repeated)


# ----------------------------------------------------------------------
# Record -> replay bit-identity
# ----------------------------------------------------------------------
class TestRecordReplay:
    def test_recorded_trace_replays_bit_identically(self, tmp_path):
        scenario = make_scenario(11, cycles=8)
        recorder = TraceRecorder(
            scenario.workload.k,
            method="fast_grid",
            options=scenario.engine_overrides,
        )
        rec_run = run_workload(
            MethodSpec("fast_grid", scenario.engine_overrides),
            scenario.workload,
            recorder=recorder,
        )
        assert rec_run.ok
        path = str(tmp_path / "trace.jsonl.gz")
        recorder.save(path)

        trace = load_trace(path)
        assert trace.digests == rec_run.digests

        # Two independent replays from the file: answers, digests, and
        # verify.* counters must all be identical.
        outcomes = []
        for _ in range(2):
            registry = MetricsRegistry()
            result = replay(trace, check=True, registry=registry)
            assert result.ok and result.checked and not result.mismatches
            counters = {
                k: v
                for k, v in registry.counter_values().items()
                if k.startswith("verify.")
            }
            outcomes.append((result.run.answers, result.run.digests, counters))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == rec_run.digests

    def test_recorder_hid_remap_survives_shrinking(self):
        # Dropping query hid=0 leaves a trace whose first surviving reg
        # carries hid=1; the replayer must remap it onto the fresh
        # session's handle 0 without touching the event stream.
        w = tiny_workload()
        w.cycles = [
            [ev for ev in events if not (ev["t"] in ("reg", "drop") and ev["hid"] == 0)]
            for events in w.cycles
        ]
        result = run_workload(MethodSpec("brute_force"), w)
        assert result.ok
        assert [hid for hid, _ in result.answers[1]] == [1]

    def test_replay_flags_tampered_digest(self, tmp_path):
        recorder = TraceRecorder(2, method="brute_force")
        run = run_workload(
            MethodSpec("brute_force"), tiny_workload(), recorder=recorder
        )
        assert run.ok
        trace = recorder.workload()
        trace.digests[1] = "0" * 32
        result = replay(trace, check=True)
        assert result.mismatches == [1]

    def test_replay_without_digests_requires_no_check(self):
        with pytest.raises(ValueError, match="no digests"):
            replay(tiny_workload(), check=True)

    def test_deferred_admissions_are_not_recorded(self):
        from repro.service import AdmissionDeferred, MonitoringSession

        recorder = TraceRecorder(1, method="brute_force")
        with MonitoringSession(
            "brute_force", k=1, max_pending_deltas=2
        ) as session:
            session.attach_recorder(recorder)
            assert session.join_object(0, (0.25, 0.25)) is None
            assert session.join_object(1, (0.75, 0.75)) is None
            deferred = session.join_object(2, (0.5, 0.5))
            assert isinstance(deferred, AdmissionDeferred)
            session.tick()
        trace = recorder.workload()
        assert [ev["oid"] for ev in trace.cycles[0] if ev["t"] == "join"] == [0, 1]
        assert workload_valid(trace)


# ----------------------------------------------------------------------
# Differential runner
# ----------------------------------------------------------------------
class TestDifferential:
    def test_all_exact_methods_agree(self):
        scenario = make_scenario(4, cycles=6)
        specs = make_specs(["all"], overrides=scenario.engine_overrides)
        assert [s.method for s in specs] == list(EXACT_METHODS)
        report = run_differential(scenario.workload, specs)
        assert report.ok, report.divergences or report.errors

    def test_make_specs_filters_overrides_per_method(self):
        specs = make_specs(
            ["brute_force", "fast_grid"], overrides={"ncells": 8}
        )
        assert specs[0].options == {}  # brute force has no grid
        assert specs[1].options == {"ncells": 8}
        assert specs[1].label == "fast_grid(ncells=8)"

    def test_needs_two_specs(self):
        with pytest.raises(ValueError, match="two method specs"):
            run_differential(tiny_workload(), make_specs(["brute_force"]))

    def test_engine_error_is_captured_not_raised(self):
        w = tiny_workload(k=5)  # population never reaches k
        result = run_workload(MethodSpec("brute_force"), w)
        assert not result.ok
        assert "NotEnoughObjects" in result.error

    def test_divergence_pins_cycle_query_and_counters(self):
        base = run_workload(MethodSpec("brute_force"), tiny_workload())
        other = run_workload(MethodSpec("fast_grid"), tiny_workload())
        # Forge a divergence at cycle 1 by perturbing one stored answer.
        hid, neighbors = other.answers[1][0]
        other.answers[1] = ((hid, neighbors[:-1] + ((999, 9.0),)),) + tuple(
            other.answers[1][1:]
        )
        report = run_differential(
            tiny_workload(), make_specs(["brute_force", "fast_grid"])
        )
        assert report.ok  # sanity: the real engines agree
        from repro.verify.differential import _first_divergence

        div = _first_divergence(base, other)
        assert div is not None
        assert (div.cycle, div.hid) == (1, hid)
        text = div.describe()
        assert "cycle 1" in text and "999" in text
        assert "objects_scanned" in str(div.baseline_counters)


# ----------------------------------------------------------------------
# Scenario generation
# ----------------------------------------------------------------------
class TestScenarios:
    def test_same_seed_same_workload(self):
        a, b = make_scenario(13), make_scenario(13)
        assert a.describe() == b.describe()
        assert a.workload.cycles == b.workload.cycles

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_workloads_are_statically_valid(self, seed):
        scenario = make_scenario(seed)
        assert workload_valid(scenario.workload), scenario.describe()

    def test_churn_scenario_is_valid_and_sized(self):
        w = churn_scenario(1, cycles=30)
        assert w.n_cycles == 30
        assert workload_valid(w)


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
class TestShrink:
    def test_shrinks_to_predicate_core(self):
        # Engine-free predicate: the failure "is" object 1 and query 0
        # coexisting in some cycle; everything else should fall away.
        w = make_scenario(5, cycles=12).workload

        def still_fails(c):
            live = set()
            queries = set()
            for events in c.cycles:
                for ev in events:
                    if ev["t"] == "join":
                        live.add(ev["oid"])
                    elif ev["t"] == "leave":
                        live.discard(ev["oid"])
                    elif ev["t"] == "reg":
                        queries.add(ev["hid"])
                    elif ev["t"] == "drop":
                        queries.discard(ev["hid"])
                if 1 in live and 0 in queries:
                    return True
            return False

        assert still_fails(w)
        result = shrink_workload(w, still_fails)
        assert still_fails(result.workload)
        assert workload_valid(result.workload)
        assert result.workload.n_cycles == 1
        # Only k objects + the culprit query can remain.
        assert result.workload.n_events <= w.k + 2

    def test_respects_run_budget(self):
        w = make_scenario(5, cycles=12).workload
        result = shrink_workload(w, lambda c: True, max_runs=3)
        assert result.runs <= 3


# ----------------------------------------------------------------------
# Metamorphic invariants
# ----------------------------------------------------------------------
class TestMetamorphic:
    def test_transforms_are_exact(self):
        w = tiny_workload()
        scaled = scale_workload(w, 0.5)
        assert scaled.cycles[0][0]["xy"] == [0.25, 0.25]
        moved = translate_workload(scaled, 0.25, 0.25)
        assert moved.cycles[0][0]["xy"] == [0.5, 0.5]
        assert moved.cycles[1][0]["xy"][1] == [0.375, 0.5]

    @pytest.mark.parametrize("method", ["brute_force", "fast_grid", "rtree"])
    def test_invariants_hold(self, method):
        w = make_scenario(9, cycles=6).workload
        failures = run_metamorphic(MethodSpec(method), w)
        assert failures == []

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown metamorphic check"):
            run_metamorphic(
                MethodSpec("brute_force"), tiny_workload(), checks=["pi"]
            )

    def test_containment_catches_dropped_candidates(self, monkeypatch):
        # An engine that silently ignores some object ids violates
        # containment: an object strictly inside the k-th distance is
        # missing from the answer.
        original = AnswerList.offer

        def lossy(self, dist2, object_id):
            if object_id % 5 == 3:
                return False
            return original(self, dist2, object_id)

        monkeypatch.setattr(AnswerList, "offer", lossy)
        w = make_scenario(9, cycles=6).workload
        failures = run_metamorphic(
            MethodSpec("brute_force"), w, checks=["containment"]
        )
        assert failures
        assert failures[0].check == "containment"
        assert "missing" in failures[0].detail


# ----------------------------------------------------------------------
# Mutation test: an injected tie-break bug must be caught and shrunk
# ----------------------------------------------------------------------
class TestMutationCatch:
    def test_tie_break_bug_is_caught_and_shrunk(self, monkeypatch):
        # Mutate AnswerList.offer to prefer the HIGHEST id on exact
        # distance ties.  brute_force funnels every candidate through
        # offer() while fast_grid tie-breaks in a vectorized lexsort, so
        # the two must now disagree on any knife-edge tie.
        def mutated(self, dist2, object_id):
            entries = sorted(
                self._entries + [(dist2, object_id)],
                key=lambda e: (e[0], -e[1]),
            )[: self.k]
            accepted = (dist2, object_id) in entries
            self._entries[:] = entries
            return accepted

        monkeypatch.setattr(AnswerList, "offer", mutated)
        registry = MetricsRegistry()
        specs = make_specs(["brute_force", "fast_grid"])
        divergence = None
        workload = None
        for seed in range(10):
            scenario = make_scenario(seed)
            report = run_differential(
                scenario.workload, specs, registry=registry
            )
            assert not report.errors
            if not report.ok:
                divergence = report.first_divergence
                workload = scenario.workload
                break
        assert divergence is not None, "fuzzer failed to catch the mutation"

        def still_fails(candidate):
            rep = run_differential(
                candidate, specs, registry=registry, stop_at_first=True
            )
            return bool(rep.divergences)

        shrunk = shrink_workload(
            workload,
            still_fails,
            first_divergence_cycle=divergence.cycle,
            registry=registry,
        )
        assert shrunk.workload.n_cycles <= 5
        assert still_fails(shrunk.workload)
        assert workload_valid(shrunk.workload)
        assert registry.counter_values()["verify.diff.divergences"] >= 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_record_replay_diff_pipeline(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        assert (
            cli_main(
                ["record", "--out", trace, "--seed", "3", "--cycles", "5"]
            )
            == 0
        )
        assert (
            cli_main(["replay", trace, "--check", "--repeat", "2"]) == 0
        )
        assert (
            cli_main(
                ["diff", trace, "--methods", "brute_force,fast_grid,rtree"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bit-identical" in out
        assert "agree bit-for-bit" in out
        assert "verify.replay.cycles" in out

    def test_fuzz_smoke_passes(self, tmp_path, capsys):
        code = cli_main(
            [
                "fuzz",
                "--scenarios",
                "2",
                "--methods",
                "brute_force,fast_grid",
                "--artifacts",
                str(tmp_path / "artifacts"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "across 2 method spec(s): 0 failure(s)" in out
        assert not (tmp_path / "artifacts").exists()
        # "all" counts as every engine it expands to, not as one token.
        assert cli_main(["fuzz", "--scenarios", "0", "--methods", "all"]) == 0
        assert (
            f"across {len(EXACT_METHODS)} method spec(s)"
            in capsys.readouterr().out
        )

    def test_fuzz_dumps_shrunk_artifact_on_divergence(
        self, tmp_path, capsys, monkeypatch
    ):
        def mutated(self, dist2, object_id):
            entries = sorted(
                self._entries + [(dist2, object_id)],
                key=lambda e: (e[0], -e[1]),
            )[: self.k]
            accepted = (dist2, object_id) in entries
            self._entries[:] = entries
            return accepted

        monkeypatch.setattr(AnswerList, "offer", mutated)
        artifacts = tmp_path / "artifacts"
        code = cli_main(
            [
                "fuzz",
                "--scenarios",
                "1",
                "--seed",
                "0",  # seed 0 is a lattice scenario: ties guaranteed
                "--methods",
                "brute_force,fast_grid",
                "--artifacts",
                str(artifacts),
            ]
        )
        assert code == 1
        trace_path = artifacts / "shrunk_seed0.jsonl"
        report_path = artifacts / "shrunk_seed0.report.json"
        assert trace_path.exists() and report_path.exists()
        shrunk = load_trace(str(trace_path))
        assert shrunk.n_cycles <= 5
        report = json.loads(report_path.read_text())
        assert report["divergences"]
        assert "diverged from brute_force" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Opt-in fuzz tier (nightly; tier-1 excludes the marker)
# ----------------------------------------------------------------------
@pytest.mark.fuzz
def test_fuzz_fifty_scenarios_all_methods(tmp_path):
    code = cli_main(
        [
            "fuzz",
            "--scenarios",
            "50",
            "--methods",
            "all",
            "--metamorphic",
            "--artifacts",
            str(tmp_path / "artifacts"),
        ]
    )
    assert code == 0


# ----------------------------------------------------------------------
# Shrunk fuzz traces kept as regression tests
# ----------------------------------------------------------------------
TRACES = Path(__file__).parent / "traces"


class TestRegressionTraces:
    def test_hierarchical_tie_seed150(self):
        """Fuzz seed 150, shrunk to 2 cycles / 8 events.

        Objects 4, 27, 33 and 35 lie at one distance from the query.  The
        hierarchical overhaul rescanned at ``sqrt(worst_dist2)`` squared
        again, which rounds below ``worst_dist2`` and pruned the cell of
        object 33, so it answered 35 in its place.
        """
        workload = load_trace(str(TRACES / "hierarchical_tie_seed150.jsonl"))
        assert (workload.n_cycles, workload.n_events) == (2, 8)
        specs = make_specs(["all"], overrides={"ncells": 4})
        report = run_differential(workload, specs)
        assert report.ok, report.divergences or report.errors


# ----------------------------------------------------------------------
# Canonical answers
# ----------------------------------------------------------------------
class TestCanonical:
    def test_digest_depends_on_float_bits(self):
        canon_a = ((0, ((1, 0.5), (2, 0.75))),)
        canon_b = ((0, ((1, 0.5), (2, np.nextafter(0.75, 1.0)))),)
        assert digest_cycle(canon_a) != digest_cycle(canon_b)
        assert digest_cycle(canon_a) == digest_cycle(canon_a)

    def test_canonical_cycle_sorts_and_remaps(self):
        class H:
            def __init__(self, id):
                self.id = id

        class A:
            def __init__(self, neighbors):
                self.neighbors = neighbors

        answers = {H(5): A([(2, 0.5)]), H(3): A([(1, 0.25)])}
        canon = canonical_cycle(answers, {5: 0, 3: 9})
        assert canon == ((0, ((2, 0.5),)), (9, ((1, 0.25),)))
