"""Checks of the session-tick benchmark itself, at 1/100 of NP and NQ.

Marked ``bench`` (excluded from tier-1).  From the repository root::

    PYTHONPATH=src python -m pytest -m bench benchmarks/tick/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

pytestmark = pytest.mark.bench

SCALE = "0.01"
CYCLES = "12"


@pytest.fixture(scope="module")
def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path: Path, trace: int) -> "tuple[list, dict]":
    out = tmp_path / f"run-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "run", "--scale", SCALE,
         "--ticks", CYCLES, "--trace", str(trace), "--spans", str(tmp_path),
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines(), json.loads(out.read_text())


def test_workloads_file_matches_contract(contract):
    assert [w["name"] for w in contract["workloads"]] == list(bench.load_spec()["workloads"])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(tmp_path, contract, trace, section):
    lines, document = _run(tmp_path, trace)
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0
    table = "\n".join(lines[:-1])
    for workload in bench.load_spec()["workloads"]:
        for metric in contract[section]:
            printed = summary["metrics"][f"{workload}.{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert f"{metric['name']} [{metric['unit']}]" in table
        if not trace:
            assert document["workloads"][workload]["metrics"][bench.FAILED_FRAC] == 0
    if trace:
        assert sorted(p.name for p in tmp_path.glob("*.spans.jsonl")) == sorted(
            f"{w}-fast_grid-seed7.spans.jsonl" for w in bench.load_spec()["workloads"]
        )


def test_check_exact_catches_one_swapped_neighbor_id():
    spec = bench.load_spec()
    workload = bench.Workload(
        "sparse_churn_100k", spec["workloads"]["sparse_churn_100k"],
        seed=3, scale=0.01, k=spec["k"],
    )
    session, _ = bench.set_up("fast_grid", workload)
    with session:
        cycle = workload.next_cycle()
        workload.commit(cycle, bench.ingest(session, cycle))
        answers = session.tick()
        rows = range(session.n_active_queries)
        assert bench.check_exact(session, answers, rows) == 0

        handle = session.handles()[0]
        honest = answers[handle]
        ids, _ = session.population()
        answered = {oid for oid, _ in honest.neighbors}
        stranger = next(int(i) for i in ids if int(i) not in answered)
        neighbors = list(honest.neighbors)
        neighbors[0] = (stranger, neighbors[0][1])
        tampered = {**answers, handle: dataclasses.replace(honest, neighbors=tuple(neighbors))}
        assert bench.check_exact(session, tampered, rows) == 1


def test_run_length_is_not_a_cli_choice(contract):
    assert bench.main(["run", "--seconds", str(contract["run_seconds"] + 1)]) == 2


def _document(seed: int, tick_ms: float, failed: int = 0, **settings) -> dict:
    metrics = dict.fromkeys(bench.END_TO_END_UNITS, 1.0)
    metrics["tick_ms_p50"] = tick_ms
    return {
        "method": "fast_grid", "trace": False, "scale": 1.0, "ticks": 0, "seed": seed,
        **settings,
        "workloads": {"w": {"attempted": 100, "failed": failed, "metrics": metrics}},
    }


def _compare(tmp_path: Path, parent: list, change: list) -> int:
    argv = ["compare"]
    for side, documents in (("parent", parent), ("change", change)):
        argv.append(f"--{side}")
        for i, document in enumerate(documents):
            path = tmp_path / f"{side}-{i}.json"
            path.write_text(json.dumps(document))
            argv.append(str(path))
    return bench.main(argv)


def test_compare_blocks_a_gain_while_more_ticks_fail(tmp_path, capsys):
    parent = [_document(s, 100.0 + s) for s in range(10)]
    change = [_document(s, 50.0 + s) for s in range(10)]
    assert _compare(tmp_path, parent, change) == 0
    assert "improved" in capsys.readouterr().out

    change[3] = _document(3, 53.0, failed=1)
    assert _compare(tmp_path, parent, change) == 1
    out = capsys.readouterr().out
    assert not any(line.endswith("  improved") for line in out.splitlines())
    assert "unresolved: more failed ticks" in out and "regressed" in out


def test_compare_refuses_runs_that_differ(tmp_path):
    parent = [_document(s, 100.0) for s in range(3)]
    assert _compare(tmp_path, parent, [_document(s, 100.0, scale=0.01) for s in range(3)]) == 2
    assert _compare(tmp_path, parent, [_document(s + 1, 100.0) for s in range(3)]) == 2
    assert _compare(tmp_path, parent, [_document(s, 100.0) for s in range(2)]) == 2
    fewer = _document(0, 100.0)
    fewer["workloads"] = {}
    assert _compare(tmp_path, parent, [fewer] + parent[1:]) == 2
