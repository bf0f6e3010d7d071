"""Each workload at a tiny size, and wrong answers counted as failed operations.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import chain_groups
import cli_lifecycle
import common
import layers
from common import Context

TINY = {cli_lifecycle: 0.05, chain_groups: 0.05}
MANIFEST = json.loads((common.ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"] for m in MANIFEST["per_layer"]}
# Figures only one workload measures; run.py writes them to standard error.
ONLY = {
    cli_lifecycle: {
        "storage.save_delta_s", "storage.save_delta_bytes", "storage.iter_triples_s",
        "semantics.entail_s", "semantics.derived", "semantics.rounds",
        "semantics.view_neighbors_us", "semantics.validate_s",
    },
    chain_groups: {
        "harness.generate_pairs_s", "harness.pairs_materialised", "harness.run_batch_s",
        "harness.report_write_s",
    },
}


def tiny_run(module, tmp_path: Path, monkeypatch, trace: bool = False) -> tuple[Context, dict, dict]:
    monkeypatch.setattr(module, "SCALE", TINY[module])
    monkeypatch.setattr(module, "SETUPS", 1, raising=False)
    monkeypatch.setattr(module, "STARTS", 1, raising=False)
    ctx = Context(3, 1, trace, tmp_path)
    end_to_end, per_layer, _ = module.run(ctx)
    return ctx, end_to_end, per_layer


@pytest.mark.parametrize("module", [cli_lifecycle, chain_groups], ids=lambda m: m.__name__)
def test_tiny_run_is_correct(module, tmp_path, monkeypatch):
    ctx, end_to_end, per_layer = tiny_run(module, tmp_path, monkeypatch)
    assert ctx.correct and ctx.failed == 0 and ctx.attempted > 0, ctx.wrong
    assert set(end_to_end) == E2E
    assert all(value > 0 for value, _ in end_to_end.values())
    assert per_layer == {}


@pytest.mark.parametrize("module", [cli_lifecycle, chain_groups], ids=lambda m: m.__name__)
def test_traced_run_reports_layers(module, tmp_path, monkeypatch):
    ctx, _, per_layer = tiny_run(module, tmp_path, monkeypatch, trace=True)
    assert ctx.correct, ctx.wrong
    assert set(per_layer) == PER_LAYER | ONLY[module]
    # At this size an open can fit in memory the test process already holds.
    assert per_layer.pop("storage.open_rss_mb")[0] >= 0
    assert all(value > 0 for name, (value, _) in per_layer.items() if name in PER_LAYER)


def test_traced_cli_prints_what_the_cli_prints(tmp_path):
    """The traced child runs the CLI itself: same output, same exit code."""
    ctx = Context(3, 1, True, tmp_path)
    corpus_path, _ = common.make_corpus(ctx, "chain", 0.05)
    outputs = []
    for trace in (False, True):
        ctx.trace = trace
        store = str(tmp_path / f"store{trace}")
        tr = common.Tracer(trace)
        res = layers.cli_command(ctx, tr, ["load", "--store", store, "--input", str(corpus_path)], f"l{trace}")
        outputs.append((res.code, res.stdout))
        if trace:
            assert tr.counters["storage.create_s"] and tr.counters["ntriples.parse_s"]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_dropped_derived_triple_fails_entail(tmp_path, monkeypatch):
    real = cli_lifecycle.cli_command

    def drop_one(ctx, tr, args, name):
        res = real(ctx, tr, args, name)
        if name.startswith("entail"):
            lines = res.stdout.splitlines(keepends=True)
            res = dataclasses.replace(res, stdout="".join(lines[1:]))
        return res

    monkeypatch.setattr(cli_lifecycle, "cli_command", drop_one)
    ctx, _, _ = tiny_run(cli_lifecycle, tmp_path, monkeypatch)
    assert not ctx.correct
    assert ctx.failed == sum(1 for w in ctx.wrong if w.startswith("entail")) >= 1


def test_wrong_chain_distance_fails_its_pair(tmp_path, monkeypatch):
    real = chain_groups.run_batch

    def off_by_one(store, pairs, model, mode):
        report = real(store, pairs, model, mode)
        found = [r for r in report.records if r.distance is not None]
        if found:
            found[0].distance += 1
        return report

    monkeypatch.setattr(chain_groups, "run_batch", off_by_one)
    ctx, _, _ = tiny_run(chain_groups, tmp_path, monkeypatch)
    assert not ctx.correct
    # The wrong distance shows in the batch record and in the written report.
    assert ctx.failed >= 1 and all(w.startswith(("pair", "report")) for w in ctx.wrong)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(common.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain_groups", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_is_json(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", "chain_groups",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
