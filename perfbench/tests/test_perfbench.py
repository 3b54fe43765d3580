"""Tests of the benchmark itself: tiny versions of each workload pass their
output checks, and tracing leaves the program's outputs unchanged.

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

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import ALIGN, WORKLOADS  # noqa: E402

SEED = 3


def tiny(wl):
    """The workload's shape at a size that runs in about a second."""
    config = {k: dict(v) for k, v in wl.config.items()}
    if "train" in config:
        config["train"]["epochs"] = 4
    if "align" in config:
        config["align"]["iterations"] = min(2, config["align"]["iterations"])
    return dataclasses.replace(wl, synth={**wl.synth, "entities": 300}, config=config,
                               pipeline_datasets=min(wl.pipeline_datasets, 2),
                               datasets=min(wl.datasets, 3))


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_output_checks(name, tmp_path):
    wl = tiny(WORKLOADS[name])
    dirs = worker.generate(wl, SEED, tmp_path / "data")
    res = worker.measure(wl, SEED, dirs, tmp_path / "out", seconds=0, traced=False)
    assert res["problems"] == [] and res["failed"] == 0
    assert res["attempted"] == len(dirs)
    metrics = run.end_to_end(res)
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_run_reproduces_untraced_outputs(tmp_path):
    wl = tiny(WORKLOADS["noisy_1k"])
    dirs = worker.generate(wl, SEED, tmp_path / "data")
    plain = worker.measure(wl, SEED, dirs, tmp_path / "plain", seconds=0, traced=False)
    traced = worker.measure(wl, SEED, dirs, tmp_path / "traced", seconds=0, traced=True)
    assert plain["failed"] == traced["failed"] == 0
    assert run.same_outputs(tmp_path / "plain" / "d0", tmp_path / "traced" / "d0") == []
    assert traced["missing"] == []
    assert (tmp_path / "traced" / "trace" / "spans.jsonl").stat().st_size > 0

    from tkgalign import aligner, encoder, trainer
    assert aligner.forward is encoder.forward, "wrappers must be removed after the run"
    assert trainer.forward_layers is encoder.forward_layers


def test_missing_span_is_reported_not_zero():
    rec = tracing.Recorder()
    with tracing.installed(rec, [("aligner", "predict"), ("aligner", "no_such_function")]):
        pass
    # a load whose result no longer has the attributes the counts read
    rec.wrap("io.load_dataset", lambda: (object(), object()))()
    metrics, missing = tracing.layer_metrics(rec, ALIGN)
    assert "aligner.predict" in missing and "io.quads" in missing
    assert "aligner.predict.s" not in metrics and "io.quads" not in metrics
    assert "io.load_dataset.s" in metrics
    assert metrics["cli.cmd_seeds.self_s"] == (0.0, "s"), "spans the path never runs read 0"


def test_metric_names_and_units_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = tiny(WORKLOADS["noisy_1k"])
    dirs = worker.generate(wl, SEED, tmp_path / "data")
    plain = worker.measure(wl, SEED, dirs, tmp_path / "plain", seconds=0, traced=False)
    traced = worker.measure(wl, SEED, dirs, tmp_path / "traced", seconds=0, traced=True)
    e2e = {k: u for k, (_, u) in run.end_to_end(plain).items()}
    layers = {k: u for k, (_, u) in traced["layers"].items()}
    layers["trace.overhead"] = "%"
    assert e2e == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert layers == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "noisy_1k",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
