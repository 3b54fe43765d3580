"""Spans around calls into the tkgalign modules, recorded from outside them.

A wrapper is installed in every tkgalign namespace that holds the original
function, so calls through names bound by `from .x import f` are recorded
too. Spans (name, start, end, parent) are kept in memory and written out
when the run ends. A layer's self time is its span minus its child spans.
"""
from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Functions the traced run records, as (module, attribute); a dotted
# attribute names a classmethod.
TRACED = (
    ("cli", "run_alignment"),
    ("cli", "cmd_seeds"),
    ("io", "load_dataset"),
    ("io", "write_pairs"),
    ("io", "write_predictions"),
    ("kg", "TemporalKG.build"),
    ("kg", "union_graph"),
    ("timesim", "build_time_dictionary"),
    ("timesim", "build_time_similarity_matrix"),
    ("seeds", "generate_seeds"),
    ("encoder", "make_dropout_mask"),
    ("encoder", "forward_layers"),
    ("encoder", "forward"),
    ("trainer", "train_on_union"),
    ("trainer", "sample_negatives"),
    ("trainer", "TripletBatch.build"),
    ("trainer", "compute_gradients"),
    ("trainer", "optimizer_step"),
    ("aligner", "iterate"),
    ("aligner", "embedding_similarity"),
    ("aligner", "combine"),
    ("aligner", "csls_rescale"),
    ("aligner", "mutual_nearest_pairs"),
    ("aligner", "predict"),
    ("evaluate", "evaluate"),
)
# The untraced run only times set-up and keeps the time matrix for the checks.
UNTRACED = (("io", "load_dataset"), ("timesim", "build_time_similarity_matrix"))

# Spans each program path must record; one with zero calls is reported missing.
_SEEDS_PATH = {"cli.cmd_seeds", "io.load_dataset", "io.write_pairs", "kg.TemporalKG.build",
               "timesim.build_time_dictionary", "timesim.build_time_similarity_matrix",
               "seeds.generate_seeds"}
EXPECTED = {
    "seeds": _SEEDS_PATH,
    "align": {f"{m}.{a}" for m, a in TRACED} - {"cli.cmd_seeds"},
}

# RSS high-water mark taken when the first call of these spans returns.
_STAGE_END = {
    "io.load_dataset": "load",
    "timesim.build_time_similarity_matrix": "time_matrix",
    "seeds.generate_seeds": "seeds",
    "trainer.train_on_union": "train",
    "aligner.mutual_nearest_pairs": "scoring",
    "aligner.predict": "scoring",
}
STAGES = ("load", "time_matrix", "seeds", "train", "scoring")


def rss_hwm_mb() -> float:
    """Peak resident set size of this process so far (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _score_bytes(scores) -> int:
    if hasattr(scores, "indptr"):
        return scores.data.nbytes + scores.indices.nbytes + scores.indptr.nbytes
    return scores.nbytes


def _counts(name, args, result) -> dict:
    """Work counts taken at a span boundary from the call's arguments or result."""
    if name == "io.load_dataset":
        kg1, kg2 = result[0], result[1]
        return {"io.quads": len(kg1.quadruples) + len(kg2.quadruples),
                "kg.adjacency_nnz": kg1.adjacency.nnz + kg2.adjacency.nnz}
    if name == "trainer.TripletBatch.build":
        return {"trainer.triplets": len(result.pos_src)}
    if name == "timesim.build_time_similarity_matrix":
        s = result.scores
        nnz = s.nnz if hasattr(s, "nnz") else int(np.count_nonzero(s))
        return {"timesim.nnz": nnz, "timesim.score_bytes": _score_bytes(s)}
    if name == "seeds.generate_seeds":
        return {"seeds.count": len(result)}
    if name == "aligner.csls_rescale":
        rows, cols = args[0].shape
        return {"aligner.scored_cells": rows * cols}
    if name == "aligner.mutual_nearest_pairs":
        return {"aligner.pseudo_pairs": len(result), "aligner.pseudo_rows": args[0].shape[0]}
    return {}


class Recorder:
    """In-memory span list plus counts, memory marks and kept results."""

    def __init__(self, keep=()):
        self.keep = set(keep)
        self.reset()

    def reset(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.hwm_mb: dict[str, float] = {}
        self.kept: dict[str, list] = {}

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, self._stack[-1] if self._stack else -1,
                               time.perf_counter(), None])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][3] = time.perf_counter()
                self._stack.pop()
            self._returned(name, args, result)
            return result

        return wrapper

    def _returned(self, name, args, result) -> None:
        try:
            counts = _counts(name, args, result)
        except (AttributeError, TypeError, IndexError):
            counts = {}  # the call's result changed shape: its counts read missing
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        stage = _STAGE_END.get(name)
        if stage is not None and stage not in self.hwm_mb:
            self.hwm_mb[stage] = rss_hwm_mb()
        if name in self.keep:
            self.kept.setdefault(name, []).append(result)

    def total(self, name) -> float:
        return sum(e - s for n, _, s, e in self.spans if n == name)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, parent, start, end) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "parent": parent,
                                    "start": start - self.origin,
                                    "end": end - self.origin}) + "\n")


@contextmanager
def installed(recorder: Recorder, targets):
    """Install recorder wrappers for `targets`; restore the originals on exit.

    A target the package no longer has is skipped, so its span records no
    calls and is reported missing instead of failing the run."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "tkgalign" or n.startswith("tkgalign.")]
    undo = []
    try:
        for mod, attr in targets:
            owner = importlib.import_module(f"tkgalign.{mod}")
            name = f"{mod}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                raw = vars(cls).get(meth) if cls is not None else None
                if not isinstance(raw, classmethod):
                    continue
                undo.append((cls, meth, raw))
                setattr(cls, meth, classmethod(recorder.wrap(name, raw.__func__)))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapped = recorder.wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        undo.append((m, key, orig))
                        setattr(m, key, wrapped)
        yield recorder
    finally:
        for obj, key, value in reversed(undo):
            setattr(obj, key, value)


# (metric, span, statistic): "s" total seconds, "ms" mean milliseconds per
# call, "self_s"/"self_ms" the same for self time.
_SPAN_METRICS = (
    ("trainer.compute_gradients.self_ms", "trainer.compute_gradients", "self_ms"),
    ("trainer.sample_negatives.ms", "trainer.sample_negatives", "ms"),
    ("trainer.TripletBatch.build.ms", "trainer.TripletBatch.build", "ms"),
    ("trainer.optimizer_step.ms", "trainer.optimizer_step", "ms"),
    ("encoder.make_dropout_mask.ms", "encoder.make_dropout_mask", "ms"),
    ("encoder.forward_layers.ms", "encoder.forward_layers", "ms"),
    ("aligner.embedding_similarity.s", "aligner.embedding_similarity", "s"),
    ("aligner.combine.s", "aligner.combine", "s"),
    ("aligner.csls_rescale.s", "aligner.csls_rescale", "s"),
    ("aligner.mutual_nearest_pairs.s", "aligner.mutual_nearest_pairs", "s"),
    ("aligner.predict.s", "aligner.predict", "s"),
    ("encoder.forward.s", "encoder.forward", "s"),
    ("aligner.iterate.self_s", "aligner.iterate", "self_s"),
    ("timesim.build_time_dictionary.s", "timesim.build_time_dictionary", "s"),
    ("timesim.build_time_similarity_matrix.s", "timesim.build_time_similarity_matrix", "s"),
    ("seeds.generate_seeds.s", "seeds.generate_seeds", "s"),
    ("io.load_dataset.s", "io.load_dataset", "s"),
    ("io.write_pairs.s", "io.write_pairs", "s"),
    ("io.write_predictions.s", "io.write_predictions", "s"),
    ("kg.TemporalKG.build.s", "kg.TemporalKG.build", "s"),
    ("kg.union_graph.s", "kg.union_graph", "s"),
    ("evaluate.evaluate.s", "evaluate.evaluate", "s"),
    ("cli.run_alignment.self_s", "cli.run_alignment", "self_s"),
    ("cli.cmd_seeds.self_s", "cli.cmd_seeds", "self_s"),
)
# (metric, span whose calls produce it, unit)
_COUNT_METRICS = (
    ("trainer.triplets", "trainer.TripletBatch.build", "count"),
    ("aligner.scored_cells", "aligner.csls_rescale", "count"),
    ("aligner.pseudo_pairs", "aligner.mutual_nearest_pairs", "count"),
    ("timesim.nnz", "timesim.build_time_similarity_matrix", "count"),
    ("timesim.score_bytes", "timesim.build_time_similarity_matrix", "bytes"),
    ("seeds.count", "seeds.generate_seeds", "count"),
    ("io.quads", "io.load_dataset", "count"),
    ("kg.adjacency_nnz", "io.load_dataset", "count"),
)
_STAGE_SPANS = {stage: [s for s, st in _STAGE_END.items() if st == stage] for stage in STAGES}


def _quantile(values, q) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(np.ceil(q * len(ordered))) - 1))]


def epoch_durations(spans) -> list[float]:
    """Seconds per training epoch: an epoch ends when its optimizer step
    returns; the first of each train_on_union call starts with the call."""
    out = []
    for i, (name, _, start, _) in enumerate(spans):
        if name != "trainer.train_on_union":
            continue
        last = start
        for child, parent, _, end in spans:
            if parent == i and child == "trainer.optimizer_step":
                out.append(end - last)
                last = end
    return out


def layer_metrics(rec: Recorder, path: str) -> tuple[dict, list[str]]:
    """Per-layer metrics {name: (value, unit)} and what is missing: expected
    spans that recorded no call and counts their calls did not yield. A span
    the path does not run reads 0; a missing metric is left out."""
    calls, total, child = {}, {}, {}
    for name, parent, start, end in rec.spans:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        if parent >= 0:
            pname = rec.spans[parent][0]
            child[pname] = child.get(pname, 0.0) + (end - start)
    expected = EXPECTED[path]
    missing = sorted(s for s in expected if not calls.get(s))

    metrics: dict[str, tuple[float, str]] = {}

    def put(metric, spans, value, unit):
        if not any(s in missing for s in spans):
            metrics[metric] = (value, unit)

    for metric, span, stat in _SPAN_METRICS:
        n = calls.get(span, 0)
        seconds = total.get(span, 0.0) - (child.get(span, 0.0) if stat.startswith("self") else 0.0)
        if stat.endswith("ms"):
            put(metric, [span], 1000.0 * seconds / n if n else 0.0, "ms")
        else:
            put(metric, [span], seconds, "s")

    epochs = epoch_durations(rec.spans)
    train_spans = ["trainer.train_on_union", "trainer.optimizer_step"]
    for q, label in ((0.5, "p50"), (0.98, "p98")):
        put(f"trainer.epoch_ms.{label}", train_spans,
            1000.0 * _quantile(epochs, q) if epochs else 0.0, "ms")
    put("trainer.epochs", train_spans, len(epochs), "count")

    for metric, span, unit in _COUNT_METRICS:
        if calls.get(span) and metric not in rec.counts:
            missing.append(metric)
        else:
            put(metric, [span], rec.counts.get(metric, 0), unit)
    rows = rec.counts.get("aligner.pseudo_rows", 0)
    put("aligner.pseudo_yield", ["aligner.mutual_nearest_pairs"],
        rec.counts.get("aligner.pseudo_pairs", 0) / rows if rows else 0.0, "ratio")

    for stage in STAGES:
        put(f"mem.hwm_after.{stage}_mb", _STAGE_SPANS[stage], rec.hwm_mb.get(stage, 0.0), "MiB")
    return metrics, missing
