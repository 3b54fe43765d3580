"""Child-process side of the benchmark: dataset generation and measurement.

    python3 perfbench/worker.py generate --workload W --seed N
    python3 perfbench/worker.py measure --workload W --seed N --seconds S --trace 0|1 \
        --out DIR --result FILE

Run from the repository root; the program is imported from ./src. Datasets
are generated in their own process and cached under .perfbench/data, so the
generator's time and memory stay out of every metric.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import TRACED, UNTRACED, Recorder, installed, layer_metrics, rss_hwm_mb  # noqa: E402
from workloads import ALIGN, WORKLOADS, Workload  # noqa: E402

STATE = Path(".perfbench")
# Set-up is timed in bursts of about this long (at least one load each)
# before the first pass and after every pass, so its samples span the run:
# this machine's speed drifts in phases of seconds.
SETUP_BURST_S = 0.25
CHECKED_ROWS = 32  # time-matrix rows compared with the scalar oracle per run
TIME_MATRIX = "timesim.build_time_similarity_matrix"
PSEUDO = "aligner.mutual_nearest_pairs"


def import_program(src: Path = Path("src")):
    """Import tkgalign from `src`, refusing any other copy."""
    src = src.resolve()
    if not (src / "tkgalign" / "__init__.py").is_file():
        raise SystemExit(f"error: no tkgalign package under {src}; run from the repository root")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import tkgalign

    if Path(tkgalign.__file__).resolve().parent != src / "tkgalign":
        raise SystemExit(f"error: imported tkgalign from {tkgalign.__file__}, not {src}")
    # by module path: the package re-exports a function named `evaluate`
    return tuple(importlib.import_module(f"tkgalign.{m}")
                 for m in ("cli", "io", "timesim", "evaluate"))


def dataset_dirs(wl: Workload, seed: int, root: Path = STATE / "data") -> list[Path]:
    tag = hashlib.sha1(json.dumps(wl.synth, sort_keys=True).encode()).hexdigest()[:8]
    base = root / f"{wl.name}-{tag}-s{seed}"
    return [base / str(k) for k in range(wl.datasets)]


def generate(wl: Workload, seed: int, root: Path = STATE / "data") -> list[Path]:
    """Write the workload's datasets for `seed` unless they are cached."""
    import_program()
    from tkgalign.synth import SynthParams, make_benchmark, write_benchmark

    dirs = dataset_dirs(wl, seed, root)
    for d, rng_seed in zip(dirs, wl.dataset_seeds(seed)):
        if d.is_dir():
            continue
        tmp = d.with_name(f"{d.name}.tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        ds = make_benchmark(SynthParams(**wl.synth, rng_seed=rng_seed))
        write_benchmark(ds, tmp)
        if not ds.sup_pairs:
            (tmp / "sup_pairs").unlink()  # no seed file: the run is unsupervised
        os.replace(tmp, d)
    return dirs


def _run_seeds_command(cli, data: Path, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "config.json"
    cfg.write_text(json.dumps({"dataset": str(data)}), encoding="utf-8")
    rc = cli.main(["seeds", str(cfg), "--output-dir", str(out)])
    if rc != 0:
        raise RuntimeError(f"seeds subcommand exited with {rc}")


def _run(program, wl: Workload, data: Path, out: Path):
    """One pass of the workload's program path through its public entry point."""
    cli = program[0]
    if wl.path == ALIGN:
        return cli.run_alignment({"dataset": str(data), **wl.config}, out)
    _run_seeds_command(cli, data, out)
    return None


def _check(program, wl, data, out, outcome, rec, seed):
    """Output checks and quality figures of one pass; returns (problems, quality)."""
    cli, _, timesim, evaluate = program
    rng = np.random.default_rng(seed)
    rows = sorted(rng.choice(len(data.sig1), size=min(CHECKED_ROWS, len(data.sig1)),
                             replace=False).tolist())
    matrix = rec.kept[TIME_MATRIX][-1]
    problems = checks.check_time_matrix(matrix, data, rows, timesim.time_similarity)
    seeds = checks.read_pairs(out / "generated_pairs")
    problems += checks.check_seeds(seeds, data)
    quality = {"seeds": checks.pair_quality(seeds, data.gold), "gold": len(data.gold)}
    if wl.path == ALIGN:
        report, _, _ = outcome
        _, _, trn, aln, _ = cli.parse_configs({"dataset": str(data.root), **wl.config})
        problems += checks.check_predictions(out / "predictions.tsv", data)
        problems += checks.check_losses(checks.read_losses(out / "loss.csv"),
                                        trn.epochs * aln.iterations)
        quality.update(hits_at_1=report.hits_at[1], hits_at_10=report.hits_at[10],
                       mrr=report.mrr)
    else:
        # the seeds path ranks nothing itself; rank the gold targets by the
        # time matrix it built, with the program's tie rule
        quality.update(checks.ranking_quality(matrix.scores, data.gold, evaluate.rank_of_truth))
    if PSEUDO in rec.kept:
        quality["pseudo"] = checks.pair_quality(
            [p for found in rec.kept[PSEUDO] for p in found.pairs], data.gold)
    return problems, quality


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "cpus": os.cpu_count()}


def _time_setups(io, layout) -> list[float]:
    """Seconds per dataset load, for about SETUP_BURST_S."""
    out = []
    while sum(out) < SETUP_BURST_S or not out:
        t0 = time.perf_counter()
        io.load_dataset(layout)
        out.append(time.perf_counter() - t0)
    return out


def measure(wl: Workload, seed: int, dirs: list[Path], out: Path, seconds: float,
            traced: bool) -> dict:
    """Run the workload's path for about `seconds`, at least once on each of
    its pipeline datasets (once, on the first, when traced); check every
    pass; return timings, quality and, when traced, per-layer metrics.
    Dataset k's outputs go to out/d<k>."""
    program = import_program()
    cli, io, _, _ = program
    rec = Recorder(keep={TIME_MATRIX, PSEUDO} if traced else {TIME_MATRIX})
    n_pipe = 1 if traced else wl.pipeline_datasets
    quality: dict[int, dict] = {}
    reps, problems = [], []
    layout = io.DatasetLayout.from_dir(dirs[0])
    setups = [] if traced else _time_setups(io, layout)
    attempted = failed = 0
    peak = None
    began = time.perf_counter()
    while True:
        k = attempted % n_pipe
        rec.reset()
        attempted += 1
        try:
            with installed(rec, TRACED if traced else UNTRACED):
                t0 = time.perf_counter()
                outcome = _run(program, wl, dirs[k], out / f"d{k}")
                elapsed = time.perf_counter() - t0
            if peak is None:
                peak = rss_hwm_mb()  # before the checks allocate anything
            found, quality[k] = _check(program, wl, checks.Dataset(dirs[k]), out / f"d{k}",
                                       outcome, rec, seed)
        except Exception:
            failed += 1
            problems.append(traceback.format_exc())
            break
        if found:
            failed += 1
            problems += found
        setup = rec.total("io.load_dataset")
        setups.append(setup)
        reps.append(elapsed - setup)
        rec.kept.clear()
        del outcome
        gc.collect()
        if not traced:
            setups += _time_setups(io, layout)
        spent = time.perf_counter() - began
        if traced or found or (attempted >= n_pipe
                               and spent + statistics.median(reps) + setup > seconds):
            break

    result = {"attempted": attempted, "failed": failed, "problems": problems,
              "pipeline_s": reps, "setup_s": setups, "peak_rss_mb": peak,
              "env": environment()}
    if failed:
        return result
    if traced:
        trace_dir = out / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        rec.write(trace_dir / "spans.jsonl")
        layers, missing = layer_metrics(rec, wl.path)
        if wl.path == ALIGN:
            good, total = quality[0]["pseudo"]
            layers["aligner.pseudo_precision"] = (good / total if total else 0.0, "ratio")
        else:
            layers["aligner.pseudo_precision"] = (0.0, "ratio")
        result.update(layers=layers, missing=missing)
        (trace_dir / "layers.json").write_text(json.dumps(result, indent=2), encoding="utf-8")
        return result

    pooled = {m: statistics.fmean(q[m] for q in quality.values())
              for m in ("hits_at_1", "hits_at_10", "mrr")}
    # seed quality pooled over every dataset; the extra ones only run the
    # seeds subcommand, untimed
    good = sum(q["seeds"][0] for q in quality.values())
    total = sum(q["seeds"][1] for q in quality.values())
    gold = sum(q["gold"] for q in quality.values())
    for k, d in enumerate(dirs[n_pipe:], start=n_pipe):
        attempted += 1
        extra = checks.Dataset(d)
        try:
            _run_seeds_command(cli, d, out / f"d{k}")
        except Exception:
            failed += 1
            problems.append(traceback.format_exc())
            continue
        seeds = checks.read_pairs(out / f"d{k}" / "generated_pairs")
        found = checks.check_seeds(seeds, extra)
        if found:
            failed += 1
            problems += found
        g, t = checks.pair_quality(seeds, extra.gold)
        good, total, gold = good + g, total + t, gold + len(extra.gold)
    pooled["seed_precision"] = good / total if total else 0.0
    pooled["seed_recall"] = good / gold
    result.update(attempted=attempted, failed=failed, problems=problems, quality=pooled)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("generate", "measure"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    p.add_argument("--result", type=Path)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.mode == "generate":
        result = {"dirs": [str(d) for d in generate(wl, args.seed)]}
    else:
        result = measure(wl, args.seed, dataset_dirs(wl, args.seed), args.out, args.seconds,
                         bool(args.trace))
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
