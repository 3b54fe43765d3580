"""tkgalign benchmark.

    python3 perfbench/run.py --workload noisy_1k --seed 0 --seconds 30 --trace 0

Run from the repository root. Each run generates (or reuses) the workload's
datasets from --seed in one process, then measures the program in a fresh
process, one workload at a time with one BLAS thread. The last line of
standard output is one JSON object:

  --trace 0  end-to-end metrics: set-up (dataset load) and pipeline seconds,
             peak RSS, Hits@1/10, MRR and generated-seed precision/recall;
  --trace 1  per-layer metrics from a second, traced process, whose outputs
             must equal the untraced process's byte for byte.

Every pass is checked (time matrix against the scalar oracle, seeds, the
predictions and the loss trajectory); `failed` counts passes that raised or
failed a check. Run artifacts, spans included, go to .perfbench/runs.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

STATE = Path(".perfbench")
DEADLINE_S = 170
BLAS_THREADS = "1"
# Files a traced pass must reproduce byte for byte.
COMPARED = ("predictions.tsv", "loss.csv", "generated_pairs")


def _child(args: list[str], log: Path, deadline: float) -> dict | None:
    """Run worker.py in a fresh process; its result, or None if it failed."""
    result = log.with_suffix(".json")
    result.unlink(missing_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--result", str(result)]
    with open(log, "w", encoding="utf-8") as f:
        try:
            proc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, env=env,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0 or not result.exists():
        return None
    return json.loads(result.read_text(encoding="utf-8"))


def end_to_end(res: dict) -> dict:
    q = res["quality"]
    return {
        "setup_s": (statistics.median(res["setup_s"]), "s"),
        "pipeline_s": (statistics.median(res["pipeline_s"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
        "hits_at_1": (q["hits_at_1"], "ratio"),
        "hits_at_10": (q["hits_at_10"], "ratio"),
        "mrr": (q["mrr"], "ratio"),
        "seed_precision": (q["seed_precision"], "ratio"),
        "seed_recall": (q["seed_recall"], "ratio"),
    }


def same_outputs(a: Path, b: Path) -> list[str]:
    return [f"traced {name} differs from the untraced run" for name in COMPARED
            if (a / name).exists() != (b / name).exists()
            or ((a / name).exists() and (a / name).read_bytes() != (b / name).read_bytes())]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="tkgalign benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not Path("src/tkgalign/__init__.py").is_file():
        print("error: src/tkgalign not found; run from the repository root", file=sys.stderr)
        return 2
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    runs = STATE / "runs" / f"{wl.name}-s{args.seed}"
    runs.mkdir(parents=True, exist_ok=True)
    common = ["--workload", wl.name, "--seed", str(args.seed)]
    if _child(["generate", *common], runs / "generate.log", deadline) is None:
        print(f"error: dataset generation failed, see {runs / 'generate.log'}", file=sys.stderr)
        return 1

    measured = [("untraced", 0)] + ([("traced", 1)] if args.trace else [])
    results = {}
    for label, traced in measured:
        results[label] = _child(["measure", *common, "--seconds", str(args.seconds),
                                 "--trace", str(traced), "--out", str(runs / label)],
                                runs / f"{label}.log", deadline)
    done = [r for r in results.values() if r is not None]
    attempted = sum(r["attempted"] for r in done) + len(results) - len(done)
    failed = sum(r["failed"] for r in done) + len(results) - len(done)
    problems = [x for r in done for x in r["problems"]]
    problems += [f"{label} process died; see {runs / label}.log"
                 for label, r in results.items() if r is None]

    metrics = {}
    if len(done) == len(results) and not failed:
        base = results["untraced"]
        print(f"workload {wl.name} seed {args.seed}: {wl.why}")
        print("env: " + ", ".join(f"{k} {v}" for k, v in base["env"].items()))
        if args.trace:
            tr = results["traced"]
            differ = same_outputs(runs / "untraced" / "d0", runs / "traced" / "d0")
            failed += bool(differ)
            problems += differ
            # the traced pass runs on the first dataset; compare like with like
            untraced_d0 = base["pipeline_s"][::wl.pipeline_datasets]
            overhead = 100.0 * (statistics.median(tr["pipeline_s"])
                                / statistics.median(untraced_d0) - 1.0)
            metrics = dict(tr["layers"], **{"trace.overhead": (overhead, "%")})
            for name in tr["missing"]:
                print(f"missing: {name}")
            print(f"spans: {runs / 'traced' / 'trace' / 'spans.jsonl'}")
        else:
            metrics = end_to_end(base)
            print(f"samples: pipeline_s {len(base['pipeline_s'])}, "
                  f"setup_s {len(base['setup_s'])}")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {failed}/{attempted}")
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    correct = not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
