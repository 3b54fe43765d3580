"""Record the benchmark's baseline: medians and quartile spreads of every
end-to-end metric over several seeds per workload, one traced run per
workload, and the table of which layer metric should move which end-to-end
metric on which workload.

    python3 perfbench/baseline.py --seeds 1-10 --sets 2 --out perfbench/baseline.json

Run from the repository root; runs are made one at a time. Prints, per
workload and end-to-end metric, each set's median and spread, how much worse
the later sets' medians are than the first's (drift) and the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

TRACE_SEED = 0

_TRAINER = ["trainer.compute_gradients.self_ms", "trainer.sample_negatives.ms",
            "trainer.TripletBatch.build.ms", "trainer.optimizer_step.ms",
            "encoder.make_dropout_mask.ms", "encoder.forward_layers.ms",
            "trainer.epoch_ms.p50", "trainer.epoch_ms.p98", "trainer.triplets", "trainer.epochs"]
_ALIGNER = ["aligner.embedding_similarity.s", "aligner.combine.s", "aligner.csls_rescale.s",
            "aligner.mutual_nearest_pairs.s", "aligner.predict.s", "encoder.forward.s",
            "aligner.iterate.self_s", "aligner.scored_cells", "aligner.pseudo_pairs",
            "aligner.pseudo_yield", "aligner.pseudo_precision"]
_TIMESIM = ["timesim.build_time_dictionary.s", "timesim.build_time_similarity_matrix.s",
            "seeds.generate_seeds.s", "timesim.nnz", "timesim.score_bytes", "seeds.count",
            "cli.cmd_seeds.self_s"]
_SETUP = ["io.load_dataset.s", "kg.TemporalKG.build.s", "io.quads", "kg.adjacency_nnz"]

# Which end-to-end metric each layer metric should move, on which workload,
# written down before any optimisation. "none" predicts no change.
PREDICTIONS = [
    {"layer_metrics": _TRAINER, "moves": [
        {"metric": "pipeline_s", "workload": "noisy_1k", "share": "about 99% of the pipeline"},
        {"metric": "pipeline_s", "workload": "unsup_8k", "share": "about 50% of the pipeline"},
        {"metric": "none", "workload": "seeds_20k", "share": "not run"}]},
    {"layer_metrics": _ALIGNER, "moves": [
        {"metric": "peak_rss_mb", "workload": "unsup_8k", "share": "dense scoring sets the peak"},
        {"metric": "pipeline_s", "workload": "unsup_8k", "share": "about 30% of the pipeline"},
        {"metric": "none", "workload": "noisy_1k", "share": "under 1% of the pipeline"},
        {"metric": "none", "workload": "seeds_20k", "share": "not run"}]},
    {"layer_metrics": _TIMESIM, "moves": [
        {"metric": "pipeline_s", "workload": "seeds_20k", "share": "nearly all of the pipeline"},
        {"metric": "peak_rss_mb", "workload": "seeds_20k", "share": "the time matrix sets the peak"},
        {"metric": "pipeline_s", "workload": "unsup_8k", "share": "about 20% of the pipeline"},
        {"metric": "none", "workload": "noisy_1k", "share": "negligible"}]},
    {"layer_metrics": _SETUP, "moves": [
        {"metric": "setup_s", "workload": "seeds_20k", "share": "all of set-up, largest here"},
        {"metric": "setup_s", "workload": "unsup_8k", "share": "all of set-up"},
        {"metric": "setup_s", "workload": "noisy_1k", "share": "all of set-up"}]},
    {"layer_metrics": ["kg.union_graph.s"], "moves": [
        {"metric": "pipeline_s", "workload": "unsup_8k", "share": "a few % of the pipeline"}]},
    {"layer_metrics": ["evaluate.evaluate.s"], "moves": [
        {"metric": "pipeline_s", "workload": "unsup_8k", "share": "a few % of the pipeline"}]},
    {"layer_metrics": ["mem.hwm_after.load_mb", "mem.hwm_after.time_matrix_mb",
                       "mem.hwm_after.seeds_mb", "mem.hwm_after.train_mb",
                       "mem.hwm_after.scoring_mb"], "moves": [
        {"metric": "peak_rss_mb", "workload": "unsup_8k", "share": "pins the peak to a stage"},
        {"metric": "peak_rss_mb", "workload": "seeds_20k", "share": "pins the peak to a stage"}]},
]


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """One benchmark run: its result line and its environment line."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    env = next((x[len("env: "):] for x in lines if x.startswith("env: ")), "")
    status = "ok" if proc.returncode == 0 and out["correct"] else "FAILED\n" + proc.stderr
    print(f"{workload} seed {seed} trace {trace}: {status}", file=sys.stderr, flush=True)
    return out, env


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="first-last workload seeds")
    p.add_argument("--sets", type=int, default=2, help="times each seed range is run")
    p.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = p.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    names = list(WORKLOADS)
    base = {"seeds": seeds, "run_seconds": spec["run_seconds"], "sets": [], "traced": {},
            "predictions": PREDICTIONS}
    for _ in range(args.sets):
        summary = {}
        for name in names:
            runs = [_run(name, s, spec["run_seconds"], 0)[0] for s in seeds]
            good = [r for r in runs if r["correct"]]
            summary[name] = {
                "error_rate": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
                **{m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in good])
                   for m in spec["end_to_end"] if len(good) > 1}}
        base["sets"].append(summary)
    for name in names:
        traced, base["machine"] = _run(name, TRACE_SEED, spec["run_seconds"], 1)
        base["traced"][name] = {"seed": TRACE_SEED, **{
            k: v["value"] for k, v in traced["metrics"].items()}}
    args.out.write_text(json.dumps(base, indent=1) + "\n", encoding="utf-8")

    print(f"{'workload':<10} {'metric':<15} {'unit':<6} " + " ".join(
        f"{'median' + str(i + 1):>12} {'spread' + str(i + 1):>8}" for i in range(args.sets))
        + f" {'drift':>7} {'bound':>6}")
    for name in names:
        for m in spec["end_to_end"]:
            stats = [s[name].get(m["name"]) for s in base["sets"]]
            if None in stats:
                print(f"{name:<10} {m['name']:<15} no correct runs")
                continue
            sign = 1 if m["better"] == "lower" else -1
            drift = max(sign * (st["median"] - stats[0]["median"]) / stats[0]["median"]
                        for st in stats)
            print(f"{name:<10} {m['name']:<15} {m['unit']:<6} " + " ".join(
                f"{st['median']:>12.6g} {st['spread']:>8.4f}" for st in stats)
                + f" {drift:>7.4f} {m['bound']:>6}")
        print(f"{name:<10} error_rate " + " ".join(f"{s[name]['error_rate']:.4f}"
                                                   for s in base["sets"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
