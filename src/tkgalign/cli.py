"""Command-line pipelines.

Subcommands: align, ablate, sweep, synth, seeds, eval. Every run is driven
by a single declarative config file (YAML or JSON) mapping one-to-one onto
the typed configs of the library modules; environment variables are never
consulted. Runs are reproducible from (config, seed).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import io as kg_io
from .aligner import AlignConfig, IterationResult, iterate
from .encoder import EncoderConfig, init_embeddings
from .evaluate import EvalConfig, EvalReport, evaluate
from .kg import AlignmentPairSet
from .seeds import generate_seeds
from .synth import SynthParams, make_benchmark, write_benchmark
from .timesim import build_time_dictionary, build_time_similarity_matrix
from .trainer import TrainConfig


class ConfigError(ValueError):
    pass


# the config field each ablation sets: section, field, value
ABLATIONS = {
    "relation-fusion": ("encoder", "ablate_relation_fusion", True),
    "global-concat": ("encoder", "ablate_global_concat", True),
    "time-matching": ("align", "alpha", 0.0),
}
ABLATION_ALIASES = {"rff": "relation-fusion", "gar": "global-concat", "tsm": "time-matching"}


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as f:
        try:
            cfg = yaml.safe_load(f)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f"{path}:{mark.line + 1}" if mark else str(path)
            raise ConfigError(f"{where}: invalid YAML: {getattr(exc, 'problem', exc)}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must contain a mapping")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    """The `name` section of `cfg`: a missing or null section is `{}`; any
    other non-mapping is a ConfigError."""
    part = cfg.get(name)
    if part is None:
        return {}
    if not isinstance(part, dict):
        raise ConfigError(f"[{name}] section must be a mapping, got {part!r}")
    return part


def _build(cls, cfg: dict, name: str):
    try:
        return cls(**_section(cfg, name))
    except TypeError as exc:
        raise ConfigError(f"invalid field in [{name}] section: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"invalid value in [{name}] section: {exc}") from None


def _layout(ds) -> kg_io.DatasetLayout:
    """The files a `dataset` entry names: a directory, or a mapping of file
    paths with `quads1` and `quads2` required."""
    if isinstance(ds, str):
        return kg_io.DatasetLayout.from_dir(ds)
    if not isinstance(ds, dict):
        raise ConfigError(f"'dataset' must be a directory or a mapping of file paths, got {ds!r}")
    keys = ("quads1", "quads2", "sup_pairs", "ref_pairs")
    unknown = [k for k in ds if k not in keys]
    if unknown:
        raise ConfigError(f"unknown key in 'dataset': {', '.join(map(repr, unknown))}")
    for k in keys:
        v = ds.get(k)
        # the pair files may be left out or null; the quadruple files may not
        if not isinstance(v, str) and (v is not None or k in keys[:2]):
            raise ConfigError(f"dataset {k} must be a path string, got {v!r}")
    q1, q2, sup, ref = (ds.get(k) for k in keys)
    return kg_io.DatasetLayout(Path(q1), Path(q2), *(Path(p) if p else None for p in (sup, ref)))


def _output_dir(cfg: dict, override: str | Path | None) -> Path:
    """`override` (--output-dir) when given, else the config's output_dir."""
    out = override or cfg.get("output_dir", "out")
    if not isinstance(out, (str, Path)):
        raise ConfigError(f"output_dir must be a path string, got {out!r}")
    return Path(out)


def parse_configs(
    cfg: dict,
) -> tuple[kg_io.DatasetLayout, EncoderConfig, TrainConfig, AlignConfig, EvalConfig]:
    if "dataset" not in cfg:
        raise ConfigError("config needs a 'dataset' entry")
    layout = _layout(cfg["dataset"])
    for p in (layout.quads1, layout.quads2):
        if not Path(p).is_file():
            raise ConfigError(f"quadruple file missing: {p}")
    enc = _build(EncoderConfig, cfg, "encoder")
    trn = _build(TrainConfig, cfg, "train")
    aln = _build(AlignConfig, cfg, "align")
    ev = _build(EvalConfig, cfg, "eval")
    return layout, enc, trn, aln, ev


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows([header, *rows])


def _run_text(report: EvalReport | None, summary: dict) -> str:
    """The metric lines of a run with references, then its mode and, when
    scored, its iterations."""
    lines = [] if report is None else [report.to_text()]
    lines += [f"{k} = {summary[k]}" for k in ("mode", "iterations") if k in summary]
    return "\n".join(lines)


def run_alignment(
    cfg: dict, out_dir: Path | None = None
) -> tuple[EvalReport | None, IterationResult, dict]:
    """Full pipeline: load, (generate seeds if none), train/bootstrap,
    predict, evaluate, write artifacts. Returns (report, result, summary)."""
    layout, enc, trn, aln, ev = parse_configs(cfg)
    out = _output_dir(cfg, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()

    kg1, kg2, vocab, seeds, refs = kg_io.load_dataset(layout)
    time_matrix = build_time_similarity_matrix(
        build_time_dictionary(kg1), build_time_dictionary(kg2)
    )

    unsupervised = len(seeds) == 0
    if unsupervised:
        seeds = generate_seeds(time_matrix)
        kg_io.write_pairs(seeds, out / "generated_pairs")
        if len(seeds) == 0:
            raise ConfigError("no seeds given and none could be generated from timestamps")

    state = init_embeddings(enc, kg1.entity_count + kg2.entity_count,
                            kg1.relation_count + kg2.relation_count)
    result = iterate(state, kg1, kg2, seeds, enc, trn, aln, time_matrix, references=refs)

    kg_io.write_predictions(result.predictions, out / "predictions.tsv")
    _write_csv(out / "loss.csv", ["epoch", "loss"], enumerate(result.losses, start=1))
    _write_csv(out / "iterations.csv", ["iteration", "pseudo_pairs_added", "train_pool_size"],
               result.report)

    report = None if result.reference_ranks is None else evaluate(
        result.similarity, refs, ks=ev.ks, bidirectional=ev.bidirectional,
        row_ranks=result.reference_ranks)

    mode = ("unsupervised " if unsupervised else "supervised ") + (
        "non-iterative" if aln.iterations == 1 else "iterative"
    )
    scored = {} if report is None else {**report.to_dict(), "iterations": aln.iterations}
    summary = {
        "mode": mode,
        "seed_count": len(seeds),
        "parameter_count": state.parameter_count,
        "merged_timestamps": vocab.size,
        "wall_clock_seconds": round(time.time() - t0, 3),
        **scored,
        "config": cfg,
    }
    (out / "report.json").write_text(json.dumps(summary, indent=2, default=str), encoding="utf-8")
    (out / "report.txt").write_text(f"{_run_text(report, summary)}\nseeds = {len(seeds)}\n",
                                    encoding="utf-8")
    return report, result, summary


def _override(cfg: dict, section: str, field_name: str, value) -> dict:
    """A deep copy of `cfg` with `field_name` of `section` set to `value`."""
    cfg = json.loads(json.dumps(cfg))
    cfg[section] = {**_section(cfg, section), field_name: value}
    return cfg


def _ablation(component: str) -> str:
    """The name in ABLATIONS of `component`, a name or alias in any case."""
    name = ABLATION_ALIASES.get(component.lower(), component.lower())
    if name not in ABLATIONS:
        raise ConfigError(f"unknown ablation component {component!r}; "
                          f"expected one of {sorted([*ABLATIONS, *ABLATION_ALIASES])}")
    return name


def apply_ablation(cfg: dict, component: str) -> dict:
    return _override(cfg, *ABLATIONS[_ablation(component)])


def cmd_align(args) -> int:
    cfg = load_config(args.config)
    report, _, summary = run_alignment(cfg, args.output_dir)
    print(f"mode: {summary['mode']}")
    if report is not None:
        print(_run_text(report, summary))
    return 0


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    out = _output_dir(cfg, args.output_dir)
    # an unknown component exits before the full run writes anything
    name = _ablation(args.component)
    ablated_cfg = apply_ablation(cfg, name)
    full_report, _, _ = run_alignment(cfg, out / "full")
    abl_report, _, _ = run_alignment(ablated_cfg, out / f"ablate_{name}")
    for label, rep in (("full", full_report), (args.component, abl_report)):
        if rep is None:
            print(f"{label}: no references, nothing to score")
        else:
            print(f"{label}: hits@1={rep.hits_at.get(1, float('nan')):.4f} mrr={rep.mrr:.4f}")
    return 0


SWEEP_TARGETS = {
    "alpha": ("align", "alpha", float),
    "layers": ("encoder", "layers", int),
    "dimension": ("encoder", "dim", int),
}


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    section, field_name, cast = SWEEP_TARGETS[args.parameter]
    # every value is cast and its config checked before the first run; two
    # equal values would share one run directory
    runs = {}
    for raw in args.values:
        value = cast(raw)
        if value in runs:
            raise ConfigError(f"sweep value {raw!r} repeats {args.parameter} = {value}")
        runs[value] = _override(cfg, section, field_name, value)
        parse_configs(runs[value])
    out = _output_dir(cfg, args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for value, run_cfg in runs.items():
        report, _, _ = run_alignment(run_cfg, out / f"{args.parameter}_{value}")
        scores = (report.hits_at.get(1), report.hits_at.get(10), report.mrr) if report else ()
        rows.append((value, *(scores or (None,) * 3)))
    _write_csv(out / "sweep.csv", [args.parameter, "hits@1", "hits@10", "mrr"], rows)
    for row in rows:
        print("\t".join(str(v) for v in row))
    return 0


def cmd_synth(args) -> int:
    fields = {f.name for f in dataclasses.fields(SynthParams)}
    ds = make_benchmark(SynthParams(**{k: v for k, v in vars(args).items() if k in fields}))
    layout = write_benchmark(ds, args.out_dir)
    print(f"wrote {len(ds.quads1)}+{len(ds.quads2)} quadruples, "
          f"{len(ds.sup_pairs)} seed / {len(ds.ref_pairs)} reference pairs to {args.out_dir}")
    return 0


def _pair_keys(*sets: AlignmentPairSet) -> list[np.ndarray]:
    """One key per pair of each set, its two int64 ids viewed as one 16-byte
    value: equal exactly for equal pairs."""
    return [np.column_stack([s.sources, s.targets]).view(np.dtype((np.void, 16))).ravel()
            for s in sets]


def cmd_seeds(args) -> int:
    cfg = load_config(args.config)
    layout, *_ = parse_configs(cfg)
    out = _output_dir(cfg, args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    kg1, kg2, _, _, refs = kg_io.load_dataset(layout)
    matrix = build_time_similarity_matrix(build_time_dictionary(kg1), build_time_dictionary(kg2))
    seeds = generate_seeds(matrix)
    kg_io.write_pairs(seeds, out / "generated_pairs")
    print(f"generated {len(seeds)} seed pairs")
    checkable = np.isin(seeds.sources, refs.sources)
    if checkable.any():
        found, gold = _pair_keys(seeds, refs)
        precision = np.isin(found[checkable], gold).mean()
        print(f"precision vs references: {precision:.4f} over {checkable.sum()} checkable pairs")
    return 0


def cmd_eval(args) -> int:
    """Source-side hits@1 of a prediction file, which holds one target per
    source: an [eval] section that sets other ks or bidirectional exits 2."""
    cfg = load_config(args.config)
    layout, *_, ev = parse_configs(cfg)
    if ("ks" in _section(cfg, "eval") and ev.ks != (1,)) or ev.bidirectional:
        raise ConfigError(
            "eval reports source-side hits@1 only (a prediction file holds one target per "
            "source): the [eval] section may set ks only to [1] and bidirectional only to false"
        )
    *_, refs = kg_io.load_dataset(layout)
    if not len(refs):
        raise ConfigError("dataset has no reference pairs to score against")
    preds = kg_io.read_predictions(Path(args.predictions))
    # a source predicted more than once is scored by its last line
    last = len(preds) - 1 - np.unique(preds.sources[::-1], return_index=True)[1]
    gold, predicted = _pair_keys(refs, preds)
    hit = np.isin(gold, predicted[last]).sum()
    covered = np.isin(refs.sources, preds.sources).sum()
    print(f"references: {len(refs)}  predicted: {covered}  hits@1: {hit / len(refs):.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tkgalign",
                                description="Entity alignment across temporal knowledge graphs")
    sub = p.add_subparsers(dest="command", required=True)

    def add_cfg(sp):
        sp.add_argument("config", help="YAML/JSON config file")
        sp.add_argument("--output-dir", default=None)

    sp = sub.add_parser("align", help="run the full alignment pipeline")
    add_cfg(sp)
    sp.set_defaults(func=cmd_align)

    sp = sub.add_parser("ablate", help="paired run with one component disabled")
    add_cfg(sp)
    sp.add_argument("--component", required=True,
                    help="relation-fusion|global-concat|time-matching (aliases rff|gar|tsm)")
    sp.set_defaults(func=cmd_ablate)

    sp = sub.add_parser("sweep", help="rerun the pipeline over a hyperparameter range")
    add_cfg(sp)
    sp.add_argument("--parameter", required=True, choices=sorted(SWEEP_TARGETS))
    sp.add_argument("--values", nargs="+", required=True)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    sp.add_argument("out_dir")
    sp.add_argument("--entities", type=int, default=1000)
    sp.add_argument("--relations", type=int, default=10)
    sp.add_argument("--timestamps", type=int, default=50)
    sp.add_argument("--quads-per-entity", type=int, default=8)
    sp.add_argument("--edge-noise", type=float, default=0.05)
    sp.add_argument("--time-noise", type=float, default=0.05)
    sp.add_argument("--seed-pairs", type=int, default=50)
    sp.add_argument("--unique-times", action=argparse.BooleanOptionalAction, default=True)
    sp.add_argument("--rng-seed", type=int, default=0)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("seeds", help="generate unsupervised alignment seeds only")
    add_cfg(sp)
    sp.set_defaults(func=cmd_seeds)

    sp = sub.add_parser("eval", help="score an existing prediction file")
    add_cfg(sp)
    sp.add_argument("--predictions", required=True)
    sp.set_defaults(func=cmd_eval)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, kg_io.ParseError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
