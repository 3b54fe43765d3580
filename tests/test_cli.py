import json

import numpy as np
import pytest
import yaml

from tkgalign.cli import apply_ablation, main, run_alignment
from tkgalign.evaluate import evaluate
from tkgalign.io import read_pairs, read_predictions
from tkgalign.timesim import TimeScores


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("ds")
    rc = main([
        "synth", str(d), "--entities", "50", "--relations", "4", "--timestamps", "15",
        "--quads-per-entity", "5", "--edge-noise", "0.05", "--time-noise", "0.05",
        "--seed-pairs", "8", "--rng-seed", "2",
    ])
    assert rc == 0
    return d


def write_config(tmp_path, bench_dir, **overrides):
    cfg = {
        "dataset": str(bench_dir),
        "encoder": {"dim": 12, "layers": 2, "init_seed": 0},
        "train": {"epochs": 40, "rng_seed": 0},
        "align": {"alpha": 0.3, "iterations": 2, "csls_k": 5},
        "output_dir": str(tmp_path / "out"),
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path, cfg


def test_align_writes_all_artifacts(tmp_path, bench_dir, capsys):
    cfg_path, cfg = write_config(tmp_path, bench_dir)
    assert main(["align", str(cfg_path)]) == 0
    out = tmp_path / "out"
    for name in ("predictions.tsv", "loss.csv", "iterations.csv", "report.txt", "report.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "supervised iterative"
    assert report["config"]["align"]["alpha"] == 0.3
    preds = read_predictions(out / "predictions.tsv")
    assert len(preds) == 42  # one prediction per reference source
    loss_lines = (out / "loss.csv").read_text().strip().splitlines()
    assert loss_lines[0] == "epoch,loss" and len(loss_lines) == 2 * 40 + 1


def test_single_iteration_reports_non_iterative_mode(tmp_path, bench_dir):
    cfg_path, _ = write_config(tmp_path, bench_dir, align={"iterations": 1})
    assert main(["align", str(cfg_path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["mode"] == "supervised non-iterative"


def without_seeds(tmp_path, bench_dir):
    """A copy of the dataset with no seed file; the held-out seed entities
    become extra references so they stay covered."""
    ds = tmp_path / "noseeds"
    ds.mkdir()
    for name in ("triples_1", "triples_2", "ref_pairs"):
        (ds / name).write_bytes((bench_dir / name).read_bytes())
    sup = (bench_dir / "sup_pairs").read_text()
    (ds / "ref_pairs").write_text((bench_dir / "ref_pairs").read_text() + sup)
    return ds


def test_missing_seed_file_triggers_unsupervised_mode(tmp_path, bench_dir):
    ds = without_seeds(tmp_path, bench_dir)
    cfg_path, _ = write_config(tmp_path, ds, dataset=str(ds))
    assert main(["align", str(cfg_path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["mode"].startswith("unsupervised")
    assert (tmp_path / "out" / "generated_pairs").exists()


def test_ablation_mapping():
    cfg = {"align": {"alpha": 0.4}}
    assert apply_ablation(cfg, "tsm")["align"]["alpha"] == 0.0
    assert apply_ablation(cfg, "time-matching")["align"]["alpha"] == 0.0
    assert apply_ablation(cfg, "rff")["encoder"]["ablate_relation_fusion"] is True
    assert apply_ablation(cfg, "GAR")["encoder"]["ablate_global_concat"] is True
    with pytest.raises(Exception):
        apply_ablation(cfg, "bogus")


def test_tsm_ablation_makes_combined_equal_embedding(tmp_path, bench_dir):
    cfg_path, cfg = write_config(tmp_path, bench_dir, align={"iterations": 1})
    ablated = apply_ablation(cfg, "tsm")
    _, full_result, _ = run_alignment(cfg, tmp_path / "full")
    _, abl_result, _ = run_alignment(ablated, tmp_path / "abl")
    # with alpha = 0 the combined matrix is a bit-exact pass-through of the
    # embedding similarity; the two runs share every seed, so the embedding
    # parts coincide and only the time contribution differs
    assert abl_result.similarity is not None
    assert not np.array_equal(full_result.similarity.dense, abl_result.similarity.dense)


def test_ablate_command(tmp_path, bench_dir, capsys):
    cfg_path, _ = write_config(tmp_path, bench_dir, train={"epochs": 15}, align={"iterations": 1})
    assert main(["ablate", str(cfg_path), "--component", "gar"]) == 0
    out = capsys.readouterr().out
    assert "full" in out and "gar" in out
    assert (tmp_path / "out" / "ablate_global-concat" / "report.json").exists()


def test_sweep_alpha_endpoints(tmp_path, bench_dir):
    cfg_path, cfg = write_config(tmp_path, bench_dir, train={"epochs": 15}, align={"iterations": 1})
    assert main(["sweep", str(cfg_path), "--parameter", "alpha", "--values", "0", "1"]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert rows[0].startswith("alpha")
    assert len(rows) == 3
    # endpoints reproduce pure-embedding / pure-time runs
    pure_emb, _, _ = run_alignment(apply_ablation(cfg, "tsm"), tmp_path / "pure_emb")
    assert rows[1].split(",")[1] == f"{pure_emb.hits_at[1]}"


def test_sweep_layers_table_shape(tmp_path, bench_dir):
    cfg_path, _ = write_config(tmp_path, bench_dir, train={"epochs": 10}, align={"iterations": 1})
    assert main(["sweep", str(cfg_path), "--parameter", "layers", "--values", "1", "2", "3"]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 4


# the last four set a section the command overrides to a value that is not a mapping
@pytest.mark.parametrize("argv,sections", [
    (["ablate", "--component", "foo"], {}),
    (["sweep", "--parameter", "alpha", "--values", "0.5", "abc"], {}),
    (["sweep", "--parameter", "layers", "--values", "1", "0"], {}),
    (["sweep", "--parameter", "dimension", "--values", "8", "1.5"], {}),
    (["ablate", "--component", "rff"], {"encoder": 5}),
    (["ablate", "--component", "tsm"], {"align": [0.5]}),
    (["sweep", "--parameter", "layers", "--values", "1"], {"encoder": 5}),
    (["sweep", "--parameter", "alpha", "--values", "0.5"], {"align": "x"}),
], ids=[f"argv{i}" for i in range(8)])
def test_bad_ablate_and_sweep_arguments_exit_before_any_run(tmp_path, bench_dir, monkeypatch, argv,
                                                            sections):
    def refuse(*_):
        raise AssertionError("a run started before the arguments were checked")

    monkeypatch.setattr("tkgalign.cli.run_alignment", refuse)
    cfg_path, _ = write_config(tmp_path, bench_dir, **sections)
    assert main([argv[0], str(cfg_path), *argv[1:]]) == 2
    assert not (tmp_path / "out").exists()


def test_null_section_sweeps_and_ablates_like_an_empty_one(tmp_path, bench_dir, monkeypatch):
    """`encoder:` or `align:` with nothing under it is null in YAML; `ablate`
    and `sweep` set their field in it as in `{}`."""
    runs = {}
    monkeypatch.setattr("tkgalign.cli.run_alignment",
                        lambda cfg, out: runs.setdefault(out.name, []).append(cfg) or (None,) * 3)
    for empty in (None, {}):
        cfg_path, cfg = write_config(tmp_path, bench_dir)
        cfg_path.write_text(yaml.safe_dump({**cfg, "encoder": empty, "align": empty}))
        for argv in (["ablate", "--component", "rff"], ["ablate", "--component", "tsm"],
                     ["sweep", "--parameter", "layers", "--values", "1"],
                     ["sweep", "--parameter", "alpha", "--values", "0.5"]):
            assert main([argv[0], str(cfg_path), *argv[1:]]) == 0
    expected = {"ablate_relation-fusion": ("encoder", {"ablate_relation_fusion": True}),
                "ablate_time-matching": ("align", {"alpha": 0.0}),
                "layers_1": ("encoder", {"layers": 1}),
                "alpha_0.5": ("align", {"alpha": 0.5})}
    for run, (section, value) in expected.items():
        assert [cfg[section] for cfg in runs[run]] == [value, value]


@pytest.mark.parametrize("mode", ["supervised", "unsupervised", "seeds"])
def test_no_run_path_reads_the_whole_time_matrix(tmp_path, bench_dir, monkeypatch, mode):
    def refuse(*_):
        raise AssertionError("a run path read the whole time matrix")

    # every reader of all rows at once; `dense` and `row_blocks` go through `rows`
    for name in ("scores", "nnz"):
        monkeypatch.setattr(TimeScores, name, property(refuse))
    for name in ("rows", "__getitem__"):
        monkeypatch.setattr(TimeScores, name, refuse)
    ds = bench_dir if mode == "supervised" else without_seeds(tmp_path, bench_dir)
    cfg_path, cfg = write_config(tmp_path, ds, dataset=str(ds))
    if mode == "seeds":
        assert main(["seeds", str(cfg_path)]) == 0
    else:
        run_alignment(cfg)
        # one prediction per reference source
        assert len(read_predictions(tmp_path / "out" / "predictions.tsv")) == len(
            read_pairs(ds / "ref_pairs"))
    assert (tmp_path / "out" / "generated_pairs").exists() == (mode != "supervised")


def test_seeds_command(tmp_path, bench_dir, capsys):
    cfg_path, _ = write_config(tmp_path, bench_dir)
    assert main(["seeds", str(cfg_path)]) == 0
    assert "generated" in capsys.readouterr().out
    assert (tmp_path / "out" / "generated_pairs").exists()


def test_eval_command(tmp_path, bench_dir, capsys):
    cfg_path, _ = write_config(tmp_path, bench_dir, train={"epochs": 20})
    assert main(["align", str(cfg_path)]) == 0
    assert main(["eval", str(cfg_path), "--predictions", str(tmp_path / "out" / "predictions.tsv")]) == 0
    assert "hits@1" in capsys.readouterr().out


def test_eval_command_scores_the_last_prediction_of_a_source(tmp_path, bench_dir, capsys):
    cfg_path, _ = write_config(tmp_path, bench_dir)
    refs = read_pairs(bench_dir / "ref_pairs").pairs
    (a0, b0), (a1, b1), (a2, b2) = refs[:3]
    wrong = max(b for _, b in refs) + 1
    lines = [(a0, b0), (a1, wrong), (a2, b2), (a1, b1), (a2, wrong)]
    (tmp_path / "preds.tsv").write_text("".join(f"{a}\t{b}\t0.5\n" for a, b in lines))
    assert main(["eval", str(cfg_path), "--predictions", str(tmp_path / "preds.tsv")]) == 0
    out = capsys.readouterr().out
    assert f"references: {len(refs)}  predicted: 3  hits@1: {2 / len(refs):.4f}" in out


# ids at which an int64 key source * (1 + max target) + target would make
# (2, 3) collide with the reference (0, 1), or overflow
@pytest.mark.parametrize("last_target", [2**63 - 2, 2**63 - 1])
def test_eval_command_matches_pairs_exactly(tmp_path, capsys, last_target):
    ds = tmp_path / "ds"
    ds.mkdir()
    for name in ("triples_1", "triples_2"):
        (ds / name).write_text("0\t0\t1\t1\t1\n")
    (ds / "ref_pairs").write_text("0\t1\n")
    cfg_path, _ = write_config(tmp_path, ds)
    (tmp_path / "preds.tsv").write_text(f"0\t2\t0.5\n2\t3\t0.5\n1\t{last_target}\t0.5\n")
    assert main(["eval", str(cfg_path), "--predictions", str(tmp_path / "preds.tsv")]) == 0
    assert capsys.readouterr().out == "references: 1  predicted: 1  hits@1: 0.0000\n"


def test_eval_command_reports_a_bad_prediction_line(tmp_path, bench_dir, capsys):
    cfg_path, _ = write_config(tmp_path, bench_dir)
    (tmp_path / "preds.tsv").write_text("0\t0\t0.5\n1\t1\thigh\n")
    assert main(["eval", str(cfg_path), "--predictions", str(tmp_path / "preds.tsv")]) == 2
    assert "preds.tsv:2: non-float score" in capsys.readouterr().err


@pytest.mark.parametrize("section", [
    {"ks": [1, 10]}, {"ks": [3]}, {"bidirectional": True}, {"ks": [1], "bidirectional": True},
])
def test_eval_command_rejects_what_a_prediction_file_cannot_report(tmp_path, bench_dir, capsys,
                                                                   section):
    cfg_path, _ = write_config(tmp_path, bench_dir, eval=section)
    (tmp_path / "preds.tsv").write_text("0\t0\t0.5\n")
    assert main(["eval", str(cfg_path), "--predictions", str(tmp_path / "preds.tsv")]) == 2
    captured = capsys.readouterr()
    assert "reports source-side hits@1 only" in captured.err and not captured.out


@pytest.mark.parametrize("section", [None, {}, {"ks": [1]}, {"bidirectional": False},
                                     {"ks": [1], "bidirectional": False}])
def test_eval_command_takes_an_eval_section_of_one_way_hits_at_1(tmp_path, bench_dir, capsys,
                                                                 section):
    cfg_path, _ = write_config(tmp_path, bench_dir, **({} if section is None else {"eval": section}))
    (a, b), *_ = read_pairs(bench_dir / "ref_pairs").pairs
    (tmp_path / "preds.tsv").write_text(f"{a}\t{b}\t0.5\n")
    assert main(["eval", str(cfg_path), "--predictions", str(tmp_path / "preds.tsv")]) == 0
    assert "predicted: 1  hits@1:" in capsys.readouterr().out


def test_invalid_config_nonzero_exit(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"dataset": str(tmp_path / "nope")}))
    assert main(["align", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("epochs", -1), ("negatives_per_pair", 0), ("optimizer_decay", 1.5), ("optimizer_epsilon", -1.0),
])
def test_bad_train_value_exits_2(tmp_path, bench_dir, capsys, field, value):
    cfg_path, _ = write_config(tmp_path, bench_dir, train={field: value})
    assert main(["align", str(cfg_path)]) == 2
    assert "invalid value in [train] section" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,field,value", [
    ("encoder", "dim", 8.5), ("encoder", "init_scale", -1), ("encoder", "init_scale", 0),
    ("train", "epochs", 2.5), ("align", "csls_k", 2.5),
])
def test_wrong_typed_value_exits_2_before_loading(tmp_path, bench_dir, capsys, section, field,
                                                  value):
    cfg_path, _ = write_config(tmp_path, bench_dir, **{section: {field: value}})
    assert main(["align", str(cfg_path)]) == 2
    assert f"invalid value in [{section}] section" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,field,value", [
    ("encoder", "ablate_global_concat", "false"), ("train", "margin", "abc"),
    ("align", "alpha", True),
])
def test_value_of_the_wrong_type_exits_2_before_loading(tmp_path, bench_dir, capsys, section,
                                                        field, value):
    cfg_path, _ = write_config(tmp_path, bench_dir, **{section: {field: value}})
    assert main(["align", str(cfg_path)]) == 2
    assert f"invalid value in [{section}] section: {field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value,message", [
    ({"bidirectional": "false"}, "invalid value in [eval] section: bidirectional"),
    ({"bidirectonal": True}, "invalid field in [eval] section"),
    ({"ks": [0, -3]}, "invalid value in [eval] section: ks"),
    ({"ks": "10"}, "invalid value in [eval] section: ks"),
    ({"ks": 5}, "invalid value in [eval] section: ks"),
    ({"ks": [1, True]}, "invalid value in [eval] section: ks"),
])
def test_bad_eval_section_exits_2_before_loading(tmp_path, bench_dir, capsys, value, message):
    cfg_path, _ = write_config(tmp_path, bench_dir, eval=value)
    assert main(["align", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_section_sets_ks_and_bidirectional(tmp_path, bench_dir):
    cfg_path, cfg = write_config(tmp_path, bench_dir, train={"epochs": 10},
                                 align={"iterations": 1}, eval={"ks": [1, 3]})
    one_way, result, _ = run_alignment(cfg, tmp_path / "one_way")
    assert sorted(one_way.hits_at) == [1, 3]
    cfg["eval"]["bidirectional"] = True
    both, _, _ = run_alignment(cfg, tmp_path / "both")
    expected = evaluate(result.similarity, read_pairs(bench_dir / "ref_pairs"), (1, 3), True)
    assert (both.hits_at, both.mrr) == (expected.hits_at, expected.mrr) != (
        one_way.hits_at, one_way.mrr)


def test_missing_config_nonzero_exit(tmp_path, capsys):
    assert main(["align", str(tmp_path / "absent.yaml")]) == 2


def pair_files(bench_dir, **extra):
    return {"quads1": str(bench_dir / "triples_1"), "quads2": str(bench_dir / "triples_2"),
            **extra}


# each a config (YAML text, or a function of the dataset directory giving
# the parsed config) and the text its error names
@pytest.mark.parametrize("config,message", [
    ("dataset: [1", "config.yaml:1: invalid YAML"),
    ("output_dir: out\ndataset: [1\nencoder: {}\n", "config.yaml:3: invalid YAML"),
    ("dataset: {quads1: a}\n", "dataset quads2 must be a path string"),
    ("dataset: 5\n", "'dataset' must be a directory or a mapping"),
    (lambda d: {"dataset": pair_files(d, sup_pairs=5)}, "dataset sup_pairs must be a path string"),
    (lambda d: {"dataset": pair_files(d, quads3="x")}, "unknown key in 'dataset': 'quads3'"),
    (lambda d: {"dataset": pair_files(d, quads1=str(d))}, "quadruple file missing"),
    (lambda d: {"dataset": str(d), "output_dir": 5}, "output_dir must be a path string"),
    (lambda d: {"dataset": str(d), "encoder": 0}, "[encoder] section must be a mapping, got 0"),
    (lambda d: {"dataset": str(d), "align": []}, "[align] section must be a mapping, got []"),
    (lambda d: {"dataset": str(d), "train": ""}, "[train] section must be a mapping, got ''"),
    (lambda d: {"dataset": str(d), "eval": False}, "[eval] section must be a mapping, got False"),
    (lambda d: {"dataset": str(d), "align": [0.5]}, "[align] section must be a mapping, got [0.5]"),
    (lambda d: {"dataset": str(d), "encoder": 5}, "[encoder] section must be a mapping, got 5"),
    (None, "config file not found"),
], ids=["yaml", "yaml-line", "no-quads2", "int-dataset", "int-sup-pairs", "unknown-key",
        "directory-quads1", "int-output-dir", "zero-encoder", "empty-list-align", "empty-train",
        "false-eval", "list-align", "int-encoder", "directory"])
@pytest.mark.parametrize("command", ["align", "seeds"])
def test_malformed_config_exits_2_without_a_traceback(tmp_path, bench_dir, capsys, config,
                                                      message, command):
    path = tmp_path / "config.yaml"
    if config is None:
        path.mkdir()
    elif callable(config):
        path.write_text(yaml.safe_dump(config(bench_dir)))
    else:
        path.write_text(config)
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in out + err


def test_non_utf8_dataset_exits_2_naming_the_line(tmp_path, bench_dir, capsys):
    ds = tmp_path / "latin1"
    ds.mkdir()
    for name in ("triples_1", "triples_2", "sup_pairs", "ref_pairs"):
        (ds / name).write_bytes((bench_dir / name).read_bytes())
    lines = (ds / "triples_1").read_bytes().split(b"\n")
    lines[4] = lines[4].replace(b"\t", b"\t\xff", 1)
    (ds / "triples_1").write_bytes(b"\n".join(lines))
    cfg_path, _ = write_config(tmp_path, ds, dataset=str(ds))
    assert main(["seeds", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {ds / 'triples_1'}:5: not UTF-8: byte 0xff, invalid start byte\n"
    assert "Traceback" not in out + err


def test_out_of_range_synth_parameters_exit_2(tmp_path, capsys):
    assert main(["synth", str(tmp_path / "d"), "--entities", "20", "--seed-pairs", "-1"]) == 2
    assert "error: seed_pairs must be in [0, entities]" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_reproducible_artifacts(tmp_path, bench_dir):
    cfg_path, cfg = write_config(tmp_path, bench_dir, train={"epochs": 15}, align={"iterations": 1})
    run_alignment(cfg, tmp_path / "r1")
    run_alignment(cfg, tmp_path / "r2")
    for name in ("predictions.tsv", "loss.csv", "iterations.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
