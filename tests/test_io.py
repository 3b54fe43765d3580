import numpy as np
import pytest

from tkgalign.io import (
    DatasetLayout,
    ParseError,
    load_dataset,
    read_pairs,
    read_predictions,
    write_pairs,
    write_predictions,
)
from tkgalign.kg import AlignmentPairSet


@pytest.fixture
def small_dataset(tmp_path):
    (tmp_path / "triples_1").write_text(
        "0\t0\t1\t2005\t2005\n"
        "1\t1\t2\t2005\t2008\n"
        "2\t0\t0\t2011\t2011\n"
    )
    (tmp_path / "triples_2").write_text(
        "0\t0\t1\t2008\t2008\n"
        "1\t0\t2\t0\t2005\n"
    )
    (tmp_path / "sup_pairs").write_text("0\t0\n1\t1\n")
    (tmp_path / "ref_pairs").write_text("2\t2\n")
    return tmp_path


def test_load_dataset_hand_fixture(small_dataset):
    kg1, kg2, vocab, seeds, refs = load_dataset(DatasetLayout.from_dir(small_dataset))
    assert vocab.size == 3  # 2005, 2008, 2011
    i2005, i2008, i2011 = vocab.id_of("2005"), vocab.id_of("2008"), vocab.id_of("2011")
    assert kg1.quadruples.tolist() == [
        [0, 0, 1, i2005, i2005],
        [1, 1, 2, i2005, i2008],
        [2, 0, 0, i2011, i2011],
    ]
    assert (kg1.entity_count, kg1.relation_count) == (3, 2)
    assert (kg2.entity_count, kg2.relation_count) == (3, 1)
    # open-start interval keeps the reserved id 0
    assert kg2.quadruples[1, 3:].tolist() == [0, i2005]
    assert seeds.pairs == [(0, 0), (1, 1)]
    assert refs.pairs == [(2, 2)]


def test_empty_seed_file_gives_empty_set(tmp_path):
    (tmp_path / "triples_1").write_text("0\t0\t1\t5\t5\n")
    (tmp_path / "triples_2").write_text("0\t0\t1\t5\t5\n")
    (tmp_path / "sup_pairs").write_text("")
    kg1, kg2, vocab, seeds, refs = load_dataset(DatasetLayout.from_dir(tmp_path))
    assert len(seeds) == 0 and len(refs) == 0


def test_malformed_line_reports_location(tmp_path):
    (tmp_path / "triples_1").write_text("0\t0\t1\t5\t5\n0\t0\t1\n")
    (tmp_path / "triples_2").write_text("0\t0\t1\t5\t5\n")
    with pytest.raises(ParseError, match=r"triples_1:2"):
        load_dataset(DatasetLayout.from_dir(tmp_path))


def test_non_integer_id_reports_location(tmp_path):
    (tmp_path / "triples_1").write_text("a\t0\t1\t5\t5\n")
    (tmp_path / "triples_2").write_text("0\t0\t1\t5\t5\n")
    with pytest.raises(ParseError, match=r"triples_1:1"):
        load_dataset(DatasetLayout.from_dir(tmp_path))


@pytest.mark.parametrize("name", ["sup_pairs", "ref_pairs"])
@pytest.mark.parametrize("row", ["-1\t3", "3\t-2"])
def test_negative_pair_id_reports_location(tmp_path, name, row):
    (tmp_path / "triples_1").write_text("0\t0\t1\t5\t5\n")
    (tmp_path / "triples_2").write_text("0\t0\t1\t5\t5\n")
    (tmp_path / name).write_text(f"0\t0\n{row}\n")
    with pytest.raises(ParseError, match=rf"{name}:2: negative"):
        load_dataset(DatasetLayout.from_dir(tmp_path))


@pytest.mark.parametrize(
    "row",
    ["-1\t0\t1\t2005\t2005", "0\t-3\t1\t5\t5", "0\t0\t-1\t5\t5"],
    ids=["head", "relation", "tail"],
)
def test_negative_quadruple_id_reports_location(tmp_path, row):
    (tmp_path / "triples_1").write_text("0\t0\t1\t5\t5\n")
    (tmp_path / "triples_2").write_text(f"0\t0\t1\t5\t5\n{row}\n")
    with pytest.raises(ParseError, match=r"triples_2:2: negative"):
        load_dataset(DatasetLayout.from_dir(tmp_path))


def test_pair_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    pairs = list({(int(a), int(b)) for a, b in rng.integers(0, 1000, size=(100, 2))})
    ps = AlignmentPairSet.from_pairs(pairs)
    write_pairs(ps, tmp_path / "pairs")
    back = read_pairs(tmp_path / "pairs")
    assert back.as_set() == ps.as_set()


def test_prediction_format_and_round_trip(tmp_path):
    one = AlignmentPairSet.from_pairs([(3, 7)], provenance="prediction", scores=[0.95])
    write_predictions(one, tmp_path / "p.tsv")
    assert (tmp_path / "p.tsv").read_text() == "3\t7\t0.95\n"

    empty = AlignmentPairSet.from_pairs([], provenance="prediction")
    write_predictions(empty, tmp_path / "empty.tsv")
    assert (tmp_path / "empty.tsv").read_text() == ""

    rng = np.random.default_rng(11)
    pairs = list({(int(a), int(b)) for a, b in rng.integers(0, 500, size=(100, 2))})
    scores = rng.random(len(pairs)).tolist()
    ps = AlignmentPairSet.from_pairs(pairs, provenance="prediction", scores=scores)
    write_predictions(ps, tmp_path / "preds.tsv")
    back = read_predictions(tmp_path / "preds.tsv")
    assert back.as_set() == ps.as_set()
    assert back.scores == pytest.approx(ps.scores)


@pytest.mark.parametrize("line, what", [("3\tx\t0.5", "non-integer id"),
                                        ("3\t7\tnope", "non-float score")])
def test_bad_prediction_field_reports_location(tmp_path, line, what):
    (tmp_path / "preds.tsv").write_text(f"1\t2\t0.25\n\n{line}\n")
    with pytest.raises(ParseError, match=rf"preds.tsv:3: {what}"):
        read_predictions(tmp_path / "preds.tsv")
