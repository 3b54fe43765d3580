import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tkgalign.io import (
    DatasetLayout,
    ParseError,
    _read_columns,
    load_dataset,
    read_pairs,
    read_predictions,
    write_pairs,
    write_predictions,
)
from tkgalign.kg import AlignmentPairSet
from tkgalign.synth import SynthParams, make_benchmark, write_benchmark


# Line-by-line parsers: the reference for the whole-file reader's values and
# for the file:line of its first error. Pair and prediction files also
# reject a repeated pair at its second line; prediction files, negative ids.

def oracle_quad_lines(path):
    ids, labels = [], []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ParseError(f"{path}:{lineno}: expected 5 tab-separated fields, got {len(parts)}")
            try:
                h, r, t = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-integer id: {exc}") from None
            if h < 0 or r < 0 or t < 0:
                raise ParseError(f"{path}:{lineno}: negative id in quadruple ({h}, {r}, {t})")
            ids.append((h, r, t))
            labels += (parts[3].strip(), parts[4].strip())
    return ids, labels


def oracle_pairs(path):
    pairs = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 2 tab-separated fields, got {len(parts)}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-integer id: {exc}") from None
            if a < 0 or b < 0:
                raise ParseError(f"{path}:{lineno}: negative id in pair ({a}, {b})")
            if (a, b) in pairs:
                raise ParseError(f"{path}:{lineno}: duplicate pair ({a}, {b})")
            pairs.append((a, b))
    return pairs


def oracle_predictions(path):
    pairs, scores = [], []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-integer id: {exc}") from None
            if a < 0 or b < 0:
                raise ParseError(f"{path}:{lineno}: negative id in pair ({a}, {b})")
            try:
                scores.append(float(parts[2]))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-float score: {exc}") from None
            if (a, b) in pairs:
                raise ParseError(f"{path}:{lineno}: duplicate pair ({a}, {b})")
            pairs.append((a, b))
    return pairs, scores


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
                                        ("3\t7\tnope", "non-float score"),
                                        ("1\t2\t0.5", r"duplicate pair \(1, 2\)")])
def test_bad_prediction_field_reports_location(tmp_path, line, what):
    (tmp_path / "preds.tsv").write_text(f"1\t2\t0.25\n\n{line}\n")
    with pytest.raises(ParseError, match=rf"preds.tsv:3: {what}"):
        read_predictions(tmp_path / "preds.tsv")


# Well-formed files in every layout the line parser accepts: CRLF endings,
# blank, whitespace-only and tab-only lines, padded ids and labels, no final
# newline, and no line at all.
QUAD_FILES = [
    "0\t0\t1\t2005\t2005\n1\t1\t2\t2005\t2008\n",
    "0\t0\t1\t5\t5\r\n1\t0\t2\t6\t7\r\n",
    "\n\n0\t0\t1\t5\t5\n\n1\t0\t2\t6\t6\n\n",
    "0\t0\t1\t5\t5\n   \n\t\t\t\t\n \t \n1\t0\t2\t###\t\n",
    " 3\t0 \t 1\t2005 \t 2008\n4\t+1\t0\t inf\t~\n",
    "0\t0\t1\t5\t5\n1\t0\t2\t6\t6",
    "",
]
PAIR_FILES = [
    "0\t0\n1\t1\n",
    "0\t0\r\n1\t1\r\n",
    "\n 3\t 7 \n\t\n  \n4\t2",
    "",
]
PREDICTION_FILES = [
    "3\t7\t0.95\n",
    "1\t2\t 0.5 \r\n\n\t\t\n2\t2\t1e-3\n 0\t2\tinf",
    "",
]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("text", QUAD_FILES)
def test_quad_columns_equal_the_line_parser(tmp_path, text):
    path = write(tmp_path, "triples_1", text)
    ids, labels = oracle_quad_lines(path)
    cols = _read_columns(path, "iiiss")
    assert all(c.dtype == np.int64 for c in cols[:3])
    assert np.column_stack(cols[:3]).tolist() == [list(x) for x in ids]
    (labels3, index3), (labels4, index4) = cols[3:]
    assert [lab.strip() for i, j in zip(index3, index4)
            for lab in (labels3[i], labels4[j])] == labels


@pytest.mark.parametrize("text", QUAD_FILES)
def test_load_dataset_equals_the_line_parser(tmp_path, text):
    write(tmp_path, "triples_1", text)
    write(tmp_path, "triples_2", "0\t0\t1\t2005\t2005\n")
    write(tmp_path, "sup_pairs", "7\t0\n")
    kg1, kg2, vocab, seeds, _ = load_dataset(DatasetLayout.from_dir(tmp_path))
    ids, labels = oracle_quad_lines(tmp_path / "triples_1")
    assert sorted(vocab.label_to_id) == sorted(
        {*labels, "2005"} - {"", "0", "###", "inf", "-inf", "~"}
    )
    times = np.array([vocab.id_of(x) for x in labels], dtype=np.int64).reshape(-1, 2)
    expected = np.hstack([np.array(ids, dtype=np.int64).reshape(-1, 3), times])
    assert np.array_equal(kg1.quadruples, expected)
    assert kg1.entity_count == max(8, int(expected[:, [0, 2]].max(initial=-1)) + 1)
    assert seeds.pairs == [(7, 0)]


@pytest.mark.parametrize("text", PAIR_FILES)
def test_pair_columns_equal_the_line_parser(tmp_path, text):
    path = write(tmp_path, "sup_pairs", text)
    pairs = read_pairs(path)
    assert pairs.sources.dtype == pairs.targets.dtype == np.int64
    assert pairs.pairs == oracle_pairs(path)


@pytest.mark.parametrize("text", PREDICTION_FILES)
def test_prediction_columns_equal_the_line_parser(tmp_path, text):
    path = write(tmp_path, "preds.tsv", text)
    preds = read_predictions(path)
    assert preds.scores.dtype == np.float64
    assert (preds.pairs, preds.scores.tolist()) == oracle_predictions(path)


def with_bad_lines(good, bad):
    """`good` lines with line i replaced by bad[i] for each i in `bad`."""
    return "\n".join(bad.get(i, line) for i, line in enumerate(good)) + "\n"


QUAD_GOOD = [f"{i}\t{i % 3}\t{i + 1}\t{2000 + i}\t{2000 + i}" for i in range(6)]
PAIR_GOOD = [f"{i}\t{5 - i}" for i in range(6)]
PREDICTION_GOOD = [f"{i}\t{5 - i}\t0.{i}" for i in range(6)]
QUAD_BAD = ["0\t0\t1\t5", "0\t0\t1\t5\t5\t5", "a\t0\t1\t5\t5", "0\t1.5\t1\t5\t5",
            "0\t0\t-1\t5\t5", "-2\tx\t1\t5\t5"]
PAIR_BAD = ["0", "0\t1\t2", "x\t1", "1\t", "-1\t3", "3\t-2", "0\t5"]
PREDICTION_BAD = ["0\t1", "0\t1\t0.5\t1", "x\t1\t0.5", "-1\t3\t0.5", "3\t7\tnope",
                  "3\t7\t", "0\t5\t0.9", "-1\t5\tnope"]
# positions of the bad lines in one file: the k-th gets the k-th bad line in turn
BAD_AT = [(0,), (2,), (5,), (1, 3), (3, 1)]


@pytest.mark.parametrize("kind,good,bad,parse,oracle", [
    ("triples_1", QUAD_GOOD, QUAD_BAD, lambda p: _read_columns(p, "iiiss"), oracle_quad_lines),
    ("sup_pairs", PAIR_GOOD, PAIR_BAD, read_pairs, oracle_pairs),
    ("preds.tsv", PREDICTION_GOOD, PREDICTION_BAD, read_predictions, oracle_predictions),
])
def test_first_bad_line_is_named_like_the_line_parser(tmp_path, kind, good, bad, parse, oracle):
    """Every bad line kind at several positions, and two bad lines in one
    file: the reader raises the line parser's error, so the first bad line
    wins. A line repeating the first good line's pair (0, 5) is a duplicate
    only where it follows that line."""
    cases = 0
    for where in BAD_AT:
        for first in range(len(bad)):
            lines = {i: bad[(first + k) % len(bad)] for k, i in enumerate(where)}
            path = write(tmp_path, kind, with_bad_lines(good, lines))
            try:
                oracle(path)
            except ParseError as exc:
                expected = str(exc)
            else:
                continue  # the repeated pair came first: nothing is wrong
            with pytest.raises(ParseError) as exc:
                parse(path)
            assert re.match(rf".*{kind}:\d+: ", str(exc.value))
            assert str(exc.value) == expected
            cases += 1
    assert cases >= len(BAD_AT) * (len(bad) - 1)


@pytest.mark.parametrize("name", ["sup_pairs", "ref_pairs"])
def test_duplicate_pair_reports_location(tmp_path, name):
    (tmp_path / "triples_1").write_text("0\t0\t1\t5\t5\n")
    (tmp_path / "triples_2").write_text("0\t0\t1\t5\t5\n")
    (tmp_path / name).write_text("0\t0\n1\t1\n\n0\t0\n1\t1\n")
    with pytest.raises(ParseError, match=rf"{name}:4: duplicate pair \(0, 0\)"):
        load_dataset(DatasetLayout.from_dir(tmp_path))


HUGE = "99999999999999999999"  # above the int64 maximum


@pytest.mark.parametrize("kind,text,parse,record", [
    ("triples_1", f"0\t0\t1\t5\t5\n\n0\t0\t{HUGE}\t2001\t2001\n",
     lambda p: _read_columns(p, "iiiss"), "quadruple"),
    ("sup_pairs", f"0\t1\n\n{HUGE}\t2\n", read_pairs, "pair"),
    ("preds.tsv", f"0\t1\t0.5\n\n3\t{HUGE}\t0.5\n", read_predictions, "pair"),
])
def test_id_beyond_int64_reports_location(tmp_path, kind, text, parse, record):
    path = write(tmp_path, kind, text)
    with pytest.raises(ParseError, match=rf"{kind}:3: id out of range in {record} \("):
        parse(path)


# Random files for the property test below: each id value is written in one
# of the layouts int() accepts, among a mix of blank lines and line ends.
MAX_ID = np.iinfo(np.int64).max
ID_LAYOUTS = [
    str, lambda i: f" {i}", lambda i: f"{i}\v ", lambda i: f"+{i}", lambda i: f"{i:_}",
    lambda i: str(i).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    lambda i: f"{i:018d}", lambda i: f"{i:019d}", lambda i: f"{i:020d}",
]
LABELS = st.one_of(
    st.sampled_from(["2005", "", "0", "###", " 7 ", "1995-03-01", "é", "二〇〇五年", "a" * 40]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"), max_size=12),
)
SCORES = st.one_of(st.sampled_from([" 0.5 ", "1e-3", "inf", "-0.0", "1_0", "١.٥"]),
                   st.floats(allow_nan=False).map(repr))
# the last three are Unicode whitespace holding the field count of a pair, a
# prediction and a quadruple line: blank only by str.strip()
BLANK = st.sampled_from(["", "   ", "\t", "\t\t\t\t", " \t \t", "\f", "\u3000", "\x1c \t\x85",
                         "\xa0\t\xa0", "\u2003\t\x85\t\u3000", "\u3000\t\t\t\t"])
# bad lines of each kind; the 20-digit id is beyond int64, which the oracles
# do not check, so the test expects the reader's range error there
BAD = {"iiiss": ["0\t0\t1\t5", "0\t0\t1\t5\t5\t5", "x\t0\t1\t5\t5", "0\t1.5\t1\t5\t5",
                 "0\t0\t-1\t5\t5", "\t\t\t5\t5", "0\t99999999999999999999\t1\t5\t5"],
       "ii": ["0", "0\t1\t2", "x\t1", "1\t", "-1\t3", "0\t99999999999999999999", "dup"],
       "iif": ["0\t1", "x\t1\t0.5", "-1\t3\t0.5", "3\t7\tnope", "3\t7\t",
               "99999999999999999999\t3\t0.5", "dup"]}


@st.composite
def table_files(draw, kinds):
    """(text, [(line number, line) of each bad line, in order])."""
    n_ids = kinds.count("i")
    rows = draw(st.lists(st.tuples(*[st.integers(0, MAX_ID)] * n_ids), max_size=10,
                         unique=kinds != "iiiss"))
    lines = []  # (line, whether it is the bad one)
    for ids in rows:
        it = iter(ids)
        lines.append(("\t".join(
            draw(st.sampled_from(ID_LAYOUTS))(next(it)) if k == "i"
            else draw(LABELS) if k == "s" else draw(SCORES) for k in kinds), False))
    for bad in draw(st.lists(st.sampled_from(BAD[kinds]), max_size=3)):
        if bad == "dup" and lines:  # the first line's pair again
            lines.insert(draw(st.integers(1, len(lines))), (lines[0][0], True))
        elif bad != "dup":
            lines.insert(draw(st.integers(0, len(lines))), (bad, True))
    for at, blank in draw(st.lists(st.tuples(st.integers(0, len(lines)), BLANK), max_size=4)):
        lines.insert(at, (blank, False))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for (line, _), end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no newline after the last line
    return text, [(i, line) for i, (line, b) in enumerate(lines, start=1) if b]


def out_of_range(path, lineno, line, kinds):
    """The reader's error for a line whose first failed check is an id beyond int64."""
    row = line.split("\t")
    try:
        ids = tuple(int(x) for x, k in zip(row, kinds) if k == "i")
    except ValueError:
        return None
    if len(row) != len(kinds) or min(ids) < 0 or max(ids) <= MAX_ID:
        return None
    record = "quadruple" if kinds == "iiiss" else "pair"
    return f"{path}:{lineno}: id out of range in {record} {ids}"


def quad_columns(path):
    cols = _read_columns(path, "iiiss")
    (labels3, index3), (labels4, index4) = cols[3:]
    ids = [tuple(x) for x in np.column_stack(cols[:3]).tolist()]
    return ids, [lab.strip() for i, j in zip(index3, index4) for lab in (labels3[i], labels4[j])]


def prediction_columns(path):
    preds = read_predictions(path)
    return preds.pairs, preds.scores.tolist()


@pytest.mark.parametrize("kinds,name,parse,oracle", [
    ("iiiss", "triples_1", quad_columns, oracle_quad_lines),
    ("ii", "sup_pairs", lambda p: read_pairs(p).pairs, oracle_pairs),
    ("iif", "preds.tsv", prediction_columns, oracle_predictions),
])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_reader_equals_the_line_parser_on_random_files(tmp_path, kinds, name, parse, oracle, data):
    """Equal values, or an equal first error, on files mixing every layout
    int() accepts, CRLF, blank and whitespace-only lines, multi-byte and
    long labels, ids of up to 20 digits and up to three bad lines."""
    text, bad = data.draw(table_files(kinds))
    path = write(tmp_path, name, text)
    try:
        expected = oracle(path)
    except ParseError as exc:
        expected = exc
    # the oracles do not check the range of ids: the reader's range error at
    # the first bad line beyond int64 wins, unless the oracle fails earlier
    at = int(re.search(r":(\d+): ", str(expected))[1]) if isinstance(expected, ParseError) else None
    for lineno, line in bad:
        message = out_of_range(path, lineno, line, kinds)
        if message and (at is None or lineno <= at):
            expected = ParseError(message)
            break
    if isinstance(expected, ParseError):
        with pytest.raises(ParseError) as exc:
            parse(path)
        assert str(exc.value) == str(expected)
    else:
        assert parse(path) == expected


@pytest.mark.parametrize("name", ["triples_1", "triples_2", "sup_pairs", "ref_pairs"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_non_utf8_byte_reports_location(tmp_path, name, end):
    files = {"triples_1": "0\t0\t1\t5\t5", "triples_2": "0\t0\t1\t5\t5", "sup_pairs": "0\t0",
             "ref_pairs": "1\t1"}
    for f, line in files.items():
        (tmp_path / f).write_bytes(f"{line}{end}".encode())
    good = files[name].encode()
    (tmp_path / name).write_bytes(good + end.encode() * 2 + good[:-1] + b"\xff" + good[-1:] + b"\n")
    with pytest.raises(ParseError, match=rf"{name}:3: not UTF-8: byte 0xff, invalid start byte$"):
        load_dataset(DatasetLayout.from_dir(tmp_path))


def test_load_holds_little_beside_its_result(tmp_path):
    """The transients of a load (the file bytes, separator positions and
    one column's arithmetic at a time) stay small beside what it returns."""
    params = SynthParams(entities=4000, timestamps=2000, unique_times=False, seed_pairs=1000)
    layout = write_benchmark(make_benchmark(params), tmp_path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_dataset(layout)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded[0].quadruples) == 32_000
    # 2.96 MB measured; the bound leaves a third of that as headroom
    assert peak - live < 4 << 20, (live - before, peak - live)
