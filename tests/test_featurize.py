"""Tests for CSV loading and the feature dictionary builders."""

import collections
import csv
import hashlib
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from gausscov import (
    ColumnBudgetExceeded,
    DataMatrix,
    DomainError,
    InsufficientLength,
    InteractionSpec,
    MissingValue,
    ParseError,
    load_csv,
    make_interactions,
    make_lags,
    make_trig,
    monomial_count,
    resolve_column,
    sample_correlations,
    split_response,
    standardize,
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


_ORACLE_NA = {"", "na", "n/a", "null"}


def _oracle_cell(text):
    s = text.strip()
    if s.lower() in _ORACLE_NA:
        return math.nan
    try:
        return float(s)
    except ValueError:
        return None


def oracle_load_csv(path, header=None, delimiter=",", na_policy="reject"):
    """The list-of-rows loader: every row is read as text before any is converted.

    It holds the whole file's cells as strings, so it is kept here only as
    the reference that the streaming ``load_csv`` must agree with on every
    file without infinite cells.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        rows, lines, line = [], [], 1
        for row in reader:
            if row:
                rows.append(row)
                lines.append(line)
            line = reader.line_num + 1
    if not rows:
        raise ParseError(f"{path}: file is empty")
    width = len(rows[0])
    for r, line in zip(rows, lines):
        if len(r) != width:
            raise ParseError(f"{path}: expected {width} fields, found {len(r)}", row=line)
    names = None
    if header is True or header is None and any(_oracle_cell(c) is None for c in rows[0]):
        names = [c.strip() for c in rows.pop(0)]
        del lines[0]
    if not rows:
        raise ParseError(f"{path}: no data rows")
    data = np.empty((len(rows), width))
    bad = None
    for i, r in enumerate(rows):
        try:
            data[i] = r
        except ValueError:
            values = [_oracle_cell(c) for c in r]
            if None in values:
                j = values.index(None)
                data[i] = values[:j] + [0.0] * (width - j)
                data = data[:i + 1]
                bad = ParseError(f"{path}: not a number: {r[j].strip()!r}",
                                 row=lines[i], col=j + 1)
                break
            data[i] = values
    missing = np.isnan(data)
    if na_policy == "reject" and missing.any():
        i, j = divmod(int(missing.argmax()), width)
        raise MissingValue(f"{path}: missing value", row=lines[i], col=j + 1)
    if bad is not None:
        raise bad
    keep = ~missing.any(axis=1)
    if not keep.any():
        raise ParseError(f"{path}: every row has missing values")
    return DataMatrix(data if keep.all() else data[keep], names=names, copy=False)


# cells as csv.reader yields them; the numbers are the odd-but-valid cells of
# test_cells_read_as_float_reads_them and plain ones, none of them infinite
CORPUS_NUMBERS = ["0", "1", "-2.5", "6.02e23", "2.5e-300", " 2 ", "\xa01", "1_000", "+3",
                  ".5", "1E5", "-0", "4.9e-324", "\u0661.\u0665", "\x1c1", "\n8"]
CORPUS_NA = ["", " ", "\t", "NA", "na", "N/A", "n/a", "NULL", "null", "nan", "NaN",
             " NAN ", "+nan", "-NaN"]
CORPUS_BAD = ["x", "oops", "1.2.3", "0x10", "1e", "a\nb", "1,5", "--1"]
CORPUS_NAMES = ["y", "a", "b c", "x,1", "7"]


def corpus_file(rng, delimiter):
    """A small CSV as text, and tags for what it holds.

    The tags name the odd structure in the file (a BOM, blank lines, CRLF
    line ends, quoted and multi-line cells) and the order of its offenders:
    "ragged<bad" says a ragged row comes before the first non-number, "na<bad"
    a missing value, and "bad<ragged" and "bad<na" the other way round.
    """
    width = rng.randint(1, 4)
    tags, kinds = set(), []

    def encode(cell):
        if any(ch in cell for ch in (delimiter, '"', "\n", "\r")) or rng.random() < 0.1:
            tags.add("multiline" if "\n" in cell else "quoted")
            return '"' + cell.replace('"', '""') + '"'
        return cell

    lines = []
    if rng.random() < 0.6:
        pool = CORPUS_NAMES if rng.random() < 0.7 else CORPUS_NUMBERS
        lines.append([rng.choice(pool) for _ in range(width)])
    for _ in range(rng.choice([0, 1, 2, 3, 5, 8])):
        if rng.random() < 0.1:
            lines.append(None)
            tags.add("blank")
            continue
        w = width if rng.random() > 0.08 else max(1, width + rng.choice([-1, 1]))
        if w != width:
            kinds.append("ragged")
        row = []
        for _ in range(w):
            u = rng.random()
            pool, kind = ((CORPUS_NA, "na") if u < 0.07 else (CORPUS_BAD, "bad") if u < 0.11
                          else (CORPUS_NUMBERS, None))
            if kind:
                kinds.append(kind)
            row.append(rng.choice(pool))
        lines.append(row)
    if "bad" in kinds:
        first = kinds.index("bad")
        tags.update(f"{kind}<bad" for kind in kinds[:first])
        tags.update(f"bad<{kind}" for kind in kinds[first + 1:] if kind != "bad")
    eol = "\r\n" if rng.random() < 0.2 else "\n"
    if eol != "\n":
        tags.add("crlf")
    text = eol.join("" if r is None else delimiter.join(map(encode, r)) for r in lines)
    if lines and rng.random() < 0.8:
        text += eol
    if rng.random() < 0.15:
        text = "\ufeff" + text
        tags.add("bom")
    return text, tags


def outcome(load, path, **kw):
    """What a loader gives: its names and values' shape, bytes and order, or its error."""
    try:
        m = load(path, **kw)
    except ParseError as exc:
        return type(exc), str(exc), exc.row, exc.col
    return m.names, m.values.shape, m.values.tobytes(), m.values.flags.f_contiguous


class TestLoadCsv:
    def test_header_auto_detected(self, tmp_path):
        p = write(tmp_path, "alpha,beta\n1,2\n3,4\n")
        m = load_csv(p)
        assert m.names == ["alpha", "beta"]
        assert m.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_headerless_gets_default_names(self, tmp_path):
        p = write(tmp_path, "1,2\n3,4\n")
        m = load_csv(p)
        assert m.names == ["x1", "x2"]
        assert m.n == 2

    def test_forced_header_consumes_numeric_row(self, tmp_path):
        p = write(tmp_path, "10,20\n1,2\n", name="h.csv")
        m = load_csv(p, header=True)
        assert m.names == ["10", "20"]
        assert m.n == 1

    def test_forced_no_header(self, tmp_path):
        p = write(tmp_path, "1,2\n3,4\n")
        m = load_csv(p, header=False)
        assert m.n == 2 and m.names == ["x1", "x2"]

    def test_ragged_row_reports_row_number(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p)
        assert exc.value.row == 3
        assert "(row 3)" in str(exc.value)

    def test_bad_cell_reports_coordinates(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n3,oops\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p)
        assert (exc.value.row, exc.value.col) == (3, 2)
        assert "oops" in str(exc.value)

    def test_missing_value_rejected_with_coordinates(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n,4\n")
        with pytest.raises(MissingValue) as exc:
            load_csv(p)
        assert (exc.value.row, exc.value.col) == (3, 1)

    def test_na_tokens_recognized(self, tmp_path):
        for token in ("NA", "NaN", "n/a", "null"):
            p = write(tmp_path, f"a,b\n1,{token}\n", name=f"{len(token)}.csv")
            with pytest.raises(MissingValue):
                load_csv(p)

    def test_drop_policy_removes_offending_rows(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\nNA,4\n5,6\n")
        m = load_csv(p, na_policy="drop")
        assert m.values.tolist() == [[1.0, 2.0], [5.0, 6.0]]

    def test_drop_policy_with_nothing_left(self, tmp_path):
        p = write(tmp_path, "a,b\nNA,2\n3,NA\n")
        with pytest.raises(ParseError):
            load_csv(p, na_policy="drop")

    def test_bad_policy_rejected(self, tmp_path):
        p = write(tmp_path, "1,2\n")
        with pytest.raises(DomainError):
            load_csv(p, na_policy="skip")

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path, ""))

    def test_header_only_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path, "a,b\n"))

    def test_alternate_delimiter(self, tmp_path):
        p = write(tmp_path, "a;b\n1;2\n")
        m = load_csv(p, delimiter=";")
        assert m.names == ["a", "b"]

    def test_byte_order_mark_keeps_a_numeric_first_row(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes("\ufeff1.0,2.0\n3,4\n".encode("utf-8"))
        m = load_csv(str(p))
        assert m.names == ["x1", "x2"]
        assert m.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_byte_order_mark_not_part_of_the_first_name(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes("\ufeffy,x\n1,2\n3,5\n".encode("utf-8"))
        m = load_csv(str(p))
        assert m.names == ["y", "x"]
        assert resolve_column(m, "y") == 0

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n\n\n")
        assert load_csv(p).n == 1

    def test_quoted_fields(self, tmp_path):
        p = write(tmp_path, '"a,x",b\n"1",2\n')
        m = load_csv(p)
        assert m.names == ["a,x", "b"]
        assert m.values[0, 0] == 1.0

    # '\x1c' is whitespace to str.strip but not to float(), so a row holding
    # it goes through the per-cell parser instead of numpy's conversion
    @pytest.mark.parametrize("other", ["1", "\x1c1"])
    @pytest.mark.parametrize("cell", [" 2 ", "\xa01", "1_000", "+3", ".5", "1E5",
                                      "-0", "4.9e-324", "\u0661.\u0665"])
    def test_cells_read_as_float_reads_them(self, tmp_path, cell, other):
        p = write(tmp_path, f"a,b\n{cell},{other}\n", name="cell.csv")
        m = load_csv(p)
        assert m.values[0, 0].tobytes() == np.float64(float(cell)).tobytes()
        assert m.values[0, 1] == 1.0

    @pytest.mark.parametrize("token", ["", " ", "\t", "NA", "na", "N/A", "n/a",
                                       "NULL", "null", "nan", "NaN", " NAN "])
    def test_every_na_spelling_under_both_policies(self, tmp_path, token):
        p = write(tmp_path, f"a,b\n1,2\n3,{token}\n5,6\n")
        with pytest.raises(MissingValue) as exc:
            load_csv(p)
        assert (exc.value.row, exc.value.col) == (3, 2)
        assert load_csv(p, na_policy="drop").values.tolist() == [[1.0, 2.0], [5.0, 6.0]]

    @pytest.mark.parametrize("text, reject, drop", [
        # within a row
        ("a,b,c\n1,NA,x\n", (MissingValue, 2, 2), (ParseError, 2, 3)),
        ("a,b,c\n1,x,NA\n", (ParseError, 2, 2), (ParseError, 2, 2)),
        # across rows, the earlier row converted whole by numpy
        ("a,b\n1,nan\n2,x\n", (MissingValue, 2, 2), (ParseError, 3, 2)),
        ("a,b\n1,nan\n2,NA\n", (MissingValue, 2, 2), (ParseError, None, None)),
        ("a,b\n1,x\n2,NA\n", (ParseError, 2, 2), (ParseError, 2, 2)),
    ])
    def test_first_offender_in_row_major_order(self, tmp_path, text, reject, drop):
        p = write(tmp_path, text)
        for policy, want in (("reject", reject), ("drop", drop)):
            with pytest.raises(ParseError) as exc:
                load_csv(p, na_policy=policy)
            assert (type(exc.value), exc.value.row, exc.value.col) == want, policy

    def test_signed_nan_is_a_missing_value(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n3,+nan\n5,-NaN\n7,8\n")
        with pytest.raises(MissingValue) as exc:
            load_csv(p)
        assert (exc.value.row, exc.value.col) == (3, 2)
        assert load_csv(p, na_policy="drop").values.tolist() == [[1.0, 2.0], [7.0, 8.0]]

    @pytest.mark.parametrize("last, error, col", [
        ("3,NA", MissingValue, 2),
        ("3,x", ParseError, 2),
        ("3", ParseError, None),
    ])
    def test_rows_after_a_blank_line_keep_their_file_line(self, tmp_path, last, error, col):
        p = write(tmp_path, f"a,b\n1,2\n\n{last}\n")
        with pytest.raises(error) as exc:
            load_csv(p)
        assert (exc.value.row, exc.value.col) == (4, col)
        assert "(row 4" in str(exc.value)

    def test_row_coordinate_is_the_line_a_quoted_multiline_row_starts_on(self, tmp_path):
        p = write(tmp_path, '"a\nb",c\n1,2\n3,x\n')
        with pytest.raises(ParseError) as exc:
            load_csv(p)
        assert (exc.value.row, exc.value.col) == (4, 2)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "+Inf", " INF ", "infinity",
                                      "-Infinity", "1e400", "-1e400", "1E+999"])
    def test_infinite_cell_reported_with_coordinates_under_both_policies(self, tmp_path, cell):
        p = write(tmp_path, f"a,b\n1,2\n3,{cell}\n5,6")
        for policy in ("reject", "drop"):
            with pytest.raises(ParseError) as exc:
                load_csv(p, na_policy=policy)
            assert type(exc.value) is ParseError
            assert (exc.value.row, exc.value.col) == (3, 2)
            assert f"not a finite number: {cell.strip()!r} (row 3, column 2)" in str(exc.value)

    @pytest.mark.parametrize("text, reject, drop", [
        # an infinite value offends in row-major order, as a non-number does
        ("a,b\n1,inf\n2,x\n", (ParseError, 2, 2), (ParseError, 2, 2)),
        ("a,b\n1,x\n2,inf\n", (ParseError, 2, 2), (ParseError, 2, 2)),
        ("a,b\n1,2\ninf,x\n", (ParseError, 3, 1), (ParseError, 3, 1)),
        # a missing value offends only under 'reject'; its row is no excuse
        ("a,b\nNA,inf\n", (MissingValue, 2, 1), (ParseError, 2, 2)),
        ("a,b\ninf,NA\n", (ParseError, 2, 1), (ParseError, 2, 1)),
        ("a,b\n1,NA\n2,1e400\n", (MissingValue, 2, 2), (ParseError, 3, 2)),
        # a ragged row anywhere comes first
        ("a,b\n1,inf\n3\n", (ParseError, 3, None), (ParseError, 3, None)),
        # a first row that reads as numbers, infinite or not, is data
        ("inf,1\n2,3\n", (ParseError, 1, 1), (ParseError, 1, 1)),
    ])
    def test_infinite_cells_in_row_major_order(self, tmp_path, text, reject, drop):
        p = write(tmp_path, text)
        for policy, want in (("reject", reject), ("drop", drop)):
            with pytest.raises(ParseError) as exc:
                load_csv(p, na_policy=policy)
            assert (type(exc.value), exc.value.row, exc.value.col) == want, policy

    def test_infinite_header_cells_are_names(self, tmp_path):
        m = load_csv(write(tmp_path, "inf,1e400\n2,3\n"), header=True)
        assert m.names == ["inf", "1e400"] and m.values.tolist() == [[2.0, 3.0]]

    def test_memory_is_within_three_matrices(self, tmp_path):
        # the list-of-rows loader held every cell as a str, about 11.7 times
        # the matrix's bytes on this file
        x = np.random.default_rng(8).standard_normal((500, 1000))
        p = write(tmp_path, "".join(",".join(map(repr, row)) + "\n" for row in x.tolist()))
        tracemalloc.start()
        try:
            m = load_csv(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(m.values, x) and m.values.flags.f_contiguous
        assert peak <= 3 * x.nbytes, peak / x.nbytes


def outcome_kind(result, path):
    """'loaded', 'MissingValue', 'ragged', or a ParseError's message without its details."""
    if not isinstance(result[0], type):
        return "loaded"
    if result[0] is MissingValue:
        return "MissingValue"
    message = result[1][len(path) + 2:]
    return "ragged" if message.startswith("expected") else message.split(":")[0].split(" (")[0]


class TestLoadCsvCorpus:
    def test_streaming_loader_agrees_with_the_list_of_rows_loader(self, tmp_path):
        rng = random.Random(17)
        p = str(tmp_path / "corpus.csv")
        tags, kinds = collections.Counter(), collections.Counter()
        for f in range(2400):
            delimiter = ";" if f % 4 == 3 else ","
            text, file_tags = corpus_file(rng, delimiter)
            with open(p, "wb") as fh:
                fh.write(text.encode("utf-8"))
            tags.update(file_tags | {f"delimiter {delimiter}"})
            for header in (None, True, False):
                for policy in ("reject", "drop"):
                    kw = dict(header=header, delimiter=delimiter, na_policy=policy)
                    want = outcome(oracle_load_csv, p, **kw)
                    assert outcome(load_csv, p, **kw) == want, (text, kw)
                    kinds[outcome_kind(want, p), policy] += 1
        # the corpus holds every structure and every outcome, many times over
        assert set(tags) == {"ragged<bad", "bad<ragged", "na<bad", "bad<na", "blank", "bom",
                             "crlf", "quoted", "multiline", "delimiter ,", "delimiter ;"}
        assert min(tags.values()) >= 40, tags
        both = {(kind, policy) for kind in ("loaded", "ragged", "not a number", "no data rows",
                                            "file is empty") for policy in ("reject", "drop")}
        one = {("MissingValue", "reject"), ("every row has missing values", "drop")}
        assert set(kinds) == both | one, kinds
        assert min(kinds.values()) >= 10, kinds


class TestSplitResponse:
    def test_by_name(self):
        m = DataMatrix(np.arange(6.0).reshape(2, 3), names=["u", "v", "w"])
        y, rest, name = split_response(m, "v")
        assert name == "v"
        assert y.tolist() == [1.0, 4.0]
        assert rest.names == ["u", "w"]
        assert rest.values.tolist() == [[0.0, 2.0], [3.0, 5.0]]

    def test_by_one_based_index(self):
        m = DataMatrix(np.arange(6.0).reshape(2, 3))
        y, rest, name = split_response(m, 1)
        assert name == "x1" and y.tolist() == [0.0, 3.0]
        y2, _, _ = split_response(m, "3")  # numeric strings act as indices
        assert y2.tolist() == [2.0, 5.0]

    def test_bookkeeping_sliced(self):
        rng = np.random.default_rng(5)
        m, _ = standardize(DataMatrix(rng.standard_normal((20, 3)) * 5 + 2))
        _, rest, _ = split_response(m, 2)
        assert rest.offsets.tolist() == [m.offsets[0], m.offsets[2]]
        assert rest.scales.tolist() == [m.scales[0], m.scales[2]]

    def test_unknown_name_and_bad_index(self):
        m = DataMatrix(np.ones((3, 2)))
        with pytest.raises(DomainError):
            split_response(m, "nope")
        with pytest.raises(DomainError):
            split_response(m, 0)
        with pytest.raises(DomainError):
            split_response(m, 3)


class TestMakeLags:
    def test_single_series_example(self):
        # series 1..5 with lags {1, 2}: responses are (3, 4, 5) and each row
        # holds the one- and two-step history
        d, y = make_lags(np.arange(1.0, 6.0), [1, 2])
        assert y.tolist() == [3.0, 4.0, 5.0]
        assert d.names == ["x_lag1", "x_lag2"]
        assert d.values.tolist() == [[2.0, 1.0], [3.0, 2.0], [4.0, 3.0]]

    def test_variable_major_order_two_series(self):
        arr = np.column_stack([np.arange(1.0, 6.0), np.arange(10.0, 60.0, 10.0)])
        d, y = make_lags(arr, [1, 2], response=1, names=["a", "b"])
        assert d.names == ["a_lag1", "a_lag2", "b_lag1", "b_lag2"]
        assert y.tolist() == [30.0, 40.0, 50.0]
        assert d.values[:, 2].tolist() == [20.0, 30.0, 40.0]

    def test_lag_column_shifts_by_that_many_steps(self):
        rng = np.random.default_rng(6)
        s = rng.standard_normal(50)
        d, y = make_lags(s, [3, 7])
        assert np.array_equal(y, s[7:])
        assert np.array_equal(d.values[:, 0], s[7 - 3: 50 - 3])
        assert np.array_equal(d.values[:, 1], s[0: 50 - 7])

    def test_too_short_series(self):
        with pytest.raises(InsufficientLength):
            make_lags(np.arange(5.0), [5])

    def test_validation(self):
        with pytest.raises(DomainError):
            make_lags(np.arange(10.0), [])
        with pytest.raises(DomainError):
            make_lags(np.arange(10.0), [0])
        with pytest.raises(DomainError):
            make_lags(np.arange(10.0), [1, 1])
        with pytest.raises(DomainError):
            make_lags(np.arange(10.0), [1], response=1)
        with pytest.raises(DomainError):
            make_lags(np.ones((10, 2, 2)), [1])
        with pytest.raises(DomainError):
            make_lags(np.ones((10, 2)), [1], names=["a"])


class TestMakeTrig:
    def test_shape_and_names(self):
        d = make_trig(16, 3)
        assert d.values.shape == (16, 6)
        assert d.names == ["cos1", "sin1", "cos2", "sin2", "cos3", "sin3"]

    def test_values(self):
        d = make_trig(8, 1)
        t = np.arange(1, 9) / 8.0
        assert np.allclose(d.values[:, 0], np.cos(np.pi * t))
        assert np.allclose(d.values[:, 1], np.sin(np.pi * t))

    def test_gram_structure(self):
        # on the half-period grid, cosines are near-orthogonal to each other
        # and so are sines; cos/sin pairs with odd frequency sum are not
        # (their inner product is O(n)), but the dictionary stays full rank
        n = 500
        k = 5
        d = make_trig(n, k)
        G = d.values.T @ d.values
        assert np.abs(np.diag(G) - n / 2).max() < 2.0
        cos_idx = [2 * j for j in range(k)]
        sin_idx = [2 * j + 1 for j in range(k)]
        for fam in (cos_idx, sin_idx):
            sub = G[np.ix_(fam, fam)]
            off = sub - np.diag(np.diag(sub))
            assert np.abs(off).max() < 2.0
        assert np.linalg.matrix_rank(d.values) == 2 * k

    def test_validation(self):
        with pytest.raises(DomainError):
            make_trig(1, 2)
        with pytest.raises(DomainError):
            make_trig(10, 0)


class TestInteractions:
    def test_monomial_count_known_values(self):
        assert monomial_count(2, 2) == 5
        assert monomial_count(1, 3) == 3
        assert monomial_count(13, 8) == 203489
        assert monomial_count(20, 8) == 3108104

    def test_count_matches_generated_columns(self):
        rng = np.random.default_rng(14)
        m = DataMatrix(rng.standard_normal((10, 4)))
        out = make_interactions(m, InteractionSpec(max_degree=3, dedup=False))
        assert out.q == monomial_count(4, 3)

    def test_degree_two_names_in_graded_lex_order(self):
        m = DataMatrix(np.random.default_rng(1).standard_normal((6, 2)),
                       names=["a", "b"])
        out = make_interactions(m, InteractionSpec(max_degree=2))
        assert out.names == ["a", "b", "a^2", "a*b", "b^2"]

    def test_values_are_products(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((12, 3))
        out = make_interactions(DataMatrix(X, names=["u", "v", "w"]),
                                InteractionSpec(max_degree=2))
        col = dict(zip(out.names, out.values.T))
        assert np.allclose(col["u*w"], X[:, 0] * X[:, 2])
        assert np.allclose(col["v^2"], X[:, 1] ** 2)

    @staticmethod
    def block_builder(m, max_degree, dedup, chunk=4):
        """The expansion as an earlier builder made it: 256-column blocks of
        separately formed columns, joined at the end (``chunk`` per block here)."""
        seen, names, blocks, buf = set(), [], [], []
        for deg in range(1, max_degree + 1):
            for combo in itertools.combinations_with_replacement(range(m.q), deg):
                col = np.array(m.col(combo[0]))
                for j in combo[1:]:
                    col *= m.col(j)
                if dedup:
                    key = hashlib.blake2b(col.tobytes(), digest_size=16).digest()
                    if key in seen:
                        continue
                    seen.add(key)
                buf.append(col)
                powers = [(j, len(list(g))) for j, g in itertools.groupby(combo)]
                names.append("*".join(m.names[j] + (f"^{e}" if e > 1 else "")
                                      for j, e in powers))
                if len(buf) == chunk:
                    blocks.append(np.column_stack(buf))
                    buf = []
        if buf:
            blocks.append(np.column_stack(buf))
        return names, np.concatenate(blocks, axis=1)

    def test_matches_block_builder_bitwise(self):
        rng = np.random.default_rng(16)
        designs = []
        for n, q in ((9, 3), (14, 4), (7, 5)):
            x = rng.standard_normal((n, q)) * rng.uniform(0.1, 30, q)
            designs.append(x)
            b = x.copy()
            b[:, 0] = rng.integers(0, 2, n)  # binary: its powers repeat it
            b[:, -1] = b[:, 1]  # a duplicated column
            designs.append(b)
        designs.append(rng.integers(-2, 3, (8, 4)).astype(float))  # repeated products
        for x in designs:
            m = DataMatrix(x, names=[f"v{j}" for j in range(x.shape[1])])
            for degree in range(1, 5):
                for dedup in (True, False):
                    out = make_interactions(m, InteractionSpec(max_degree=degree, dedup=dedup))
                    names, values = self.block_builder(m, degree, dedup)
                    assert out.names == names
                    assert out.values.tobytes(order="F") == values.tobytes(order="F")
                    assert out.values.flags.f_contiguous

    def test_peak_is_about_the_result(self):
        # one array for the whole expansion: no blocks, no join, no copy
        m = DataMatrix(np.random.default_rng(17).standard_normal((300, 14)))
        spec = InteractionSpec(max_degree=4)
        tracemalloc.start()
        try:
            out = make_interactions(m, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.q == monomial_count(14, 4) == 3059
        assert peak <= 1.3 * out.values.nbytes, peak / out.values.nbytes

    def test_dedup_drops_binary_powers(self):
        # for a 0/1 column, x^2 == x bitwise: degree-2 expansion loses it
        x = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        z = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
        m = DataMatrix(np.column_stack([x, z]), names=["x", "z"])
        kept = make_interactions(m, InteractionSpec(max_degree=2))
        assert "x^2" not in kept.names
        assert kept.q == 4
        raw = make_interactions(m, InteractionSpec(max_degree=2, dedup=False))
        assert "x^2" in raw.names and raw.q == 5

    def test_budget_enforced(self):
        # 1000 monomials of 4000 rows would take 32 MB; none is allocated
        m = DataMatrix(np.random.default_rng(2).standard_normal((4000, 10)))
        tracemalloc.start()
        try:
            with pytest.raises(ColumnBudgetExceeded):
                make_interactions(m, InteractionSpec(max_degree=4, max_columns=100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m.values.nbytes, peak

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            InteractionSpec(max_degree=0)
        with pytest.raises(DomainError):
            InteractionSpec(max_columns=0)


class TestSampleCorrelations:
    def test_deterministic_and_well_formed(self):
        rng = np.random.default_rng(3)
        m = DataMatrix(rng.standard_normal((40, 8)))
        a = sample_correlations(m, 12, seed=9)
        b = sample_correlations(m, 12, seed=9)
        assert a == b
        assert len(a) == 12
        for i, j, c in a:
            assert 0 <= i < j < 8
            assert -1.0 <= c <= 1.0

    def test_matches_corrcoef(self):
        rng = np.random.default_rng(4)
        m = DataMatrix(rng.standard_normal((60, 5)))
        for i, j, c in sample_correlations(m, 6, seed=1):
            want = np.corrcoef(m.values[:, i], m.values[:, j])[0, 1]
            assert c == pytest.approx(want, rel=1e-10)

    def test_constant_column_gives_zero(self):
        m = DataMatrix(np.column_stack([np.ones(10), np.arange(10.0)]))
        vals = sample_correlations(m, 5, seed=2)
        assert all(c == 0.0 for _, _, c in vals)

    def test_validation(self):
        m = DataMatrix(np.ones((5, 2)))
        with pytest.raises(DomainError):
            sample_correlations(m, 0, seed=1)
        with pytest.raises(DomainError):
            sample_correlations(DataMatrix(np.ones((5, 1))), 3, seed=1)
