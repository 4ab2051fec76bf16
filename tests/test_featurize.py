"""Tests for CSV loading and the feature dictionary builders."""

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
    interaction_columns,
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

    def test_streaming_blocks_match_materialized(self):
        rng = np.random.default_rng(16)
        m = DataMatrix(rng.standard_normal((9, 3)))
        spec = InteractionSpec(max_degree=3, chunk=4)
        names, blocks = [], []
        for bn, blk in interaction_columns(m, spec):
            assert blk.shape[1] <= 4
            names.extend(bn)
            blocks.append(blk)
        whole = make_interactions(m, InteractionSpec(max_degree=3))
        assert names == whole.names
        assert np.array_equal(np.concatenate(blocks, axis=1), whole.values)

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
        m = DataMatrix(np.random.default_rng(2).standard_normal((5, 10)))
        with pytest.raises(ColumnBudgetExceeded):
            list(interaction_columns(m, InteractionSpec(max_degree=4, max_columns=100)))

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            InteractionSpec(max_degree=0)
        with pytest.raises(DomainError):
            InteractionSpec(chunk=0)


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
