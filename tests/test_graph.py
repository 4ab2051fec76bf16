"""Tests for dependency-graph estimation and the random graphical models."""

import json
import re
import threading

import numpy as np
import pytest

import gausscov.graph as graph_mod
from gausscov import (
    DataMatrix,
    DomainError,
    SelectionConfig,
    f1st,
    fgr1st,
    graph_to_csv,
    graph_to_dot,
    random_graph_model,
    random_graph_sim,
    undirected_to_csv,
)
from gausscov.graph import _sample_from_precision
from gausscov.parallel import ordered_map


def chain_data(n=400, p=5, seed=1234):
    """Markov chain x0 -> x1 -> ... : precision is tridiagonal."""
    rng = np.random.default_rng(seed)
    cols = [rng.standard_normal(n)]
    for _ in range(p - 1):
        cols.append(cols[-1] + 0.6 * rng.standard_normal(n))
    return DataMatrix(np.column_stack(cols))


def assert_edges_match_per_node_runs(m, cfg=None):
    g = fgr1st(m, cfg)
    assert g.directed
    for j in range(m.q):
        want = f1st(m, np.array(m.col(j)), cfg, exclude=(j,))
        got = [(b, pg) for a, b, pg in g.directed if a == j]
        assert got == list(zip(want.selected, want.pg))


class TestFgr1st:
    def test_chain_graph_recovered(self):
        m = chain_data()
        g = fgr1st(m)
        want = {(0, 1), (1, 2), (2, 3), (3, 4)}
        assert set(g.undirected) == want

    def test_directed_edges_match_per_node_runs(self):
        assert_edges_match_per_node_runs(chain_data(n=200, p=4, seed=77))

    def test_directed_edges_match_per_node_runs_without_intercept(self):
        # the node runs scan from the uncentred Gram matrix
        m = DataMatrix(2.0 + chain_data(n=200, p=6, seed=78).values)
        assert_edges_match_per_node_runs(m, SelectionConfig(intercept=False))

    def test_directed_edges_match_per_node_runs_with_more_columns_than_rows(self):
        # no Gram matrix: the node runs scan the data
        assert_edges_match_per_node_runs(chain_data(n=30, p=40, seed=79))

    def test_rule_semantics_consistent_with_directed_list(self):
        m = chain_data(n=150, p=6, seed=3)
        g_or = fgr1st(m, rule="or")
        g_and = fgr1st(m, rule="and")
        assert g_or.directed == g_and.directed
        pairs = {}
        for a, b, _ in g_or.directed:
            key = (min(a, b), max(a, b))
            pairs[key] = pairs.get(key, 0) + 1
        assert g_or.undirected == sorted(pairs)
        assert g_and.undirected == sorted(k for k, c in pairs.items() if c >= 2)
        assert set(g_and.undirected) <= set(g_or.undirected)

    def test_no_self_edges(self):
        m = chain_data(n=100, p=5, seed=9)
        g = fgr1st(m)
        assert all(a != b for a, b, _ in g.directed)

    def test_bad_rule_rejected(self):
        m = chain_data(n=50, p=3)
        with pytest.raises(DomainError):
            fgr1st(m, rule="xor")

    def test_single_column_rejected(self):
        with pytest.raises(DomainError):
            fgr1st(DataMatrix(np.random.default_rng(0).standard_normal((20, 1))))

    def test_deterministic_across_thread_counts(self, monkeypatch):
        """GAUSSCOV_THREADS is no longer read: setting it changes no output."""
        outs = []
        for threads in ("1", "4"):
            m = chain_data(n=120, p=8, seed=21)
            monkeypatch.setenv("GAUSSCOV_THREADS", threads)
            outs.append(json.dumps(fgr1st(m).to_dict(), sort_keys=True))
        assert outs[0] == outs[1]

    def test_nodes_run_in_order_on_the_calling_thread(self, monkeypatch):
        seen, real = [], graph_mod.f1st

        def recording(m, y, cfg=None, exclude=(), **kwargs):
            seen.append((threading.get_ident(), exclude))
            return real(m, y, cfg, exclude, **kwargs)

        monkeypatch.setattr(graph_mod, "f1st", recording)
        monkeypatch.setenv("GAUSSCOV_THREADS", "4")
        fgr1st(chain_data(n=120, p=6, seed=21))
        assert seen == [(threading.get_ident(), (j,)) for j in range(6)]

    def test_node_error_reaches_the_caller_unchanged(self, monkeypatch):
        err, real, ran = DomainError("node 3 fails"), graph_mod.f1st, []

        def failing(m, y, cfg=None, exclude=(), **kwargs):
            ran.append(exclude[0])
            if exclude == (3,):
                raise err
            return real(m, y, cfg, exclude, **kwargs)

        monkeypatch.setattr(graph_mod, "f1st", failing)
        with pytest.raises(DomainError) as info:
            fgr1st(chain_data(n=120, p=6, seed=21))
        assert info.value is err
        assert ran == [0, 1, 2, 3]

    def test_ordered_map_keeps_item_order(self):
        calls = []

        def square(x):
            calls.append((threading.get_ident(), x))
            return x * x

        assert ordered_map(square, iter([5, 3, 8, 1])) == [25, 9, 64, 1]
        assert calls == [(threading.get_ident(), x) for x in (5, 3, 8, 1)]
        assert ordered_map(square, []) == []

    def test_node_fits_are_refined_in_one_batch(self, monkeypatch):
        # every node's subset search and reported fit share one batched QR per
        # problem shape: the QR calls stay fewer than the nodes and do not
        # grow with them
        counts = {}
        for p in (40, 80):
            _, prec = random_graph_model(p, 3)
            x = _sample_from_precision(prec, 300, np.random.Generator(np.random.Philox(5)))
            qr, rows = np.linalg.qr, []

            def counting(a, *args, **kwargs):
                rows.append(np.shape(a)[-2])
                return qr(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, "qr", counting)
            g = fgr1st(DataMatrix(x))
            monkeypatch.undo()
            assert len(g.directed) > p
            counts[p] = len(rows)
        assert 0 < counts[40] < 40 and counts[80] < 80
        assert counts[80] < 1.5 * counts[40]

    def test_to_dict_one_based(self):
        m = chain_data(n=150, p=3, seed=5)
        d = fgr1st(m).to_dict()
        for e in d["directed"]:
            assert 1 <= e["from"] <= 3 and 1 <= e["to"] <= 3
        assert {"a": 1, "b": 2} in d["undirected"]


class TestGraphOutput:
    def test_csv_round_trip(self, tmp_path):
        g = fgr1st(chain_data(n=150, p=4, seed=11))
        path = tmp_path / "directed.csv"
        graph_to_csv(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "from,to,pg"
        assert len(lines) == 1 + len(g.directed)
        a, b, pg = lines[1].split(",")
        assert (int(a) - 1, int(b) - 1) == g.directed[0][:2]
        assert float(pg) == pytest.approx(g.directed[0][2], rel=1e-5, abs=1e-300)

    def test_undirected_csv(self, tmp_path):
        g = fgr1st(chain_data(n=150, p=4, seed=11))
        path = tmp_path / "undirected.csv"
        undirected_to_csv(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "from,to"
        got = [tuple(int(v) - 1 for v in ln.split(",")) for ln in lines[1:]]
        assert got == g.undirected

    def test_dot_undirected(self, tmp_path):
        g = fgr1st(chain_data(n=150, p=3, seed=2))
        path = tmp_path / "g.dot"
        graph_to_dot(g, path)
        text = path.read_text()
        assert text.startswith("graph gausscov {")
        assert text.rstrip().endswith("}")
        assert '"x1" -- "x2";' in text

    def test_dot_directed_with_labels(self, tmp_path):
        g = fgr1st(chain_data(n=150, p=3, seed=2))
        path = tmp_path / "g.dot"
        graph_to_dot(g, path, directed=True)
        text = path.read_text()
        assert text.startswith("digraph gausscov {")
        assert "->" in text and "label=" in text

    def test_dot_escapes_quotes_in_names(self, tmp_path):
        rng = np.random.default_rng(31)
        base = rng.standard_normal(100)
        X = np.column_stack([base, base + 0.3 * rng.standard_normal(100)])
        g = fgr1st(DataMatrix(X, names=['wei"rd', "plain"]))
        path = tmp_path / "g.dot"
        graph_to_dot(g, path)
        assert r'"wei\"rd"' in path.read_text()


    def test_dot_escapes_backslashes_in_names(self, tmp_path):
        # DOT reads \\ and \" inside a quoted ID as pairs, so a name ending in a
        # backslash must not escape the quote that closes it
        rng = np.random.default_rng(32)
        x0 = rng.standard_normal(200)
        x1 = x0 + 0.5 * rng.standard_normal(200)
        x2 = x1 + 0.5 * rng.standard_normal(200)
        names = ["a\\", 'b"', "c"]
        g = fgr1st(DataMatrix(np.column_stack([x0, x1, x2]), names=names))
        quoted = r'"((?:\\.|[^"\\])*)"'
        for directed, edge, want in [(False, "ID -- ID;", g.undirected),
                                     (True, "ID -> ID [label=ID];", g.directed)]:
            path = tmp_path / "g.dot"
            graph_to_dot(g, path, directed=directed)
            lines = path.read_text().splitlines()[1:-1]
            assert len(lines) == len(want) >= 2
            for line, (a, b, *_) in zip(lines, want):
                assert re.sub(quoted, "ID", line).strip() == edge
                ids = [re.sub(r"\\(.)", r"\1", t) for t in re.findall(quoted, line)]
                assert ids[:2] == [names[a], names[b]]


class TestRandomGraphModel:
    def test_deterministic_per_seed(self):
        e1, p1 = random_graph_model(60, 5)
        e2, p2 = random_graph_model(60, 5)
        assert e1 == e2
        assert np.array_equal(p1, p2)
        e3, _ = random_graph_model(60, 6)
        assert e1 != e3

    def test_degree_cap(self):
        for seed in range(5):
            edges, _ = random_graph_model(80, seed)
            deg = np.zeros(80, dtype=int)
            for a, b in edges:
                deg[a] += 1
                deg[b] += 1
            assert deg.max() <= 4

    def test_edges_sorted_and_unique(self):
        edges, _ = random_graph_model(70, 3)
        assert edges == sorted(edges)
        assert len(edges) == len(set(edges))
        assert all(a < b for a, b in edges)

    def test_precision_structure(self):
        edges, prec = random_graph_model(50, 8)
        assert np.array_equal(prec, prec.T)
        assert np.allclose(np.diag(prec), 1.0)
        for a, b in edges:
            assert prec[a, b] == 0.245
        # off-edge entries are zero
        mask = np.zeros_like(prec, dtype=bool)
        for a, b in edges:
            mask[a, b] = mask[b, a] = True
        np.fill_diagonal(mask, True)
        assert np.all(prec[~mask] == 0.0)
        assert np.linalg.eigvalsh(prec)[0] > 0.0

    def test_edge_count_scales_with_p(self):
        counts = {p: len(random_graph_model(p, 1)[0]) for p in (50, 100, 200)}
        assert 40 <= counts[50] <= 110
        assert 90 <= counts[100] <= 230
        assert 200 <= counts[200] <= 460

    def test_tiny_p_rejected(self):
        with pytest.raises(DomainError):
            random_graph_model(1, 0)


class TestSampling:
    def test_sample_covariance_matches_inverse_precision(self):
        prec = np.array([[1.0, 0.245], [0.245, 1.0]])
        rng = np.random.Generator(np.random.Philox(123))
        x = _sample_from_precision(prec, 200_000, rng)
        cov = np.cov(x.T)
        want = np.linalg.inv(prec)
        assert np.abs(cov - want).max() < 0.02

    def test_sample_shape(self):
        _, prec = random_graph_model(30, 2)
        rng = np.random.Generator(np.random.Philox(5))
        x = _sample_from_precision(prec, 55, rng)
        assert x.shape == (55, 30)


class TestRandomGraphSim:
    def test_report_fields_consistent(self):
        rep = random_graph_sim(40, 300, 7)
        edges, _ = random_graph_model(40, 7)
        assert rep.true_edges == len(edges)
        assert rep.p == 40 and rep.n == 300 and rep.seed == 7
        assert rep.fp >= 0 and rep.fn >= 0
        assert rep.fn <= rep.true_edges
        assert rep.estimated_edges == rep.true_edges - rep.fn + rep.fp

    def test_deterministic_across_runs_and_threads(self, monkeypatch):
        """GAUSSCOV_THREADS is no longer read: setting it changes no output."""
        outs = []
        for threads in ("1", "3"):
            monkeypatch.setenv("GAUSSCOV_THREADS", threads)
            rep = random_graph_sim(30, 200, 3)
            outs.append(json.dumps(rep.to_dict(include_timing=False), sort_keys=True))
        assert outs[0] == outs[1]

    def test_timing_toggle(self):
        rep = random_graph_sim(20, 100, 1)
        assert "seconds" in rep.to_dict()
        assert "seconds" not in rep.to_dict(include_timing=False)

    def test_recovery_reasonable_at_moderate_size(self):
        # enough samples that most edges are found and few invented
        rep = random_graph_sim(60, 600, 13)
        assert rep.fn <= 0.25 * rep.true_edges
        assert rep.fp <= 8
