import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

from kronsketch import bench
from kronsketch.bench import (
    CSV_HEADER,
    _build_parser,
    BenchRecord,
    ParseError,
    Scenario,
    load_matrix,
    load_sparse_vector,
    main,
    parse_stream,
    read_report,
    replay,
    report,
    save_matrix,
    save_sparse_vector,
)
from kronsketch.linalg import SparseVector
from kronsketch.oracle import kron_reduction
from kronsketch.sketches import ConfigurationError, choose_m
from kronsketch.solvers import SplineSpec, statistical_dimension
from kronsketch.tree import TensorTree

RNG = np.random.default_rng(99)


class TestKmatFormat:
    def test_simple_parse(self, tmp_path):
        p = tmp_path / "m.kmat"
        p.write_text("2 2\n1.0 2.0\n3.0 4.0\n")
        assert np.array_equal(load_matrix(p), [[1.0, 2.0], [3.0, 4.0]])

    def test_round_trip_bit_exact(self, tmp_path):
        M = RNG.standard_normal((7, 3))
        p = tmp_path / "m.kmat"
        save_matrix(p, M)
        assert np.array_equal(load_matrix(p), M)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.kmat"
        p.write_text("")
        with pytest.raises(ParseError, match="missing header") as excinfo:
            load_matrix(p)
        assert excinfo.value.offset == 0

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.kmat"
        p.write_text("two 2\n1 2\n")
        with pytest.raises(ParseError, match="malformed header") as excinfo:
            load_matrix(p)
        assert excinfo.value.offset == 0

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "cut.kmat"
        p.write_text("2 2\n1.0 2.0 3.0\n")
        with pytest.raises(ParseError, match="truncated") as excinfo:
            load_matrix(p)
        assert excinfo.value.offset == len(p.read_bytes())

    def test_non_finite_value(self, tmp_path):
        p = tmp_path / "inf.kmat"
        p.write_text("1 2\n1.0 inf\n")
        with pytest.raises(ParseError, match="non-finite") as excinfo:
            load_matrix(p)
        assert excinfo.value.offset == p.read_text().index("inf")

    def test_trailing_data(self, tmp_path):
        p = tmp_path / "extra.kmat"
        p.write_text("1 1\n1.0 2.0\n")
        with pytest.raises(ParseError, match="trailing"):
            load_matrix(p)


class TestBulkParse:
    """Files convert in bulk; a bad token is located, with its byte offset,
    only on the raising path."""

    @pytest.mark.parametrize("kind", ["kmat", "spvec"])
    @pytest.mark.parametrize("bad", [b"1.0x", b"nan"])
    def test_bad_token_deep_in_a_large_file(self, tmp_path, kind, bad):
        rng = np.random.default_rng(77)
        if kind == "kmat":
            save_matrix(tmp_path / "f", rng.standard_normal((400, 250)))
            load, at = load_matrix, 2 + 87_654
        else:
            n = 10**9
            save_sparse_vector(tmp_path / "f", SparseVector(
                n, rng.integers(0, n, 50_000), rng.standard_normal(50_000)))
            load, at = load_sparse_vector, 2 + 2 * 43_210 + 1  # a value
        data = (tmp_path / "f").read_bytes()
        starts = [m.start() for m in re.finditer(rb"\S+", data)]
        end = data.index(b" " if kind == "kmat" else b"\n", starts[at])
        (tmp_path / "f").write_bytes(data[:starts[at]] + bad + data[end:])
        with pytest.raises(ParseError) as excinfo:
            load(tmp_path / "f")
        assert excinfo.value.offset == starts[at]

    def test_bulk_values_match_token_parse(self, tmp_path):
        (tmp_path / "m.kmat").write_text("2 3\n1_0 -0.0 +7e-3\n4 1e308 .5\n")
        assert np.array_equal(
            load_matrix(tmp_path / "m.kmat"), [[10.0, -0.0, 7e-3], [4.0, 1e308, 0.5]]
        )
        (tmp_path / "v.spvec").write_text("10 2\n+3 1.5\n09 -2\n")
        sv = load_sparse_vector(tmp_path / "v.spvec")
        assert sv.indices.tolist() == [3, 9] and sv.values.tolist() == [1.5, -2.0]


class TestSparseVectorFormat:
    def test_round_trip(self, tmp_path):
        sv = SparseVector(100, [3, 17, 99], [1.5, -2.25, 0.125])
        p = tmp_path / "v.spvec"
        save_sparse_vector(p, sv)
        back = load_sparse_vector(p)
        assert back.length == 100
        assert np.array_equal(back.indices, sv.indices)
        assert np.array_equal(back.values, sv.values)

    def test_index_out_of_range(self, tmp_path):
        p = tmp_path / "v.spvec"
        p.write_text("4 1\n4 1.0\n")
        with pytest.raises(ParseError, match="out of range"):
            load_sparse_vector(p)

    def test_index_past_int64_rejected(self, tmp_path):
        # a length past 2**63 admits no index an int64 array cannot hold
        p = tmp_path / "v.spvec"
        p.write_text(f"{2**70} 2\n0 1.0\n{2**63} 1.0\n")
        with pytest.raises(ParseError, match="out of range") as excinfo:
            load_sparse_vector(p)
        assert excinfo.value.offset == len(f"{2**70} 2\n0 1.0\n")

    @pytest.mark.parametrize("token, message", [
        ("4.5", "malformed index: not an integer"),
        ("-4", r"index -4 out of range \[0, 10\)"),
    ])
    def test_bad_index_named(self, tmp_path, token, message):
        p = tmp_path / "v.spvec"
        p.write_text(f"10 2\n3 1.5\n{token} 2\n")
        with pytest.raises(ParseError, match=message) as excinfo:
            load_sparse_vector(p)
        assert excinfo.value.offset == len("10 2\n3 1.5\n")

    def test_truncated(self, tmp_path):
        p = tmp_path / "v.spvec"
        p.write_text("4 2\n1 1.0\n")
        with pytest.raises(ParseError, match="truncated"):
            load_sparse_vector(p)


class TestStreamFormat:
    def test_parse_events(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# comment\n\nU 2 B.kmat\nQ\nB d.spvec\n")
        events = parse_stream(p)
        assert events == [
            ("U", 2, str(tmp_path / "B.kmat")),
            ("Q",),
            ("B", str(tmp_path / "d.spvec")),
        ]

    def test_bad_line_rejected(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("Q\nX nope\n")
        with pytest.raises(ParseError, match="unrecognized"):
            parse_stream(p)

    def test_zero_index_rejected(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("U 0 B.kmat\n")
        with pytest.raises(ParseError, match="1-based"):
            parse_stream(p)

    def test_non_utf8_line_rejected(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_bytes(b"Q\n\xff\xfe\n")
        with pytest.raises(ParseError, match="not UTF-8") as excinfo:
            parse_stream(p)
        assert excinfo.value.offset == 2


@pytest.fixture
def scenario_files(tmp_path):
    rng = np.random.default_rng(5150)
    factor_paths = []
    for i in range(2):
        p = tmp_path / f"A{i}.kmat"
        save_matrix(p, rng.standard_normal((6, 2)))
        factor_paths.append(str(p))
    save_matrix(tmp_path / "B.kmat", 0.3 * rng.standard_normal((6, 2)))
    save_sparse_vector(
        tmp_path / "b.spvec", SparseVector.from_dense(rng.standard_normal(36))
    )
    save_sparse_vector(
        tmp_path / "delta.spvec", SparseVector(36, [0, 7], [0.5, -1.0])
    )
    (tmp_path / "stream.txt").write_text("Q\nU 1 B.kmat\nQ\nB delta.spvec\nQ\n")
    L = np.zeros((3, 4))
    for i in range(3):
        L[i, i] = 1.0
        L[i, i + 1] = -1.0
    save_matrix(tmp_path / "L.kmat", L)
    return tmp_path, factor_paths


def base_scenario(tmp_path, factor_paths, **kw):
    args = dict(
        factors=factor_paths,
        label=str(tmp_path / "b.spvec"),
        solver="regression",
        stream=str(tmp_path / "stream.txt"),
        oracle=True,
        cfactor=0.5,
        seed=3,
    )
    args.update(kw)
    return Scenario(**args)


class TestReplay:
    def test_zero_events_single_init_record(self, scenario_files):
        tmp_path, factor_paths = scenario_files
        sc = base_scenario(tmp_path, factor_paths, stream=None)
        records = replay(sc)
        assert len(records) == 1
        assert records[0].kind == "init" and records[0].event == 0

    def test_update_then_query_ratio(self, scenario_files):
        tmp_path, factor_paths = scenario_files
        records = replay(base_scenario(tmp_path, factor_paths))
        kinds = [r.kind for r in records]
        assert kinds == ["init", "query", "update", "query", "label", "query"]
        for r in records:
            if r.kind == "query":
                assert r.ratio is not None and r.ratio >= 1.0 - 1e-9
            if r.kind == "update":
                assert r.nodes_recomputed <= math.ceil(math.log2(2)) + 1

    def test_deterministic_cost_columns(self, scenario_files):
        tmp_path, factor_paths = scenario_files
        sc = base_scenario(tmp_path, factor_paths)
        a = replay(sc)
        b = replay(sc)
        assert [(r.event, r.kind, r.cost, r.oracle_cost, r.ratio) for r in a] == [
            (r.event, r.kind, r.cost, r.oracle_cost, r.ratio) for r in b
        ]

    def test_lowrank_replay_sketches_no_label(self, scenario_files, monkeypatch):
        # the lowrank query reads no label sketch: with --label and a B event
        # the replay sketches nothing, and its records are those without them
        tmp_path, factor_paths = scenario_files
        calls, sketch = [], TensorTree.sketch_vector
        monkeypatch.setattr(TensorTree, "sketch_vector",
                            lambda tree, b: calls.append(b) or sketch(tree, b))
        records = replay(base_scenario(tmp_path, factor_paths, solver="lowrank", rank=2))
        assert calls == []
        assert [r.kind for r in records] == ["init", "query", "update", "query", "label", "query"]
        (tmp_path / "plain.txt").write_text("Q\nU 1 B.kmat\nQ\nQ\n")
        plain = replay(base_scenario(tmp_path, factor_paths, solver="lowrank", rank=2,
                                     label=None, stream=str(tmp_path / "plain.txt")))

        def rows(records):
            return [(r.kind, r.nodes_recomputed, r.cost, r.oracle_cost, r.ratio)
                    for r in records if r.kind != "label"]

        assert rows(records) == rows(plain)

    def test_oracle_toggle_off(self, scenario_files):
        tmp_path, factor_paths = scenario_files
        records = replay(base_scenario(tmp_path, factor_paths, oracle=False))
        for r in records:
            if r.kind == "query":
                assert r.cost is not None
                assert r.oracle_cost is None and r.ratio is None

    def test_label_update_changes_cost(self, scenario_files):
        tmp_path, factor_paths = scenario_files
        records = replay(base_scenario(tmp_path, factor_paths))
        queries = [r for r in records if r.kind == "query"]
        assert queries[1].oracle_cost != queries[2].oracle_cost

    def test_seeds_aggregation(self, scenario_files):
        tmp_path, factor_paths = scenario_files
        records = replay(base_scenario(tmp_path, factor_paths, seeds=3))
        assert len(records) == 3 * 6
        assert [r.event for r in records[:6]] == [0, 1, 2, 3, 4, 5]

    def test_adaptive_resketches_label(self, scenario_files):
        tmp_path, factor_paths = scenario_files
        records = replay(base_scenario(tmp_path, factor_paths, adaptive=True))
        for r in records:
            if r.kind == "query":
                assert r.ratio is not None and r.ratio >= 1.0 - 1e-9

    def test_spline_solver(self, scenario_files):
        tmp_path, factor_paths = scenario_files
        sc = base_scenario(
            tmp_path, factor_paths, solver="spline",
            spline_l=str(tmp_path / "L.kmat"), lam=1.0,
            cbase="osnap", tbase="tensorsrht", cfactor=2.0,
        )
        records = replay(sc)
        for r in records:
            if r.kind == "query":
                assert r.ratio is not None and r.ratio >= 1.0 - 1e-9

    def test_spline_matrix_parsed_once(self, scenario_files, monkeypatch):
        tmp_path, factor_paths = scenario_files
        L_path = str(tmp_path / "L.kmat")
        parsed = []

        def counting_load(path):
            parsed.append(str(path))
            return load_matrix(path)

        monkeypatch.setattr(bench, "load_matrix", counting_load)
        replay(base_scenario(
            tmp_path, factor_paths, solver="spline", spline_l=L_path, lam=1.0,
            stream=None, cfactor=2.0,
        ))
        assert parsed.count(L_path) == 1

    @staticmethod
    def _state_scenario(tmp_path, factor_paths, solver, **kw):
        """Two queries in each of three states (two for low-rank): after
        set-up, after a factor update, after a label update."""
        events = ["Q", "Q", "U 1 B.kmat", "Q", "Q"]
        if solver != "lowrank":
            events += ["B delta.spvec", "Q", "Q"]
        (tmp_path / "states.txt").write_text("\n".join(events) + "\n")
        args = dict(
            solver=solver, rank=2, stream=str(tmp_path / "states.txt"),
            label=None if solver == "lowrank" else str(tmp_path / "b.spvec"),
            spline_l=str(tmp_path / "L.kmat"), lam=0.5, cfactor=2.0,
        )
        args.update(kw)
        return base_scenario(tmp_path, factor_paths, **args), events

    @pytest.mark.parametrize("solver", ["regression", "spline", "lowrank", "baseline"])
    def test_oracle_reduction_built_once_per_state(self, scenario_files, monkeypatch, solver):
        tmp_path, factor_paths = scenario_files
        calls = []
        reduce = bench.kron_reduction
        monkeypatch.setattr(
            bench, "kron_reduction", lambda *a: calls.append(len(a)) or reduce(*a)
        )
        sc, events = self._state_scenario(tmp_path, factor_paths, solver)
        records = replay(sc)
        states = 1 + sum(e[0] in "UB" for e in events)
        setup = 1 if solver == "spline" else 0  # the spline's statistical dimension
        assert sum(r.kind == "query" for r in records) == 2 * states
        assert len(calls) - setup == states
        # low-rank scoring reduces the factors alone
        assert set(calls[setup:]) == ({1} if solver == "lowrank" else {2})

    def test_lowrank_with_label_reduces_factors_alone(self, scenario_files, monkeypatch):
        tmp_path, factor_paths = scenario_files
        calls = []
        reduce = bench.kron_reduction
        monkeypatch.setattr(
            bench, "kron_reduction", lambda *a: calls.append(len(a)) or reduce(*a)
        )
        sc, _ = self._state_scenario(
            tmp_path, factor_paths, "lowrank", label=str(tmp_path / "b.spvec"),
            stream=str(tmp_path / "stream.txt"),  # Q U Q B Q: three states
        )
        records = replay(sc)
        assert calls == [1, 1, 1]
        queries = [r for r in records if r.kind == "query"]
        # the label event leaves the low-rank optimum as it was
        assert queries[1].oracle_cost == queries[2].oracle_cost

    @pytest.mark.parametrize("oracle", [True, False])
    @pytest.mark.parametrize("solver", ["regression", "spline", "lowrank", "baseline"])
    def test_records_match_per_query_rescoring(self, scenario_files, monkeypatch, solver, oracle):
        tmp_path, factor_paths = scenario_files
        sc, _ = self._state_scenario(
            tmp_path, factor_paths, solver, oracle=oracle, seeds=2
        )

        def scored(records):
            return [(r.event, r.kind, r.cost, r.oracle_cost, r.ratio) for r in records]

        kept = scored(replay(sc))
        query = bench._Run.do_query

        def rescoring_query(run, event):
            run._scoring = None  # score this query's state from scratch
            query(run, event)

        monkeypatch.setattr(bench._Run, "do_query", rescoring_query)
        assert kept == scored(replay(sc))
        assert sum(k == "query" for _, k, *_ in kept) > 2

    @pytest.mark.parametrize("solver", ["regression", "spline", "lowrank", "baseline"])
    def test_solver_runs_once_per_query(self, scenario_files, monkeypatch, solver):
        tmp_path, factor_paths = scenario_files
        calls = []
        name = {"regression": "regression_query", "spline": "spline_query",
                "lowrank": "lowrank_query"}.get(solver)
        if name is None:
            query = bench.LeverageBaseline.query
            monkeypatch.setattr(
                bench.LeverageBaseline, "query",
                lambda self: calls.append(1) or query(self),
            )
        else:
            query = getattr(bench, name)
            monkeypatch.setattr(
                bench, name, lambda *a: calls.append(1) or query(*a)
            )
        sc, events = self._state_scenario(tmp_path, factor_paths, solver, seeds=2)
        replay(sc)
        assert len(calls) == 2 * events.count("Q")

    def test_consecutive_baseline_queries_share_the_optimum(self, scenario_files):
        tmp_path, factor_paths = scenario_files
        sc, _ = self._state_scenario(tmp_path, factor_paths, "baseline")
        queries = [r for r in replay(sc) if r.kind == "query"]
        for first, second in zip(queries[0::2], queries[1::2]):
            assert first.cost != second.cost  # each query draws fresh rows
            assert first.oracle_cost == second.oracle_cost
            assert second.ratio == second.cost / second.oracle_cost

    def test_lowrank_solver(self, scenario_files):
        tmp_path, factor_paths = scenario_files
        sc = base_scenario(
            tmp_path, factor_paths, solver="lowrank", rank=2, label=None,
            stream=None, cfactor=2.0,
        )
        records = replay(sc)
        assert records[0].kind == "init"

    def test_baseline_solver(self, scenario_files):
        tmp_path, factor_paths = scenario_files
        sc = base_scenario(tmp_path, factor_paths, solver="baseline", cfactor=3.0)
        records = replay(sc)
        for r in records:
            if r.kind == "update":
                assert r.nodes_recomputed == 0
            if r.kind == "query":
                assert r.ratio is not None

    def test_missing_file_rejected(self, scenario_files):
        tmp_path, factor_paths = scenario_files
        sc = base_scenario(tmp_path, factor_paths, label=str(tmp_path / "no.spvec"))
        with pytest.raises(FileNotFoundError):
            replay(sc)

    def test_solver_argument_validation(self, scenario_files):
        tmp_path, factor_paths = scenario_files
        with pytest.raises(ValueError):
            replay(base_scenario(tmp_path, factor_paths, solver="magic"))
        with pytest.raises(ValueError):
            replay(base_scenario(tmp_path, factor_paths, solver="lowrank"))

    def test_aggregated_ratio_statistics(self, scenario_files):
        # over many seeds, nearly every query should land within 1 + eps
        tmp_path, factor_paths = scenario_files
        (tmp_path / "uq.txt").write_text("U 1 B.kmat\nQ\n")
        sc = base_scenario(
            tmp_path, factor_paths, stream=str(tmp_path / "uq.txt"),
            cfactor=0.1, seeds=20,
        )
        records = replay(sc)
        ratios = [r.ratio for r in records if r.kind == "query"]
        assert len(ratios) == 20
        hits = sum(r is not None and r <= 1.5 for r in ratios)
        assert hits >= 18

    def test_snapshot_resume(self, scenario_files):
        tmp_path, factor_paths = scenario_files
        snap = tmp_path / "tree.kttr"
        sc = base_scenario(tmp_path, factor_paths, save_tree=str(snap))
        first = replay(sc)
        resumed = replay(
            base_scenario(
                tmp_path, factor_paths, factors=[], resume_tree=str(snap),
                stream=None,
            )
        )
        assert resumed[0].kind == "init"
        tree = TensorTree.load(snap)
        assert tree.q == 2

    def test_snapshot_resume_rejects_many_seeds(self, scenario_files):
        tmp_path, factor_paths = scenario_files
        snap = tmp_path / "tree.kttr"
        replay(base_scenario(tmp_path, factor_paths, stream=None, save_tree=str(snap)))
        with pytest.raises(ValueError, match="seeds"):
            replay(base_scenario(
                tmp_path, factor_paths, factors=[], resume_tree=str(snap), seeds=2,
            ))

    def test_adaptive_resume_of_static_snapshot_rejected(self, scenario_files):
        tmp_path, factor_paths = scenario_files
        snap = tmp_path / "tree.kttr"
        replay(base_scenario(tmp_path, factor_paths, stream=None, save_tree=str(snap)))
        # no events: the mismatch must surface when the run is set up
        with pytest.raises(ConfigurationError):
            replay(base_scenario(
                tmp_path, factor_paths, factors=[], resume_tree=str(snap),
                adaptive=True, stream=None,
            ))

    def test_snapshot_resume_rejects_factors(self, scenario_files):
        tmp_path, factor_paths = scenario_files
        snap = tmp_path / "tree.kttr"
        replay(base_scenario(tmp_path, factor_paths, stream=None, save_tree=str(snap)))
        with pytest.raises(ValueError, match="--factors"):
            replay(base_scenario(
                tmp_path, factor_paths[:1], resume_tree=str(snap), stream=None,
            ))

    def test_snapshot_resume_rejects_baseline(self, scenario_files):
        tmp_path, factor_paths = scenario_files
        snap = tmp_path / "tree.kttr"
        replay(base_scenario(tmp_path, factor_paths, stream=None, save_tree=str(snap)))
        with pytest.raises(ValueError, match="baseline"):
            replay(base_scenario(
                tmp_path, factor_paths, factors=[], resume_tree=str(snap),
                solver="baseline", stream=None,
            ))

    @pytest.mark.parametrize(
        "families", [{"cbase": "srht"}, {"tbase": "tensorsrht"}]
    )
    def test_snapshot_resume_rejects_other_families(self, scenario_files, families):
        tmp_path, factor_paths = scenario_files
        snap = tmp_path / "tree.kttr"
        replay(base_scenario(tmp_path, factor_paths, stream=None, save_tree=str(snap)))
        with pytest.raises(ConfigurationError, match="snapshot"):
            replay(base_scenario(
                tmp_path, factor_paths, factors=[], resume_tree=str(snap),
                stream=None, **families,
            ))


class TestTreeSketchDim:
    """The m a replay builds its tree with, at the replay benchmark's shape:
    SRHT/TensorSRHT, q = 2, 64 x 3 factors (d = 9), eps 0.5, delta 0.1, and
    per solver the c factor that benchmark runs it at."""

    FACTORS = [np.random.default_rng(64).standard_normal((64, 3)) for _ in range(2)]
    C_FACTOR = {"regression": 0.05, "spline": 0.25, "lowrank": 1.0}

    def sketch_dim(self, solver, spline=None, **fields):
        fields = {"cfactor": self.C_FACTOR[solver], **fields}
        sc = Scenario(solver=solver, cbase="srht", tbase="tensorsrht", eps=0.5, delta=0.1,
                      **fields)
        return bench._tree_sketch_dim(sc, self.FACTORS, spline)

    def test_pinned_at_the_replay_shape(self):
        assert self.sketch_dim("regression") == 67
        assert self.sketch_dim("spline", SplineSpec(np.eye(9), 1.0)) == 166
        assert self.sketch_dim("lowrank", rank=2) == 295

    def test_ridge_spline_sizes_by_its_statistical_dimension(self):
        spline = SplineSpec(np.eye(9), 1e4)
        sd = statistical_dimension(kron_reduction(self.FACTORS).R, spline)
        assert 1.0 < sd < 4.0  # well below d = 9
        m = self.sketch_dim("spline", spline)
        assert m == choose_m("srht", "tensorsrht", sd, 2, 0.5, 0.1, 0.25, eps_exponent=1)
        assert 9 < m < 166

    def test_spline_rank_condition_failure_falls_back_to_d(self, caplog):
        # rank(L) = 9 < p = 10 fails the rank condition
        spline = SplineSpec(np.vstack([np.eye(9), np.eye(1, 9)]), 1e4)
        with caplog.at_level(logging.INFO, logger="kronsketch.bench"):
            assert self.sketch_dim("spline", spline) == 166  # the m of sd = d = 9
        assert [r.getMessage() for r in caplog.records] == [
            "spline rank condition failed; falling back to fundamental_dim = d"]

    def test_lowrank_raised_to_the_rank_without_a_log_line(self, caplog):
        with caplog.at_level(logging.INFO, logger="kronsketch.bench"):
            assert self.sketch_dim("lowrank", rank=5, cfactor=1e-3) == 5
        assert caplog.records == []

    def test_clamped_up_to_d_with_an_info_line(self, caplog):
        with caplog.at_level(logging.INFO, logger="kronsketch.bench"):
            assert self.sketch_dim("regression", cfactor=1e-3) == 9
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.INFO, "clamping sketching dimension m=2 up to d=9")]


class TestLargeReplay:
    """Oracle replays at n = 1024^3 (q = 3, 1024 x 2 factors), where the
    n x d product would hold 8.6e9 elements: the scoring and the exact
    oracles must read only the factors and the label's nonzeros."""

    @pytest.mark.parametrize("solver", ["regression", "spline", "lowrank"])
    def test_oracle_ratios_in_small_memory(self, tmp_path, solver):
        rng = np.random.default_rng(1024)
        factor_paths = []
        for i in range(3):
            p = tmp_path / f"A{i}.kmat"
            save_matrix(p, rng.standard_normal((1024, 2)))
            factor_paths.append(str(p))
        save_matrix(tmp_path / "B.kmat", 0.1 * rng.standard_normal((1024, 2)))
        n = 1024**3
        for name, nnz in (("b", 1000), ("delta", 16)):
            save_sparse_vector(tmp_path / f"{name}.spvec", SparseVector(
                n, rng.integers(0, n, nnz), rng.standard_normal(nnz)))
        save_matrix(tmp_path / "L.kmat", np.eye(7, 8) - np.eye(7, 8, 1))
        stream = "Q\nU 2 B.kmat\nQ\n"
        if solver != "lowrank":
            stream += "B delta.spvec\nQ\n"
        (tmp_path / "stream.txt").write_text(stream)
        sc = base_scenario(
            tmp_path, factor_paths, solver=solver, rank=2,
            label=None if solver == "lowrank" else str(tmp_path / "b.spvec"),
            spline_l=str(tmp_path / "L.kmat"), lam=1.0,
        )
        tracemalloc.start()
        try:
            records = replay(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratios = [r.ratio for r in records if r.kind == "query"]
        assert len(ratios) == stream.count("Q")
        for ratio in ratios:
            assert ratio is not None and math.isfinite(ratio)
            assert ratio >= 1.0 - 1e-9
        assert peak < 16 * 2**20


class TestReport:
    def test_single_record_two_lines(self, tmp_path):
        p = tmp_path / "r.csv"
        report([BenchRecord(0, "init", 123, 3)], p)
        lines = p.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER
        assert lines[1] == "0,init,123,3,,,"

    def test_empty_ratio_cells(self, tmp_path):
        p = tmp_path / "r.csv"
        report([BenchRecord(1, "query", 5, 0, 2.0, None, None)], p)
        assert p.read_text().splitlines()[1] == "1,query,5,0,2,,"

    def test_round_trip(self, tmp_path, scenario_files):
        files_tmp, factor_paths = scenario_files
        records = replay(base_scenario(files_tmp, factor_paths))
        p = tmp_path / "r.csv"
        report(records, p)
        back = read_report(p)
        assert back == records

    def test_seventeen_significant_digits(self, tmp_path):
        value = 1.0 / 3.0
        p = tmp_path / "r.csv"
        report([BenchRecord(1, "query", 5, 0, value, value, 1.0)], p)
        cell = p.read_text().splitlines()[1].split(",")[4]
        assert float(cell) == value

    def test_no_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            report([], tmp_path / "r.csv")

    def test_non_utf8_byte_rejected_at_its_offset(self, tmp_path):
        p = tmp_path / "r.csv"
        report([BenchRecord(0, "init", 123, 3)], p)
        good = p.read_bytes()
        p.write_bytes(good + b"1,query,\xff,0,,,\n")
        with pytest.raises(ParseError, match="not UTF-8") as excinfo:
            read_report(p)
        assert excinfo.value.offset == len(good) + 8

    @pytest.mark.parametrize("row", ["x,init,1,0,,,", "1,query,5,0,two,,", "1,init,5,0"])
    def test_malformed_row_rejected_at_its_offset(self, tmp_path, row):
        p = tmp_path / "r.csv"
        report([BenchRecord(0, "init", 123, 3)], p)
        good = p.read_bytes()
        p.write_text(good.decode() + row + "\n2,init,1,0,,,\n")
        with pytest.raises(ParseError, match="malformed CSV row") as excinfo:
            read_report(p)
        assert excinfo.value.offset == len(good)

    def test_ratio_invariant_enforced(self):
        with pytest.raises(ValueError):
            BenchRecord(1, "query", 5, 0, 1.0, 2.0, 0.5)


class TestCli:
    def test_unset_flags_take_scenario_defaults(self):
        args = _build_parser().parse_args(["--factors", "a.kmat"])
        assert Scenario(**vars(args)) == Scenario(factors=["a.kmat"])

    def test_end_to_end(self, scenario_files, tmp_path):
        files_tmp, factor_paths = scenario_files
        out = tmp_path / "out.csv"
        code = main([
            "--factors", *factor_paths,
            "--label", str(files_tmp / "b.spvec"),
            "--solver", "regression",
            "--cbase", "countsketch",
            "--tbase", "tensorsketch",
            "--eps", "0.5",
            "--delta", "0.1",
            "--cfactor", "0.5",
            "--seed", "11",
            "--oracle",
            "--stream", str(files_tmp / "stream.txt"),
            "--out", str(out),
        ])
        assert code == 0
        records = read_report(out)
        assert records[0].kind == "init"
        assert sum(r.kind == "query" for r in records) == 3

    def test_stdout_mode(self, scenario_files, capsys):
        files_tmp, factor_paths = scenario_files
        main([
            "--factors", *factor_paths,
            "--label", str(files_tmp / "b.spvec"),
            "--cfactor", "0.5",
        ])
        out = capsys.readouterr().out.splitlines()
        assert out[0] == CSV_HEADER

    def test_stdout_matches_out_file(self, scenario_files, tmp_path, capsys):
        files_tmp, factor_paths = scenario_files
        args = [
            "--factors", *factor_paths,
            "--label", str(files_tmp / "b.spvec"),
            "--stream", str(files_tmp / "stream.txt"),
            "--cfactor", "0.5",
            "--oracle",
        ]
        main(args)
        printed = capsys.readouterr().out.splitlines()
        main(args + ["--out", str(tmp_path / "r.csv")])
        written = (tmp_path / "r.csv").read_text().splitlines()

        def without_wall(lines):
            return [line.split(",")[:2] + line.split(",")[3:] for line in lines]

        assert len(printed) == len(written) > 1
        assert without_wall(printed) == without_wall(written)

    def test_ridge_spline_with_large_lambda(self, scenario_files, tmp_path):
        # L = I makes the statistical dimension fall below 1 as lam grows
        files_tmp, factor_paths = scenario_files
        save_matrix(files_tmp / "I.kmat", np.eye(4))
        (files_tmp / "q.txt").write_text("Q\n")
        out = tmp_path / "ridge.csv"
        main([
            "--factors", *factor_paths,
            "--label", str(files_tmp / "b.spvec"),
            "--solver", "spline",
            "--spline-L", str(files_tmp / "I.kmat"),
            "--lambda", "1e6",
            "--cbase", "osnap",
            "--tbase", "tensorsrht",
            "--stream", str(files_tmp / "q.txt"),
            "--oracle",
            "--out", str(out),
        ])
        (query,) = [r for r in read_report(out) if r.kind == "query"]
        assert query.ratio >= 1.0

    def test_seeds_flag(self, scenario_files, tmp_path):
        files_tmp, factor_paths = scenario_files
        out = tmp_path / "agg.csv"
        main([
            "--factors", *factor_paths,
            "--label", str(files_tmp / "b.spvec"),
            "--stream", str(files_tmp / "stream.txt"),
            "--cfactor", "0.5",
            "--seeds", "2",
            "--out", str(out),
        ])
        records = read_report(out)
        assert len(records) == 2 * 6
        assert sum(r.kind == "init" for r in records) == 2
