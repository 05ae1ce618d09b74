"""Graph/schedule JSON and trajectory CSV round trips."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntconsensus import (
    FileFormatError,
    bundled_graph,
    bundled_path,
    design_fixed,
    fileio,
    integrate_fixed,
    load_graph,
    load_schedule,
    read_trajectory_csv,
    save_graph,
    write_trajectory_csv,
)
from ntconsensus.errors import DimensionMismatchError, NonFiniteError
from ntconsensus.networks import BUNDLED_V1, SWITCHING_DWELL
from ntconsensus import Decomposition

from conftest import edge_weights, random_directed_valid, random_undirected_valid


class TestGraphRoundTrip:
    def test_directed_round_trip(self, tmp_path, rng):
        g, _ = random_directed_valid(rng, 5, 3)
        p = tmp_path / "g.json"
        save_graph(g, p)
        back = load_graph(p)
        assert set(edge_weights(back)) == set(edge_weights(g))
        for key, w in edge_weights(g).items():
            assert np.allclose(edge_weights(back)[key], w, atol=1e-15)

    def test_undirected_round_trip_single_listing(self, tmp_path, rng):
        g, _ = random_undirected_valid(rng, 4, 2)
        p = tmp_path / "g.json"
        save_graph(g, p)
        data = json.loads(p.read_text())
        # each unordered pair appears once on disk
        assert len(data["edges"]) == len(edge_weights(g)) // 2
        back = load_graph(p)
        assert set(edge_weights(back)) == set(edge_weights(g))

    def test_malformed_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(FileFormatError):
            load_graph(p)

    def test_missing_fields(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"n": 2, "d": 2}))
        with pytest.raises(FileFormatError):
            load_graph(p)

    @pytest.mark.parametrize("field, value", [
        ("n", 2.7), ("d", 1.5), ("n", "2"), ("d", True), ("to", 1.5), ("from", None),
    ])
    def test_non_integer_size_or_vertex_rejected(self, tmp_path, field, value):
        data = {"n": 2, "d": 1, "directed": True,
                "edges": [{"from": 1, "to": 2, "weight": [[1.0]]}]}
        if field in data:
            data[field] = value
        else:
            data["edges"][0][field] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        with pytest.raises(FileFormatError, match="must be an integer"):
            load_graph(p)

    def test_integral_float_sizes_accepted(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 2.0, "d": 1.0, "directed": True,
                                 "edges": [{"from": 1.0, "to": 2, "weight": [[1.0]]}]}))
        g = load_graph(p)
        assert (g.n, g.d, list(edge_weights(g))) == (2, 1, [(2, 1)])

    @pytest.mark.parametrize("directed", ["false", "true", 0, 1, None, [True]])
    def test_non_boolean_directed_rejected(self, tmp_path, directed):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 2, "d": 1, "directed": directed,
                                 "edges": [{"from": 1, "to": 2, "weight": [[1.0]]}]}))
        with pytest.raises(FileFormatError, match="directed must be true or false"):
            load_graph(p)

    @pytest.mark.parametrize("entry", ["-5.0", True, None, [1.0]])
    def test_non_number_weight_entry_rejected(self, tmp_path, entry):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 2, "d": 2, "directed": True,
                                 "edges": [{"from": 1, "to": 2,
                                            "weight": [[1.0, 0.0], [0.0, entry]]}]}))
        with pytest.raises(FileFormatError, match="weight entry must be a number"):
            load_graph(p)

    @pytest.mark.parametrize("directed", [True, False])
    def test_repeated_edge_rejected(self, tmp_path, directed):
        # keeping the last copy would flip the edge's sign without a word
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 2, "d": 1, "directed": directed, "edges": [
            {"from": 1, "to": 2, "weight": [[-1.0]]},
            {"from": 1, "to": 2, "weight": [[5.0]]},
        ]}))
        with pytest.raises(FileFormatError, match="edge 1->2 is listed more than once"):
            load_graph(p)

    def test_wrong_weight_shape(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "n": 2, "d": 3, "directed": True,
            "edges": [{"from": 1, "to": 2, "weight": [[1.0]]}],
        }))
        with pytest.raises(FileFormatError):
            load_graph(p)


class TestScheduleLoading:
    def test_bundled_cycle(self):
        s = load_schedule(bundled_path("cycle_schedule.json"))
        assert s.alpha == pytest.approx(0.02)
        assert s.graph_ids == (0, 0, 1, 2, 2)
        assert s.repeat

    def test_unknown_bundled_network_rejected(self):
        with pytest.raises(KeyError, match="unknown bundled network 'net_z'"):
            bundled_graph("net_z")

    def test_switching_dwell_is_the_bundled_schedules(self):
        s = load_schedule(bundled_path("cycle_schedule.json"))
        assert s.alpha == SWITCHING_DWELL
        assert all(length == SWITCHING_DWELL for length in s.lengths)

    def test_dt_list(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({
            "alpha": 0.1, "pattern": [0, 1, 0], "dt": [0.1, 0.2, 0.1],
        }))
        s = load_schedule(p)
        assert s._edges()[:-1] == (0.0, 0.1, pytest.approx(0.3))

    def test_dt_list_keeps_the_last_interval(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({
            "alpha": 0.1, "pattern": [0, 1, 2], "dt": [0.1, 0.2, 0.3], "repeat": True,
        }))
        s = load_schedule(p)
        assert s.period == pytest.approx(0.6)
        spans = [(round(a, 10), round(b, 10), gid) for a, b, gid in s.intervals(1.0)]
        assert spans == [
            (0.0, 0.1, 0), (0.1, 0.3, 1), (0.3, 0.6, 2),
            (0.6, 0.7, 0), (0.7, 0.9, 1), (0.9, 1.0, 2),
        ]

    def test_short_last_interval_rejected(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"alpha": 0.1, "pattern": [0, 1, 2], "dt": [0.1, 0.2, 0.01]}))
        with pytest.raises(DimensionMismatchError):
            load_schedule(p)

    @pytest.mark.parametrize("repeat", ["false", "true", 0, 1, None])
    def test_non_boolean_repeat_rejected(self, tmp_path, repeat):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"alpha": 0.1, "pattern": [0, 1], "dt": 0.1, "repeat": repeat}))
        with pytest.raises(FileFormatError, match="repeat must be true or false"):
            load_schedule(p)

    def test_omitted_repeat_is_false(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"alpha": 0.1, "pattern": [0, 1], "dt": 0.1}))
        assert not load_schedule(p).repeat

    def test_fractional_pattern_entry_rejected(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"alpha": 0.1, "pattern": [0, 1.6], "dt": 0.1}))
        with pytest.raises(FileFormatError, match="must be an integer"):
            load_schedule(p)

    @pytest.mark.parametrize("alpha, dt", [
        ("NaN", "0.1"), ("0.1", "Infinity"), ("0.1", "[0.1, NaN, 0.1]"),
    ])
    def test_non_finite_times_rejected(self, tmp_path, alpha, dt):
        p = tmp_path / "s.json"
        p.write_text(f'{{"alpha": {alpha}, "pattern": [0, 1, 0], "dt": {dt}}}')
        with pytest.raises(NonFiniteError):
            load_schedule(p)

    @pytest.mark.parametrize("alpha, dt, name", [
        ("0.02", True, "alpha"),
        (0.02, True, "dt"),
        (0.02, "0.02", "dt"),
        (True, 0.02, "alpha"),
        (None, 0.02, "alpha"),
        (0.02, [0.02, "0.02", 0.02], "dt entry"),
        (0.02, [0.02, 0.02, False], "dt entry"),
    ])
    def test_non_number_times_rejected(self, tmp_path, alpha, dt, name):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"alpha": alpha, "pattern": [0, 1, 0], "dt": dt}))
        with pytest.raises(FileFormatError, match=f"{name} must be a number"):
            load_schedule(p)

    def test_overflowing_integer_rejected(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"alpha": 10**400, "pattern": [0, 1], "dt": 0.1}))
        with pytest.raises(FileFormatError, match="too large"):
            load_schedule(p)
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 2, "d": 1, "directed": True,
                                 "edges": [{"from": 1, "to": 2, "weight": [[10**400]]}]}))
        with pytest.raises(FileFormatError, match="too large"):
            load_graph(g)

    @pytest.mark.parametrize("text", [None, "{not json"])
    def test_unreadable_file_rejected(self, tmp_path, text):
        p = tmp_path / "s.json"
        if text is not None:
            p.write_text(text)
        with pytest.raises(FileFormatError, match="cannot read schedule file"):
            load_schedule(p)

    def test_dt_list_length_mismatch(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"alpha": 0.1, "pattern": [0, 1], "dt": [0.1]}))
        with pytest.raises(FileFormatError):
            load_schedule(p)


class TestTrajectoryCsv:
    def test_round_trip_full_precision(self, tmp_path):
        g = bundled_graph("net_a")
        dec = Decomposition.of(g, BUNDLED_V1["net_a"])
        design = design_fixed(g, dec, np.array([1.0, 2.0, -1.0]))
        rng = np.random.default_rng(0)
        traj = integrate_fixed(g, design, rng.uniform(-5, 5, 21), h=1e-2, horizon=0.1)
        p = tmp_path / "traj.csv"
        write_trajectory_csv(traj, p)
        header = p.read_text().splitlines()[0]
        assert header.startswith("t,x1_1,x1_2,x1_3,x2_1")
        assert header.endswith("x7_3,errnorm")
        data = read_trajectory_csv(p)
        assert np.array_equal(data[:, 0], traj.times)
        assert np.array_equal(data[:, 1:-1], traj.states)
        assert np.array_equal(data[:, -1], traj.error_norm)

    def test_one_sample_reads_as_one_row(self, tmp_path):
        g = bundled_graph("net_a")
        design = design_fixed(g, Decomposition.of(g, BUNDLED_V1["net_a"]), np.array([1.0, 2.0, -1.0]))
        traj = integrate_fixed(g, design, np.ones(21), h=0.01, horizon=0.01)
        one = dataclasses.replace(traj, times=traj.times[:1], states=traj.states[:1],
                                  error_norm=traj.error_norm[:1])
        p = tmp_path / "traj.csv"
        write_trajectory_csv(one, p)
        data = read_trajectory_csv(p)
        assert data.shape == (1, 23)
        assert np.array_equal(data[0], np.concatenate([[0.0], np.ones(21), one.error_norm]))

    @pytest.mark.parametrize("text", ["t,x1_1,errnorm\n", "t,x1_1,errnorm", ""])
    def test_header_only_is_format_error(self, tmp_path, text):
        p = tmp_path / "traj.csv"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FileFormatError, match="no samples"):
                read_trajectory_csv(p)


def _row_loop_csv(traj, path):
    """The writer before vectorization, one '%' per row: the reference."""
    cols = [f"x{i}_{k}" for i in range(1, traj.n + 1) for k in range(1, traj.d + 1)]
    header = ",".join(["t"] + cols + ["errnorm"])
    body = np.column_stack([traj.times, traj.states, traj.error_norm])
    row = ",".join(["%.17g"] * body.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for values in body.tolist():
            fh.write(row % tuple(values))


def _percent_g(body):
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in body.tolist()).encode()


def _edge_cases():
    """Ties at the 17th digit, each power of ten 1e-30..1e30 and its
    neighbours, the ends of the fast range, zeros, subnormals and
    non-finite values."""
    values = [1234567890123456.75, 1234567890123456.25, 0.5, 2.5e-7, 1e16, 1e17,
              99999999999999984.0, 1e-11, 9.9999999999999994e-12, 0.0, -0.0,
              5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
              float("inf"), -float("inf"), float("nan")]
    for j in range(-30, 31):
        p = 10.0 ** j
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), -p]
    return np.array(values)


class TestCsvFormatter:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 6))
    def test_matches_percent_g(self, data, cols):
        rows = data.draw(st.lists(st.lists(st.floats(), min_size=cols, max_size=cols),
                                  min_size=1, max_size=8))
        body = np.array(rows, dtype=float)
        assert fileio._format_rows(body) == _percent_g(body)

    @pytest.mark.parametrize("cols", [1, 4, 7])
    def test_edge_cases(self, cols):
        values = _edge_cases()
        body = values[: values.size // cols * cols].reshape(-1, cols)
        assert fileio._format_rows(body) == _percent_g(body)

    def test_random_magnitudes_and_bit_patterns(self):
        rng = np.random.default_rng(9)
        values = np.concatenate([
            rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64),
            rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-13, 18, 20_000),
            rng.integers(-10**6, 10**6, 20_000) / 1000.0,
        ])
        body = values.reshape(-1, 10)
        assert fileio._format_rows(body) == _percent_g(body)

    def test_without_extended_precision_every_value_falls_back(self, monkeypatch):
        """Where long double is a plain double the tie test rejects every
        value, and the output is still '%.17g'."""
        monkeypatch.setattr(fileio, "_EPS", float(np.finfo(np.float64).eps))
        fallback = []
        columns = fileio._columns

        def counted(texts, width):
            fallback.append(len(texts))
            return columns(texts, width)

        monkeypatch.setattr(fileio, "_columns", counted)
        values = np.concatenate([_edge_cases(), np.random.default_rng(3).uniform(-5, 5, 500)])
        body = values[: values.size // 3 * 3].reshape(-1, 3)
        assert fileio._format_rows(body) == _percent_g(body)
        assert fallback == [body.size]

    @pytest.mark.parametrize("horizon", [1.0, 0.013])
    def test_writer_bytes_match_the_row_loop(self, tmp_path, horizon):
        g = bundled_graph("net_a")
        design = design_fixed(g, Decomposition.of(g, BUNDLED_V1["net_a"]), np.array([1.0, 2.0, -1.0]))
        traj = integrate_fixed(g, design, np.random.default_rng(4).uniform(-5, 5, 21),
                               h=1e-3, horizon=horizon)
        write_trajectory_csv(traj, tmp_path / "new.csv")
        _row_loop_csv(traj, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
