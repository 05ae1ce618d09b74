"""Graph/schedule JSON and trajectory CSV round trips."""

import dataclasses
import json
import math
import re
import warnings
from fractions import Fraction

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
        for frm, to in [(1.0, 2), (1, 2.0), (1.0, 2.0)]:
            p.write_text(json.dumps({"n": 2.0, "d": 1.0, "directed": True,
                                     "edges": [{"from": frm, "to": to, "weight": [[1.0]]}]}))
            g = load_graph(p)
            assert (g.n, g.d, list(edge_weights(g))) == (2, 1, [(2, 1)])

    @pytest.mark.parametrize("directed", ["false", "true", 0, 1, None, [True]])
    def test_non_boolean_directed_rejected(self, tmp_path, directed):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 2, "d": 1, "directed": directed,
                                 "edges": [{"from": 1, "to": 2, "weight": [[1.0]]}]}))
        with pytest.raises(FileFormatError, match="directed must be true or false"):
            load_graph(p)

    @pytest.mark.parametrize("entry", ["-5.0", True, None, [1.0], "0.1", False])
    def test_non_number_weight_entry_rejected(self, tmp_path, entry):
        # np.array(..., dtype=float) alone would read "0.1" and true as numbers
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 2, "d": 2, "directed": True,
                                 "edges": [{"from": 1, "to": 2,
                                            "weight": [[1.0, 0.0], [0.0, entry]]}]}))
        with pytest.raises(FileFormatError,
                           match=f"weight entry must be a number, got {re.escape(repr(entry))}$"):
            load_graph(p)

    @pytest.mark.parametrize("directed", [True, False])
    def test_repeated_edge_rejected(self, tmp_path, directed):
        # keeping the last copy would flip the edge's sign without a word;
        # ids 1.0 and 2.0 name the same edge as 1 and 2
        p = tmp_path / "g.json"
        for frm, to in [(1, 2), (1.0, 2.0)]:
            p.write_text(json.dumps({"n": 2, "d": 1, "directed": directed, "edges": [
                {"from": 1, "to": 2, "weight": [[-1.0]]},
                {"from": frm, "to": to, "weight": [[5.0]]},
            ]}))
            with pytest.raises(FileFormatError, match="edge 1->2 is listed more than once$"):
                load_graph(p)

    def test_wrong_weight_shape(self, tmp_path):
        # the message names the ids as the file gives them
        p = tmp_path / "bad.json"
        for frm, weight in [
            (1, [[1.0]]), (1, []), (1, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            (1, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), (1.0, [[1.0]]),
        ]:
            p.write_text(json.dumps({
                "n": 2, "d": 3, "directed": True,
                "edges": [{"from": 2, "to": 1, "weight": np.eye(3).tolist()},
                          {"from": frm, "to": 2.0, "weight": weight}],
            }))
            with pytest.raises(FileFormatError, match=f"edge {frm}->2.0 weight is not 3x3$"):
                load_graph(p)

    def test_ragged_weight_rows(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"n": 2, "d": 2, "directed": True, "edges": [
            {"from": 1, "to": 2, "weight": [[1.0, 0.0], [0.0]]}]}))
        with pytest.raises(FileFormatError,
                           match=r"malformed graph file .*: setting an array element with a sequence"):
            load_graph(p)

    @pytest.mark.parametrize("swap", [False, True])
    def test_first_fault_in_file_order(self, tmp_path, swap):
        """The type, shape and id checks of all edges run in one pass, but
        the fault reported is the first in file order."""
        edges = [{"from": 1, "to": 2, "weight": [[1.0, 0.0]]},
                 {"from": 2, "to": 1, "weight": [[1.0, 0.0], [0.0, "0.1"]]},
                 {"from": 1.5, "to": 1, "weight": [[1.0, 0.0], [0.0, 1.0]]}]
        if swap:
            edges = edges[::-1]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"n": 2, "d": 2, "directed": True, "edges": edges}))
        message = "from must be an integer, got 1.5" if swap else "edge 1->2 weight is not 2x2"
        with pytest.raises(FileFormatError, match=f"{re.escape(message)}$"):
            load_graph(p)

    def test_entries_exact_and_in_file_order(self, tmp_path, rng):
        """Loading keeps every entry bit for bit, and the file's edge order."""
        g, _ = random_directed_valid(rng, 6, 3)
        p = tmp_path / "g.json"
        save_graph(g, p)
        data = json.loads(p.read_text())
        back = load_graph(p)
        assert list(edge_weights(back)) == [(e["to"], e["from"]) for e in data["edges"]]
        for w, e in zip(back.entries, data["edges"]):
            assert w.tobytes() == np.array(e["weight"], dtype=float).tobytes()


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

    @pytest.mark.parametrize("dt", [0.1, []])
    def test_empty_pattern_rejected(self, tmp_path, dt):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"alpha": 0.1, "pattern": [], "dt": dt}))
        with pytest.raises(FileFormatError, match="pattern is empty"):
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
        one = dataclasses.replace(traj, times=traj.times[:1], states=traj.states[:1])
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
    return np.array(values + _exact_ties() + _near_ties())


def _exact_ties():
    """Exact 17th-digit ties (2D + 1)/2 10^-k with 10^16 <= D < 10^17: the
    least, a middle and the greatest D of each k = 0..27 whose tie is a
    double.  With 2D + 1 = m 5^k, m odd, the tie is m 2^-(k + 1), a double
    for m < 2^53, so k = 0 has none; nor has any k > 24, where 5^k > 2 10^17."""
    ties = []
    for k in range(28):
        low = -(-(2 * 10**16 + 1) // 5**k) | 1
        high = (2 * 10**17 - 1) // 5**k
        high -= high % 2 == 0
        for m in sorted({low, (low + high) // 4 * 2 + 1, high}):
            if low <= m <= high and m < 2**53:
                ties.append(m / 2.0 ** (k + 1))
    return ties


def _near_ties():
    """Values |x| with |x| 10^k = N + 1/2 + r 2^-s for k = 23..27, where 10^k
    is not a double, 0 < |r| <= 40 and |r| < 2^(s - 50): within 2^-50 of a
    17th-digit tie, inside the guard.  |x| = m 2^-(s + k) with
    m 5^k = 2^(s - 1) + r modulo 2^s, for the m that are 53-bit."""
    values = []
    for k in range(23, 28):
        for s in range(45, 75):
            inverse = pow(5**k, -1, 2**s)
            for r in (r for r in range(-40, 41) if 0 < abs(r) < 2 ** (s - 50)):
                m = (2 ** (s - 1) + r) * inverse % 2**s
                if 2**52 <= m < 2**53 and 10**16 * 2**s <= m * 5**k < 10**17 * 2**s:
                    values.append(math.ldexp(m, -(s + k)))
    return values


def _exact_decade(a):
    """floor(log10 a) of a positive Fraction."""
    x = math.floor(math.log10(a))
    x -= Fraction(10) ** x > a
    x += Fraction(10) ** (x + 1) <= a
    return x


def _falls_back(v):
    """Whether the formatter must give v to '%.17g' (True), may (None: at the
    edge of the guard of a tie where 10^k is not a double), or must not
    (False)."""
    a = Fraction(abs(v)) if math.isfinite(v) else None
    if a is None or not Fraction(1, 10**11) <= a < 10**17:
        return True
    k = 16 - _exact_decade(a)
    frac = a * 10**k % 1
    if frac == Fraction(1, 2):
        return True
    # e is off by at most 41 units of 2^-53 where 10^k is not a double
    if k > 22 and abs(frac - Fraction(1, 2)) <= fileio._GUARD - Fraction(41, 2**53):
        return True
    if k > 22 and abs(frac - Fraction(1, 2)) <= fileio._GUARD + Fraction(41, 2**53):
        return None
    return False


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

    def test_only_the_documented_values_fall_back(self, monkeypatch):
        """Zeros, non-finite values, magnitudes outside [1e-11, 1e17), exact
        ties and, where 10^k is not a double, values inside the guard of a
        tie go through '%.17g', and no other value: checked on a bundled
        fixed run, on random data and on the edge cases, against exact
        rational arithmetic."""
        fallback = []
        columns = fileio._columns

        def counted(texts, width):
            fallback.extend(texts)
            return columns(texts, width)

        monkeypatch.setattr(fileio, "_columns", counted)
        g = bundled_graph("net_a")
        design = design_fixed(g, Decomposition.of(g, BUNDLED_V1["net_a"]), np.array([1.0, 2.0, -1.0]))
        traj = integrate_fixed(g, design, np.random.default_rng(4).uniform(-5, 5, 21),
                               h=1e-3, horizon=0.1)
        rng = np.random.default_rng(5)
        bodies = [
            np.column_stack([traj.times, traj.states, traj.error_norm]),
            (rng.choice([-1.0, 1.0], 3000) * 10.0 ** rng.uniform(-12, 18, 3000)).reshape(-1, 6),
            rng.integers(0, 2**64, 3000, dtype=np.uint64).view(np.float64).reshape(-1, 5),
            _edge_cases()[:, None],
        ]
        for body in bodies:
            fallback.clear()
            assert fileio._format_rows(body) == _percent_g(body)
            values = body.ravel().tolist()
            rule = [_falls_back(v) for v in values]
            assert None not in rule  # so the fallbacks are known exactly
            assert fallback == ["%.17g" % v for v, r in zip(values, rule) if r]
        # of the run's values, t = 0 alone
        assert [_falls_back(v) for v in bodies[0].ravel().tolist()].count(True) == 1

    @pytest.mark.parametrize("units", [-2, 2])
    def test_log10_off_by_units_in_the_last_place(self, monkeypatch, units):
        """An np.log10 that errs by a few units in the last place still gives
        '%.17g': one rounded up past a whole number is taken back by the
        decade table, and one rounded down gives D > 10^17 and falls back."""
        log10 = np.log10

        def off(a):
            out = log10(a)
            for _ in range(abs(units)):
                out = np.nextafter(out, np.copysign(np.inf, units))
            return out

        monkeypatch.setattr(np, "log10", off)
        values = np.concatenate([_edge_cases(), 10.0 ** np.arange(-11, 17)])
        assert fileio._format_rows(values[:, None]) == _percent_g(values[:, None])

    def test_scale_tables_are_exact(self):
        """Per exponent X: the least double not below 10^X, and 10^k,
        k = 16 - X, as the nearest double p, halves that sum to p, the
        first of 26 bits and the second within 2^26 units of p's last
        place, and a rest, 0 for k <= 22, with p + rest = 10^k."""
        xs = range(fileio._X_MIN, fileio._X_MAX + 1)
        for x, least in zip(xs, fileio._DECADES.tolist()):
            assert Fraction(least) >= Fraction(10) ** x > Fraction(np.nextafter(least, 0.0))
        for x, (p, hi, lo), rest in zip(xs, fileio._SCALES.T.tolist(), fileio._REST.tolist()):
            k = 16 - x
            assert p == float(10**k) and hi + lo == p
            assert math.frexp(hi)[0] * 2**26 % 1 == 0
            assert abs(lo) <= 2.0 ** (math.frexp(p)[1] - 53 + 26)
            assert Fraction(p) + Fraction(rest) == 10**k
            assert (rest == 0) == (k <= 22)

    @pytest.mark.parametrize("horizon", [1.0, 0.013])
    def test_writer_bytes_match_the_row_loop(self, tmp_path, horizon):
        g = bundled_graph("net_a")
        design = design_fixed(g, Decomposition.of(g, BUNDLED_V1["net_a"]), np.array([1.0, 2.0, -1.0]))
        traj = integrate_fixed(g, design, np.random.default_rng(4).uniform(-5, 5, 21),
                               h=1e-3, horizon=horizon)
        write_trajectory_csv(traj, tmp_path / "new.csv")
        _row_loop_csv(traj, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
