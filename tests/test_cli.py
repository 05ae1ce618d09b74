"""Exit codes and output files of the command line front end."""

import json

import numpy as np
import pytest

from ntconsensus import bundled_path, cli, simulate
from ntconsensus.cli import main


def _p(name):
    return str(bundled_path(name))


_AUTO = [("check", "--v1", "auto")]
_EVERY = [*_AUTO, ("check", "--v1", "1"), ("design", "--v1", "1", "--theta", "1,2,-1"),
          ("simulate", "--v1", "1", "--theta", "1,2,-1")]


class TestCheck:
    def test_benchmark_passes(self, capsys):
        rc = main(["check", "--graph", _p("net_a.json"), "--v1", "1,2,3,4", "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pathCover"] and out["dominance"]

    def test_weak_variant_fails_and_names_vertices(self, capsys):
        rc = main(["check", "--graph", _p("net_a_weak.json"), "--v1", "1,2,3,4", "--json"])
        assert rc == 1
        out = json.loads(capsys.readouterr().out)
        assert 5 in out["dominanceFailures"] and 6 in out["dominanceFailures"]

    def test_auto_decomposition(self, capsys):
        rc = main(["check", "--graph", _p("net_a.json"), "--v1", "auto", "--json"])
        assert rc == 0
        assert len(json.loads(capsys.readouterr().out)["v1"]) <= 4

    @pytest.mark.parametrize("n, d, weight, error", [
        (2, 2, [[float("nan"), 0.0], [0.0, 1.0]], "NonFiniteError"),
        (2, 2, [[float("inf"), 0.0], [0.0, 1.0]], "NonFiniteError"),
        (2, 0, None, "DimensionMismatchError"),
        (0, 2, None, "DimensionMismatchError"),
    ])
    def test_unanswerable_graph_exit_1(self, tmp_path, capsys, n, d, weight, error):
        edges = [{"from": 1, "to": 2, "weight": weight}] if weight else []
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": n, "d": d, "directed": True, "edges": edges}))
        assert main(["check", "--graph", str(p), "--v1", "auto"]) == 1
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("size, commands, error, names", [
        # the first n-sized array of --v1 auto, a directed graph's in/out gaps
        # or an undirected graph's V1 mask, cannot be allocated
        pytest.param('"n": 1000000000000000, "d": 3, "directed": true', _AUTO,
                     "MemoryError: Unable to allocate", "shape (1000000000000000, 3, 3)",
                     id="True-shape (1000000000000000, 3, 3)"),
        pytest.param('"n": 1000000000000000, "d": 3, "directed": false', _AUTO,
                     "MemoryError: Unable to allocate", "shape (1000000000000000,)",
                     id="False-shape (1000000000000000,)"),
        # n d^2 doubles beyond NumPy's array bound: every command refuses the
        # graph before it makes any array
        pytest.param('"n": 100000000000000000000, "d": 3, "directed": true', _EVERY,
                     "DimensionMismatchError: n = 100000000000000000000, d = 3: ",
                     " 7200000000000000000000 bytes, which", id="n=1e20"),
        pytest.param('"n": 1e300, "d": 3, "directed": true', _EVERY,
                     f"DimensionMismatchError: n = {int(1e300)}, d = 3: ",
                     f" {int(1e300) * 72} bytes, which", id="n=1e300"),
        pytest.param('"n": 2, "d": 10000000000, "directed": true', _EVERY,
                     "DimensionMismatchError: n = 2, d = 10000000000: ",
                     " 1600000000000000000000 bytes, which", id="d=1e10"),
    ])
    def test_graph_too_large_to_allocate_exit_1(self, tmp_path, capsys, size, commands, error,
                                                names):
        p = tmp_path / "g.json"
        p.write_text("{" + size + ', "edges": []}')
        for command, *args in commands:
            assert main([command, "--graph", str(p), *args]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: " + error) and err.count("\n") == 1
            assert names in err

    @pytest.mark.parametrize("directed", [True, False])
    def test_explicit_v1_on_too_large_graph_exit_1(self, tmp_path, capsys, directed):
        # a decomposition keeps V1 alone, not V2 as a set of 10^15 ids, so
        # the check stops at the first n-sized array, the definite-edge
        # CSR's indptr, which cannot be allocated
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 10**15, "d": 3, "directed": directed, "edges": []}))
        assert main(["check", "--graph", str(p), "--v1", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: MemoryError: Unable to allocate")
        assert "shape (1000000000000001,)" in err and err.count("\n") == 1

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("nope")
        assert main(["check", "--graph", str(bad), "--v1", "auto"]) == 2

    @pytest.mark.parametrize("directed", ["false", 0, None])
    def test_non_boolean_directed_exit_2(self, tmp_path, capsys, directed):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 2, "d": 1, "directed": directed, "edges": []}))
        assert main(["check", "--graph", str(p), "--v1", "auto"]) == 2
        assert "directed must be true or false" in capsys.readouterr().err

    def test_repeated_edge_exit_2(self, tmp_path, capsys):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 2, "d": 1, "directed": True, "edges": [
            {"from": 1, "to": 2, "weight": [[-1.0]]},
            {"from": 1, "to": 2, "weight": [[5.0]]},
        ]}))
        assert main(["check", "--graph", str(p), "--v1", "auto"]) == 2
        assert "edge 1->2 is listed more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("n, d", [(2.7, 2), (2, 1.5)])
    def test_non_integer_size_exit_2(self, tmp_path, capsys, n, d):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": n, "d": d, "directed": True, "edges": []}))
        assert main(["check", "--graph", str(p), "--v1", "auto"]) == 2
        assert "must be an integer" in capsys.readouterr().err


class TestDesign:
    def test_benchmark_numbers(self, capsys, tmp_path):
        rc = main([
            "design", "--graph", _p("net_a.json"), "--v1", "1,2,3,4",
            "--theta", "1,2,-1", "--json", "--out", str(tmp_path),
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["design"]["C"] == pytest.approx(6.9495, abs=1e-3)
        assert out["design"]["delta"] == pytest.approx(7.0495, abs=1e-3)
        assert out["spectral"]["minRealPart"] == pytest.approx(0.9334, abs=1e-3)
        assert out["specOk"] and out["nullOk"]
        saved = json.loads((tmp_path / "design.json").read_text())
        assert saved["delta"] == pytest.approx(out["design"]["delta"])
        assert (tmp_path / "spectral.json").exists()

    def test_zero_theta_exit_1(self, capsys):
        rc = main([
            "design", "--graph", _p("net_a.json"), "--v1", "1,2,3,4",
            "--theta", "0,0,0",
        ])
        assert rc == 1

    def test_non_finite_theta_exit_1(self, capsys):
        rc = main([
            "design", "--graph", _p("net_a.json"), "--v1", "1,2,3,4",
            "--theta", "nan,1,1", "--json",
        ])
        assert rc == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command, tail", [("design", ["--json"]), ("simulate", ["--T", "0.01"])],
                             ids=["design", "simulate"])
    def test_non_positive_margin_exit_1(self, capsys, tmp_path, command, tail):
        # with --margin -0.5, delta = C - 0.5 would break delta > C
        rc = main([command, "--graph", _p("net_a.json"), "--v1", "1,2,3,4", "--theta", "1,2,-1",
                   "--margin", "-0.5", "--out", str(tmp_path), *tail])
        assert rc == 1
        assert "margin must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1,2,3", "-1e0,2,3", "-.5,2,3"])
    def test_theta_with_a_leading_minus(self, capsys, value):
        # a separate value and one after '=' print identical JSON
        runs = []
        for spelling in (["--theta", value], [f"--theta={value}"]):
            rc = main(["design", "--graph", _p("net_a.json"), "--v1", "1,2,3,4", *spelling,
                       "--json"])
            runs.append((rc, capsys.readouterr()))
        assert runs[0] == runs[1]
        rc, captured = runs[0]
        assert rc == 0
        assert json.loads(captured.out)["design"]["theta"][0] < 0

    def test_delta_with_a_leading_minus(self, capsys):
        # a negative coefficient is a domain error under either spelling
        runs = []
        for spelling in (["--delta", "-8e0"], ["--delta=-8e0"]):
            rc = main(["design", "--graph", _p("net_a.json"), "--v1", "1,2,3,4",
                       "--theta", "1,2,-1", *spelling])
            runs.append((rc, capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 1 and "DegenerateCouplingError" in runs[0][1].err

    def test_other_options_keep_their_parse(self, capsys):
        # only --theta and --delta take a separate value with a minus sign
        with pytest.raises(SystemExit):
            main(["simulate", "--graph", _p("net_a.json"), "--theta", "1,2,-1",
                  "--h", "-1e-3"])
        assert "--h: expected one argument" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["design", "--graph", _p("net_a.json"), "--theta", "--json"])
        assert "--theta: expected one argument" in capsys.readouterr().err

    def test_text_output(self, capsys):
        rc = main(["design", "--graph", _p("net_a.json"), "--v1", "1,2,3,4", "--theta", "1,2,-1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "C = 6.9495  delta = 7.0495"
        assert lines[1].startswith("x0 = [ 1.2837  2.5674 -1.2837]")
        assert lines[2].startswith("min real part = 0.9334  specOk = True  nullOk = True")

    @pytest.mark.parametrize("option, value, message", [
        ("--v1", "1,two,3", "cannot parse V1 list '1,two,3'"),
        ("--theta", "1,x,3", "cannot parse theta '1,x,3'"),
    ])
    def test_unparsable_list_exit_2(self, capsys, option, value, message):
        argv = ["design", "--graph", _p("net_a.json"), "--v1", "1,2,3,4", "--theta", "1,2,-1"]
        argv[argv.index(option) + 1] = value
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_weak_variant_with_pinned_delta_not_ok(self, capsys):
        rc = main([
            "design", "--graph", _p("net_a_weak.json"), "--v1", "1,2,3,4",
            "--theta", "1,2,-1", "--delta", "7.0495", "--json",
        ])
        assert rc == 1
        assert not json.loads(capsys.readouterr().out)["specOk"]


    @pytest.mark.parametrize("count, message", [
        (2, "weight overflows when symmetrized"),
        (3, "weight has NaN or infinite entries"),
    ])
    def test_overflowing_block_sum_exit_1(self, capsys, tmp_path, count, message):
        # -8e307 I on each in-edge of vertex 1: two sum past the symmetrizable
        # range, three to inf (with NumPy's overflow warning, ignored here);
        # --delta waives the assumption check
        big = [[-8e307, 0.0], [0.0, -8e307]]
        edges = [{"from": j, "to": 1, "weight": big} for j in range(2, 2 + count)]
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 1 + count, "d": 2, "directed": True, "edges": edges}))
        with np.errstate(over="ignore"):
            rc = main(["design", "--graph", str(p), "--v1", "1", "--theta", "1,1", "--delta", "1"])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: NonFiniteError: {message}\n")

    def test_overflowing_coupling_exit_1(self, capsys):
        # delta = C + 1e308 is finite, but delta B_i overflows to inf in the
        # Laplacian (with NumPy's overflow warning, ignored here), and the
        # eigensolver then fails: the one NumericalFailureError a CLI run reaches
        with np.errstate(over="ignore"):
            rc = main(["design", "--graph", _p("net_a.json"), "--v1", "1,2,3,4",
                       "--theta", "1,2,-1", "--margin", "1e308"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: NumericalFailureError: eigensolver failed: ")
        assert err.count("\n") == 1

    def test_bundled_net_c_v1_fails_on_purpose(self, capsys):
        # (1, 2, 3) leaves vertices 4 and 7 without in-degree dominance; only
        # the switching run's pinned delta designs net_c with it
        graph = ["--graph", _p("net_c.json")]
        assert main(["design", *graph, "--v1", "1,2,3", "--theta", "1,2,-1"]) == 1
        assert "decomposition fails for vertices [4, 7]" in capsys.readouterr().err
        assert main(["check", *graph, "--v1", "auto"]) == 0
        assert "V1 = [1, 2, 3, 4, 7]" in capsys.readouterr().out
        # the V1 that passes holds vertex 4, which has no negative in-edge and
        # so no coupling block: no V1 designs net_c by the margin rule
        assert main(["design", *graph, "--v1", "auto", "--theta", "1,2,-1"]) == 1
        assert "V1 vertex 4 lacks" in capsys.readouterr().err


class TestParserReuse:
    ARGS = ["design", "--graph", _p("net_a.json"), "--v1", "1,2,3,4", "--theta", "1,2,-1",
            "--json"]

    def test_delta_does_not_leak_into_the_next_call(self, capsys):
        assert main(self.ARGS + ["--delta", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["design"]["delta"] == 5.0
        assert main(self.ARGS) == 0
        design = json.loads(capsys.readouterr().out)["design"]
        assert design["delta"] == design["C"] + 0.1

    def test_rejected_command_line_then_valid_call(self, capsys):
        with pytest.raises(SystemExit):
            main(["design", "--graph", _p("net_a.json"), "--no-such-flag"])
        with pytest.raises(SystemExit):
            main(self.ARGS[:-3])  # --theta is required
        assert main(self.ARGS) == 0
        assert json.loads(capsys.readouterr().out)["specOk"]

    def test_command_rebound_after_first_call_runs(self, monkeypatch, capsys):
        assert main(self.ARGS) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_design", lambda args: seen.append(args.graph) or 7)
        assert main(self.ARGS) == 7
        assert seen == [_p("net_a.json")]


class TestSimulate:
    def test_fixed_run_writes_outputs(self, capsys, tmp_path):
        rc = main([
            "simulate", "--graph", _p("net_a.json"), "--v1", "1,2,3,4",
            "--theta", "1,2,-1", "--h", "0.001", "--T", "20", "--seed", "42",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["converged"]
        csv_lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert csv_lines[0] == "t," + ",".join(
            f"x{i}_{k}" for i in range(1, 8) for k in range(1, 4)
        ) + ",errnorm"
        assert len(csv_lines) == 20002  # header + initial sample + 20000 steps

    def test_seed_determinism(self, capsys, tmp_path):
        args = [
            "simulate", "--graph", _p("net_a.json"), "--v1", "1,2,3,4",
            "--theta", "1,2,-1", "--T", "0.5", "--seed", "7",
        ]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_switching_run(self, capsys, tmp_path):
        rc = main([
            "simulate",
            "--graphs", _p("net_a.json"), _p("net_b.json"), _p("net_c.json"),
            "--v1", "1,2,3,4;2,3;1,2,3",
            "--theta", "1,2,-1",
            "--delta", "7.0495", "--delta", "7.2440", "--delta", "3.1",
            "--schedule", _p("cycle_schedule.json"),
            "--h", "0.001", "--T", "2", "--seed", "42",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert 0.0 < summary["Lambda"] < 1.0
        data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
        assert data[-1, -1] < 0.05 * data[0, -1]

    def test_short_last_interval_exit_1(self, capsys, tmp_path):
        schedule = tmp_path / "s.json"
        schedule.write_text(json.dumps({
            "alpha": 0.02, "pattern": [0, 1, 2], "dt": [0.02, 0.04, 0.002], "repeat": True,
        }))
        rc = main([
            "simulate",
            "--graphs", _p("net_a.json"), _p("net_b.json"), _p("net_c.json"),
            "--v1", "1,2,3,4;2,3;1,2,3",
            "--theta", "1,2,-1",
            "--delta", "7.0495", "--delta", "7.2440", "--delta", "3.1",
            "--schedule", str(schedule),
            "--T", "0.2", "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "DimensionMismatchError" in capsys.readouterr().err

    def test_graphs_of_different_sizes_exit_1(self, capsys, tmp_path):
        small = tmp_path / "small.json"
        small.write_text(json.dumps({"n": 2, "d": 3, "directed": True, "edges": [
            {"from": 2, "to": 1, "weight": (-np.eye(3)).tolist()},
            {"from": 1, "to": 2, "weight": (-np.eye(3)).tolist()},
        ]}))
        schedule = tmp_path / "s.json"
        schedule.write_text(json.dumps({"alpha": 0.02, "pattern": [0, 1], "dt": 0.02}))
        rc = main([
            "simulate", "--graphs", _p("net_a.json"), str(small),
            "--v1", "1,2,3,4;1,2", "--theta", "1,2,-1",
            "--schedule", str(schedule), "--delta", "8", "--T", "0.1",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "DimensionMismatchError: graph 1 has (n, d) = (2, 3)" in err

    @pytest.mark.parametrize("horizon", ["-1", "0"])
    def test_switching_horizon_not_above_step_exit_1(self, capsys, tmp_path, horizon):
        rc = main([
            "simulate",
            "--graphs", _p("net_a.json"), _p("net_b.json"), _p("net_c.json"),
            "--v1", "1,2,3,4;2,3;1,2,3",
            "--theta", "1,2,-1",
            "--delta", "7.0495", "--delta", "7.2440", "--delta", "3.1",
            "--schedule", _p("cycle_schedule.json"),
            "--T", horizon, "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "need 0 < h <= T" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--h", "nan"), ("--T", "inf")])
    def test_non_finite_step_or_horizon_exit_1(self, capsys, flag, value):
        rc = main([
            "simulate", "--graph", _p("net_a.json"), "--v1", "1,2,3,4",
            "--theta", "1,2,-1", flag, value,
        ])
        assert rc == 1
        assert "NonFiniteError" in capsys.readouterr().err

    def test_unstable_step_exit_1_before_stepping(self, capsys, monkeypatch):
        """h = 0.05 on net_a is outside RK4's stability region: the run
        exits 1 before any step (no span is cut into pieces) and names the
        largest certified step."""
        def no_run(*args, **kwargs):
            raise AssertionError("the run was stepped")

        monkeypatch.setattr(simulate, "_cut", no_run)
        rc = main([
            "simulate", "--graph", _p("net_a.json"), "--v1", "1,2,3,4",
            "--theta", "1,2,-1", "--h", "0.05", "--T", "40",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "NotContractingError" in err and "h=0.03612 are certified stable" in err

    def test_unstable_switching_step_exit_1(self, capsys, monkeypatch, tmp_path):
        """h = 0.05 is unstable on net_a.  On the bundled cycle it is also
        above a quarter of the 0.02 dwell time, which is checked first; on
        the cycle's pattern in 0.25 dwells the instability is named."""
        monkeypatch.setattr(simulate, "_cut", None)
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps({"alpha": 0.25, "pattern": [0, 0, 1, 2, 2], "dt": 0.25,
                                    "repeat": True}))
        for schedule, error in (
            (_p("cycle_schedule.json"), "DimensionMismatchError: step"),
            (str(slow), "NotContractingError: the RK4 step h=0.05 is unstable"),
        ):
            rc = main([
                "simulate",
                "--graphs", _p("net_a.json"), _p("net_b.json"), _p("net_c.json"),
                "--v1", "1,2,3,4;2,3;1,2,3",
                "--theta", "1,2,-1",
                "--delta", "7.0495", "--delta", "7.2440", "--delta", "3.1",
                "--schedule", schedule, "--h", "0.05",
            ])
            assert rc == 1
            assert error in capsys.readouterr().err

    @pytest.mark.parametrize("tail, error", [
        (["--margin", "1e150"], "NotContractingError: the RK4 step h=0.001 is unstable: its step"
                                " map has spectral radius inf > 1; steps up to h=3.269e-151"),
        (["--delta", "1e200"], "NotContractingError: the RK4 step h=0.001 is unstable: its step"
                               " map has spectral radius inf > 1; steps up to h=3.269e-201"),
        (["--h", "1e-300", "--T", "1"], "DimensionMismatchError: a run of 1e+300 samples of 21"
                                        " states would take 1.68e+302 bytes"),
    ], ids=["margin", "delta", "step"])
    def test_run_that_cannot_be_stepped_or_laid_out_exit_1(self, capsys, tmp_path, tail, error):
        # an overflowing step map is unstable; T/h samples that no array can
        # hold are named before any plan
        rc = main(["simulate", "--graph", _p("net_a.json"), "--v1", "1,2,3,4", "--theta", "1,2,-1",
                   "--T", "0.5", *tail, "--out", str(tmp_path)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {error}") and err.count("\n") == 1
        assert not (tmp_path / "trajectory.csv").exists()

    def test_switching_run_too_long_to_plan_exit_1(self, capsys, tmp_path):
        rc = main([
            "simulate",
            "--graphs", _p("net_a.json"), _p("net_b.json"), _p("net_c.json"),
            "--v1", "1,2,3,4;2,3;1,2,3",
            "--theta", "1,2,-1",
            "--delta", "7.0495", "--delta", "7.2440", "--delta", "3.1",
            "--schedule", _p("cycle_schedule.json"), "--T", "1e300", "--out", str(tmp_path),
        ])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: DimensionMismatchError: a run of 1e+303 samples of 21 states would take"
            " 1.68e+305 bytes, which cannot be allocated\n"
        )

    def test_negative_seed_exit_2(self, capsys):
        rc = main([
            "simulate", "--graph", _p("net_a.json"), "--v1", "1,2,3,4",
            "--theta", "1,2,-1", "--seed", "-1",
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --seed must be a non-negative integer, got -1\n"
        )

    def test_schedule_on_one_graph_exit_2(self, capsys):
        rc = main([
            "simulate", "--graph", _p("net_a.json"), "--v1", "1,2,3,4",
            "--theta", "1,2,-1", "--T", "0.05", "--schedule", _p("cycle_schedule.json"),
        ])
        assert rc == 2
        assert "--schedule needs a switching run" in capsys.readouterr().err

    def test_schedule_with_one_of_graphs_exit_2(self, capsys):
        rc = main([
            "simulate", "--graphs", _p("net_a.json"), "--v1", "1,2,3,4",
            "--theta", "1,2,-1", "--T", "0.05", "--schedule", _p("cycle_schedule.json"),
        ])
        assert rc == 2
        assert "a switching run needs two or more graphs" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        (["--v1", "1,2,3,4;2,3;1,2,3;1"], "got 4 V1 lists for 3 graphs"),
        (["--delta", "7", "--delta", "7"], "give one --delta per graph"),
    ])
    def test_per_graph_count_mismatch_exit_2(self, capsys, extra, message):
        rc = main([
            "simulate", "--graphs", _p("net_a.json"), _p("net_b.json"), _p("net_c.json"),
            "--theta", "1,2,-1", "--T", "0.05", "--schedule", _p("cycle_schedule.json"),
            *extra,
        ])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("pattern, entry", [([0, 5, 1], "5"), ([0, -1], "-1"), ([3], "3")])
    def test_pattern_entry_outside_graphs_exit_2_before_design(
        self, capsys, monkeypatch, tmp_path, pattern, entry
    ):
        def no_design(*args, **kwargs):
            raise AssertionError("a design was built")

        monkeypatch.setattr(cli, "design_switching", no_design)
        schedule = tmp_path / "s.json"
        schedule.write_text(json.dumps({"alpha": 0.02, "pattern": pattern, "repeat": True}))
        rc = main([
            "simulate", "--graphs", _p("net_a.json"), _p("net_b.json"), _p("net_c.json"),
            "--v1", "1,2,3,4;2,3;1,2,3", "--theta", "1,2,-1", "--T", "0.05",
            "--schedule", str(schedule),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: schedule file {schedule}: pattern entry {entry} is not an index into"
            " --graphs (0..2)\n"
        )

    def test_empty_pattern_exit_2(self, capsys, tmp_path):
        schedule = tmp_path / "s.json"
        schedule.write_text(json.dumps({"alpha": 0.02, "pattern": [], "dt": 0.02}))
        rc = main([
            "simulate", "--graphs", _p("net_a.json"), _p("net_b.json"),
            "--v1", "1,2,3,4;2,3", "--theta", "1,2,-1", "--T", "0.05",
            "--schedule", str(schedule),
        ])
        assert rc == 2
        assert capsys.readouterr().err == f"error: schedule file {schedule}: pattern is empty\n"

    def test_switching_without_schedule_exit_2(self):
        rc = main([
            "simulate",
            "--graphs", _p("net_a.json"), _p("net_b.json"),
            "--theta", "1,2,-1",
        ])
        assert rc == 2


@pytest.mark.parametrize("command", [
    ["check"], ["design", "--theta", "1,2,-1"], ["simulate", "--theta", "1,2,-1"],
])
def test_no_graph_exit_2(capsys, command):
    assert main(command + ["--v1", "auto"]) == 2
    assert "no graph file given" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["design"], ["simulate", "--T", "0.01"]])
def test_second_delta_on_one_graph_exit_2(capsys, command):
    rc = main(command + [
        "--graph", _p("net_a.json"), "--v1", "1,2,3,4", "--theta", "1,2,3",
        "--delta", "5", "--delta", "9",
    ])
    assert rc == 2
    assert "2 --delta values for one graph" in capsys.readouterr().err
