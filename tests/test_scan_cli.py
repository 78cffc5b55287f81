"""Scan configuration, CSV determinism and the command-line interface."""
import hashlib
import importlib.util
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from rydeit import cli as cli_module
from rydeit import collisional
from rydeit import scan as scan_module
from rydeit import validate as validate_module
from rydeit.cli import _parse_grid, main
from rydeit.collisional import ConvergenceError
from rydeit.params import SingularParameterError
from rydeit.scan import (
    ConfigError,
    FIGURES,
    ScanConfig,
    ScanResultRow,
    compute_row,
    run_figure,
    run_scan,
    write_csv,
)


class TestScanConfig:
    def test_preset_resolution(self):
        cfg = ScanConfig(state=61)
        assert cfg.resolved_c6() == 36000.0
        assert cfg.resolved_omega_c() == pytest.approx(3.0 * (50 / 61) ** 1.5)

    def test_explicit_overrides_win(self):
        cfg = ScanConfig(state=50, c6=1234.0, omega_c=2.5)
        assert cfg.resolved_c6() == 1234.0
        assert cfg.resolved_omega_c() == 2.5

    @pytest.mark.parametrize("kw,msg", [
        ({"state": 99}, "unknown state"),
        ({}, "state preset or explicit"),
        ({"state": 50, "omega_p2_count": 0}, "non-empty"),
        ({"state": 50, "omega_p2_start": 0.5, "omega_p2_stop": 0.1}, "increasing"),
        ({"state": 50, "delta3_count": 3}, "delta3_start"),
        ({"state": 50, "delta3_count": -1}, "delta3_count"),
        ({"state": 50, "tol": 0.0}, "tol"),
        ({"state": 50, "tol": math.nan}, "tol must be finite"),
        ({"state": 50, "delta3": math.nan}, "delta3 must be finite"),
        ({"state": 50, "gamma13": math.nan}, "gamma13 must be finite"),
        ({"state": 50, "omega_p2_stop": math.nan}, "omega_p2_stop must be finite"),
        ({"state": 50, "delta2": math.inf}, "delta2 must be finite"),
        ({"c6": math.nan, "omega_c": 3.0}, "c6 must be finite"),
        ({"state": 50, "delta3_count": 3, "delta3_start": 0.0,
          "delta3_stop": -math.inf}, "delta3_stop must be finite"),
        ({"state": 50, "omega_c": -1.0}, "omega_c must be non-negative"),
        ({"state": 50, "gamma13": -0.1}, "gamma13 must be non-negative"),
        ({"state": 50, "eta": -1.0}, "eta must be positive"),
        ({"state": 50, "delta3": "0.5"}, "delta3 must be a number"),
        ({"state": 50, "omega_p2_count": 1.5}, "omega_p2_count must be an integer"),
        ({"state": 50, "delta3_count": 2.0}, "delta3_count must be an integer"),
        ({"state": 50, "omega_p2_count": True}, "omega_p2_count must be an integer"),
        ({"state": 50, "tol": "x"}, "tol must be a number"),
        ({"state": 50, "delta3_count": 3, "delta3_start": "0", "delta3_stop": 1.0},
         "delta3_start must be a number"),
        ({"state": 50, "omega_p2_stop": "1"}, "omega_p2_stop must be a number"),
        ({"state": 50, "delta3": True}, "delta3 must be a number"),
        ({"state": 50, "gamma33": 0.5j}, "gamma33 must be a number"),
        ({"state": 50, "out": 7}, "out must be a path string"),
        ({"state": 50, "out": ["a"]}, "out must be a path string"),
    ])
    def test_validation(self, kw, msg):
        with pytest.raises(ConfigError, match=msg):
            ScanConfig(**kw)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ScanConfig.from_dict({"state": 50, "bogus": 1})

    def test_from_dict_drops_threads_with_warning(self):
        with pytest.warns(FutureWarning, match="'threads' is ignored"):
            cfg = ScanConfig.from_dict({"state": 50, "threads": 2})
        assert cfg == ScanConfig(state=50)

    def test_dict_round_trip(self):
        cfg = ScanConfig(state=56, omega_p2_count=3)
        assert ScanConfig.from_dict(cfg.to_dict()) == cfg

    def test_metadata_reparse_reproduces_run(self):
        cfg = ScanConfig(state=50, omega_p2_stop=0.2, omega_p2_count=3)
        cfg2 = ScanConfig.from_dict(cfg.metadata_dict())
        assert run_scan(cfg2) == run_scan(cfg)


class TestRowOrder:
    """Rows come sorted by (delta3, |omega_p|^2), whatever the grid order."""

    @staticmethod
    def _points(monkeypatch, **kw):
        # the zero-probe column's values reach compute_row as its fourth
        # argument; the order is that of the compute_row calls
        monkeypatch.setattr(scan_module, "compute_row",
                            lambda config, delta3, omega_p2, weak_probe: (delta3, omega_p2))
        return run_scan(ScanConfig(state=50, **kw))

    def test_descending_delta3_grid(self, monkeypatch):
        points = self._points(monkeypatch, delta3_start=1.0, delta3_stop=0.0,
                              delta3_count=3, omega_p2_stop=0.2,
                              omega_p2_count=2)
        assert points == [(0.0, 0.0), (0.0, 0.2), (0.5, 0.0), (0.5, 0.2),
                          (1.0, 0.0), (1.0, 0.2)]

    def test_repeated_grid_values(self, monkeypatch):
        # equal delta3 values interleave: the sort is over whole points,
        # not a delta3 loop around an intensity loop
        points = self._points(monkeypatch, delta3_start=0.5, delta3_stop=0.5,
                              delta3_count=2, omega_p2_stop=0.2,
                              omega_p2_count=2)
        assert points == [(0.5, 0.0), (0.5, 0.0), (0.5, 0.2), (0.5, 0.2)]


class TestCsvDeterminism:
    @staticmethod
    def _emit():
        cfg = ScanConfig(state=50, omega_p2_stop=0.3, omega_p2_count=3)
        buf = io.StringIO()
        write_csv(run_scan(cfg), cfg.metadata_dict(), buf)
        return buf.getvalue()

    def test_header_structure(self):
        text = self._emit()
        lines = text.splitlines()
        meta = json.loads(lines[0].lstrip("# "))
        assert meta["state"] == 50 and "out" not in meta
        assert lines[1].split(",") == ScanResultRow.columns()
        assert len(lines) == 2 + 3

    def test_scan_generates_no_equations(self, monkeypatch):
        """A 26-point intensity scan (one zero-probe and 25 finite-probe
        points) gathers every parameter block from the generator's
        constants and solves its rows' single-atom states as one column:
        with both one-point single-atom solves raising, it writes the same
        bytes."""
        cfg = ScanConfig(state=50, omega_p2_start=0.0, omega_p2_stop=0.5, omega_p2_count=26)

        def emit():
            buf = io.StringIO()
            write_csv(run_scan(cfg), cfg.metadata_dict(), buf)
            return buf.getvalue()

        want = emit()

        def refuse(name):
            def fail(*args, **kwargs):
                raise AssertionError(f"{name} in production")
            return fail

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("rydeit"):
                for name in ("solve_single_system", "steady_state_three_level"):
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, refuse(name))
        assert emit() == want
        assert len(want.splitlines()) == 2 + 26

    def test_cell_formats(self):
        """write_csv's bytes on hand-built rows: a flag holding commas, NaN,
        inf and -0.0 cells, zero and nonzero int cells, and extra columns
        holding numpy floats and Python ints."""
        inputs = dict(state=0, c6=5000.0, omega_c=3.0, delta2=-25.0, delta3=1.0 / 3.0,
                      gamma13=0.1, gamma23=1.1, gamma22=2.0, gamma33=0.0, eta=0.04,
                      omega_p2=0.5)
        rows = [
            ScanResultRow(**inputs, flag="ConvergenceError: stalled at (0.5, 1), twice"),
            ScanResultRow(**{**inputs, "state": 61, "omega_p2": 1e-300}, chi_re=-0.0,
                          chi_im=float("nan"), S=1.0 / 7.0, nb_tilde=float("inf"),
                          iterations=0, residual=0.0),
            ScanResultRow(**{**inputs, "delta3": -2.0}, iterations=12, residual=3.5e-11),
        ]
        buf = io.StringIO()
        write_csv(rows, {"b": [0.5, None], "a": "x,y"}, buf,
                  extra={"x": [np.float64(0.1), 7, -0.0],
                         "y": [1, np.float64(2.5e-17), 1e12]})
        nan22 = ",".join(["nan"] * 22)
        assert buf.getvalue().splitlines() == [
            '# {"a": "x,y", "b": [0.5, null]}',
            ",".join(ScanResultRow.columns() + ["x", "y"]),
            "0,5000,3,-25,0.333333333333,0.1,1.1,2,0,0.04,0.5,"
            + nan22 + ",0,nan,ConvergenceError: stalled at (0.5; 1); twice,0.1,1",
            "61,5000,3,-25,0.333333333333,0.1,1.1,2,0,0.04,1e-300,-0,nan,nan,nan,nan,nan,"
            "0.142857142857,nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,inf,"
            "0,0,,7,2.5e-17",
            "0,5000,3,-25,-2,0.1,1.1,2,0,0.04,0.5," + nan22 + ",12,3.5e-11,,-0,1e+12",
        ]
        assert buf.getvalue().endswith("\n")

    def test_weak_probe_row(self):
        cfg = ScanConfig(state=50, omega_p2_start=0.0, omega_p2_stop=0.0,
                         omega_p2_count=1)
        (row,) = run_scan(cfg)
        assert row.S == 1.0
        assert row.v13_re == 0.0 and row.v23_im == 0.0
        assert row.nb_re == pytest.approx(23.526, abs=0.01)
        assert row.flag == ""


class TestPointFailures:
    @staticmethod
    def _run_with_solver(monkeypatch, exc):
        # raised in the lockstep solve's stacked stage build, and again when
        # the round is evaluated point by point
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(collisional, "spectral_decompose", fail)
        return run_scan(ScanConfig(state=50, omega_p2_start=0.1,
                                   omega_p2_stop=0.1, omega_p2_count=1))

    def test_solver_failure_gives_flagged_row(self, monkeypatch):
        (row,) = self._run_with_solver(monkeypatch, ConvergenceError("stalled"))
        assert row.flag == "ConvergenceError: stalled"
        assert row.omega_p2 == 0.1 and math.isnan(row.chi_re)

    def test_programming_error_propagates(self, monkeypatch):
        for exc in (TypeError("bug"), np.linalg.LinAlgError("bug")):
            with pytest.raises(type(exc), match="bug"):
                self._run_with_solver(monkeypatch, exc)

    def test_stalled_point_flags_only_itself_in_its_column(self):
        """The state-46 stall point, solved in lockstep with its column,
        gets the flag it gets alone; the column's other rows are the rows
        they are alone."""
        d3 = -1.0676167235166836
        cfg = ScanConfig(state=46, delta3=d3, omega_p2_start=0.1,
                         omega_p2_stop=0.5, omega_p2_count=3)
        rows = run_scan(cfg)
        assert [r.omega_p2 for r in rows if r.flag] == [0.5]
        assert rows[-1].flag.startswith(
            "ConvergenceError: collisional solve stalled at intensity fraction 0.9999")
        for row in rows:
            assert row == compute_row(cfg, d3, row.omega_p2)

    def test_failing_single_atom_solve_flags_only_its_row(self, monkeypatch):
        """A typed error in the stacked single-atom solve of a finite-probe
        column sends the column point by point: only the point that raises
        it alone is flagged, with the flag it gets alone."""
        solve = scan_module.solve_sigma

        def failing(params, operands, v4):
            if 0.5 in params.delta3:
                raise SingularParameterError("injected at delta3=0.5")
            return solve(params, operands, v4)

        monkeypatch.setattr(scan_module, "solve_sigma", failing)
        cfg = ScanConfig(state=50, omega_p2_start=0.1, omega_p2_stop=0.1, omega_p2_count=1,
                         delta3_start=-1.0, delta3_stop=1.0, delta3_count=5)
        rows = run_scan(cfg)
        assert [r.delta3 for r in rows if r.flag] == [0.5]
        (row,) = [r for r in rows if r.flag]
        assert row.flag == compute_row(cfg, 0.5, 0.1).flag
        assert row.flag == "SingularParameterError: injected at delta3=0.5"
        for r in rows:
            if not r.flag:
                assert r == compute_row(cfg, r.delta3, 0.1)

    def test_programming_error_in_single_atom_solve_propagates(self, monkeypatch):
        def broken(params, operands, v4):
            raise TypeError("bug")

        monkeypatch.setattr(scan_module, "solve_sigma", broken)
        with pytest.raises(TypeError, match="bug"):
            run_scan(ScanConfig(state=50, omega_p2_start=0.1, omega_p2_stop=0.2,
                                omega_p2_count=2))

    def test_singular_weak_probe_row_is_typed(self):
        # omega_c = 0 leaves the weak-probe population block singular
        cfg = ScanConfig(c6=5000.0, omega_c=0.0, omega_p2_start=0.0,
                         omega_p2_stop=0.0, omega_p2_count=1)
        (row,) = run_scan(cfg)
        assert row.flag.startswith("SingularParameterError: singular single-atom")

    def test_degenerate_normalization_gives_flagged_row(self):
        # on two-photon and one-photon resonance the two- and three-level
        # dispersive responses coincide, so S is undefined there
        cfg = ScanConfig(state=50, delta2=0.0, delta3=0.0,
                         omega_p2_start=0.1, omega_p2_stop=0.1, omega_p2_count=1)
        (row,) = run_scan(cfg)
        assert row.flag.startswith("DegenerateNormalizationError")

    def test_degenerate_row_flags_only_itself_in_its_column(self):
        """A DegenerateNormalizationError in one row's observables sends its
        column point by point: only that row is flagged, with the flag it
        gets alone, and every other row is the row it is alone."""
        cfg = ScanConfig(state=50, delta2=0.0, omega_p2_start=0.1, omega_p2_stop=0.1,
                         omega_p2_count=1, delta3_start=-1.0, delta3_stop=1.0,
                         delta3_count=5)
        rows = run_scan(cfg)
        assert [r.delta3 for r in rows if r.flag] == [0.0]
        (row,) = [r for r in rows if r.flag]
        assert row.flag.startswith("DegenerateNormalizationError")
        assert row.flag == compute_row(cfg, 0.0, 0.1).flag
        for r in rows:
            if not r.flag:
                assert r == compute_row(cfg, r.delta3, 0.1)


def _zero_probe_column(count, **kw):
    return ScanConfig(omega_p2_start=0.0, omega_p2_stop=0.0, omega_p2_count=1,
                      delta3_start=-2.0, delta3_stop=2.0, delta3_count=count, **kw)


class TestWeakProbeColumn:
    """run_scan evaluates the zero-probe points as one stacked column."""

    @pytest.mark.parametrize("gamma33", [0.0, 0.01])
    @pytest.mark.parametrize("state", [46, 50, 56, 61])
    def test_column_matches_points_alone(self, state, gamma33):
        cfg = _zero_probe_column(81, state=state, gamma33=gamma33)
        worst = 0.0
        for row in run_scan(cfg):
            alone = compute_row(cfg, row.delta3, 0.0)
            assert row.flag == alone.flag == ""
            assert (row.chi_re, row.chi_im) == (alone.chi_re, alone.chi_im)
            for got, want in ((complex(row.nb_re, row.nb_im), complex(alone.nb_re, alone.nb_im)),
                              (row.nb_tilde, alone.nb_tilde)):
                worst = max(worst, abs(got - want) / abs(want))
        assert worst <= 1e-13

    def test_one_failing_point_flags_only_itself(self, monkeypatch):
        integral = scan_module.collisional_integral_V13_column

        def failing(params, pc, interaction):
            if 0.5 in params.delta3:
                raise SingularParameterError("injected at delta3=0.5")
            return integral(params, pc, interaction)

        monkeypatch.setattr(scan_module, "collisional_integral_V13_column", failing)
        cfg = ScanConfig(state=50, omega_p2_start=0.0, omega_p2_stop=0.1,
                         omega_p2_count=2, delta3_start=-1.0, delta3_stop=1.0,
                         delta3_count=5)
        rows = run_scan(cfg)
        flagged = [(r.delta3, r.omega_p2) for r in rows if r.flag]
        assert flagged == [(0.5, 0.0)]
        (row,) = [r for r in rows if r.flag]
        assert row.flag == compute_row(cfg, 0.5, 0.0).flag
        assert row.flag == "SingularParameterError: injected at delta3=0.5"
        for r in rows:
            if not r.flag and r.omega_p2 == 0.0:
                assert r == compute_row(cfg, r.delta3, 0.0)

    def test_rows_share_the_column_parameter_set(self, monkeypatch):
        """The zero-probe rows take their input cells from the column's one
        parameter set, not one AtomParams per point."""
        calls = []
        point_params = ScanConfig.point_params
        monkeypatch.setattr(ScanConfig, "point_params",
                            lambda cfg, *a: calls.append(a) or point_params(cfg, *a))
        cfg = _zero_probe_column(81, state=61)
        calls.clear()
        rows = run_scan(cfg)
        assert len(calls) == 1
        monkeypatch.undo()
        assert rows == [compute_row(cfg, r.delta3, 0.0) for r in rows]

    @pytest.mark.parametrize("count", [5, 81])
    def test_linear_solves_do_not_grow_with_the_column(self, monkeypatch, count):
        """Work-count guard: a zero-probe column makes three stacked solves
        in the single-atom cascade and two in the kernels, however many
        detunings it has (one per row of each would be 5 per point)."""
        calls = []
        solve = np.linalg.solve

        def counted(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"].startswith("rydeit."):
                calls.append(args[0].shape)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counted)
        rows = run_scan(_zero_probe_column(count, state=61))
        assert len(rows) == count and not any(r.flag for r in rows)
        assert len(calls) == 5
        assert all(shape[0] == count for shape in calls)


class TestFiniteProbeColumn:
    """run_scan solves a config's finite-probe single-atom states as one
    column."""

    @pytest.mark.parametrize("count", [5, 25])
    def test_single_atom_solves_do_not_grow_with_the_column(self, monkeypatch, count):
        """Work-count guard: outside the collisional solve, a config's
        finite-probe rows make two stacked 8x8 solves, the interacting
        states and their three-level references, and one stacked 3x3
        solve, their two-level references, however many rows they have
        (three per row would be 75 for 25 rows)."""
        calls, inside = [], []
        solve_column = scan_module.solve_collisional_column

        def solve_in_column(*args, **kwargs):
            inside.append(True)
            try:
                return solve_column(*args, **kwargs)
            finally:
                inside.pop()

        solve = np.linalg.solve

        def counted(a, *args, **kwargs):
            if not inside and np.shape(a)[-2:] in ((8, 8), (3, 3)):
                calls.append(np.shape(a))
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(scan_module, "solve_collisional_column", solve_in_column)
        monkeypatch.setattr(np.linalg, "solve", counted)
        rows = run_scan(ScanConfig(state=50, omega_p2_start=0.02, omega_p2_stop=0.5,
                                   omega_p2_count=count))
        assert len(rows) == count and not any(r.flag for r in rows)
        assert sorted(calls) == [(count, 3, 3)] + [(count, 8, 8)] * 2


class TestParseGrid:
    def test_forms(self):
        assert _parse_grid("0.5") == (0.5, 0.5, 1)
        assert _parse_grid("0:0.5:26") == (0.0, 0.5, 26)

    @pytest.mark.parametrize("text", ["a", "1:2", "1:2:3:4", "1:b:3"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ConfigError):
            _parse_grid(text)


class TestCli:
    def test_point_default(self):
        res = CliRunner().invoke(main, ["point", "--state", "50"])
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert len(lines) == 3  # metadata, header, one row
        assert lines[2].startswith("50,5000,")

    def test_point_rejects_grids(self):
        res = CliRunner().invoke(
            main, ["point", "--state", "50", "--omega-p2", "0:0.5:5"]
        )
        assert res.exit_code == 2
        assert "single grid point" in res.output

    def test_scan_with_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state": 50, "omega_p2_count": 2}))
        out = tmp_path / "out.csv"
        res = CliRunner().invoke(
            main, ["scan", "--config", str(cfg), "--out", str(out)]
        )
        assert res.exit_code == 0
        assert len(out.read_text().splitlines()) == 4

    def test_config_file_with_threads_key_still_runs(self, tmp_path):
        def scan_csv(name, **extra):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"state": 50, "omega_p2_count": 2, **extra}))
            out = tmp_path / f"{name}.csv"
            res = CliRunner().invoke(
                main, ["scan", "--config", str(cfg), "--out", str(out)]
            )
            assert res.exit_code == 0
            return out.read_bytes()

        plain = scan_csv("plain")
        with pytest.warns(FutureWarning, match="threads"):
            legacy = scan_csv("legacy", threads=2)
        assert legacy == plain

    def test_cli_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state": 50, "omega_p2_count": 2,
                                   "delta3": 1.0}))
        res = CliRunner().invoke(
            main, ["scan", "--config", str(cfg), "--delta3", "2.0"]
        )
        assert res.exit_code == 0
        meta = json.loads(res.output.splitlines()[0].lstrip("# "))
        assert meta["delta3"] == 2.0

    def test_non_finite_flag_exits_2(self):
        res = CliRunner().invoke(main, ["point", "--state", "50", "--delta3", "nan"])
        assert res.exit_code == 2
        assert "delta3 must be finite" in res.output

    def test_invalid_parameter_exits_2(self, tmp_path):
        res = CliRunner().invoke(main, ["point", "--state", "50", "--omega-c", "-1"])
        assert res.exit_code == 2
        assert "config error: omega_c must be non-negative" in res.output
        for key, value in (("tol", "x"), ("omega_p2_stop", "1"), ("delta3", True)):
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({"state": 50, key: value}))
            res = CliRunner().invoke(main, ["scan", "--config", str(cfg)])
            assert res.exit_code == 2, key
            assert f"config error: {key} must be a number" in res.output

    @pytest.mark.parametrize("out", [7, ["a"]])
    def test_non_string_out_exits_2_before_solving(self, tmp_path, monkeypatch, out):
        def refuse(config):
            raise AssertionError("solved with an invalid out")

        monkeypatch.setattr(cli_module, "run_scan", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state": 50, "omega_p2_count": 2, "out": out}))
        res = CliRunner().invoke(main, ["scan", "--config", str(cfg)])
        assert res.exit_code == 2
        assert "config error: out must be a path string" in res.output

    @pytest.mark.parametrize("args", [["point", "--state", "50"],
                                      ["scan", "--state", "50"],
                                      ["figure", "fig3"]],
                             ids=["point", "scan", "figure"])
    def test_unwritable_out_exits_2_before_solving(self, tmp_path, monkeypatch, args):
        def refuse(*args, **kwargs):
            raise AssertionError("solved before --out was opened")

        monkeypatch.setattr(cli_module, "run_scan", refuse)
        monkeypatch.setattr(cli_module, "run_figure", refuse)
        out = tmp_path / "missing" / "x.csv"
        res = CliRunner().invoke(main, args + ["--out", str(out)])
        assert res.exit_code == 2
        assert f"config error: cannot write {out}: No such file or directory" in res.output
        assert not out.parent.exists()

    def test_subnormal_probe_gives_flagged_row(self, tmp_path):
        # a positive subnormal |omega_p|^2 is a valid config, but sigma33
        # underflows to 0, leaving n_b a 0/0
        out = tmp_path / "out.csv"
        res = CliRunner().invoke(
            main, ["point", "--state", "50", "--omega-p2", "5e-324", "--out", str(out)])
        assert res.exit_code == 1
        row = out.read_text().splitlines()[2]
        assert row.endswith(
            ",DegenerateNormalizationError: n_b is undefined without Rydberg excitation")

    @pytest.mark.parametrize("omega_p2, what", [("1e-14", "n_b"), ("1e-20", "nb_tilde")])
    def test_cancelled_blockade_count_gives_flagged_row(self, tmp_path, omega_p2, what):
        # at vanishing finite probe sigma12 and sigma33 differ from their
        # non-interacting values only by roundoff (at 1e-14, nb_tilde would
        # read -3644 against 34.15 at 1e-6; at 1e-20, n_b would read -0)
        out = tmp_path / "out.csv"
        res = CliRunner().invoke(
            main, ["point", "--state", "50", "--omega-p2", omega_p2, "--out", str(out)])
        assert res.exit_code == 1
        row = out.read_text().splitlines()[2]
        assert f",DegenerateNormalizationError: {what} is lost to cancellation" in row

    def test_weak_finite_probe_row_is_not_flagged(self, tmp_path):
        out = tmp_path / "out.csv"
        res = CliRunner().invoke(
            main, ["point", "--state", "50", "--omega-p2", "1e-6", "--out", str(out)])
        assert res.exit_code == 0
        header, row = out.read_text().splitlines()[1:]
        values = dict(zip(header.split(","), row.split(",")))
        assert values["flag"] == ""
        assert float(values["nb_re"]) == pytest.approx(23.53, abs=0.01)
        assert float(values["nb_tilde"]) == pytest.approx(34.15, abs=0.01)

    def test_bad_state_exits_2(self):
        res = CliRunner().invoke(main, ["point", "--state", "99"])
        assert res.exit_code == 2

    def test_unknown_figure_rejected(self):
        res = CliRunner().invoke(main, ["figure", "fig9"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("tol, error", [("-1", "tol must be positive"),
                                            ("nan", "tol must be finite")])
    def test_figure_with_invalid_tol_exits_2(self, tmp_path, tol, error):
        out = tmp_path / "fig.csv"
        res = CliRunner().invoke(main, ["figure", "fig2", "--tol", tol, "--out", str(out)])
        assert res.exit_code == 2
        assert f"config error: {error}" in res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert not out.exists()

    @pytest.mark.parametrize("args", [["figure", "fig4"],
                                      ["point", "--state", "50"]],
                             ids=["figure", "point"])
    def test_threads_option_is_rejected(self, args):
        res = CliRunner().invoke(main, args + ["--threads", "2"])
        assert res.exit_code == 2
        assert "No such option" in res.output

    def test_figures_registered(self):
        assert set(FIGURES) == {"fig2", "fig3", "fig4"}

    @pytest.mark.parametrize("name, digest", [
        ("fig2", "f000eeb435a45fbcd75db83cebd70bd92863665ed2b5e54371b601c016f3097a"),
        ("fig3", "38839e3ba6fa30716396a22c3d02f50f9e51dd8e6ba1edfe47908d8987a4c0bf"),
        ("fig4", "8a745a0f5ae1362631e9d72d1d41bce9060b2e7288a03a063413bc837fe4fa95"),
    ], ids=["fig2", "fig3", "fig4"])
    def test_figure_output_bytes(self, name, digest):
        """Each figure preset writes the same bytes: SHA-256 of its CSV, no
        row flagged."""
        buf = io.StringIO()
        assert run_figure(name, buf) is False
        assert _sha256(buf.getvalue()) == digest

    def test_equations_dump(self):
        res = CliRunner().invoke(main, ["equations", "--which", "single"])
        assert res.exit_code == 0
        assert res.output.count("0 = ") == 8

    @pytest.mark.parametrize("args, digest", [
        ([], "75be3ba7cc9baef8af2e1b7ea9645ae4f59b7bd8df21ec7ece5fd20c7ea9412a"),
        (["--which", "pair", "--omega-c", "0", "--delta2", "0", "--delta3", "0"],
         "9b60cc9d1f50c1c05a84b9ca4c5baa854cb88a5c79d5dad58ca678c2fe87b09b"),
    ], ids=["default", "pair-at-zero"])
    def test_equations_output_bytes(self, args, digest):
        """The audit surface prints the same bytes: SHA-256 of stdout,
        trailing newline included."""
        res = CliRunner().invoke(main, ["equations", *args])
        assert res.exit_code == 0
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest

    @pytest.mark.parametrize("args, error", [
        (["--omega-c", "nan"], "omega_c must be finite"),
        (["--omega-c", "-1"], "omega_c must be non-negative"),
        (["--delta2", "inf"], "delta2 must be finite"),
    ])
    def test_equations_with_invalid_parameter_exits_2(self, args, error):
        res = CliRunner().invoke(main, ["equations", *args])
        assert res.exit_code == 2
        assert f"config error: {error}" in res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)

    # each check is also one test in test_validate.py; this covers the CLI
    @pytest.mark.parametrize("suite", ["fast"])
    def test_validate(self, suite):
        res = CliRunner().invoke(main, ["validate", suite])
        assert res.exit_code == 0
        assert "9/9 checks passed" in res.output
        assert "FAIL" not in res.output

    def test_validate_reports_failures(self, monkeypatch):
        def fails():
            return False, "deviation 1.00e+00"

        def raises():
            raise ValueError("broken check")

        monkeypatch.setattr(validate_module, "FAST_CHECKS",
                            (("failing check", fails), ("raising check", raises)))
        res = CliRunner().invoke(main, ["validate", "fast"])
        assert res.exit_code == 1
        assert "FAIL  failing check: deviation 1.00e+00" in res.output
        assert "FAIL  raising check: raised ValueError: broken check" in res.output
        assert "0/2 checks passed" in res.output


_BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bench_module(name):
    """A benchmark module, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_weak_probe_benchmark_job_passes_the_reference_check():
    """The benchmark's seed-0 weak-probe job, scanned in-process and held to
    the benchmark's own correctness check against its stored reference,
    and to the SHA-256 of the CSV it emits, byte for byte."""
    checks, workloads = _bench_module("checks"), _bench_module("workloads")
    job = workloads.make_job("weak-probe-spectrum", 0)
    buf = io.StringIO()
    for d in job:
        with pytest.warns(FutureWarning, match="threads"):
            cfg = ScanConfig.from_dict(d)
        write_csv(run_scan(cfg), cfg.metadata_dict(), buf)
    reference = (_BENCH / "reference" / "weak-probe-spectrum.csv").read_text()
    attempted, failures = checks.check_pass(buf.getvalue(), job, reference)
    assert attempted == 81
    assert failures == []
    assert _sha256(buf.getvalue()) == (
        "19d651ebd4e9a99ffcd672e02bdebfed6bcaa140398b1eac03a3bfee64244b8f")


def test_sweep_benchmark_columns_pass_the_reference_check():
    """The benchmark's whole seed-0 sweep job (16 columns, 416 points, 13
    of them through the Newton fallback), scanned in-process and held to
    the benchmark's own correctness check against its stored reference,
    and to the SHA-256 of the CSV it emits, byte for byte."""
    checks, workloads = _bench_module("checks"), _bench_module("workloads")
    job = workloads.make_job("intensity-sweep", 0)
    buf = io.StringIO()
    for d in job:
        with pytest.warns(FutureWarning, match="threads"):
            cfg = ScanConfig.from_dict(d)
        write_csv(run_scan(cfg), cfg.metadata_dict(), buf)
    reference = (_BENCH / "reference" / "intensity-sweep.csv").read_text()
    attempted, failures = checks.check_pass(buf.getvalue(), job, reference)
    assert attempted == 416
    assert failures == []
    assert _sha256(buf.getvalue()) == (
        "70a49c7022a867b07692e854e6c0905b28ad786e2827047c659f0a97b81ba284")
