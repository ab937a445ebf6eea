import contextlib
import csv
import io
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lbk.cli
import lbk.oracle
import lbk.specfun
import lbk.verify
from lbk.cli import main, render_json
from lbk.kernel import IntegralParams, closed_form_I
from lbk.oracle import QuadratureSpec, QuadResult
from lbk.verify import SWEEP_ORACLE_SPEC, SweepConfig, draw_cases

PI = math.pi


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_base_case_json(self, capsys):
        code, out, err = run(capsys, ["eval", "--n", "0", "--m", "0",
                                      "--alpha", "1.0", "--R", "1.5707963"])
        assert code == 0
        rec = json.loads(out)
        assert rec["method"] == "closed"
        assert rec["re"] == pytest.approx(1.2732395, abs=1e-6)
        assert rec["im"] == 0
        assert "abs_err" not in rec

    def test_zero_radius(self, capsys):
        code, out, _ = run(capsys, ["eval", "--n", "1", "--m", "0",
                                    "--alpha", "0.5", "--R", "0"])
        assert code == 0
        rec = json.loads(out)
        assert rec["re"] == 0 and rec["im"] == 0

    def test_invalid_order_exits_2(self, capsys):
        code, out, err = run(capsys, ["eval", "--n", "2", "--m", "3",
                                      "--alpha", "1.0", "--R", "1.0"])
        assert code == 2
        assert out == ""
        assert "|m| <= n" in err

    @pytest.mark.parametrize("flags", [
        ["--n", "1", "--m", "0", "--alpha", "-0.5", "--R", "1.0"],
        ["--n", "1", "--m", "0", "--alpha", "9.9", "--R", "1.0"],
        ["--n", "1", "--m", "0", "--alpha", "1.0", "--R", "-2.0"],
        ["--n", "-1", "--m", "0", "--alpha", "1.0", "--R", "1.0"],
        ["--n", "1", "--m", "0", "--alpha", "1.0", "--R", "inf"],
        ["--n", "1", "--m", "0", "--alpha", "1.0", "--R", "nan"],
        ["--n", "171", "--m", "-5", "--alpha", "1.0", "--R", "1.0"],
        ["--n", "200", "--m", "0", "--alpha", "1.0", "--R", "1.0"],
        ["--n", "170", "--m", "170", "--alpha", "1.0", "--R", "100"],
    ])
    def test_invalid_inputs_exit_2(self, capsys, flags):
        code, _, err = run(capsys, ["eval"] + flags)
        assert code == 2
        assert err.startswith("invalid input:")

    def test_negative_order_past_factorial_range(self, capsys):
        # 200!/0! overflows a double; mpmath gives I = 5.609266957532786e-198.
        code, out, err = run(capsys, ["eval", "--n", "100", "--m", "-100",
                                      "--alpha", "1.0", "--R", "120"])
        assert code == 0 and err == ""
        rec = json.loads(out)
        assert rec["re"] == pytest.approx(5.609266957532786e-198,
                                          rel=1e-13, abs=0.0)
        assert rec["im"] == 0

    def test_value_fits_where_legendre_factor_does_not(self, capsys):
        # P_170^170(cos 1) ~ 8.5e343 alone leaves the double range, I does
        # not; mpmath gives I = 6.8234238290424315e103.
        code, out, err = run(capsys, ["eval", "--n", "170", "--m", "170",
                                      "--alpha", "1.0", "--R", "5"])
        assert (code, err) == (0, "")
        rec = json.loads(out)
        assert rec["re"] == pytest.approx(6.8234238290424315e103, rel=1e-13)
        assert rec["im"] == 0

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["eval", "--n", "0", "--m", "0",
                                    "--alpha", "1.0", "--R", "0",
                                    "--format", "csv"])
        assert code == 0
        lines = out.split("\n")
        assert lines[0] == "n,m,alpha,R,re,im,method,abs_err"
        assert lines[1].startswith("0,0,1,0,2,0,closed,")


class TestQuad:
    def test_zero_radius(self, capsys):
        code, out, _ = run(capsys, ["quad", "--n", "0", "--m", "0",
                                    "--alpha", "0.7", "--R", "0"])
        assert code == 0
        rec = json.loads(out)
        assert rec["method"] == "quad"
        assert rec["re"] == pytest.approx(2.0, abs=1e-12)
        assert rec["converged"] is True

    def test_matches_eval(self, capsys):
        args = ["--n", "2", "--m", "1", "--alpha", "1.0471976", "--R", "2.0"]
        _, out_e, _ = run(capsys, ["eval"] + args)
        _, out_q, _ = run(capsys, ["quad"] + args)
        e, q = json.loads(out_e), json.loads(out_q)
        assert abs(complex(e["re"], e["im"]) - complex(q["re"], q["im"])) < 1e-9

    def test_forced_non_convergence_exits_3(self, capsys):
        code, out, err = run(capsys, ["quad", "--n", "2", "--m", "1",
                                      "--alpha", "1.0", "--R", "2.0",
                                      "--abs-tol", "1e-30",
                                      "--rel-tol", "1e-30",
                                      "--max-refinements", "1"])
        assert code == 3
        assert json.loads(out)["converged"] is False
        assert "converge" in err

    def test_non_finite_radius_exits_2(self, capsys):
        code, out, err = run(capsys, ["quad", "--n", "2", "--m", "1",
                                      "--alpha", "1.0", "--R", "inf"])
        assert code == 2
        assert out == ""
        assert err.startswith("invalid input:")

    def test_radius_past_node_cap_exits_2(self, capsys):
        code, out, err = run(capsys, ["quad", "--n", "2", "--m", "1",
                                      "--alpha", "1.0", "--R", "1e300"])
        assert code == 2
        assert out == ""
        assert err.startswith("invalid input:")

    def test_doubling_at_node_cap_exits_3(self, capsys, monkeypatch):
        # 8 panels of 2 * 32 + 1 nodes leave R = 400 under-resolved
        monkeypatch.setattr(lbk.oracle, "MAX_NODES", 65 * 8)
        code, out, err = run(capsys, ["quad", "--n", "2", "--m", "1",
                                      "--alpha", "1.0", "--R", "400.0",
                                      "--base-panels", "1"])
        assert code == 3
        rec = json.loads(out)
        assert rec["panels"] == 8
        assert not rec["converged"] and math.isfinite(rec["est_error"])
        assert "converge" in err

    def test_crowded_floor_exits_3(self, capsys):
        # The extended pass's estimate is 0 by chance; mpmath gives
        # I = -50462862179.393180, and the value is off by ~1e49.
        code, out, err = run(capsys, ["quad", "--n", "138", "--m", "34",
                                      "--alpha", "2.3882274427897348",
                                      "--R", "39.34176733928225"])
        assert code == 3
        rec = json.loads(out)
        assert not rec["converged"]
        assert abs(rec["re"] + 50462862179.393180) > 1e40
        assert "converge" in err

    @pytest.mark.parametrize("flags", [
        # I(170, 170, 1, 100) ~ 2.46e318 leaves the double range.
        ["--n", "170", "--m", "170", "--alpha", "1.0", "--R", "100"],
        ["--n", "2", "--m", "1", "--alpha", "1.0", "--R", "2.0",
         "--nodes-per-panel", "1025"],
    ])
    def test_overflow_and_node_order_cap_exit_2(self, capsys, flags):
        code, out, err = run(capsys, ["quad"] + flags)
        assert code == 2
        assert out == ""
        assert err.startswith("invalid input:")

    def test_value_fits_where_legendre_factor_does_not(self, capsys):
        # P_170^170(cos 1) ~ 8.5e343 alone leaves the double range, I does
        # not: the oracle integrates P_n^m over a power of two and converges
        # to mpmath's I = 6.8234238290424315e103.
        code, out, err = run(capsys, ["quad", "--n", "170", "--m", "170",
                                      "--alpha", "1.0", "--R", "5"])
        assert (code, err) == (0, "")
        rec = json.loads(out)
        assert rec["converged"] is True
        assert rec["re"] == pytest.approx(6.8234238290424315e103, rel=1e-10)
        assert rec["im"] == 0

    def test_unset_flags_take_spec_defaults(self, capsys, monkeypatch):
        specs = []
        real = lbk.cli.integrate_I

        def recording(p, spec):
            specs.append(spec)
            return real(p, spec)

        monkeypatch.setattr(lbk.cli, "integrate_I", recording)
        code, _, _ = run(capsys, ["quad", "--n", "1", "--m", "0",
                                  "--alpha", "1.0", "--R", "2.0"])
        assert code == 0
        assert specs == [QuadratureSpec()]


@pytest.mark.parametrize("argv", [
    ["eval", "--n", "2", "--m", "1", "--alpha", "1", "--R", "2",
     "--abs-tol", "nan"],
    ["bench", "--n-max", "0", "--R-max", "1", "--reps", "1",
     "--abs-tol", "-5"],
])
def test_tolerance_flags_only_where_read(capsys, argv):
    # eval and bench run no oracle, so they take no tolerance flags.
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: lbk")
    assert "unrecognized arguments: --abs-tol" in err


def _die_in_worker(*args, **kwargs):
    # Stands in for verify._check_block: a pool worker running it dies at
    # once.  Module-level, so the pool can pickle it by name.
    assert multiprocessing.parent_process() is not None, "ran in-process"
    os._exit(1)


class TestVerify:
    def test_small_sweep_exit_0(self, capsys):
        code, out, _ = run(capsys, ["verify", "--seed", "42", "--cases", "25"])
        assert code == 0
        rep = json.loads(out)
        assert rep["total"] == 25
        assert rep["failures"] == []
        assert rep["max_rel_err"] <= 1e-8

    def test_deterministic_output(self, capsys):
        argv = ["verify", "--seed", "11", "--cases", "10"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        a, b = json.loads(out1), json.loads(out2)
        a.pop("wall_time"), b.pop("wall_time")
        assert a == b

    def test_unset_flags_take_config_defaults(self, capsys, monkeypatch):
        class Stop(Exception):
            pass

        configs = []

        def recording(cfg):
            configs.append(cfg)
            raise Stop

        monkeypatch.setattr(lbk.cli, "sweep_random", recording)
        with pytest.raises(Stop):
            main(["verify"])
        assert configs == [SweepConfig(seed=42, cases=100)]

    @pytest.mark.parametrize("error", [
        RuntimeError("worker died\nwith a second line"),
        MemoryError("out of memory\nwith a second line"),
    ], ids=lambda exc: type(exc).__name__)
    def test_crash_exits_4_with_one_line(self, capsys, monkeypatch, error):
        # An exception other than ValueError or OverflowError is a crash,
        # not a failing case: exit 4 and one line on stderr, no traceback.
        def crashing(cfg):
            raise error

        monkeypatch.setattr(lbk.cli, "sweep_random", crashing)
        monkeypatch.setattr(sys, "argv", ["lbk", "verify", "--cases", "3"])
        with pytest.raises(SystemExit) as exit_info:
            lbk.cli.app()
        assert exit_info.value.code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(
            f"internal error: {type(error).__name__}(")

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched block reaches workers by fork")
    def test_killed_worker_exits_4_with_one_line(self, capsys, monkeypatch):
        # A pool worker that dies breaks the pool; the BrokenProcessPool
        # that sweep_random meets is a crash: exit 4, one line on stderr.
        monkeypatch.setenv("LBK_WORKERS", "2")
        if lbk.verify.resolve_workers() < 2:
            pytest.skip("one CPU: verify runs no pool")
        monkeypatch.setattr(lbk.verify, "_check_block", _die_in_worker)
        monkeypatch.setattr(sys, "argv", ["lbk", "verify", "--cases", "100"])
        assert len(list(lbk.oracle._blocks(
            draw_cases(SweepConfig(seed=42, cases=100)),
            SWEEP_ORACLE_SPEC))) > 1
        with pytest.raises(SystemExit) as exit_info:
            lbk.cli.app()
        assert exit_info.value.code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("internal error: BrokenProcessPool(")

    def test_degree_above_cap_exits_2(self, capsys):
        code, out, err = run(capsys, ["verify", "--n-max", "250"])
        assert code == 2
        assert out == ""
        assert err.startswith("invalid input:")

    def test_zero_cases_exit_2(self, capsys):
        code, _, err = run(capsys, ["verify", "--cases", "0"])
        assert code == 2
        assert "cases" in err

    def test_forced_failures_exit_1(self, capsys):
        # absurd pass tolerances force failures (cases whose two sides are
        # bit-identical zeros may still pass, so assert at-least-one)
        code, out, _ = run(capsys, ["verify", "--seed", "1", "--cases", "4",
                                    "--abs-tol", "1e-30", "--rel-tol", "1e-30"])
        assert code == 1
        assert len(json.loads(out)["failures"]) >= 1

    def test_raising_case_is_reported_exit_1(self, capsys):
        # At R near 1e300 every oracle layout passes the node cap, though
        # the closed forms fit: each case is a failure record with a
        # reason, last key, and no nan or inf.
        code, out, err = run(capsys, ["verify", "--n-max", "170", "--R-max",
                                      "1e300", "--cases", "5", "--seed", "11"])
        assert code == 1
        assert err == ""
        rep = json.loads(out)
        assert rep["total"] == 5
        assert all(list(f)[-1] == "reason" for f in rep["failures"])
        reasons = [f["reason"] for f in rep["failures"]]
        assert len(reasons) == 5
        assert all(r.startswith("oracle: quadrature needs more than")
                   for r in reasons)
        assert "nan" not in out.lower() and "inf" not in out.lower()

    @pytest.mark.parametrize("flags", [
        ["--abs-tol", "inf"], ["--rel-tol", "2"], ["--abs-tol", "nan"],
        ["--abs-tol", "-1"],
    ])
    def test_tolerance_outside_unit_interval_exit_2(self, capsys, flags):
        # A tolerance of inf or 2 passes every case, and nan or -1 would
        # switch the absolute test off; each is rejected before any case runs.
        code, out, err = run(capsys, ["verify", "--cases", "2"] + flags)
        assert (code, out, err) == (
            2, "", "invalid input: tolerances must lie in (0, 1)\n")

    def test_invalid_workers_env_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("LBK_WORKERS", "-3")
        code, _, err = run(capsys, ["verify", "--cases", "2"])
        assert code == 2
        assert "LBK_WORKERS" in err

    def test_csv_summary(self, capsys):
        code, out, _ = run(capsys, ["verify", "--seed", "5", "--cases", "8",
                                    "--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ("seed,cases,n_max,R_max,alpha_margin,abs_tol,"
                            "rel_tol,total,failures,max_abs_err,max_rel_err,"
                            "wall_time")
        assert len(lines) == 2


class TestBench:
    def test_single_rep_table(self, capsys):
        code, out, _ = run(capsys, ["bench", "--n-max", "1", "--R-max", "5",
                                    "--reps", "1", "--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,R,closed_us,quad_us,speedup,reps,noisy"
        assert len(lines) == 1 + 2 * 2  # n in {0,1} x R in {0.5, 5}
        assert all(line.endswith("True") for line in lines[1:])  # noisy

    def test_speedups_positive(self, capsys):
        code, out, _ = run(capsys, ["bench", "--n-max", "2", "--R-max", "30",
                                    "--reps", "3"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert all(r["speedup"] > 0 for r in rows)

    def test_single_row_grid(self, capsys):
        code, out, _ = run(capsys, ["bench", "--n-max", "0", "--R-max", "1",
                                    "--reps", "2"])
        assert code == 0
        assert len(json.loads(out)["rows"]) == 1

    def test_invalid_exit_2(self, capsys):
        # --n-max 171 passes the degree cap; it exits before any timing.
        for argv in (["--reps", "0"], ["--n-max", "171"]):
            code, _, err = run(capsys, ["bench"] + argv)
            assert code == 2
            assert err.startswith("invalid input: ")


class TestTable:
    def test_all_m_row_count_and_header(self, capsys):
        code, out, _ = run(capsys, ["table", "--n-max", "2", "--all-m",
                                    "--alpha", "1.0", "--R", "2.0",
                                    "--format", "csv"])
        assert code == 0
        lines = out.split("\n")
        assert lines[0] == "n,m,alpha,R,re,im,method,abs_err"
        assert lines[-1] == ""  # single trailing newline
        assert "\r" not in out
        assert len(lines) == 1 + 9 + 1  # header + sum(2n+1) + terminator

    def test_single_degree_near_j0_zero(self, capsys):
        code, out, _ = run(capsys, ["table", "--n-max", "0", "--all-m",
                                    "--alpha", "0.3", "--R", "3.1415927"])
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1
        assert abs(rows[0]["re"]) < 1e-6

    def test_zero_radius_rows(self, capsys):
        code, out, _ = run(capsys, ["table", "--n-max", "2", "--all-m",
                                    "--alpha", "0.9", "--R", "0"])
        assert code == 0
        for row in json.loads(out):
            want = 2.0 if (row["n"], row["m"]) == (0, 0) else 0.0
            assert row["re"] == want and row["im"] == 0

    def test_fixed_order_skips_low_degrees(self, capsys):
        code, out, _ = run(capsys, ["table", "--n-max", "4", "--m", "2",
                                    "--alpha", "1.0", "--R", "1.0"])
        assert code == 0
        rows = json.loads(out)
        assert [r["n"] for r in rows] == [2, 3, 4]

    def test_compare_fills_abs_err(self, capsys):
        code, out, _ = run(capsys, ["table", "--n-max", "1", "--all-m",
                                    "--alpha", "1.0", "--R", "2.0",
                                    "--compare"])
        assert code == 0
        for row in json.loads(out):
            assert row["abs_err"] >= 0
            assert row["abs_err"] < 1e-9

    def test_whole_triangle_where_legendre_factors_overflow(self, capsys):
        # From n = 156 on, P_n^m(cos 1) alone passes the double range at
        # the top orders; every I fits at R = 5.
        code, out, err = run(capsys, ["table", "--n-max", "170", "--all-m",
                                      "--alpha", "1.0", "--R", "5"])
        assert (code, err) == (0, "")
        rows = json.loads(out)
        assert len(rows) == 171 ** 2
        assert all(math.isfinite(r["re"]) and math.isfinite(r["im"])
                   for r in rows)

    def test_multiple_radii(self, capsys):
        code, out, _ = run(capsys, ["table", "--n-max", "0", "--all-m",
                                    "--alpha", "1.0", "--R", "1.0",
                                    "--R", "2.0", "--R", "3.0"])
        assert code == 0
        assert [r["R"] for r in json.loads(out)] == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("flags", [
        ["--alpha", "1.0", "--R", "2.0", "--R", "inf"],
        ["--alpha", "1.0", "--R", "-1.0"],
        ["--alpha", "4.0", "--R", "2.0"],
        ["--n-max", "175", "--m", "-172", "--alpha", "1.0", "--R", "2.0"],
        ["--method", "quad", "--alpha", "1.0", "--R", "1e300"],
        ["--n-max", "170", "--m", "170", "--alpha", "1.0", "--R", "100"],
        ["--n-max", "170", "--m", "170", "--alpha", "1.0", "--R", "100",
         "--method", "quad"],
    ])
    def test_invalid_point_exits_2(self, capsys, flags):
        code, out, err = run(capsys, ["table", "--n-max", "1"] + flags)
        assert code == 2
        assert out == ""
        assert err.startswith("invalid input:")

    def test_tolerance_out_of_range_exits_2(self, capsys):
        code, out, err = run(capsys, ["table", "--n-max", "2", "--alpha",
                                      "1.0", "--R", "2", "--abs-tol", "2"])
        assert (code, out, err) == (
            2, "", "invalid input: tolerances must lie in (0, 1)\n")

    def test_order_above_every_degree_exits_2(self, capsys):
        code, out, err = run(capsys, ["table", "--n-max", "3", "--m", "5",
                                      "--alpha", "1.0", "--R", "3"])
        assert (code, out, err) == (
            2, "", "invalid input: order must satisfy |m| <= n for some row "
                   "(got m=5, n-max=3)\n")

    def test_unconverged_quad_prints_records_and_exits_3(self, capsys,
                                                         monkeypatch):
        # A stand-in oracle that never converges: every record is still
        # printed, then the non-convergence line.
        def oracle(p, spec):
            return QuadResult(complex(p.n, p.m), 1.0, 8, False)

        monkeypatch.setattr(lbk.cli, "integrate_I", oracle)
        code, out, err = run(capsys, ["table", "--n-max", "1", "--alpha",
                                      "1.0", "--R", "2", "--method", "quad"])
        assert code == 3
        assert [(r["n"], r["m"], r["re"], r["im"], r["method"])
                for r in json.loads(out)] == [
            (0, 0, 0.0, 0.0, "quad"), (1, -1, 1.0, -1.0, "quad"),
            (1, 0, 1.0, 0.0, "quad"), (1, 1, 1.0, 1.0, "quad")]
        assert err == "quadrature did not converge within max refinements\n"


def _table_records(argv):
    # Records of a successful table call as {column: rendered text}, from
    # JSON or CSV alike; the text keeps -0 and all 17 digits.
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    out = buf.getvalue()
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        return list(csv.DictReader(io.StringIO(out)))
    return json.loads(out, parse_int=str, parse_float=str)


class TestTableRows:
    """``table`` evaluates one closed-form row per degree and radius."""

    @given(n_max=st.integers(0, 40), alpha=st.floats(0.0, PI),
           fmt=st.sampled_from(["json", "csv"]), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_records_are_the_per_entry_closed_form(self, n_max, alpha, fmt,
                                                   data):
        # Radii on both sides of every degree, plus R = 0; every value
        # equals closed_form_I's, bit for bit and signed zeros included.
        Rs = data.draw(st.lists(st.floats(0.0, 2.0 * n_max + 2.0),
                                min_size=1, max_size=3)) + [0.0]
        m = data.draw(st.none() | st.integers(-n_max, n_max))
        argv = ["table", "--n-max", str(n_max), "--alpha", repr(alpha),
                "--format", fmt]
        argv += ["--all-m"] if m is None else ["--m", str(m)]
        for R in Rs:
            argv += ["--R", repr(R)]
        records = _table_records(argv)
        want = [IntegralParams(n, k, alpha, R) for n in range(n_max + 1)
                for k in (range(-n, n + 1) if m is None else [m])
                if abs(k) <= n for R in Rs]
        assert [(int(r["n"]), int(r["m"]), float(r["R"])) for r in records] \
            == [(p.n, p.m, p.R) for p in want]
        for rec, p in zip(records, want):
            value = closed_form_I(p)
            assert float(rec["re"]).hex() == value.real.hex()
            assert float(rec["im"]).hex() == value.imag.hex()

    @pytest.mark.parametrize("argv, loops", [
        # 41 degrees x 2 radii; one loop per entry would be 1681 x 2.
        (["--n-max", "40", "--all-m", "--R", "3", "--R", "45"], 82),
        # Degrees 4..30 only: a degree with no valid order evaluates nothing.
        (["--n-max", "30", "--m", "4", "--R", "3"], 27),
    ])
    def test_one_spherical_loop_per_degree_and_radius(self, capsys,
                                                      loop_calls, argv,
                                                      loops):
        code, _, _ = run(capsys, ["table"] + argv)
        assert code == 0
        assert loop_calls["_backward"] + loop_calls["_upward"] == loops

    def test_one_legendre_recurrence_per_order_pair(self, capsys,
                                                    monkeypatch):
        # 41 degrees with n + 1 values of |m| each; one recurrence per
        # signed order would be 41^2 = 1681.
        calls = []

        def counted(*args, _loop=lbk.specfun._legendre_upward):
            calls.append(args[:2])
            return _loop(*args)

        monkeypatch.setattr(lbk.specfun, "_legendre_upward", counted)
        code, _, _ = run(capsys, ["table", "--n-max", "40", "--all-m",
                                  "--R", "3"])
        assert code == 0
        assert len(calls) == 861
        assert sorted(calls) == [(n, a) for n in range(41)
                                 for a in range(n + 1)]

    @pytest.mark.parametrize("flags, err", [
        (["--alpha", "1.0", "--R", "2.0", "--R", "inf"],
         "R must be finite and non-negative (got inf)"),
        (["--alpha", "1.0", "--R", "-1.0"],
         "R must be finite and non-negative (got -1.0)"),
        (["--alpha", "4.0", "--R", "2.0"],
         "alpha must lie in [0, pi] (got 4.0)"),
        (["--n-max", "175", "--m", "-172", "--alpha", "1.0", "--R", "2.0"],
         "degree above cap 170 (got n=175)"),
        (["--method", "quad", "--alpha", "1.0", "--R", "1e300"],
         "quadrature needs more than 2097152 nodes per pass (R, base_panels "
         "or nodes_per_panel too large)"),
        (["--n-max", "170", "--m", "170", "--alpha", "1.0", "--R", "100"],
         "I overflows double precision for n=170, m=170, alpha=1.0, "
         "R=100.0"),
        (["--n-max", "170", "--m", "170", "--alpha", "1.0", "--R", "100",
          "--method", "quad"],
         "quadrature value overflows double precision"),
        # The first failing entry in record order: one row per radius,
        # stepped entry by entry.
        (["--n-max", "170", "--all-m", "--alpha", "1.0", "--R", "100"],
         "I overflows double precision for n=165, m=164, alpha=1.0, "
         "R=100.0"),
        (["--n-max", "170", "--all-m", "--alpha", "1.0", "--R", "100",
          "--R", "0"],
         "I overflows double precision for n=165, m=164, alpha=1.0, "
         "R=100.0"),
    ])
    def test_exit_2_reports_the_first_failing_entry(self, capsys, flags, err):
        code, out, got = run(capsys, ["table", "--n-max", "1"] + flags)
        assert (code, out, got) == (2, "", f"invalid input: {err}\n")

    def test_compare_fails_at_the_first_failing_entry(self, capsys,
                                                      monkeypatch):
        # A stand-in oracle keeps the 2.8e4 entries fast; its calls show
        # that every entry before the failing one ran both methods.
        seen = []

        def oracle(p, spec):
            seen.append((p.n, p.m, p.R))
            return QuadResult(0j, 0.0, 8, True)

        monkeypatch.setattr(lbk.cli, "integrate_I", oracle)
        code, out, err = run(capsys, ["table", "--n-max", "170", "--all-m",
                                      "--alpha", "1.0", "--R", "100",
                                      "--compare"])
        assert (code, out) == (2, "")
        assert err == ("invalid input: I overflows double precision for "
                       "n=165, m=164, alpha=1.0, R=100.0\n")
        assert seen[-1] == (165, 163, 100.0)
        assert len(seen) == 165 ** 2 + len(range(-165, 164))


def test_table_and_import_leave_the_process_pool_unloaded():
    # Only a pooled sweep imports concurrent.futures.process, and with it
    # multiprocessing; eval, quad and table processes, and a sweep of one
    # oracle block, skip that import.  Likewise only CSV output loads csv
    # and only bench loads statistics.
    script = """
import contextlib, io, sys
import lbk.cli
from lbk.oracle import _blocks
from lbk.verify import SWEEP_ORACLE_SPEC, SweepConfig, draw_cases, sweep_random
lazy = ("multiprocessing", "concurrent.futures.process", "csv", "statistics")
def loaded():
    return [name for name in lazy if name in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    code = lbk.cli.main(["table", "--n-max", "2", "--all-m"])
print(code, loaded())
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = lbk.cli.main(["table", "--n-max", "1", "--R", "0",
                         "--format", "csv"])
print(code, loaded(), out.getvalue().splitlines()[:2])
for cases in 9, 40:
    cfg = SweepConfig(seed=1, cases=cases)
    blocks = len(list(_blocks(draw_cases(cfg), SWEEP_ORACLE_SPEC)))
    report = sweep_random(cfg, workers=2)
    print(blocks, report.total, len(report.failures), loaded())
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, LBK_WORKERS="2"),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "0 []",
        "0 ['csv'] ['n,m,alpha,R,re,im,method,abs_err', "
        "'0,0,1,0,2,0,closed,']",
        "1 9 0 ['csv']",
        "2 40 0 ['multiprocessing', 'concurrent.futures.process', 'csv']"]


class TestCsvMatchesJson:
    # Every CSV cell is the JSON field named by its header column, rendered
    # the same way, blank where the record lacks it; verify's failures cell
    # is the count.  A step clock makes the timing fields of both runs equal.
    @pytest.mark.parametrize("argv", [
        ["eval", "--n", "3", "--m", "-2", "--alpha", "0.37", "--R", "11.25"],
        ["quad", "--n", "2", "--m", "1", "--alpha", "1.0", "--R", "2.0"],
        ["quad", "--n", "2", "--m", "1", "--alpha", "1.0", "--R", "2.0",
         "--abs-tol", "1e-30", "--rel-tol", "1e-30", "--max-refinements", "1"],
        ["table", "--n-max", "2", "--all-m", "--alpha", "1.0",
         "--R", "7.5", "--R", "0"],
        ["table", "--n-max", "1", "--all-m", "--alpha", "1.0", "--R", "2.0",
         "--compare"],
        ["verify", "--seed", "5", "--cases", "8"],
        ["verify", "--seed", "1", "--cases", "4",
         "--abs-tol", "1e-30", "--rel-tol", "1e-30"],
        ["bench", "--n-max", "1", "--R-max", "5", "--reps", "2"],
    ])
    def test_every_cell_is_the_json_field(self, capsys, monkeypatch, argv):
        outputs = []
        for fmt in ("json", "csv"):
            clock = itertools.count()
            monkeypatch.setattr(time, "perf_counter", lambda: float(next(clock)))
            code, out, _ = run(capsys, argv + ["--format", fmt])
            outputs.append((code, out))
        (code_j, out_j), (code_c, out_c) = outputs
        assert code_j == code_c
        # Tokens stay as rendered text, so -0 and 17-digit floats compare
        # exactly.
        payload = json.loads(out_j, parse_int=str, parse_float=str)
        records = (payload["rows"] if argv[0] == "bench"
                   else payload if isinstance(payload, list) else [payload])
        header, *rows = csv.reader(io.StringIO(out_c))
        assert len(rows) == len(records) >= 1
        for rec, row in zip(records, rows):
            assert set(rec) <= set(header)
            want = ["" if col not in rec
                    else str(len(rec[col])) if isinstance(rec[col], list)
                    else str(rec[col]) for col in header]
            assert row == want
        if argv[0] == "verify":
            assert header == list(payload)


def reference_render_json(obj):
    # The recursive renderer that render_json replaced, kept as the
    # definition of the canonical bytes.
    if isinstance(obj, dict):
        items = ",".join(f"{reference_render_json(str(k))}:"
                         f"{reference_render_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(reference_render_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(float(obj), ".17g")
    if obj is None:
        return "null"
    return json.dumps(obj)


_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                1e308, 1.7976931348623157e308, 0.1, 1 / 3]
_LEAVES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(), st.booleans(), st.none(),
    st.text(alphabet=st.characters(codec="utf-8"), max_size=8),
    st.sampled_from(["n", "re", "method", "ñ", "α", "\u2603", '"', "\\", "\n"]),
)
_KEYS = st.one_of(st.text(max_size=6), st.sampled_from(["n", "m", "R", "α"]),
                  st.integers(), st.booleans(), st.sampled_from(_EDGE_FLOATS))
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(_KEYS, inner, max_size=5)),
    max_leaves=30)


def _unrendered_records(monkeypatch, argv):
    # The records cmd_table hands to the renderer, captured unrendered.
    seen = []
    monkeypatch.setattr(lbk.cli, "_emit",
                        lambda args, payload, header, records:
                        seen.append(payload))
    assert main(argv) == 0
    return seen[0]


class TestCanonicalWriter:
    @settings(max_examples=400, deadline=None)
    @given(_PAYLOADS)
    def test_matches_reference_renderer(self, payload):
        assert render_json(payload) == reference_render_json(payload)

    def test_equal_keys_of_other_types_print_apart(self):
        payload = [{"1": 0}, {1: 0}, {True: 0}, {1.0: 0}, {0.0: 0}, {-0.0: 0}]
        assert render_json(payload) == reference_render_json(payload) == (
            '[{"1":0},{"1":0},{"True":0},{"1.0":0},{"0.0":0},{"-0.0":0}]')

    def test_table_records_match_reference(self, monkeypatch):
        records = _unrendered_records(monkeypatch, [
            "table", "--n-max", "12", "--all-m", "--alpha", "0.3",
            "--R", "3", "--R", "40"])
        assert len(records) == 2 * 13 ** 2
        assert render_json(records) == reference_render_json(records)

    def test_peak_memory_stays_at_reference(self, monkeypatch):
        # Each container joins its own parts, as the reference does; one
        # parts list for the whole output peaks at ~2.4x.
        import tracemalloc

        records = _unrendered_records(monkeypatch, [
            "table", "--n-max", "40", "--all-m", "--alpha", "1.1",
            "--R", "23"])
        assert len(records) == 41 ** 2
        render_json(records)  # fills the key cache outside the measurement
        peaks = {}
        for name, fn in (("reference", reference_render_json),
                         ("writer", render_json)):
            tracemalloc.start()
            text = fn(records)
            peaks[name] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            del text
        assert peaks["writer"] <= 1.1 * peaks["reference"]


class TestRendering:
    def test_json_round_trip(self, capsys):
        for argv in (
            ["eval", "--n", "3", "--m", "-2", "--alpha", "0.37", "--R", "11.25"],
            ["quad", "--n", "1", "--m", "1", "--alpha", "2.0", "--R", "4.5"],
            ["verify", "--seed", "2", "--cases", "3"],
            ["table", "--n-max", "1", "--all-m", "--alpha", "1.0", "--R", "2.0"],
        ):
            _, out, _ = run(capsys, argv)
            text = out.strip()
            assert render_json(json.loads(text)) == text

    def test_seventeen_digit_floats(self):
        assert render_json(1.2732395447351628) == "1.2732395447351628"
        assert render_json(2.0) == "2"
        assert render_json({"a": True, "b": None}) == '{"a":true,"b":null}'

    def test_unknown_command_exit_2(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 2
        assert run(capsys, [])[0] == 2

    def test_reused_parser_matches_fresh_parser(self, capsys):
        # main() builds its parser once per process; a rejected argv must not
        # change what a later call prints or returns.
        argvs = [
            ["table", "--n-max", "2", "--m", "1", "--all-m"],  # argparse: 2
            ["table", "--n-max", "2", "--m", "1", "--R", "2.0"],
            ["table", "--n-max", "1", "--all-m", "--format", "csv"],
            ["eval", "--n", "2", "--m", "1", "--alpha", "1.0"],  # missing --R
            ["eval", "--n", "2", "--m", "1", "--alpha", "1.0", "--R", "2.0"],
            ["quad", "--n", "1", "--m", "0", "--alpha", "1.0", "--R", "3.0",
             "--base-panels", "4"],
        ]
        fresh = []
        for argv in argvs:
            lbk.cli._parser.cache_clear()
            fresh.append(run(capsys, argv)[:2])
        reused = [run(capsys, argv)[:2] for argv in argvs]
        assert [code for code, _ in fresh] == [2, 0, 0, 2, 0, 0]
        assert reused == fresh

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "lbk", "eval", "--n", "0", "--m", "0",
             "--alpha", "1.0", "--R", "0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["re"] == 2

    def test_closed_pipe_exits_quietly(self):
        # The reader takes 10 bytes of a ~340 KB table and closes its end,
        # as `| head -c 10` does; the table is far past a pipe's buffer, so
        # the writer meets the closed pipe.  Exit 141, no traceback.
        proc = subprocess.Popen(
            [sys.executable, "-m", "lbk", "table", "--n-max", "40",
             "--all-m", "--R", "3", "--R", "30"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(10) == b'[{"n":0,"m'
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert stderr == b""
