import concurrent.futures
import math

import numpy as np
import pytest

import lbk.oracle
import lbk.verify
from lbk.kernel import IntegralParams
from lbk.oracle import QuadratureSpec
from lbk.verify import (
    SWEEP_ORACLE_SPEC,
    SweepConfig,
    check_alpha_independence,
    check_derivative,
    check_identity,
    check_mult_theorem,
    check_recurrence_F,
    check_recurrence_I,
    check_specfun_recurrences,
    draw_cases,
    resolve_workers,
    sweep_random,
)


class TestSweepConfig:
    @pytest.mark.parametrize("kwargs", [
        {"cases": 0}, {"n_max": -1}, {"R_max": 0.0},
        {"alpha_margin": 0.0}, {"alpha_margin": 2.0},
        {"abs_tol": math.inf}, {"abs_tol": math.nan}, {"abs_tol": -1.0},
        {"abs_tol": 0.0}, {"abs_tol": 1.0}, {"rel_tol": 2.0},
        {"rel_tol": math.nan}, {"rel_tol": 0.0},
    ])
    def test_invalid(self, kwargs):
        base = {"seed": 1, "cases": 5}
        base.update(kwargs)
        with pytest.raises(ValueError):
            SweepConfig(**base)


class TestDrawCases:
    def test_deterministic(self):
        cfg = SweepConfig(seed=42, cases=10)
        assert draw_cases(cfg) == draw_cases(cfg)

    def test_first_case_seed_42(self):
        # MT19937 stream is pinned: first four uniforms of seed 42
        case = draw_cases(SweepConfig(seed=42, cases=1))[0]
        assert case == IntegralParams(13, -13, 0.8865271542733215,
                                      38.839463092558866)

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_domain(self, seed):
        cfg = SweepConfig(seed=seed, cases=200, n_max=11, R_max=9.0,
                          alpha_margin=0.2)
        for p in draw_cases(cfg):
            assert 0 <= p.n <= 11
            assert -p.n <= p.m <= p.n
            assert 0.2 <= p.alpha <= math.pi - 0.2
            assert 0.0 < p.R <= 9.0


class TestCheckIdentity:
    def test_base_case(self):
        rep = check_identity(IntegralParams(0, 0, 1.2, math.pi / 2))
        assert rep.passed and rep.oracle_converged
        assert rep.closed.real == pytest.approx(1.2732395447351628, rel=1e-14)
        assert rep.abs_err == abs(rep.closed - rep.oracle)
        assert rep.rel_err == rep.abs_err / (1.0 + abs(rep.closed))

    def test_near_degenerate_alpha(self):
        rep = check_identity(IntegralParams(5, 3, 0.001, 10.0))
        assert rep.passed

    def test_high_order_negative_m(self):
        rep = check_identity(IntegralParams(12, -7, 2.1, 30.0),
                             abs_tol=1e-10, rel_tol=1e-10)
        assert rep.passed

    @pytest.mark.parametrize("alpha", [0.0, math.pi])
    @pytest.mark.parametrize("n, m", [(0, 0), (3, 0), (4, 2), (5, -5)])
    def test_alpha_boundaries(self, alpha, n, m):
        # the random sweep keeps a margin from {0, pi}; the identity holds
        # there too (the Bessel factor collapses to its m = 0 case)
        rep = check_identity(IntegralParams(n, m, alpha, 7.3))
        assert rep.passed

    def test_failure_is_data(self):
        rep = check_identity(IntegralParams(3, 2, 1.0, 5.0),
                             abs_tol=1e-30, rel_tol=1e-30)
        assert not rep.passed
        assert rep.oracle_converged


    def test_raising_closed_form_is_a_failed_case(self):
        # I(170, 170, 1.0, 100) ~ 2.46e318 passes the double range (mpmath);
        # the case fails with the reason, not the sweep
        rep = check_identity(IntegralParams(170, 170, 1.0, 100.0))
        assert not rep.passed and not rep.oracle_converged
        assert rep.closed is rep.oracle is rep.abs_err is rep.rel_err is None
        assert rep.reason == ("closed form: I overflows double precision "
                              "for n=170, m=170, alpha=1.0, R=100.0")

    def test_raising_oracle_is_a_failed_case(self):
        # The closed form fits (|I| ~ 1.7e146); the oracle's integrand
        # evaluates P_170^169 near u = 0, which does not.
        rep = check_identity(IntegralParams(170, 169, 2.6056, 14.61))
        assert not rep.passed and not rep.oracle_converged
        assert math.isfinite(abs(rep.closed)) and rep.oracle is None
        assert rep.abs_err is None and rep.rel_err is None
        assert rep.reason.startswith("oracle: P_n^m overflows")


def _block_count(cfg, spec=SWEEP_ORACLE_SPEC):
    return len(list(lbk.oracle._blocks(draw_cases(cfg), spec)))


class _RecordingPool:
    # Stands in for ProcessPoolExecutor: records each pool started and the
    # tasks it maps, and runs them in-process.
    def __init__(self, started, mapped):
        self.started, self.mapped = started, mapped

    def __call__(self, max_workers):
        self.started.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.mapped.append(tasks)
        return map(fn, tasks)


class TestSweepRandom:
    def test_deterministic_and_scheduling_independent(self):
        # 60 cases make three oracle blocks, which the pool maps
        cfg = SweepConfig(seed=7, cases=60)
        assert _block_count(cfg) > 1
        a = sweep_random(cfg, workers=1)
        b = sweep_random(cfg, workers=2)
        assert a.total == b.total == 60
        assert a.failures == b.failures == ()
        assert a.max_abs_err == b.max_abs_err
        assert a.max_rel_err == b.max_rel_err

    def test_pool_maps_the_oracle_blocks(self, monkeypatch):
        cfg = SweepConfig(seed=7, cases=60)
        started, mapped = [], []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _RecordingPool(started, mapped))
        assert sweep_random(cfg, workers=2).total == 60
        assert started == [2]
        assert mapped == [list(lbk.oracle._blocks(draw_cases(cfg),
                                                  SWEEP_ORACLE_SPEC))]

    def test_one_block_starts_no_pool(self, monkeypatch):
        cfg = SweepConfig(seed=7, cases=24)
        assert _block_count(cfg) == 1
        started = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _RecordingPool(started, []))
        assert sweep_random(cfg, workers=2).total == 24
        assert started == []

    def test_small_sweep_passes(self):
        rep = sweep_random(SweepConfig(seed=42, cases=50), workers=1)
        assert rep.total == 50
        assert rep.failures == ()
        assert rep.max_rel_err <= 1e-8

    def test_failures_listed(self):
        cfg = SweepConfig(seed=3, cases=6, abs_tol=1e-30, rel_tol=1e-30)
        rep = sweep_random(cfg, workers=1)
        assert len(rep.failures) >= 1
        assert all(not r.passed for r in rep.failures)


    def test_raising_case_does_not_abort_the_sweep(self):
        # seed 11 draws (167, 156, 2.039, 19.22) as its fifth case, whose
        # oracle integrand overflows P_n^m
        cfg = SweepConfig(seed=11, cases=5, n_max=170, R_max=50.0)
        assert draw_cases(cfg)[-1].n == 167
        rep = sweep_random(cfg, workers=1)
        assert rep.total == 5
        assert any(f.reason and f.reason.startswith("oracle:")
                   for f in rep.failures)
        assert math.isfinite(rep.max_abs_err)


class TestOracleBlocks:
    # sweep_random evaluates the oracle's seed passes a block of cases at a
    # time; each case must still get the report of its own lone call.

    @pytest.mark.parametrize("cases", [5, 48])
    def test_sweep_matches_lone_calls(self, cases, monkeypatch):
        # seed 11 at n <= 170: the fifth case raises in the oracle (P_n^m
        # overflows), and others escalate to longdouble and stay
        # unconverged.  At 5 cases one oracle block, which no pool runs; at
        # 48, ten, which the pool maps.
        cfg = SweepConfig(seed=11, cases=cases, n_max=170, R_max=50.0)
        spec = SWEEP_ORACLE_SPEC
        lone = [check_identity(p, spec, cfg.abs_tol, cfg.rel_tol)
                for p in draw_cases(cfg)]
        assert any(r.reason and r.reason.startswith("oracle:") for r in lone)
        assert any(r.reason is None and not r.oracle_converged for r in lone)

        longdouble = []
        gk_rule = lbk.oracle._gk_rule

        def spy(n, dtype):
            longdouble.append(np.dtype(dtype) == np.dtype(np.longdouble))
            return gk_rule(n, dtype)

        monkeypatch.setattr(lbk.oracle, "_gk_rule", spy)
        blocks = list(lbk.oracle._blocks(draw_cases(cfg), spec))
        assert len(blocks) == {5: 1, 48: 10}[cases]
        assert max(map(len, blocks)) > 1
        blocked = [r for block in blocks for r in lbk.verify._check_block(
            block, spec, cfg.abs_tol, cfg.rel_tol)]
        # repr tells every bit of a float, the sign of zero included
        assert list(map(repr, blocked)) == list(map(repr, lone))
        assert any(longdouble) or not lbk.oracle._HAS_EXTENDED
        monkeypatch.undo()

        failures = tuple(r for r in lone if not r.passed)
        for workers in (1, 2):
            rep = sweep_random(cfg, spec, workers=workers)
            assert rep.total == cases
            assert list(map(repr, rep.failures)) == list(map(repr, failures))
            assert rep.max_abs_err == max(
                r.abs_err for r in lone if r.abs_err is not None)
            assert rep.max_rel_err == max(
                r.rel_err for r in lone if r.rel_err is not None)
            assert lbk.oracle._SEEDS.get() is None

    def test_case_past_node_cap_is_a_block_of_its_own(self):
        spec = SWEEP_ORACLE_SPEC
        small = IntegralParams(2, 1, 1.0, 2.0)
        huge = IntegralParams(5, 2, 1.0, 1e300)
        assert list(lbk.oracle._blocks([small, small, huge, small], spec)) == [
            [small, small], [huge], [small]]
        with lbk.oracle._seeded([huge], spec):
            assert check_identity(huge, spec).reason.startswith(
                "oracle: quadrature needs more than")

    def test_block_seeds_dropped_when_it_raises(self):
        cfg = SweepConfig(seed=11, cases=5, n_max=170, R_max=50.0)
        block = draw_cases(cfg)
        spec = SWEEP_ORACLE_SPEC
        with pytest.raises(RuntimeError):
            with lbk.oracle._seeded(block, spec):
                # the case whose P_n^m overflows raises in its own call
                assert set(lbk.oracle._SEEDS.get()) == {(p, spec)
                                                        for p in block[:4]}
                assert check_identity(block[4], spec).reason.startswith(
                    "oracle: P_n^m overflows")
                raise RuntimeError
        assert lbk.oracle._SEEDS.get() is None


class TestRecurrences:
    def test_closed_form_residuals(self):
        assert check_recurrence_F(2, 1, math.pi / 3, 2.0) <= 1e-12
        assert check_recurrence_F(10, 5, 0.5, 40.0) <= 1e-11
        assert check_recurrence_F(25, 12, 2.0, 50.0) <= 1e-11

    def test_closed_form_residual_at_right_angle(self):
        # cos(alpha) never enters the relation
        assert check_recurrence_F(5, 1, math.pi / 2, 7.0) <= 1e-12

    def test_closed_form_top_order_uses_zero_extension(self):
        assert check_recurrence_F(5, 4, 1.1, 7.0) <= 1e-12

    def test_quadrature_residuals(self):
        r = check_recurrence_I(2, 1, math.pi / 3, 2.0)
        assert r.converged and r.residual <= 1e-8
        r = check_recurrence_I(5, 2, 1.0, 10.0)
        assert r.converged and r.residual <= 1e-8
        # m = n - 1: the (n-1, m+1) term is the zero extension.
        r = check_recurrence_I(5, 4, 1.1, 7.0)
        assert r.converged and r.residual <= 1e-8

    def test_quadrature_residual_small_radius(self):
        r = check_recurrence_I(3, 1, 1.0, 1e-10)
        assert r.residual <= 1e-10

    def test_invalid_orders(self):
        with pytest.raises(ValueError):
            check_recurrence_F(3, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            check_recurrence_F(3, 3, 1.0, 1.0)
        with pytest.raises(ValueError):
            check_recurrence_I(2, 2, 1.0, 1.0)


class TestDerivative:
    def test_base_case(self):
        errs = check_derivative(IntegralParams(0, 0, 0.7, math.pi), h=1e-5)
        assert errs.fd_err <= 1e-7
        assert errs.quad_err <= 1e-9

    def test_midrange(self):
        errs = check_derivative(IntegralParams(2, 1, math.pi / 3, 2.0), h=1e-5)
        assert errs.fd_err <= 1e-7
        assert errs.quad_err <= 1e-7

    def test_small_radius_is_smooth(self):
        errs = check_derivative(IntegralParams(1, 0, 1.0, 0.1), h=1e-6)
        assert errs.fd_err <= 1e-6
        assert errs.quad_err <= 1e-8

    def test_step_validation(self):
        with pytest.raises(ValueError):
            check_derivative(IntegralParams(1, 0, 1.0, 0.1), h=0.2)


class TestAlphaIndependence:
    def test_zero_of_j0(self):
        spread = check_alpha_independence(math.pi, [0.3, 1.0, 2.5])
        assert spread <= 1e-10

    def test_zero_radius_exact(self):
        assert check_alpha_independence(0.0, [0.3, 1.0, 2.5]) <= 1e-14

    def test_ten_angles(self):
        alphas = [0.3 + i * (math.pi - 0.6) / 9.0 for i in range(10)]
        assert check_alpha_independence(7.7, alphas) <= 1e-9


class TestSpecfunRecurrences:
    def test_default_grid(self):
        res = check_specfun_recurrences(30)
        assert set(res) == {"legendre_degree", "legendre_alpha",
                            "bessel_cyl", "bessel_sph"}
        for family, worst in res.items():
            assert worst <= 1e-9, family

    def test_endpoints_exact(self):
        res = check_specfun_recurrences(2, x_grid=[-1.0, 1.0])
        assert res["legendre_degree"] == 0.0

    def test_requires_two_degrees(self):
        with pytest.raises(ValueError):
            check_specfun_recurrences(1)

    def test_one_call_per_distinct_value(self, monkeypatch):
        # Each P_n^m, J_m and j_n the residuals read is one public call on
        # its grid: P for 0 <= n <= 31 and -1 <= m <= n on the x grid
        # (559) and 0 <= m <= n on the alpha grid (528), J_m and j_n for
        # orders 0..31 on the Bessel grid.
        calls = {"assoc_legendre": [], "bessel_j": [],
                 "spherical_bessel_j": []}
        for name, seen in calls.items():
            def counted(*args, _fn=getattr(lbk.verify, name), _seen=seen):
                _seen.append(args[:-1] + (args[-1].tobytes(),))
                return _fn(*args)
            monkeypatch.setattr(lbk.verify, name, counted)
        check_specfun_recurrences(30)
        assert {name: len(seen) for name, seen in calls.items()} == {
            "assoc_legendre": 559 + 528, "bessel_j": 32,
            "spherical_bessel_j": 32}
        for seen in calls.values():
            assert len(set(seen)) == len(seen)


class TestMultTheorem:
    def test_default_grid(self):
        assert check_mult_theorem() <= 1e-10

    def test_alpha_zero_exact_at_any_order(self):
        assert check_mult_theorem(R_grid=(0.7, 3.0), alpha_grid=(0.0,), S=1) <= 1e-15

    def test_zero_radius_contributes_nothing(self):
        assert check_mult_theorem(R_grid=(0.0,), alpha_grid=(0.3,), S=5) <= 1e-15

    def test_requires_one_term(self):
        with pytest.raises(ValueError, match="require S >= 1"):
            check_mult_theorem(S=0)

    def test_integral_float_order(self):
        assert check_mult_theorem(S=2.0) == check_mult_theorem(S=2)
        with pytest.raises(ValueError, match="S=2.5"):
            check_mult_theorem(S=2.5)


class TestResolveWorkers:
    def test_explicit(self, monkeypatch):
        monkeypatch.delenv("LBK_WORKERS", raising=False)
        assert resolve_workers(3) == 3

    def test_env_caps(self, monkeypatch):
        monkeypatch.setenv("LBK_WORKERS", "1")
        assert resolve_workers(8) == 1

    def test_env_does_not_raise_above(self, monkeypatch):
        monkeypatch.setenv("LBK_WORKERS", "64")
        assert resolve_workers(2) == 2

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv("LBK_WORKERS", "zero")
        with pytest.raises(ValueError):
            resolve_workers(2)
        monkeypatch.setenv("LBK_WORKERS", "0")
        with pytest.raises(ValueError):
            resolve_workers(2)

    def test_invalid_request(self, monkeypatch):
        monkeypatch.delenv("LBK_WORKERS", raising=False)
        with pytest.raises(ValueError):
            resolve_workers(0)


def test_sweep_oracle_spec_is_one_decade_below_pass_tolerance():
    assert SWEEP_ORACLE_SPEC.abs_tol == 1e-9
    assert SWEEP_ORACLE_SPEC.rel_tol == 1e-8
    assert isinstance(SWEEP_ORACLE_SPEC, QuadratureSpec)
