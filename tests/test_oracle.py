import math

import mpmath
import numpy as np
import pytest

import lbk.oracle
from lbk.kernel import (
    IntegralParams,
    closed_form_dI_dR,
    closed_form_I,
    lock_closed_form,
    poisson_closed_form,
)
from lbk.oracle import (
    _HAS_EXTENDED,
    QuadratureSpec,
    _gk_rule,
    gauss_panels,
    integrate_dI_dR,
    integrate_I,
    integrate_lock,
    integrate_poisson_exp,
)
from lbk.specfun import assoc_legendre, bessel_j
from lbk.verify import SWEEP_ORACLE_SPEC, SweepConfig, draw_cases

FOUR_OVER_PI = 1.2732395447351628

RULE_ORDERS = (1, 2, 7, 32, 1024)

QK15_NODES = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0)
QK15_WEIGHTS = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
QK15_GAUSS_WEIGHTS = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327)


def _closed_mp(n, m, alpha, R):
    # 2 i^(n-m) P_n^m(cos alpha) j_n(R) from mpmath (40 digits), m >= 0,
    # P_n^m from its terminating 2F1 (DLMF 14.3.1): legenp takes seconds
    # at (23, 21).
    with mpmath.workdps(40):
        x = mpmath.mpf(math.cos(alpha))
        leg = ((-1) ** m * mpmath.factorial(n + m)
               / (2 ** m * mpmath.factorial(m) * mpmath.factorial(n - m))
               * (1 - x * x) ** (mpmath.mpf(m) / 2)
               * mpmath.hyp2f1(m - n, m + n + 1, m + 1, (1 - x) / 2))
        R = mpmath.mpf(R)
        radial = mpmath.sqrt(mpmath.pi / (2 * R)) * mpmath.besselj(n + 0.5, R)
        return complex(2 * mpmath.mpc(0, 1) ** ((n - m) % 4) * leg * radial)


def assert_rule_exact(nodes, weights, n, tol):
    # Kronrod row exact for u^k through k = 3n + 1, Gauss row through 2n - 1
    power = np.ones_like(nodes)
    for k in range(3 * n + 2):
        want = nodes.dtype.type(2) / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(weights[0], power) - want) <= tol, ("kronrod", n, k)
        if k < 2 * n:
            assert abs(np.dot(weights[1], power) - want) <= tol, ("gauss", n, k)
        power = power * nodes


class TestQuadratureSpec:
    @pytest.mark.parametrize("kwargs", [
        {"base_panels": 0}, {"nodes_per_panel": 0}, {"abs_tol": 0.0},
        {"abs_tol": 1.5}, {"rel_tol": -1e-3}, {"max_refinements": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)

    def test_node_order_cap(self):
        # Building the rule takes time quadratic in the order.
        assert lbk.oracle.MAX_NODES_PER_PANEL == 1024
        QuadratureSpec(nodes_per_panel=1024)
        with pytest.raises(ValueError, match="nodes_per_panel"):
            QuadratureSpec(nodes_per_panel=1025)

    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.base_panels is None
        assert spec.nodes_per_panel == 32
        assert spec.abs_tol == 1e-12
        assert spec.rel_tol == 1e-10
        assert spec.max_refinements == 12


class TestPanelRule:
    def test_monomial_exactness_single_panel(self):
        # one panel of 32 nodes integrates u^k exactly for k <= 63, and so
        # does the theta-graded composite rule
        for panels in (1, 7):
            for k in range(64):
                got = gauss_panels(lambda u, su: u ** k, panels, 32).real
                want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
                assert got == pytest.approx(want, abs=3e-15), (panels, k)

    @pytest.mark.parametrize("n", RULE_ORDERS)
    def test_rule_monomial_exactness(self, n):
        nodes, weights = _gk_rule(n, np.float64)
        assert_rule_exact(nodes, weights, n, 3e-15)

    @pytest.mark.skipif(not _HAS_EXTENDED,
                        reason="longdouble is plain double on this platform")
    def test_extended_rule_monomial_exactness(self):
        # the Newton-refined longdouble rule beats double precision on u^k
        for n in RULE_ORDERS:
            nodes, weights = _gk_rule(n, np.longdouble)
            assert nodes.dtype == weights.dtype == np.longdouble
            assert_rule_exact(nodes, weights, n, 1e-17)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("n", RULE_ORDERS)
    def test_rule_structure(self, n, dtype):
        # ascending nodes inside (-1, 1), positive weights, and the Gauss
        # rule on the odd-indexed nodes, interlaced with the Kronrod-only ones
        nodes, weights = _gk_rule(n, dtype)
        assert nodes.shape == (2 * n + 1,) and weights.shape == (2, 2 * n + 1)
        assert np.all(np.diff(nodes) > 0) and -1 < nodes[0] and nodes[-1] < 1
        assert np.all(weights[0] > 0) and np.all(weights[1, 1::2] > 0)
        assert np.all(weights[1, 0::2] == 0)
        if n <= 32:
            x, w = np.polynomial.legendre.leggauss(n)
            np.testing.assert_allclose(nodes[1::2].astype(float), x,
                                       rtol=0, atol=2e-16)
            # leggauss's weights next to u = +-1 are off by up to 6e-14
            np.testing.assert_allclose(weights[1, 1::2].astype(float), w,
                                       rtol=1e-13, atol=0)

    def test_kronrod_15_point_rule(self):
        # QUADPACK's qk15 abscissae and weights (Piessens et al. 1983)
        nodes, weights = _gk_rule(7, np.float64)
        assert nodes[:8] == pytest.approx([-x for x in QK15_NODES],
                                          rel=0, abs=2e-16)
        assert weights[0, :8] == pytest.approx(QK15_WEIGHTS, rel=1e-14, abs=0)
        assert weights[1, 1:8:2] == pytest.approx(QK15_GAUSS_WEIGHTS,
                                                  rel=1e-14, abs=0)

    def test_embedded_gauss_panels(self):
        # gauss_panels runs the Gauss rule alone: one integrand call on its
        # order nodes per panel
        seen = []

        def f(u, su):
            seen.append(u.size)
            return u ** 12

        got = gauss_panels(f, 5, 7).real
        assert seen == [35]
        assert got == pytest.approx(2.0 / 13.0, rel=1e-14, abs=0)

    @pytest.mark.parametrize("order", [7, 32])
    @pytest.mark.parametrize("panels", [1, 2, 5, 8])
    def test_layout_mirror_exact(self, panels, order):
        # f is called once, on a node set closed under u -> -u bit for bit,
        # with a node at u = 0 only once
        seen = []

        def f(u, su):
            seen.append(u.copy())
            return np.ones_like(u)

        gauss_panels(f, panels, order)
        assert len(seen) == 1
        u = np.sort(seen[0])
        assert u.size == panels * order
        np.testing.assert_array_equal(u, -u[::-1])

    def test_degrades_far_past_design_degree(self):
        got = gauss_panels(lambda u, su: u ** 150, 1, 32).real
        assert abs(got - 2.0 / 151.0) > 1e-8

    def test_weights_sum_to_interval(self):
        got = gauss_panels(lambda u, su: np.ones_like(u), 7, 32).real
        assert got == pytest.approx(2.0, abs=1e-14)


class TestIntegrateI:
    def test_radius_zero_reduces_to_measure(self):
        q = integrate_I(IntegralParams(0, 0, 1.0, 0.0))
        assert q.converged
        assert q.value == pytest.approx(2.0 + 0.0j, abs=1e-14)

    def test_base_case_known_value(self):
        q = integrate_I(IntegralParams(0, 0, 0.7, math.pi / 2))
        assert q.converged
        assert q.value.real == pytest.approx(FOUR_OVER_PI, abs=1e-10)
        assert abs(q.value.imag) < 1e-12

    def test_matches_closed_form_midrange(self):
        p = IntegralParams(2, 1, math.pi / 3, 2.0)
        q = integrate_I(p)
        assert q.converged
        assert abs(q.value - closed_form_I(p)) < 1e-9

    def test_node_order_cross_validation(self):
        p = IntegralParams(7, -4, 1.1, 23.0)
        a = integrate_I(p, QuadratureSpec(nodes_per_panel=32)).value
        b = integrate_I(p, QuadratureSpec(nodes_per_panel=64)).value
        assert a == pytest.approx(b, rel=1e-11, abs=1e-12)

    def test_high_cancellation_by_escalation(self):
        # envelope exceeds the value by ~1e10; double precision alone
        # cannot deliver this accuracy
        p = IntegralParams(20, 20, math.asin(0.1), 50.0)
        c = closed_form_I(p)
        q = integrate_I(p, QuadratureSpec(abs_tol=1e-9, rel_tol=1e-8))
        assert q.converged
        assert abs(q.value - c) / (1.0 + abs(c)) < 1e-8

    def test_forced_non_convergence_is_reported(self):
        spec = QuadratureSpec(abs_tol=1e-30, rel_tol=1e-30, max_refinements=1)
        q = integrate_I(IntegralParams(2, 1, 1.0, 2.0), spec)
        assert not q.converged
        assert q.est_error > 1e-30

    def test_oscillation_safety(self):
        # default panel rule converges across the oscillatory range
        for n in (0, 10, 30):
            for R in (1.0, 50.0, 100.0):
                q = integrate_I(IntegralParams(n, n // 2, 1.0, R))
                assert q.converged, (n, R)

    def test_refinement_monotonicity(self):
        p = IntegralParams(5, 3, 1.0, 20.0)
        e16 = integrate_I(p, QuadratureSpec(base_panels=16))
        e32 = integrate_I(p, QuadratureSpec(base_panels=32))
        assert e16.converged and e32.converged
        assert e32.est_error <= 2.0 * e16.est_error + 1e-15

    @pytest.mark.parametrize("R", [2000.0, 4000.0, 1e4, 2e4])
    @pytest.mark.parametrize("alpha", [0.3, 1.55, 2.9])
    def test_large_radius_default_seed(self, R, alpha):
        # the default seed resolves R in the thousands with one doubling
        p = IntegralParams(5, 2, alpha, R)
        c = closed_form_I(p)
        q = integrate_I(p)
        assert q.converged
        assert abs(q.value - c) / (1.0 + abs(c)) <= 1e-12
        assert q.panels_used <= 2 * lbk.oracle._auto_panels(R, 5)

    def test_seed_past_node_cap_is_rejected(self):
        with pytest.raises(ValueError, match="nodes per pass"):
            integrate_I(IntegralParams(5, 2, 1.0, 1e300))

    def test_doubling_stops_at_node_cap(self, monkeypatch):
        # 8 panels of 2 * 32 + 1 nodes leave R = 400 under-resolved
        monkeypatch.setattr(lbk.oracle, "MAX_NODES", 65 * 8)
        q = integrate_I(IntegralParams(2, 1, 1.0, 400.0),
                        QuadratureSpec(base_panels=1))
        assert not q.converged
        assert q.panels_used == 8
        assert math.isfinite(q.est_error)

    def test_panels_used_doubles_from_base(self):
        # R = 300 needs k >= 1 doublings of the 3 base panels
        for R, min_doublings in ((1.0, 0), (300.0, 1)):
            q = integrate_I(IntegralParams(1, 0, 1.0, R),
                            QuadratureSpec(base_panels=3))
            assert q.converged
            k = round(math.log2(q.panels_used / 3))
            assert q.panels_used == 3 * 2 ** k and k >= min_doublings, R

    @pytest.mark.parametrize("R", [125.0, 1000.0, 1e4, 2e4])
    @pytest.mark.parametrize("alpha", [0.3, 1.55, 2.9])
    def test_default_seed_converges_in_one_pass(self, R, alpha, monkeypatch):
        # the seed layout is accepted as is, on one bessel_j call over the
        # u >= 0 half of its (2 * 32 + 1) * seed nodes
        points = []

        def counting(m, x):
            points.append(np.size(x))
            return bessel_j(m, x)

        monkeypatch.setattr(lbk.oracle, "bessel_j", counting)
        seed = lbk.oracle._auto_panels(R, 5)
        q = integrate_I(IntegralParams(5, 2, alpha, R))
        assert q.converged
        assert q.panels_used == seed
        assert points == [(65 * seed + 1) // 2]

    def test_sweep_draws_converge_at_seed(self, monkeypatch):
        # One panel per two Legendre zeros: every case of a default-domain
        # sweep draw (n <= 20, R <= 50, alpha margin 0.05) is accepted at
        # its seed layout under the sweep's stopping rule, or, where it
        # escalates, at the one layout it is compared with, and agrees with
        # the closed form to the sweep tolerance.
        dtypes = []

        def rule(order, dtype, _rule=lbk.oracle._gk_rule):
            dtypes.append(dtype)
            return _rule(order, dtype)

        monkeypatch.setattr(lbk.oracle, "_gk_rule", rule)
        cfg = SweepConfig(seed=1, cases=400, alpha_margin=0.05)
        for p in draw_cases(cfg):
            dtypes.clear()
            q = integrate_I(p, SWEEP_ORACLE_SPEC)
            c = closed_form_I(p)
            escalated = _HAS_EXTENDED and np.longdouble in dtypes
            seed = lbk.oracle._auto_panels(p.R, p.n)
            assert q.converged, p
            assert q.panels_used == (2 * seed if escalated else seed) or (
                not _HAS_EXTENDED and q.panels_used == 2 * seed), p
            assert abs(q.value - c) / (1.0 + abs(c)) <= cfg.rel_tol, p

    def test_integrand_leaves_node_arrays_unmodified(self, monkeypatch):
        # The specfun calls of each pass, in double and in extended
        # precision, return without writing to the node arrays they get.
        checked = []

        def guarded(fn):
            def call(*args):
                before = args[-1].copy()
                out = fn(*args)
                assert np.array_equal(args[-1], before), fn.__name__
                checked.append(args[-1].dtype)
                return out
            return call

        for name in ("assoc_legendre", "bessel_j"):
            monkeypatch.setattr(lbk.oracle, name,
                                guarded(getattr(lbk.oracle, name)))
        # escalates to extended precision where the platform has it, and
        # there takes a second layout to compare with
        q = integrate_I(IntegralParams(20, 20, 0.3, 48.0), SWEEP_ORACLE_SPEC)
        assert q.converged
        assert len(checked) == (6 if _HAS_EXTENDED else 2)

    @pytest.mark.parametrize("n, m, alpha, R, spec, converged", [
        # The 73-panel extended pass gives K = G to the last bit at
        # L1/|I| ~ 6e57; its value is -1.06e49.
        (138, 34, 2.3882274427897348, 39.34176733928225, QuadratureSpec(),
         False),
        # At 914 panels the estimate, 1.10e6, meets the target, 1.14e6, but
        # the value is 1.98e6 off.
        (23, 21, 2.814, 5591.1, SWEEP_ORACLE_SPEC, False),
        # test_high_cancellation_by_escalation's case: its layouts agree.
        (20, 20, math.asin(0.1), 50.0,
         QuadratureSpec(abs_tol=1e-9, rel_tol=1e-8), True),
    ])
    def test_crowded_floor_converges_only_where_layouts_agree(
            self, n, m, alpha, R, spec, converged):
        # Where the rounding floor crowds the target, an estimate under it
        # is not enough; a crowded call converges exactly where its value
        # lies within the target of mpmath's.
        want = _closed_mp(n, m, alpha, R)
        q = integrate_I(IntegralParams(n, m, alpha, R), spec)
        target = max(spec.abs_tol, spec.rel_tol * abs(want))
        assert q.converged == converged
        assert (abs(q.value - want) <= target) == converged

    @pytest.mark.parametrize("panels", [15, 16])
    @pytest.mark.parametrize("n, m", [(7, 3), (6, -3)])
    def test_fold_matches_unfolded_integrand(self, n, m, panels):
        # the real-arithmetic fold of integrate_I against gauss_panels of
        # the raw complex integrand, on odd and even layouts and both
        # parities of n + m: equal to rounding of the L1 mass
        alpha, R = 1.1, 20.0
        rc, rs = R * math.cos(alpha), R * math.sin(alpha)

        def f(u, su):
            return (np.exp(1j * rc * u) * assoc_legendre(n, m, u)
                    * bessel_j(m, rs * su))

        q = integrate_I(IntegralParams(n, m, alpha, R),
                        QuadratureSpec(base_panels=panels))
        assert q.converged and q.panels_used == panels
        l1 = gauss_panels(lambda u, su: np.abs(f(u, su)), panels, 32).real
        err = abs(q.value - gauss_panels(f, panels, 32))
        assert err <= 8.0 * np.finfo(float).eps * l1

    def test_deterministic(self):
        p = IntegralParams(9, 5, 2.0, 31.0)
        a = integrate_I(p)
        b = integrate_I(p)
        assert a == b

    def test_converged_implies_tolerance(self):
        spec = QuadratureSpec()
        for p in (IntegralParams(3, 2, 1.2, 8.0), IntegralParams(0, 0, 0.4, 44.0)):
            q = integrate_I(p, spec)
            assert q.converged
            assert q.est_error <= max(spec.abs_tol, spec.rel_tol * abs(q.value))

    @pytest.mark.parametrize("n, m, R", [(3, 2, 5.0), (4, 1, 11.0), (6, -5, 2.5)])
    def test_imaginary_part_parity_at_right_angle(self, n, m, R):
        # at alpha = pi/2 the value is 2 i^{n-m} P_n^m(0) j_n(R): purely
        # real or purely imaginary depending on the phase parity
        p = IntegralParams(n, m, math.pi / 2, R)
        q = integrate_I(p)
        assert abs(q.value - closed_form_I(p)) < 1e-9
        if (n - m) % 2 == 0:
            assert abs(q.value.imag) < 1e-10
        else:
            assert abs(q.value.real) < 1e-10


class TestIntegrateDIdR:
    def test_zero_radius_odd_integrand(self):
        q = integrate_dI_dR(IntegralParams(0, 0, 1.1, 0.0))
        assert abs(q.value) < 1e-13

    def test_base_case(self):
        q = integrate_dI_dR(IntegralParams(0, 0, 0.7, math.pi))
        assert q.value.real == pytest.approx(-2.0 / math.pi, abs=1e-9)

    def test_matches_closed_form(self):
        p = IntegralParams(2, 1, math.pi / 3, 2.0)
        q = integrate_dI_dR(p)
        assert abs(q.value - closed_form_dI_dR(p)) < 1e-9

    @pytest.mark.parametrize("n, m, alpha, R", [
        (0, 0, 0.7, 9.0),       # m = 0: J_{-1} = -J_1
        (4, 0, 0.9, 35.0),      # m = 0, R sin(alpha) = 27.4 crosses 25
        (5, -1, 0.8, 30.0),     # negative odd m, crosses 25
        (7, -4, 1.9, 14.0),     # negative even m, Miller only
        (8, 3, 1.0, 40.0),      # crosses 25 = max(25, |m| + 1)
        (30, 26, 1.3, 45.0),    # crosses |m| + 1 = 27 > 25
        (30, -27, 1.3, 45.0),   # the same edge at 28, negative odd m
    ])
    def test_matches_closed_form_across_orders_and_regimes(self, n, m, alpha,
                                                           R):
        # The Bessel argument R sin(alpha) sqrt(1 - u^2) sweeps [0,
        # R sin(alpha)], so these cases put nodes in the Miller regime,
        # down to 0, and the Hankel regime of the band J_{|m|-1}..J_{|m|+1}.
        p = IntegralParams(n, m, alpha, R)
        q = integrate_dI_dR(p)
        exact = closed_form_dI_dR(p)
        assert q.converged
        assert abs(q.value - exact) <= 1e-9 * (1.0 + abs(exact))

    @pytest.mark.parametrize("R, loops", [(20.0, ("_backward",)),
                                          (400.0, ("_backward", "_upward"))])
    def test_one_bessel_loop_per_regime_per_pass(self, R, loops, loop_calls,
                                                 monkeypatch):
        # Each pass evaluates P_n^m once; J_{m-1}, J_m and J_{m+1} come from
        # one Miller loop (arguments below 25) and one Hankel-plus-upward
        # loop (above), not one loop per order.
        passes = []

        def legendre(n, m, u):
            passes.append(np.size(u))
            return assoc_legendre(n, m, u)

        monkeypatch.setattr(lbk.oracle, "assoc_legendre", legendre)
        assert integrate_dI_dR(IntegralParams(8, 3, 1.0, R)).converged
        assert passes
        assert loop_calls == {name: len(passes) if name in loops else 0
                              for name in loop_calls}


class TestIntegrateLock:
    def test_measure_only(self):
        q = integrate_lock(0, 0, 0.0, 1)
        assert q.value == pytest.approx(2.0 + 0.0j, abs=1e-14)

    def test_sine_cubed(self):
        # sin^2 P_1^1 integrand integrates to -4/3
        q = integrate_lock(1, 1, 0.0, 1)
        assert q.value == pytest.approx(-4.0 / 3.0 + 0.0j, abs=1e-13)

    def test_matches_closed_form_both_signs(self):
        for sign in (1, -1):
            c = lock_closed_form(2, 1, 3.0, sign)
            q = integrate_lock(2, 1, 3.0, sign)
            assert abs(q.value - c) < 1e-9

    def test_negative_order_matches_positive(self):
        a = integrate_lock(5, -3, 7.0, 1).value
        b = integrate_lock(5, 3, 7.0, 1).value
        assert a == b

    def test_invalid(self):
        with pytest.raises(ValueError):
            integrate_lock(2, 1, 1.0, 2)
        with pytest.raises(ValueError):
            integrate_lock(1, 2, 1.0, 1)
        with pytest.raises(ValueError):
            integrate_lock(1, 1, -1.0, 1)

    @pytest.mark.parametrize("args", [
        (2, 1, 1.0, 2), (2, 1, 1.0, 0), (1, 2, 1.0, 1), (-1, 0, 1.0, 1),
        (1, -2, 1.0, 1), (1, 1, -1.0, 1), (1, 1, math.nan, 1),
    ])
    def test_domain_shared_with_closed_form(self, args):
        with pytest.raises(ValueError) as closed:
            lock_closed_form(*args)
        with pytest.raises(ValueError) as quad:
            integrate_lock(*args)
        assert str(quad.value) == str(closed.value)

    def test_infinite_radius_raises_value_error(self):
        with pytest.raises(ValueError,
                           match="^integrate_lock requires finite arguments$"):
            integrate_lock(2, 1, math.inf, 1)
        with pytest.raises(ValueError,
                           match="^lock_closed_form requires finite arguments$"):
            lock_closed_form(2, 1, math.inf, 1)


class TestIntegratePoissonExp:
    def test_trivials(self):
        assert integrate_poisson_exp(0, 0.0).value == pytest.approx(2.0, abs=1e-14)
        assert integrate_poisson_exp(1, 0.0).value == pytest.approx(4.0 / 3.0, abs=1e-14)

    def test_matches_closed_form(self):
        q = integrate_poisson_exp(1, 2.0)
        assert abs(q.value - poisson_closed_form(1, 2.0)) < 1e-10

    def test_imaginary_part_parity(self):
        for s, x in ((0, 3.0), (2, 11.0), (5, 47.0)):
            q = integrate_poisson_exp(s, x)
            assert abs(q.value.imag) <= 1e-12

    @pytest.mark.parametrize("s, x", [(-1, 1.0), (2, -1.0), (2, math.nan)])
    def test_domain_shared_with_closed_form(self, s, x):
        with pytest.raises(ValueError) as closed:
            poisson_closed_form(s, x)
        with pytest.raises(ValueError) as quad:
            integrate_poisson_exp(s, x)
        assert str(quad.value) == str(closed.value)

    def test_infinite_argument_raises_value_error(self):
        with pytest.raises(
                ValueError,
                match="^integrate_poisson_exp requires finite arguments$"):
            integrate_poisson_exp(2, math.inf)
        with pytest.raises(
                ValueError,
                match="^poisson_closed_form requires finite arguments$"):
            poisson_closed_form(2, math.inf)

    def test_moment_cap_is_closed_form_only(self):
        with pytest.raises(OverflowError):
            poisson_closed_form(151, 1.0)
        with pytest.raises(OverflowError):
            poisson_closed_form(151, -1.0)
        assert integrate_poisson_exp(151, 0.0).converged


class TestIntegrateParityNull:
    # The parity-null integral of sin(theta) sin(x cos(theta)) sin^{2s}(theta)
    # is Im of the exponential moment integral; its odd integrand vanishes.
    def test_zero_integrand_is_exactly_zero(self):
        assert integrate_poisson_exp(2, 0.0).value.imag == 0.0

    @pytest.mark.parametrize("s, x, tol", [
        (0, 5.0, 1e-12), (3, 17.3, 1e-10), (5, 50.0, 1e-10),
    ])
    def test_vanishes_by_parity(self, s, x, tol):
        assert abs(integrate_poisson_exp(s, x).value.imag) <= tol
