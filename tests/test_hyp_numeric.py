"""Tests for the floating-point hypergeometric layer."""

import math
import pickle
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from w3toda import gmc_mc, hyp_numeric
from w3toda.algebra_core import OMEGA2, AlgebraError, CartanVector, poly_eval
from w3toda.hyp_numeric import (
    SeriesSolution,
    derivative_coefficients,
    fundamental_matrix,
    frobenius_solution,
    gamma_fn,
    hyp_grid,
    ode_integrate,
    operator_residual,
    paper_integrals,
    series_derivatives,
    series_eval,
    substitute_gamma,
)
from w3toda.ward_bpz import HypergeometricSpec, bpz_spec, indicial_exponents


def mkspec(a, b):
    """Bare spec carrying only the series parameters."""
    return HypergeometricSpec("bulk_boundary", F(1), tuple(F(x) for x in a),
                              tuple(F(x) for x in b), (("i", F(0)),), "u")


def reference_series(a, b, u, n=400):
    """Partial sums of the classical two-denominator series at exponent 0,
    built directly from Pochhammer ratios (independent of the module)."""
    total, term = 0.0, 1.0
    for m in range(n):
        total += term
        term *= ((a[0] + m) * (a[1] + m) * (a[2] + m) * u
                 / ((1 + m) * (b[0] + m) * (b[1] + m)))
    return total


GENERIC = ((F(3, 10), F(-7, 10), F(6, 5)), (F(3, 5), F(7, 5)))


def _mpf(x):
    mpmath = pytest.importorskip("mpmath")
    if isinstance(x, F):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def frobenius_mp(spec, sigma, u) -> list:
    """(f, f', f'') at ``u`` of u^sigma 3F2(A + sigma; lower; u), the
    lower parameters being {1 + sigma, B1 + sigma, B2 + sigma} less the one
    equal to 1, by mpmath.hyp3f2 (call inside a raised precision); the
    derivatives of 3F2 are (prod A / prod B) 3F2(A + 1; B + 1; u) again."""
    mpmath = pytest.importorskip("mpmath")
    s, x = _mpf(sigma), mpmath.mpf(u)
    a = [_mpf(v) + s for v in spec.a]
    lower = [1 + s] + [_mpf(v) + s for v in spec.b]
    lower.pop(min(range(3), key=lambda i: abs(lower[i] - 1)))
    g, scale = [], mpmath.mpf(1)
    for k in range(3):
        g.append(scale * mpmath.hyp3f2(*(v + k for v in a),
                                       *(v + k for v in lower), x))
        scale *= mpmath.fprod(v + k for v in a) / mpmath.fprod(
            v + k for v in lower)
    w = (x ** s, s * x ** (s - 1), s * (s - 1) * x ** (s - 2))
    return [w[0] * g[0], w[1] * g[0] + w[0] * g[1],
            w[2] * g[0] + 2 * w[1] * g[1] + w[0] * g[2]]


def continued_mp(spec, u0, y0, u1) -> list:
    """The solution with the float initial data ``y0`` at ``u0``, at
    ``u1`` (both in (0, 1)), at 30 digits: ``y0`` written in the basis of
    the three Frobenius solutions (``frobenius_mp``) at u0, and the same
    combination taken at u1."""
    mpmath = pytest.importorskip("mpmath")
    roots = indicial_exponents(spec)
    with mpmath.workdps(30):
        start = mpmath.matrix([frobenius_mp(spec, r, u0) for r in roots]).T
        weights = mpmath.lu_solve(start, mpmath.matrix(list(map(_mpf, y0))))
        end = [frobenius_mp(spec, r, u1) for r in roots]
        return [sum(weights[i] * end[i][d] for i in range(3))
                for d in range(3)]


def odefun_mp(spec, u0, y0, u1) -> list:
    """The solution with initial data ``y0`` at ``u0``, at ``u1``, by
    mpmath.odefun (arbitrary-precision Taylor series) on the companion
    system of the float coefficients of ``derivative_coefficients`` (the
    equation ``ode_integrate`` is given), at 30 digits.  odefun runs
    forward only, so it integrates g(t) = f(u0 + s t), s = sign(u1 - u0),
    whose derivatives are s^k f^(k)."""
    mpmath = pytest.importorskip("mpmath")
    polys = [[_mpf(c) for c in p] for p in derivative_coefficients(spec)]
    s = 1 if u1 > u0 else -1
    with mpmath.workdps(30):
        x0 = _mpf(u0)

        def rhs(t, y):
            u = x0 + s * t
            p = [mpmath.polyval(c[::-1], u) for c in polys]
            return [y[1], y[2],
                    -s * sum(p[k] * s ** k * y[k] for k in range(3)) / p[3]]

        g = mpmath.odefun(rhs, 0, [_mpf(v) * s ** k for k, v in enumerate(y0)])
        end = g(abs(_mpf(u1) - x0))
        return [end[k] * s ** k for k in range(3)]


def exact_chain_spec(seed: int):
    """A bulk-boundary reduction drawn as the exact_chain benchmark draws
    its own: gamma = n/20 for n in 9..18, alpha with coordinates k/6,
    beta* = k/4 omega_2, either screening branch, redrawn until no two
    indicial exponents differ by an integer."""
    rng = random.Random(seed)
    while True:
        g = F(rng.randint(9, 18), 20)
        alpha = CartanVector(F(rng.randint(1, 6), 6), F(rng.randint(1, 6), 6))
        beta = F(rng.randint(1, 9), 4) * OMEGA2
        spec = bpz_spec("bulk_boundary", (alpha, beta),
                        rng.choice(("gamma", "2/gamma")), g)
        roots = indicial_exponents(spec)
        if all((x - y).denominator != 1
               for i, x in enumerate(roots) for y in roots[i + 1:]):
            return spec


class TestGammaFn:
    def test_integers(self):
        assert gamma_fn(1) == 1.0
        assert gamma_fn(5) == 24.0

    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    @pytest.mark.parametrize("x", [0, -1, -2.0, -17])
    def test_poles(self, x):
        with pytest.raises(AlgebraError, match="pole"):
            gamma_fn(x)

    def test_overflow(self):
        with pytest.raises(AlgebraError):
            gamma_fn(1e5)

    def test_quadrature_crosscheck(self):
        from scipy.integrate import quad
        for x in (0.3, 1.7, 4.2):
            val = quad(lambda t: t ** (x - 1) * math.exp(-t), 0, np.inf,
                       limit=200)[0]
            assert gamma_fn(x) == pytest.approx(val, rel=1e-10)


class TestPaperIntegrals:
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7, 0.9])
    def test_three_pairs(self, gamma):
        pairs = paper_integrals(gamma)
        assert [p.name for p in pairs] == [
            "minus_kernel", "plus_kernel", "symmetric_profile"]
        for p in pairs:
            assert p.numeric == pytest.approx(p.closed_form, rel=1e-6)

    def test_closed_forms_structure(self):
        g = 0.5
        g2 = g * g
        big_g = (gamma_fn(g2 / 2) * gamma_fn(1 - g2) / gamma_fn(1 - g2 / 2))
        pairs = paper_integrals(g)
        assert pairs[0].closed_form == pytest.approx(big_g, rel=1e-14)
        assert pairs[1].closed_form == pytest.approx(
            math.cos(math.pi * g2 / 2) * big_g, rel=1e-14)
        assert pairs[2].closed_form == pytest.approx(
            2 ** g2 * math.sin(math.pi * g2 / 2) * big_g, rel=1e-14)

    @pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
    def test_against_mpmath_special_functions(self, gamma):
        """Each integral in closed form through mpmath's own special
        functions: with y = 1/t the kernels become B(g^2/2, 1-g^2) and
        (2/g^2) 2F1(g^2, g^2/2; 1+g^2/2; -1), and the profile is
        B(1/2, (1-g^2)/2).  Plain mpmath.quad on the infinite ranges is too
        inaccurate to serve (off by up to 3e-2 at g = 0.3)."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            g2 = mpmath.mpf(gamma) ** 2
            refs = (mpmath.beta(g2 / 2, 1 - g2),
                    2 / g2 * mpmath.hyp2f1(g2, g2 / 2, 1 + g2 / 2, -1),
                    mpmath.beta(mpmath.mpf(1) / 2, (1 - g2) / 2))
        for pair, ref in zip(paper_integrals(gamma), map(float, refs)):
            # observed: closed forms within 8e-16 relative
            assert abs(pair.closed_form - ref) <= 1e-14 * abs(ref)
            assert abs(pair.numeric - ref) <= pair.quad_error

    def test_small_gamma_limit(self):
        third = paper_integrals(0.01)[2]
        assert third.numeric == pytest.approx(math.pi, rel=0.01)

    @pytest.mark.parametrize("gamma", [0.01] + [k / 20 for k in range(1, 20)])
    def test_sweep_against_mpmath_within_quad_error(self, gamma):
        # the closed forms of test_against_mpmath_special_functions; at
        # gamma = 0.01 the substituted kernels vary within 5e-5 of s = 1,
        # which the node count has to reach before I_n and I_2n tell
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            g2 = mpmath.mpf(gamma) ** 2
            refs = (mpmath.beta(g2 / 2, 1 - g2),
                    2 / g2 * mpmath.hyp2f1(g2, g2 / 2, 1 + g2 / 2, -1),
                    mpmath.beta(mpmath.mpf(1) / 2, (1 - g2) / 2))
        for pair, ref in zip(paper_integrals(gamma), map(float, refs)):
            assert 0 < pair.quad_error <= 1e-7 * abs(ref)
            assert abs(pair.numeric - ref) <= pair.quad_error

    def test_rule_is_shared_and_read_only(self):
        assert gmc_mc.legendre_rule is hyp_numeric.legendre_rule
        x, w = hyp_numeric.legendre_rule(16)
        assert x is hyp_numeric.legendre_rule(16)[0]
        assert not (x.flags.writeable or w.flags.writeable)
        assert float(w.sum()) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1.3, -0.2])
    def test_range_guard(self, gamma):
        with pytest.raises(AlgebraError, match="gamma"):
            paper_integrals(gamma)

    def test_json(self):
        p = paper_integrals(0.4)[0]
        d = p.to_json()
        assert set(d) == {"name", "numeric", "closed_form", "quad_error",
                          "rel_gap"}
        assert d["rel_gap"] < 1e-6


class TestSeriesEval:
    def test_non_finite_argument_is_named(self):
        with pytest.raises(AlgebraError, match="u must be finite"):
            series_derivatives(mkspec(*GENERIC), 0, math.nan)

    def test_value_at_origin(self):
        spec = mkspec(*GENERIC)
        assert series_eval(spec, 0, 0.0) == 1.0
        assert series_eval(spec, 1 - GENERIC[1][0], 0.0) == 0.0

    def test_solution_at_origin_follows_series_eval(self):
        # the shifts are 0, 1 - b1 = 2/5 and 1 - b2 = -2/5
        spec = mkspec(*GENERIC)
        for sigma in (0, 1 - GENERIC[1][0]):
            assert frobenius_solution(spec, sigma).evaluate(0.0) == \
                series_eval(spec, sigma, 0.0)
        negative = 1 - GENERIC[1][1]
        with pytest.raises(AlgebraError, match="diverges at 0"):
            series_eval(spec, negative, 0.0)
        with pytest.raises(AlgebraError, match="diverges at 0"):
            frobenius_solution(spec, negative).evaluate(0.0)

    @pytest.mark.parametrize("u", [0.1, 0.35, -0.2, 0.49])
    def test_matches_pochhammer_reference(self, u):
        a = tuple(float(x) for x in GENERIC[0])
        b = tuple(float(x) for x in GENERIC[1])
        spec = mkspec(*GENERIC)
        assert series_eval(spec, 0, u) == pytest.approx(
            reference_series(a, b, u), abs=1e-12)

    def test_shifted_exponent_closed_form(self):
        a = tuple(float(x) for x in GENERIC[0])
        b = tuple(float(x) for x in GENERIC[1])
        spec = mkspec(*GENERIC)
        s = 1 - b[0]
        u = 0.3
        shifted = reference_series(tuple(x + s for x in a),
                                   (2 - b[0], b[1] - b[0] + 1), u)
        assert series_eval(spec, s, u) == pytest.approx(
            u ** s * shifted, rel=1e-12)

    def test_terminating_is_linear(self):
        spec = mkspec((-1, F(4, 5), F(13, 10)), (F(11, 20), F(5, 4)))
        slope = (-1 * 0.8 * 1.3) / (0.55 * 1.25)
        for u in (0.2, 0.7, -0.4):
            assert series_eval(spec, 0, u) == pytest.approx(
                1.0 + slope * u, abs=1e-14)
        sol = frobenius_solution(spec, 0)
        assert all(c == 0 for c in sol.coefficients[2:])

    def test_argument_guards(self):
        spec = mkspec(*GENERIC)
        with pytest.raises(AlgebraError, match=r"\|u\| < 1"):
            series_eval(spec, 0, 1.0)
        with pytest.raises(AlgebraError, match="negative argument"):
            series_eval(spec, 1 - GENERIC[1][0], -0.3)

    def test_sigma_must_be_indicial(self):
        spec = mkspec(*GENERIC)
        with pytest.raises(AlgebraError, match="indicial"):
            series_eval(spec, F(1, 8), 0.2)

    def test_resonant_shift_refused(self):
        # exponents 0, 1/2, 3/2: the middle one is resonant with the top
        spec = mkspec((F(3, 10), F(2, 5), F(1, 2)), (F(1, 2), F(-1, 2)))
        with pytest.raises(AlgebraError, match="logarithmic"):
            series_eval(spec, F(1, 2), 0.2)
        # the top exponent itself is fine
        assert math.isfinite(series_eval(spec, F(3, 2), 0.2))

    def test_resonant_stream_raises_at_its_term(self):
        # B2 = -2: at sigma = 0 the factor sigma + m + B2 - 1 is 0 at m = 3
        spec = mkspec((F(3, 10), F(2, 5), F(1, 2)), (F(3, 5), F(-2)))
        stream = hyp_numeric._coefficient_stream(spec, 0.0)
        head = [next(stream) for _ in range(3)]
        assert head[0] == 1.0 and all(map(math.isfinite, head))
        with pytest.raises(AlgebraError, match="vanishes at term 3"):
            next(stream)

    def test_symbolic_spec_refused(self):
        alpha = CartanVector(F(1, 2), F(1, 3))
        bstar = CartanVector(F(1), F(2))
        sym = bpz_spec("bulk_boundary", (alpha, bstar), "gamma")
        with pytest.raises(AlgebraError, match="substitute"):
            series_eval(sym, 0, 0.2)

    @pytest.mark.parametrize("sigma_index", [0, 1, 2])
    def test_operator_residual_vanishes(self, sigma_index):
        spec = mkspec(*GENERIC)
        roots = (0.0, 1 - float(GENERIC[1][0]), 1 - float(GENERIC[1][1]))
        for u in (0.15, 0.4, 0.62):
            assert abs(operator_residual(spec, roots[sigma_index], u)) < 1e-10

    def test_derivatives_at_origin(self):
        a = tuple(float(x) for x in GENERIC[0])
        b = tuple(float(x) for x in GENERIC[1])
        spec = mkspec(*GENERIC)
        d = series_derivatives(spec, 0, 0.0, orders=2)
        c1 = a[0] * a[1] * a[2] / (b[0] * b[1])
        assert d[0] == 1.0
        assert d[1] == pytest.approx(c1, rel=1e-14)
        with pytest.raises(AlgebraError, match="singular"):
            series_derivatives(spec, 1 - b[0], 0.0, orders=1)

    def test_series_solution_evaluate(self):
        spec = mkspec(*GENERIC)
        sol = frobenius_solution(spec, 0)
        assert isinstance(sol, SeriesSolution)
        # the same summation over the same coefficients
        for u in (0.3, 0.6):
            assert sol.evaluate(u) == series_eval(spec, 0, u)
        with pytest.raises(AlgebraError, match=r"\|u\|"):
            sol.evaluate(1.2)
        # 64 coefficients cannot meet the tail bound at 0.85, where summing
        # them all would be 2e-9 off
        with pytest.raises(AlgebraError, match="tail bound"):
            sol.evaluate(0.85)
        longer = frobenius_solution(spec, 0, n_terms=400)
        assert longer.evaluate(0.85) == series_eval(spec, 0, 0.85)

    @given(st.integers(-19, 19), st.integers(-19, 19), st.integers(-19, 19),
           st.integers(2, 18), st.integers(2, 18))
    @settings(max_examples=40, deadline=None)
    def test_recurrence_ratio_invariant(self, a1, a2, a3, b1n, b2n):
        """Successive coefficients obey exactly the two-polynomial ratio
        implied by the operator encoding."""
        a = (F(a1, 10), F(a2, 10), F(a3, 10))
        b = (F(b1n, 10), F(b2n, 10))
        roots = (F(0), 1 - b[0], 1 - b[1])
        diffs = [x - y for x in roots for y in roots if x != y]
        if any(d > 0 and d.denominator == 1 for d in diffs) or len(set(roots)) < 3:
            return
        spec = mkspec(a, b)
        for sigma in roots:
            sol = frobenius_solution(spec, sigma, n_terms=12)
            s = float(sigma)
            for m in range(1, 12):
                num = math.prod(float(x) + s + m - 1 for x in a)
                den = ((s + m) * (s + m + float(b[0]) - 1)
                       * (s + m + float(b[1]) - 1))
                assert sol.coefficients[m] * den == pytest.approx(
                    num * sol.coefficients[m - 1], rel=1e-12, abs=1e-12)


class TestDerivativeCoefficients:
    def test_hand_expanded_operator(self):
        a = tuple(float(x) for x in GENERIC[0])
        b = tuple(float(x) for x in GENERIC[1])
        e1 = sum(a)
        e2 = a[0] * a[1] + a[0] * a[2] + a[1] * a[2]
        e3 = a[0] * a[1] * a[2]
        f1 = (b[0] - 1) + (b[1] - 1)
        f2 = (b[0] - 1) * (b[1] - 1)
        polys = derivative_coefficients(mkspec(*GENERIC))
        expected = (
            (0.0, e3),
            (0.0, -(1 + f1 + f2), 1 + e1 + e2),
            (0.0, 0.0, -(3 + f1), 3 + e1),
            (0.0, 0.0, 0.0, -1.0, 1.0),
        )
        for got, want in zip(polys, expected):
            padded = tuple(got) + (0.0,) * (len(want) - len(got))
            assert padded == pytest.approx(want, abs=1e-13)

    def test_leading_vanishes_only_at_singular_points(self):
        lead = derivative_coefficients(mkspec(*GENERIC))[3]
        poly = np.polynomial.Polynomial(list(lead))
        r = sorted(set(round(float(x), 10) for x in poly.roots()))
        assert r == [0.0, 1.0]


class TestOdeIntegrate:
    def test_series_data_transported(self):
        spec = mkspec(*GENERIC)
        y0 = series_derivatives(spec, 0, 0.2, orders=2)
        out = ode_integrate(spec, 0.2, y0, 0.5)
        assert out[0] == pytest.approx(series_eval(spec, 0, 0.5), abs=1e-8)

    def test_terminating_exact(self):
        spec = mkspec((-1, F(4, 5), F(13, 10)), (F(11, 20), F(5, 4)))
        slope = (-1 * 0.8 * 1.3) / (0.55 * 1.25)
        y0 = (1.0 + slope * 0.2, slope, 0.0)
        out = ode_integrate(spec, 0.2, y0, 0.9)
        assert out[0] == pytest.approx(1.0 + slope * 0.9, abs=1e-9)
        assert out[1] == pytest.approx(slope, abs=1e-9)

    def test_zero_data_stays_zero(self):
        spec = mkspec(*GENERIC)
        assert ode_integrate(spec, 0.2, (0, 0, 0), 0.8) == (0.0, 0.0, 0.0)

    def test_same_point_identity(self):
        spec = mkspec(*GENERIC)
        assert ode_integrate(spec, 0.3, (1.0, 2.0, 3.0), 0.3) == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("u0,u1", [(-0.5, 0.5), (0.5, 1.5), (0.3, 1.0),
                                       (0.0, 0.5)])
    def test_path_guards(self, u0, u1):
        spec = mkspec(*GENERIC)
        with pytest.raises(AlgebraError, match="singular"):
            ode_integrate(spec, u0, (1, 0, 0), u1)

    def test_bad_initial_shape(self):
        spec = mkspec(*GENERIC)
        with pytest.raises(AlgebraError, match="initial data"):
            ode_integrate(spec, 0.2, (1.0, 0.0), 0.5)

    def test_random_specs_agree_with_series(self):
        rng = random.Random(11)
        spec_count = 0
        while spec_count < 8:
            a = tuple(F(rng.randrange(-20, 21), 10) for _ in range(3))
            b = tuple(F(rng.randrange(3, 18), 10) for _ in range(2))
            roots = (F(0), 1 - b[0], 1 - b[1])
            diffs = [x - y for x in roots for y in roots if x != y]
            if len(set(roots)) < 3 or any(
                    d > 0 and d.denominator == 1 for d in diffs):
                continue
            spec_count += 1
            spec = mkspec(a, b)
            sigma = rng.choice(roots)
            u0, u1 = 0.1, 0.45
            y0 = series_derivatives(spec, sigma, u0, orders=2)
            got = ode_integrate(spec, u0, y0, u1)[0]
            ref = series_eval(spec, sigma, u1)
            assert got == pytest.approx(ref, rel=1e-8, abs=1e-8)

    def test_tiny_solution_meets_rtol(self):
        # a large indicial exponent (about 10.32) makes the solution about
        # 5e-11 at u = 0.1, far below an absolute tolerance fit for O(1)
        # solutions
        spec = bpz_spec("bulk_boundary",
                        (CartanVector(F(1), F(1, 2)), F(1, 2) * OMEGA2),
                        "2/gamma", F(9, 20))
        sigma = max(1 - float(b) for b in spec.b)
        assert sigma == pytest.approx(10.32, abs=0.01)
        y0 = series_derivatives(spec, sigma, 0.1, orders=2)
        assert abs(y0[0]) < 1e-10
        got = ode_integrate(spec, 0.1, y0, 0.85)
        ref = series_derivatives(spec, sigma, 0.85, orders=2)
        for x, y in zip(got, ref):
            assert abs(x - y) < 1e-7 * abs(y)


    def test_result_is_the_state_triple_with_its_bound(self):
        spec = mkspec(*GENERIC)
        y0 = series_derivatives(spec, 0, 0.5, orders=2)
        out = ode_integrate(spec, 0.5, y0, 0.85)
        ref = series_derivatives(spec, 0, 0.85, orders=2)
        assert isinstance(out, tuple) and len(out) == 3
        assert out == tuple(out) and len(list(zip(out, ref))) == 3
        assert out.steps == 2 and out.terms > 0
        assert all(0 < b <= 1e-12 * max(1.0, abs(y))
                   for b, y in zip(out.bound, out))
        assert out.to_json() == {"state": list(out), "bound": list(out.bound),
                                 "steps": out.steps, "terms": out.terms}
        back = pickle.loads(pickle.dumps(out))
        assert back == out and back.bound == out.bound
        assert (back.steps, back.terms) == (out.steps, out.terms)

    def test_nothing_to_continue_has_a_zero_bound(self):
        spec = mkspec(*GENERIC)
        for out in (ode_integrate(spec, 0.2, (0, 0, 0), 0.8),
                    ode_integrate(spec, 0.3, (1.0, 2.0, 3.0), 0.3)):
            assert (out.bound, out.steps, out.terms) == ((0.0,) * 3, 0, 0)

    @pytest.mark.parametrize("u0, y0, u1, name", [
        (math.nan, (1, 0, 0), 1.5, "u0"),
        (math.inf, (1, 0, 0), 2.0, "u0"),
        (-math.inf, (1, 0, 0), -2.0, "u0"),
        (0.2, (1, 0, 0), math.nan, "u1"),
        (1.5, (1, 0, 0), math.inf, "u1"),
        (0.2, (1, math.nan, 0), 0.5, "y0"),
        (0.2, (math.inf, 0, 0), 0.5, "y0"),
    ])
    def test_non_finite_input_is_named(self, u0, y0, u1, name):
        # a NaN or an infinite endpoint used to spin the integrator
        with pytest.raises(AlgebraError, match=f"{name} must be finite"):
            ode_integrate(mkspec(*GENERIC), u0, y0, u1)

    @pytest.mark.parametrize("u0, u1", [(-0.5, -3.0), (1.5, 3.0),
                                        (30.0, 2.0), (0.05, 0.02),
                                        (0.95, 0.98), (0.9, 0.1)])
    def test_bound_holds_against_odefun(self, u0, u1):
        # paths off (0, 1), one of them far from both singular points, and
        # paths inside it next to each singular point
        spec = mkspec(*GENERIC)
        y0 = (1.0, -0.5, 0.25)
        out = ode_integrate(spec, u0, y0, u1)
        ref = odefun_mp(spec, u0, y0, u1)
        for x, r, b in zip(out, ref, out.bound):
            # observed: errors at most 2 % of the bound, bounds at most
            # 5e-13 of max(1, |value|)
            assert abs(x - r) <= b <= 1e-11 * max(1.0, abs(x))

    def test_bound_holds_on_exact_chain_specs(self):
        # the benchmark's path: series data at 0.5, continued to 0.85, for
        # every root of 100 drawn reductions
        within_target = 0
        for seed in range(100):
            spec = exact_chain_spec(seed)
            for sigma in indicial_exponents(spec):
                y0 = series_derivatives(spec, sigma, 0.5, orders=2)
                out = ode_integrate(spec, 0.5, y0, 0.85)
                ref = continued_mp(spec, 0.5, y0, 0.85)
                for x, r, b in zip(out, ref, out.bound):
                    assert abs(x - r) <= b
                    within_target += b <= 1e-12 * max(1.0, abs(x))
        # observed: 892 of the 900 bounds within 1e-12 of max(1, |value|),
        # the largest 5.0e-12, where the series terms cancel
        assert within_target >= 880


class TestFundamentalMatrix:
    def test_nonsingular_at_default_point(self):
        matrix, cond = fundamental_matrix(mkspec(*GENERIC))
        assert matrix.shape == (3, 3)
        assert np.linalg.matrix_rank(matrix) == 3
        assert math.isfinite(cond) and cond >= 1.0

    def test_rows_are_the_three_solutions(self):
        spec = mkspec(*GENERIC)
        matrix, _ = fundamental_matrix(spec, u0=0.15)
        roots = (0.0, 1 - float(GENERIC[1][0]), 1 - float(GENERIC[1][1]))
        for row, sigma in zip(matrix, roots):
            assert row[0] == pytest.approx(series_eval(spec, sigma, 0.15),
                                           abs=1e-12)


class TestHypGrid:
    def test_rows_and_residuals(self):
        rows = hyp_grid(mkspec(*GENERIC), 0.1, 0.5, 0.1)
        assert len(rows) == 5
        assert all(len(r) == 7 for r in rows)
        assert rows[0][0] == pytest.approx(0.1)
        for row in rows:
            assert all(abs(x) < 1e-9 for x in row[4:])

    @pytest.mark.parametrize("rows", [5, 11, 21, 91, 101])
    def test_last_point_is_stop(self, rows):
        start, stop = 0.05, 0.5
        grid = hyp_grid(mkspec(*GENERIC), start, stop,
                        (stop - start) / (rows - 1))
        assert len(grid) == rows
        assert grid[-1][0] == stop
        assert grid[0][0] == start

    def test_one_operator_and_one_stream_per_root(self, monkeypatch):
        calls = {"derivative_coefficients": 0, "_coefficient_stream": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(hyp_numeric, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(hyp_numeric, name, counted)
        rows = hyp_grid(mkspec(*GENERIC), 0.05, 0.5, 0.05)
        assert len(rows) == 10
        assert calls == {"derivative_coefficients": 1,
                         "_coefficient_stream": 3}

    def test_grid_guards(self):
        spec = mkspec(*GENERIC)
        with pytest.raises(AlgebraError, match="grid"):
            hyp_grid(spec, 0.0, 0.5, 0.1)
        with pytest.raises(AlgebraError, match="step"):
            hyp_grid(spec, 0.1, 0.5, 0.0)

    @pytest.mark.parametrize("step", [math.nan, math.inf])
    def test_non_finite_step_is_named(self, step):
        with pytest.raises(AlgebraError, match="step must be finite"):
            hyp_grid(mkspec(*GENERIC), 0.05, 0.5, step)


# Both bpz_spec families at gamma = 7/10, each screening branch; none has
# indicial exponents an integer apart, so sigma = 0 gives the plain 3F2.
BPZ_CASES = (
    ("bulk_boundary", (CartanVector(F(1, 3), F(1, 2)), F(5, 4) * OMEGA2),
     "gamma"),
    ("bulk_boundary", (CartanVector(F(2, 3), F(1, 6)), F(3, 4) * OMEGA2),
     "2/gamma"),
    ("boundary_4pt", (CartanVector(F(1, 4), F(1, 2)),
                      CartanVector(F(3, 5), F(1, 5)), F(2, 3) * OMEGA2),
     "gamma"),
    ("boundary_4pt", (CartanVector(F(1, 2), F(1, 4)),
                      CartanVector(F(1, 5), F(2, 5)), F(4, 3) * OMEGA2),
     "2/gamma"),
)
BPZ_IDS = [f"{family}-{chi}" for family, _, chi in BPZ_CASES]


def pointwise_grid(spec, start, stop, step) -> list:
    """``hyp_grid`` built point by point, as it was before the roots shared
    one coefficient list: a fresh ``series_derivatives`` per root and point,
    and residuals from ``derivative_coefficients``."""
    roots = hyp_numeric._indicial_roots(spec)
    grid = [start + i * step
            for i in range(int((stop + 1e-12 - start) // step) + 1)]
    if abs(grid[-1] - stop) <= 1e-12:
        grid[-1] = stop
    polys = derivative_coefficients(spec)
    rows = []
    for u in grid:
        derivs = [series_derivatives(spec, s, u, orders=3) for s in roots]
        residuals = [sum(poly_eval(c, u) * x for c, x in zip(polys, d))
                     for d in derivs]
        rows.append((u, *(d[0] for d in derivs), *residuals))
    return rows


@pytest.mark.parametrize("spec", [mkspec(*GENERIC)] + [
    bpz_spec(family, weights, chi, F(7, 10))
    for family, weights, chi in BPZ_CASES], ids=["generic"] + BPZ_IDS)
def test_hyp_grid_equals_pointwise_rows(spec):
    # through u = 0.95 the points need from about 15 terms to (for three of
    # the cases) hundreds, so later points read coefficients that earlier
    # ones did not need
    start, stop, step = 0.05, 0.95, 0.03
    rows = hyp_grid(spec, start, stop, step)
    assert rows[-1][0] == stop
    assert rows == pointwise_grid(spec, start, stop, step)
    used = [hyp_numeric._frobenius_sums(
        hyp_numeric._coefficient_stream(spec, 0.0),
        *hyp_numeric._params(spec), 0.0, u, 3)[1] for u in (start, stop)]
    assert used[1] > used[0]


def scalar_frobenius_sums(coefficients, a, b, sigma, u, orders):
    """The term-by-term summation loop that ``_frobenius_pass`` replaced:
    (sums, terms used, tails), or None where the coefficients end first."""
    sums, mags = [0.0] * (orders + 1), [0.0] * (orders + 1)
    for m, c in enumerate(coefficients):
        e = sigma + m
        terms = [c * u ** e]
        for k in range(1, orders + 1):
            terms.append(terms[-1] * (e - k + 1) / u)
        for k, t in enumerate(terms):
            sums[k] += t
            mags[k] += abs(t)
        if any(abs(t) > 2.0 ** -53 * s for t, s in zip(terms, mags)):
            continue
        tails = []
        for k, t in enumerate(terms):
            pairs = ((a[0], b[0]), (a[1], b[1]), (a[2], 1 - k))
            if any(e + p <= 0 or e + q <= 0 for p, q in pairs):
                tails.append(math.inf)
                continue
            r = abs(u) * math.prod(max(1.0, (e + p) / (e + q))
                                   for p, q in pairs)
            tails.append(abs(t) * r / (1 - r) if r < 1 else math.inf)
        if all(x <= 2.0 ** -53 * s for x, s in zip(tails, mags)):
            return tuple(sums), m + 1, tuple(tails)
    return None


def first_coefficients(spec, sigma, n):
    stream = hyp_numeric._coefficient_stream(spec, sigma)
    return [next(stream) for _ in range(n)]


class TestFrobeniusPass:
    @pytest.mark.parametrize("spec", [mkspec(*GENERIC)] + [
        bpz_spec(family, weights, chi, F(7, 10))
        for family, weights, chi in BPZ_CASES], ids=["generic"] + BPZ_IDS)
    def test_grid_pass_equals_the_scalar_loop(self, spec):
        # every sum, term count and tail bound, bit for bit, on points that
        # need from about 12 to hundreds of terms, and on negative points
        # at the integer shift
        a, b = hyp_numeric._params(spec)
        grid = [0.02 + 0.0311 * i for i in range(31)]
        for sigma in hyp_numeric._indicial_roots(spec):
            points = grid + ([-0.9, -0.45, -0.01] if sigma == 0 else [])
            coeffs = first_coefficients(spec, sigma, 2000)
            sums, used, tails = hyp_numeric._frobenius_pass(
                iter(coeffs), a, b, sigma, points, 3)
            for i, u in enumerate(points):
                ref = scalar_frobenius_sums(coeffs, a, b, sigma, u, 3)
                assert (tuple(sums[i].tolist()), int(used[i]),
                        tuple(tails[i].tolist())) == ref

    def test_powers_are_python_pow(self):
        # bit for bit, on positive points at any exponent and on negative
        # points at the integer exponents of an integer shift
        rng = random.Random(7)
        for lo in (0.0, -1.0):
            us = np.array([[rng.uniform(lo, 1)] for _ in range(60)])
            es = np.array([float(rng.randrange(0, 300)) if lo else
                           rng.uniform(-3, 300) for _ in range(80)])
            assert hyp_numeric._powers(us, es).tolist() == [
                [x ** y for y in es.tolist()] for x in us[:, 0].tolist()]

    def test_one_pass_per_root(self, monkeypatch):
        calls = {"_frobenius_pass": 0, "_frobenius_sums": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(hyp_numeric, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(hyp_numeric, name, counted)
        rows = hyp_grid(mkspec(*GENERIC), 0.05, 0.5, 0.05)
        assert len(rows) == 10
        assert calls == {"_frobenius_pass": 3, "_frobenius_sums": 0}

    def test_max_terms_reached(self, monkeypatch):
        spec = mkspec(*GENERIC)
        a, b = hyp_numeric._params(spec)
        coeffs = first_coefficients(spec, 0.0, 200)
        # the sums stop after 18 terms at 0.05, 22 at 0.1 and 37 at 0.3
        assert [scalar_frobenius_sums(coeffs, a, b, 0.0, u, 3)[1]
                for u in (0.05, 0.1, 0.3)] == [18, 22, 37]
        monkeypatch.setattr(hyp_numeric, "_MAX_TERMS", 25)
        with pytest.raises(AlgebraError,
                           match=r"u=0\.3 missed its tail bound .*at most 25"):
            hyp_numeric._frobenius_pass(iter(coeffs), a, b, 0.0,
                                        [0.05, 0.3, 0.6], 3)
        with pytest.raises(AlgebraError, match="at most 25"):
            hyp_grid(spec, 0.05, 0.5, 0.05)
        assert hyp_numeric._frobenius_sums(coeffs, a, b, 0.0, 0.1, 3) == \
            scalar_frobenius_sums(coeffs, a, b, 0.0, 0.1, 3)

    def test_stream_error_raised_only_where_needed(self):
        # a coefficient source that fails at term 25, as the recurrence
        # does at a vanishing denominator: the points that stop before it
        # keep their sums, and the first point that needs it raises
        spec = mkspec(*GENERIC)
        a, b = hyp_numeric._params(spec)
        coeffs = first_coefficients(spec, 0.0, 25)

        def failing():
            yield from coeffs
            raise AlgebraError("injected at term 25")

        sums, used, _ = hyp_numeric._frobenius_pass(failing(), a, b, 0.0,
                                                    [0.05, 0.1], 3)
        assert used.tolist() == [18, 22]
        assert tuple(sums[1].tolist()) == \
            scalar_frobenius_sums(coeffs, a, b, 0.0, 0.1, 3)[0]
        with pytest.raises(AlgebraError, match="injected at term 25"):
            hyp_numeric._frobenius_pass(failing(), a, b, 0.0,
                                        [0.05, 0.3, 0.1], 3)


class TestMpmathOracle:
    """At sigma = 0 the Frobenius solution of the reduced operator is
    3F2(A1, A2, A3; B1, B2; u), evaluated independently by mpmath."""

    @staticmethod
    def abs_term_sums(spec, u, orders, start=0):
        """Sums over m >= start of |c_m (m)_k u^(m-k)|, the absolute terms
        of the k-th derivative, for k = 0..orders, at 30 digits.  From 0,
        they scale the rounding error of any floating-point sum; from the
        number of terms used, they are the tail a bound must cover."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            a = [mpmath.mpf(x.numerator) / x.denominator for x in spec.a]
            b = [mpmath.mpf(x.numerator) / x.denominator for x in spec.b]
            x = mpmath.mpf(u)
            coeff, m = mpmath.mpf(1), 0
            sums = [mpmath.mpf(0)] * (orders + 1)
            while True:
                terms = [abs(coeff) * x ** m]
                for k in range(min(m, orders)):
                    terms.append(terms[-1] * (m - k) / x)
                if m >= start:
                    for k, t in enumerate(terms):
                        sums[k] += t
                if m > max(orders, start) and terms[-1] <= 1e-40 * sums[-1]:
                    return [float(v) for v in sums]
                coeff *= ((a[0] + m) * (a[1] + m) * (a[2] + m)
                          / ((1 + m) * (b[0] + m) * (b[1] + m)))
                m += 1

    @classmethod
    def mpmath_3f2(cls, spec, u, orders=0):
        """The value and first ``orders`` derivatives at 30 digits, by
        mpmath.diff of hyp3f2, with the absolute-term sum of each."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            a = [mpmath.mpf(x.numerator) / x.denominator for x in spec.a]
            b = [mpmath.mpf(x.numerator) / x.denominator for x in spec.b]
            derivs = [mpmath.diff(lambda t: mpmath.hyp3f2(*a, *b, t),
                                  mpmath.mpf(u), k)
                      for k in range(orders + 1)]
        return [float(d) for d in derivs], cls.abs_term_sums(spec, u, orders)

    @pytest.mark.parametrize("family, weights, chi", BPZ_CASES, ids=BPZ_IDS)
    def test_series_matches_hyp3f2(self, family, weights, chi):
        spec = bpz_spec(family, weights, chi, F(7, 10))
        for u in (0.1, 0.35, 0.6, 0.85):
            (ref,), (scale,) = self.mpmath_3f2(spec, u)
            # observed: at most 2.2e-15 of the term sum
            assert abs(series_eval(spec, 0, u) - ref) <= 1e-13 * scale

    @pytest.mark.parametrize("family, weights, chi", BPZ_CASES, ids=BPZ_IDS)
    def test_derivatives_within_tail_bound(self, family, weights, chi):
        spec = bpz_spec(family, weights, chi, F(7, 10))
        for u in (0.1, 0.35, 0.6, 0.85, 0.9, 0.95):
            refs, scales = self.mpmath_3f2(spec, u, orders=3)
            derivs = series_derivatives(spec, 0, u, orders=3)
            if u <= 0.9:
                # observed: at most 1.3e-14 relative through u = 0.95
                for got, ref in zip(derivs, refs):
                    assert abs(got - ref) <= 1e-12 * abs(ref)
            sums, n, tails = hyp_numeric._frobenius_sums(
                hyp_numeric._coefficient_stream(spec, 0.0),
                *hyp_numeric._params(spec), 0.0, u, 3)
            assert sums == derivs
            rest = self.abs_term_sums(spec, u, 3, start=n)
            for got, ref, tail, scale, dropped in zip(sums, refs, tails,
                                                      scales, rest):
                # the bound covers the dropped terms and meets the stop rule
                assert dropped <= tail * (1 + 1e-9)
                assert tail <= 2.0 ** -53 * scale * (1 + 1e-9)
                # observed: at most 39 ulps of the term sum beyond the bound,
                # mostly from rounding in the recurrence coefficients
                assert abs(got - ref) <= tail + 64 * 2.0 ** -52 * scale

    def test_large_coefficients_are_not_resonance(self):
        # at sigma = 1 - B1 the coefficients pass 1e13 by term 397, where
        # the recurrence denominator is about -6.3e7; the series is
        # u^sigma 3F2(A + sigma; 1 + sigma, B2 + sigma; u)
        a, b = (F(3, 20), F(8, 5), F(-11, 20)), (F(-1, 2), F(-13, 3))
        sigma = 1 - b[0]
        shifted = mkspec(tuple(x + sigma for x in a),
                         (1 + sigma, b[1] + sigma))
        for u in (0.9, 0.95):
            (ref,), (scale,) = self.mpmath_3f2(shifted, u)
            got = series_eval(mkspec(a, b), sigma, u)
            # observed: at most 3.8e-15 of the term sum
            power = u ** float(sigma)
            assert abs(got - power * ref) <= 1e-13 * power * scale

    def test_near_zero_shift_keeps_its_exact_part(self):
        # B2 = -21/800, so the recurrence factor m + B2 - 1 cancels at
        # m = 1; rounding B2 - 1 before adding m missed the first
        # derivative by 19 ulps of its term sum, and correctly rounded
        # coefficients miss it by 0.4
        family, weights, chi = BPZ_CASES[0]
        spec = bpz_spec(family, weights, chi, F(7, 10))
        assert spec.b[1] == F(-21, 800)
        refs, scales = self.mpmath_3f2(spec, 0.1, orders=1)
        got = series_derivatives(spec, 0, 0.1, orders=1)
        assert abs(got[1] - refs[1]) <= 4 * 2.0 ** -52 * scales[1]

    @pytest.mark.parametrize("family, weights, chi", BPZ_CASES, ids=BPZ_IDS)
    def test_operator_residual_near_zero(self, family, weights, chi):
        # observed: at most 7e-15 of the largest derivative through
        # u = 0.85, since the sums stop on every derivative's tail bound
        spec = bpz_spec(family, weights, chi, F(7, 10))
        for u in (0.1, 0.35, 0.6, 0.85):
            derivs = series_derivatives(spec, 0, u, orders=3)
            scale = max(1.0, *(abs(d) for d in derivs))
            assert abs(operator_residual(spec, 0, u)) <= 1e-9 * scale


class TestSubstituteGamma:
    def test_pinned_instance_runs_numerically(self):
        alpha = CartanVector(F(1, 2), F(1, 3))
        bstar = CartanVector(F(1), F(2))
        spec = bpz_spec("bulk_boundary", (alpha, bstar), "gamma", F(6, 5))
        assert spec.a == (F(-34, 25), F(-1, 25), F(79, 50))
        numeric = substitute_gamma(spec, 1.2)
        assert abs(operator_residual(numeric, 0, 0.25)) < 1e-10
        value = series_eval(numeric, 0, 0.25)
        assert math.isfinite(value) and value != 1.0

    def test_symbolic_entries_become_floats(self):
        alpha = CartanVector(F(1, 2), F(1, 3))
        bstar = CartanVector(F(1), F(2))
        spec = bpz_spec("bulk_boundary", (alpha, bstar), "gamma")
        numeric = substitute_gamma(spec, 1.2)
        for entry in (*numeric.a, *numeric.b, numeric.chi):
            float(entry)  # must not raise
