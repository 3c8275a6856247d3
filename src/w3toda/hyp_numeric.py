"""Floating-point layer for the third-order hypergeometric reductions.

Everything numeric consumes the Euler-form operator encoding emitted with a
``HypergeometricSpec`` (terms ``scale * u^p * prod_s (theta + s)`` with
``theta = u d/du``), so the series recurrence and the companion ODE system
share one derivation path instead of hard-coded parameter formulas:

* ``gamma_fn`` guards the Gamma function (pole and overflow checks);
* ``paper_integrals`` evaluates three quadrature/closed-form pairs built
  from the Gamma factor G = Gamma(g^2/2) Gamma(1-g^2) / Gamma(1-g^2/2);
* ``series_eval`` / ``series_derivatives`` / ``SeriesSolution`` sum the
  Frobenius series at an indicial exponent, from the recurrence read off the
  operator terms; the one summation, ``_frobenius_pass``, adds the terms of
  a whole grid of points in numpy and stops each point by a proven tail
  bound on every derivative; logarithmic (resonant) cases are refused;
* ``ode_integrate`` runs adaptive Runge-Kutta on the order-3 companion
  system, whose derivative coefficient polynomials come from the same
  encoding via the Euler-to-derivative (Stirling) conversion;
* ``fundamental_matrix`` reports the value/derivative matrix of the three
  Frobenius solutions with its condition number;
* ``hyp_grid`` tabulates the solutions and their operator residuals on a
  grid, for CSV export: it derives the operator once per grid and sums each
  root's series at every point in one ``_frobenius_pass``.

``scipy.integrate`` is imported on first use, by ``paper_integrals`` and
``ode_integrate``: it pulls in ``scipy.optimize``, and importing both costs
about 18 MB of memory in every process that loads this package, the Monte
Carlo ones included, whether or not it integrates anything.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra_core import AlgebraError, RatFunc, poly_eval, poly_from_shifts
from .ward_bpz import HypergeometricSpec

_TRUNC = 2.0 ** -53  # unit roundoff: tails drop below summation rounding
_MAX_TERMS = 20000
_ROOT_TOL = 1e-9


def gamma_fn(x: float) -> float:
    """Gamma function with explicit pole and overflow errors."""
    xf = float(x)
    if xf <= 0 and xf == int(xf):
        raise AlgebraError(f"gamma pole at non-positive integer {x!r}")
    try:
        return math.gamma(xf)
    except (ValueError, OverflowError) as exc:
        raise AlgebraError(f"gamma evaluation failed at {x!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Quadrature identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegralPair:
    """One quadrature value next to its closed form."""

    name: str
    numeric: float
    closed_form: float
    quad_error: float

    def to_json(self) -> dict:
        return {"name": self.name, "numeric": self.numeric,
                "closed_form": self.closed_form, "quad_error": self.quad_error,
                "rel_gap": abs(self.numeric - self.closed_form)
                / max(abs(self.closed_form), 1e-300)}


def paper_integrals(gamma: float, rel_tol: float = 1e-7) -> tuple:
    """Three integral/closed-form pairs controlled by the Gamma factor G.

    Integrands: y^(-1+g^2/2) (y-1)^(-g^2) and y^(-1+g^2/2) (y+1)^(-g^2)
    over (1, inf), and (1+x^2)^(-1+g^2/2) over the real line; closed forms
    G, cos(pi g^2/2) G, and 2^(g^2) sin(pi g^2/2) G.
    """
    # imported on first use: scipy.integrate adds ~18 MB to every process
    from scipy.integrate import quad

    g = float(gamma)
    if not 0 < g < 1:
        raise AlgebraError(f"integrals need gamma in (0, 1), got {gamma!r}")
    g2 = g * g
    big_g = gamma_fn(g2 / 2) * gamma_fn(1 - g2) / gamma_fn(1 - g2 / 2)
    jobs = (
        ("minus_kernel", lambda y: y ** (-1 + g2 / 2) * (y - 1) ** (-g2),
         (1.0, math.inf), big_g),
        ("plus_kernel", lambda y: y ** (-1 + g2 / 2) * (y + 1) ** (-g2),
         (1.0, math.inf), math.cos(math.pi * g2 / 2) * big_g),
        ("symmetric_profile", lambda x: (1 + x * x) ** (-1 + g2 / 2),
         (-math.inf, math.inf), 2 ** g2 * math.sin(math.pi * g2 / 2) * big_g),
    )
    out = []
    for name, f, (lo, hi), closed in jobs:
        res = quad(f, lo, hi, limit=200, full_output=1)
        value, err = res[0], res[1]
        if err > max(rel_tol * abs(value), 1e-12):
            raise AlgebraError(
                f"quadrature for {name} did not converge: achieved absolute "
                f"tolerance {err:.3e} on value {value:.6e}")
        out.append(IntegralPair(name, value, closed, err))
    return tuple(out)


# ---------------------------------------------------------------------------
# Operator encoding -> floats
# ---------------------------------------------------------------------------

def _as_float(x, where: str) -> float:
    if isinstance(x, RatFunc):
        raise AlgebraError(
            f"{where}: needs numeric data; substitute gamma into the "
            "hypergeometric data first")
    if isinstance(x, bool):
        raise AlgebraError(f"{where}: bool is not a scalar")
    if isinstance(x, (int, float, Fraction)):
        return float(x)
    raise AlgebraError(f"{where}: cannot interpret {x!r} as a float")


def substitute_gamma(spec: HypergeometricSpec, gamma) -> HypergeometricSpec:
    """Evaluate every symbolic entry of the spec at the given gamma."""
    def conv(x):
        if isinstance(x, RatFunc):
            return x.evaluate({"gamma": gamma})
        return x
    return HypergeometricSpec(
        spec.family, conv(spec.chi),
        tuple(conv(x) for x in spec.a), tuple(conv(x) for x in spec.b),
        tuple((anchor, conv(e)) for anchor, e in spec.prefactors),
        spec.variable)


def _float_terms(spec: HypergeometricSpec) -> tuple:
    """Operator terms with a float scale and each shift split as (hi, lo):
    hi = float(s) and lo the rounded remainder s - hi, so that (x + hi) + lo
    keeps s exact until its one rounding.  Where x + s cancels, x + hi is
    exact (Sterbenz) and only lo is rounded."""
    out = []
    for scale, p, shifts in spec.operator_terms():
        split = []
        for s in shifts:
            hi = _as_float(s, "operator shift")
            split.append((hi, float(s - Fraction(hi))
                          if isinstance(s, (int, Fraction)) else 0.0))
        out.append((_as_float(scale, "operator scale"), p, tuple(split)))
    return tuple(out)


def _term_poly(x: float, scale: float, shifts) -> float:
    value = scale
    for hi, lo in shifts:
        value *= (x + hi) + lo
    return value


def _params(spec: HypergeometricSpec) -> tuple:
    return (tuple(_as_float(x, "A") for x in spec.a),
            tuple(_as_float(x, "B") for x in spec.b))


def _indicial_roots(spec: HypergeometricSpec) -> tuple:
    b1, b2 = _params(spec)[1]
    return (0.0, 1.0 - b1, 1.0 - b2)


def _check_sigma(spec: HypergeometricSpec, sigma: float) -> float:
    roots = _indicial_roots(spec)
    sf = float(sigma)
    if min(abs(sf - r) for r in roots) > _ROOT_TOL:
        raise AlgebraError(
            f"shift exponent {sigma!r} is not an indicial root of the "
            f"operator (roots {roots})")
    for r in roots:
        d = r - sf
        if d > 0.5 and abs(d - round(d)) < _ROOT_TOL:
            raise AlgebraError(
                "logarithmic case unsupported: another indicial exponent "
                f"exceeds the shift by the integer {round(d)}")
    return sf


def _coefficient_stream(spec: HypergeometricSpec, sigma: float):
    """Yield Frobenius coefficients c_0 = 1, c_1, ... from the recurrence
    sum_terms scale * P_shifts(sigma + m - p) * c_(m-p) = 0 read off the
    operator encoding.  Each shift enters as a (hi, lo) split, so a factor
    sigma + m + s that nearly cancels is not dominated by the rounding of
    s."""
    terms = _float_terms(spec)
    zero_power = [t for t in terms if t[1] == 0]
    if len(zero_power) != 1:
        raise AlgebraError("operator encoding needs one variable-free term")
    scale0, _, shifts0 = zero_power[0]
    history = [1.0]
    yield 1.0
    m = 1
    while True:
        acc = 0.0
        for scale, p, shifts in terms:
            if p == 0 or m - p < 0:
                continue
            acc += _term_poly(sigma + m - p, scale, shifts) * history[m - p]
        den = _term_poly(sigma + m, scale0, shifts0)
        # vanishing is judged against the size of den's own factors
        size = abs(scale0)
        for hi, lo in shifts0:
            size *= abs(sigma + m) + abs(hi) + abs(lo)
        if abs(den) < 1e-13 * size:
            raise AlgebraError(
                "logarithmic case unsupported: the recurrence denominator "
                f"vanishes at term {m}")
        c = -acc / den
        history.append(c)
        yield c
        m += 1


@dataclass(frozen=True)
class SeriesSolution:
    """Frobenius solution data: parameters, shift exponent and the leading
    coefficients; ``evaluate`` raises if they end before the tail bound."""

    a: tuple
    b: tuple
    sigma: float
    coefficients: tuple

    def evaluate(self, u: float) -> float:
        _check_argument(u, self.sigma)
        if u == 0:
            return _value_at_zero(self.sigma)
        return _frobenius_sums(self.coefficients, self.a, self.b,
                               self.sigma, u, 0)[0][0]


def frobenius_solution(spec: HypergeometricSpec, sigma,
                       n_terms: int = 64) -> SeriesSolution:
    sf = _check_sigma(spec, sigma)
    stream = _coefficient_stream(spec, sf)
    coeffs = tuple(next(stream) for _ in range(n_terms))
    return SeriesSolution(*_params(spec), sf, coeffs)


def _check_argument(u: float, sigma: float) -> None:
    if abs(u) >= 1:
        raise AlgebraError(f"series argument must satisfy |u| < 1, got {u!r}")
    if u < 0 and sigma != int(sigma):
        raise AlgebraError(
            "fractional power of a negative argument; the series is defined "
            "for u >= 0 at a non-integer shift")


def _value_at_zero(sigma: float) -> float:
    """u^sigma sum c_m u^m at u = 0, with c_0 = 1."""
    if sigma < 0:
        raise AlgebraError("series diverges at 0 for a negative shift")
    return 1.0 if sigma == 0 else 0.0


def _tail(t, u, e, pairs):
    """Bound |t| r/(1-r) on the tail after the term t, with r = |u| prod
    max(1, (e+p)/(e+q)); inf until every e+p, e+q > 0 and r < 1.  The
    arguments are numpy arrays that broadcast together."""
    valid, prod = True, 1.0
    for p, q in pairs:
        ep, eq = e + p, e + q
        valid = valid & (np.minimum(ep, eq) > 0)
        prod = prod * np.maximum(1.0, ep / eq)
    r = np.abs(u) * prod
    return np.where(valid & (r < 1), np.abs(t) * r / (1 - r), np.inf)


def _powers(u, e):
    """The matrix u ** e of a column and a row of floats, each entry by
    Python's float ``**``: numpy's object loop calls it per pair, whereas
    np.power on float64 rounds differently on some pairs."""
    return np.power(u.astype(object), e.astype(object)).astype(float)


def _frobenius_pass(coefficients, a, b, sigma: float, us, orders: int):
    """(sums, terms used, tail bounds) of u^sigma sum c_m u^m and its first
    ``orders`` derivatives at every u != 0 in ``us``, as arrays with one row
    per point.  Term c_m (e)_k u^(e-k) of order k, e = sigma + m, times
    u (e+A1)/(e+B1) (e+A2)/(e+B2) (e+A3)/(e+1-k) is the next; each factor
    tends to 1 monotonically once its parts are positive, so ``_tail``
    bounds the rest (Johansson, ACM TOMS 2019).  A point stops at the first
    m where each term and each bound is <= _TRUNC * its absolute-term sum.

    The coefficients are drawn from the iterable ``coefficients`` in blocks
    that double until every point has stopped.  Each block forms the terms
    of the points still running, each power by Python's ``**``
    (``_powers``), and adds them by ``np.cumsum``, which adds in sequence,
    so every sum is the one a term-by-term loop gives, bit for bit."""
    floats = np.array(us, dtype=float)
    width = orders + 1
    # running sums of the terms [0] and of their absolute values [1]
    acc = np.zeros((2, width, len(floats)))
    tails = np.empty((width, len(floats)))
    used = np.zeros(len(floats), dtype=int)
    active = np.arange(len(floats))
    third = (1 - np.arange(width))[:, None, None]
    pairs = ((a[0], b[0]), (a[1], b[1]), (a[2], third))
    stream, coeffs, failure = iter(coefficients), [], None
    with np.errstate(all="ignore"):
        while active.size:
            start = len(coeffs)
            try:
                for c in itertools.islice(
                        stream, min(max(2 * start, 32), _MAX_TERMS) - start):
                    coeffs.append(c)
            except AlgebraError as exc:
                # raised once a point needs the coefficient that failed
                failure = exc
            if len(coeffs) == start:
                raise failure or AlgebraError(
                    f"series at u={us[active[0]]!r} missed its tail bound "
                    f"within the available terms (at most {_MAX_TERMS})")
            e = sigma + np.arange(start, len(coeffs))
            u = floats[active, None]
            block = np.empty((2, width, len(u), len(e) + 1))
            block[..., 0] = acc[:, :, active]
            terms, sizes = block[0, ..., 1:], block[1, ..., 1:]
            terms[0] = np.array(coeffs[start:]) * _powers(u, e)
            for k in range(1, width):
                terms[k] = terms[k - 1] * (e - k + 1) / u
            np.abs(terms, out=sizes)
            run = np.cumsum(block, axis=3)[..., 1:]
            limit = _TRUNC * run[1]
            bound = _tail(terms, u, e, pairs)
            stop = ((sizes <= limit) & (bound <= limit)).all(axis=0)
            hit = stop.any(axis=1)
            rows, cols = np.flatnonzero(hit), stop.argmax(axis=1)[hit]
            acc[0][:, active[hit]] = run[0][:, rows, cols]
            tails[:, active[hit]] = bound[:, rows, cols]
            used[active[hit]] = start + cols + 1
            acc[:, :, active[~hit]] = run[:, :, ~hit, -1]
            active = active[~hit]
    return acc[0].T, used, tails.T


def _frobenius_sums(coefficients, a, b, sigma: float, u: float,
                    orders: int) -> tuple:
    """(sums, terms used, tail bounds) at the one point u != 0: the
    one-point reading of ``_frobenius_pass``."""
    sums, used, tails = _frobenius_pass(coefficients, a, b, sigma, (u,),
                                        orders)
    return tuple(sums[0].tolist()), int(used[0]), tuple(tails[0].tolist())


def series_derivatives(spec: HypergeometricSpec, sigma, u: float,
                       orders: int = 3) -> tuple:
    """The series u^sigma sum c_m u^m and its first ``orders`` derivatives
    at ``u``: exact at 0, else summed until a proven bound on each order's
    tail is at most 2^-53 of its absolute-term sum (``_frobenius_sums``)."""
    sf = _check_sigma(spec, sigma)
    _check_argument(u, sf)
    stream = _coefficient_stream(spec, sf)
    if u == 0:
        value = _value_at_zero(sf)
        if orders == 0:
            return (value,)
        if sf != int(sf):
            raise AlgebraError(
                "derivatives at 0 are singular for a non-integer shift")
        shift = int(sf)
        coeffs = [next(stream) for _ in range(orders + 1)]
        base = [0.0] * (orders + 1)
        for k in range(shift, orders + 1):
            base[k] = math.factorial(k) * coeffs[k - shift]
        return tuple(base)
    return _frobenius_sums(stream, *_params(spec), sf, u, orders)[0]


def series_eval(spec: HypergeometricSpec, sigma, u: float) -> float:
    """Frobenius solution value u^sigma * sum c_n u^n at ``u``."""
    return series_derivatives(spec, sigma, u, orders=0)[0]


# ---------------------------------------------------------------------------
# Companion ODE system
# ---------------------------------------------------------------------------

def _stirling2(n: int) -> tuple:
    """Row n of the Stirling numbers of the second kind, S(n, 0..n)."""
    row = [1]
    for k in range(n):
        nxt = [0] * (len(row) + 1)
        for j, v in enumerate(row):
            nxt[j] += j * v
            nxt[j + 1] += v
        row = nxt
    return tuple(row)


def derivative_coefficients(spec: HypergeometricSpec) -> tuple:
    """u-polynomials (coefficient lists, low degree first) multiplying
    f, f', f'', f''' in the expanded operator, derived from the encoding
    via theta^k = sum_j S(k, j) u^j d^j."""
    polys = [[], [], [], []]
    for scale, p, shifts in _float_terms(spec):
        theta_poly = poly_from_shifts(scale, [hi for hi, _ in shifts])
        for k, alpha in enumerate(theta_poly):
            if alpha == 0:
                continue
            srow = _stirling2(k)
            for j, s_kj in enumerate(srow):
                if s_kj == 0:
                    continue
                deg = p + j
                target = polys[j]
                while len(target) <= deg:
                    target.append(0.0)
                target[deg] += alpha * s_kj
    return tuple(tuple(c) for c in polys)


def operator_residual(spec: HypergeometricSpec, sigma, u: float) -> float:
    """Value of the differential operator applied to the Frobenius solution
    at ``u``; numerically zero for a valid solution."""
    coeffs = derivative_coefficients(spec)
    derivs = series_derivatives(spec, sigma, u, orders=3)
    return sum(poly_eval(c, u) * d for c, d in zip(coeffs, derivs))


def _segment(u: float) -> int:
    if u < 0:
        return 0
    if u < 1:
        return 1
    return 2


def ode_integrate(spec: HypergeometricSpec, u0: float, y0, u1: float,
                  rtol: float = 1e-10) -> tuple:
    """Integrate the order-3 companion system from ``u0`` to ``u1``.

    ``y0`` is the triple (value, first, second derivative) at ``u0``; the
    returned triple is the state at ``u1``.  The path may not touch or
    cross the singular points 0 and 1.  The absolute tolerance is a
    thousandth of ``rtol`` at the scale of the initial data, so a solution
    of any magnitude is integrated to ``rtol``; zero initial data stays
    zero, since the system is linear and homogeneous.
    """
    # imported on first use: scipy.integrate adds ~18 MB to every process
    from scipy.integrate import solve_ivp

    if u0 in (0.0, 1.0) or u1 in (0.0, 1.0):
        raise AlgebraError("endpoints must avoid the singular points 0 and 1")
    if _segment(u0) != _segment(u1):
        raise AlgebraError(
            f"path from {u0!r} to {u1!r} crosses a singular point")
    y0 = tuple(float(v) for v in y0)
    if len(y0) != 3:
        raise AlgebraError("initial data must be (value, first, second derivative)")
    if u0 == u1 or not any(y0):
        return y0
    coeffs = derivative_coefficients(spec)

    def rhs(u, y):
        lead = poly_eval(coeffs[3], u)
        forcing = sum(poly_eval(coeffs[k], u) * y[k] for k in range(3))
        return (y[1], y[2], -forcing / lead)

    sol = solve_ivp(rhs, (u0, u1), y0, method="DOP853",
                    rtol=rtol, atol=1e-3 * rtol * max(map(abs, y0)),
                    dense_output=False)
    if not sol.success:
        raise AlgebraError(
            f"integration from {u0} to {u1} failed: {sol.message}")
    return tuple(float(v) for v in sol.y[:, -1])


def fundamental_matrix(spec: HypergeometricSpec, u0: float = 0.1) -> tuple:
    """Rows (f, f', f'') of the three Frobenius solutions at ``u0``, with
    the matrix condition number."""
    rows = []
    for sigma in _indicial_roots(spec):
        rows.append(series_derivatives(spec, sigma, u0, orders=2))
    matrix = np.array(rows, dtype=float)
    return matrix, float(np.linalg.cond(matrix))


def hyp_grid(spec: HypergeometricSpec, start: float, stop: float,
             step: float) -> list:
    """Rows (u, three solution values, three operator residuals) on the
    grid start + i * step up to stop (inclusive within 1e-12; a last point
    within 1e-12 of stop is stop itself).  Each root's series is summed at
    every point in one ``_frobenius_pass``, which computes its coefficients
    once, as far as the point that needs the most terms."""
    if not 0 < start <= stop < 1:
        raise AlgebraError("grid must sit inside (0, 1)")
    if step <= 0:
        raise AlgebraError("grid step must be positive")
    roots = _indicial_roots(spec)
    grid = [start + i * step
            for i in range(int((stop + 1e-12 - start) // step) + 1)]
    if abs(grid[-1] - stop) <= 1e-12:
        grid[-1] = stop
    # Horner and the residual sums run elementwise in the order they take
    # at one point, so every residual is the pointwise one
    weights = [poly_eval(c, np.array(grid))
               for c in derivative_coefficients(spec)]
    a, b = _params(spec)
    values, residuals = [], []
    for sigma in roots:
        sf = _check_sigma(spec, sigma)
        sums = _frobenius_pass(_coefficient_stream(spec, sf), a, b, sf,
                               grid, 3)[0]
        values.append(sums[:, 0].tolist())
        residuals.append(sum(w * d for w, d in zip(weights, sums.T)).tolist())
    return list(zip(grid, *values, *residuals))
