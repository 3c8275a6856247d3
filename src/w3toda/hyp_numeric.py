"""Floating-point layer for the third-order hypergeometric reductions.

Everything numeric consumes the Euler-form operator encoding emitted with a
``HypergeometricSpec`` (terms ``scale * u^p * prod_s (theta + s)`` with
``theta = u d/du``), so the series recurrence and the companion ODE system
share one derivation path instead of hard-coded parameter formulas:

* ``gamma_fn`` guards the Gamma function (pole and overflow checks);
* ``paper_integrals`` evaluates three quadrature/closed-form pairs built
  from the Gamma factor G = Gamma(g^2/2) Gamma(1-g^2) / Gamma(1-g^2/2):
  each integral is a Beta-type integral over (0, 1), whose endpoint powers
  a substitution removes before Gauss-Legendre sums at n and 2n nodes
  (``legendre_rule``, which ``gmc_mc`` shares) estimate its error;
* ``series_eval`` / ``series_derivatives`` / ``SeriesSolution`` sum the
  Frobenius series at an indicial exponent, from the recurrence read off the
  operator terms; the one summation, ``_frobenius_pass``, adds the terms of
  a whole grid of points in numpy and stops each point by a proven tail
  bound on every derivative; logarithmic (resonant) cases are refused;
* ``ode_integrate`` continues a solution along a path that avoids 0 and 1
  by Taylor re-expansion at ordinary points: the derivative coefficient
  polynomials (``derivative_coefficients``, from the same encoding via the
  Euler-to-derivative (Stirling) conversion) give each step's coefficient
  recurrence, the same stopping rule as the series ends each sum, and the
  result (``OdeResult``) carries a bound on its error;
* ``fundamental_matrix`` reports the value/derivative matrix of the three
  Frobenius solutions with its condition number;
* ``hyp_grid`` tabulates the solutions and their operator residuals on a
  grid, for CSV export: it derives the operator once per grid and sums each
  root's series at every point in one ``_frobenius_pass``.

Nothing here imports ``scipy``: its ``integrate`` package, with the
``optimize`` one it pulls in, costs about 18 MB in every process that
loads it, and the Taylor steps and Gauss-Legendre sums above need only
numpy.
"""

from __future__ import annotations

import functools
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
# a Taylor step's length over its centre's distance to {0, 1}
_STEP_RATIO = 0.5
_MAX_STEPS = 400
_MAX_NODES = 2048  # largest Gauss-Legendre rule of paper_integrals


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

    With y = 1/t the kernels are the Beta-type integrals (``_beta_type``)
    of t^(g^2/2-1) (1-t)^(-g^2) and t^(g^2/2-1) (1+t)^(-g^2), and with
    x^2 = t/(1-t) the profile is that of t^(-1/2) (1-t)^(-(1+g^2)/2).  Each
    is summed at n and 2n nodes, n doubling until |I_n - I_2n| plus the
    rounding floor 2n u sum |term| is at most ``rel_tol`` of I_2n, which is
    reported with that error.  The substituted integrand varies within
    about e = min(a, b) of s = 1, where the outermost of n nodes sits about
    1.45 / n^2 away, so n starts at 64 or at e^(-1/2) if larger: below it
    I_n and I_2n can agree while both miss that layer.
    """
    g = float(gamma)
    if not 0 < g < 1:
        raise AlgebraError(f"integrals need gamma in (0, 1), got {gamma!r}")
    g2 = g * g
    big_g = gamma_fn(g2 / 2) * gamma_fn(1 - g2) / gamma_fn(1 - g2 / 2)
    jobs = (
        ("minus_kernel", g2 / 2, 1 - g2, None, big_g),
        ("plus_kernel", g2 / 2, 1.0, lambda t: (1 + t) ** -g2,
         math.cos(math.pi * g2 / 2) * big_g),
        ("symmetric_profile", 0.5, (1 - g2) / 2, None,
         2 ** g2 * math.sin(math.pi * g2 / 2) * big_g),
    )
    out = []
    for name, a, b, phi, closed in jobs:
        n = max(64, 2 ** math.ceil(math.log2(min(a, b) ** -0.5)))
        coarse = None
        while True:
            if 2 * n > _MAX_NODES:
                raise AlgebraError(
                    f"quadrature for {name} did not converge within "
                    f"{_MAX_NODES} nodes")
            if coarse is None:
                coarse = _beta_type(a, b, phi, n)[0]
            value, size = _beta_type(a, b, phi, 2 * n)
            err = abs(value - coarse) + 2 * n * _TRUNC * size
            if err <= max(rel_tol * abs(value), 1e-12):
                break
            n, coarse = 2 * n, value
        out.append(IntegralPair(name, value, closed, err))
    return tuple(out)


def _beta_type(a: float, b: float, phi, nodes: int) -> tuple:
    """(value, sum of |terms|) of the ``nodes``-point Gauss-Legendre sum
    for the integral of t^(a-1) (1-t)^(b-1) phi(t) over (0, 1); ``phi``
    None stands for 1.  The range is split at t = 1/2, and on the half next
    to the endpoint of power e - 1 the substitution t = s^(1/e) / 2 turns
    that power into the constant 2^-e / e, leaving a bounded integrand
    over s in (0, 1)."""
    x, w = legendre_rule(nodes)
    s, w = (x + 1) / 2, w / 2
    value = size = 0.0
    for e, other, mirror in ((a, b, False), (b, a, True)):
        t = 0.5 * s ** (1 / e)
        terms = 2.0 ** -e / e * w * (1 - t) ** (other - 1)
        if phi is not None:
            terms = terms * phi(1 - t if mirror else t)
        value += float(terms.sum())
        size += float(np.abs(terms).sum())
    return value, size


@functools.lru_cache(maxsize=8)
def legendre_rule(nodes: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, computed on
    first use of each node count: the rule costs tens of milliseconds at a
    few hundred nodes (and memory of order nodes^2, hence _MAX_NODES)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


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
    _finite(u, "u")
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


def _finite(x, name: str) -> float:
    """``x`` as a float, or an AlgebraError naming the argument: a NaN or
    an infinity would never end a loop that steps or sums towards it."""
    xf = float(x)
    if not math.isfinite(xf):
        raise AlgebraError(f"{name} must be finite, got {x!r}")
    return xf


class OdeResult(tuple):
    """The state (value, first, second derivative) that ``ode_integrate``
    reaches: a plain triple to its callers, carrying a bound on the error
    of each entry (``bound``), the Taylor steps taken and the series terms
    summed over all of them."""

    def __new__(cls, state, bound, steps: int, terms: int):
        self = super().__new__(cls, state)
        self.bound, self.steps, self.terms = tuple(bound), steps, terms
        return self

    def __getnewargs__(self):
        return tuple(self), self.bound, self.steps, self.terms

    def to_json(self) -> dict:
        return {"state": list(self), "bound": list(self.bound),
                "steps": self.steps, "terms": self.terms}


def _pole_parts(polys) -> tuple:
    """Partial fractions of the normalized coefficients r_j = -P_j / P_3
    (j = 0, 1, 2) of the operator sum_j P_j d^j, whose leading coefficient
    must be P_3 = pi u^3 (u - 1) and whose P_j have degree at most j + 1
    (as every Euler-form operator of order 3 with u-powers 0 and 1 does):
    per j, the triples (zeta, m, A) of the terms A / (u - zeta)^m.  With
    g = P_j / (pi (1 - u)) = sum_t g_t u^t, the pole at 0 has A = g_0, g_1,
    g_2 for m = 3, 2, 1, and the pole at 1 has A = -P_j(1) / pi."""
    lead = tuple(polys[3])
    pi = lead[-1]
    if len(lead) != 5 or lead[:4] != (0.0, 0.0, 0.0, -pi) or pi == 0:
        raise AlgebraError("the leading coefficient of the operator must be "
                           "a multiple of u^3 (u - 1)")
    parts = []
    for j, poly in enumerate(polys[:3]):
        if len(poly) > j + 2:
            raise AlgebraError(
                f"operator coefficient P_{j} has degree above {j + 1}")
        g = list(itertools.accumulate(tuple(poly) + (0.0,) * 3))
        parts.append(((0.0, 3, g[0] / pi), (0.0, 2, g[1] / pi),
                      (0.0, 1, g[2] / pi), (1.0, 1, -sum(poly) / pi)))
    return tuple(parts)


def _taylor_shift(poly, c: float) -> list:
    """Coefficients of poly(c + x), low degree first (Horner's shift)."""
    out = list(poly)
    for i in range(len(out)):
        for k in range(len(out) - 2, i - 1, -1):
            out[k] += c * out[k + 1]
    return out


def _majorant_rate(parts, q, c: float, h: float) -> tuple:
    """(lam, n0, guess) such that the Taylor coefficients b_n of any
    solution in the step variable z (u = c + h z) obey |b_n| <= lam^(n-k)
    max |b_k| over k < n, for every n >= n0 once it holds below n0.

    In theta-form the normalized equation D^3 f = sum_j R_j D^j f, with
    R_j(z) = h^(3-j) r_j(c + h z) = -q_j(z) / q_3(z) (``q`` as in
    ``_taylor_step``), reads n(n-1)(n-2) b_n = sum R_(j,k) (n-i)_j b_(n-i)
    over lags i = 3 - j + k >= 1, so by induction on n the claim holds
    whenever Phi(n0) = sum_j tau_j(n0) lam^(j-3) G_j(lam) <= 1, with
    tau_j(n) = (n-1)_j / (n)_3 falling factorials (decreasing in n) and
    G_j(lam) = sum_k |R_(j,k)| lam^-k (Mezzarobba & Salvy, JSC 2010).  Two
    majorants bound G_j, with rho_zeta = |h| / |c - zeta|: the partial
    fractions of ``_pole_parts``, |h|^(3-j) sum |A| |c - zeta|^-m
    (1 - rho_zeta / lam)^-m, which is close near 0 and 1, and sum_k
    |q_(j,k)| lam^-k / (|q_(3,0)| (1 - rho_0 / lam)^3 (1 - rho_1 / lam)),
    which keeps the cancellation between the two poles that the first
    loses far from both.  Any lam in (max rho, 1) is valid; of a few, the
    one whose bound should reach 2^-53 after the fewest terms, ``guess``,
    is returned."""
    rho = {zeta: abs(h) / abs(c - zeta) for zeta in (0.0, 1.0)}
    top = max(rho.values())
    poles = [[(abs(h) ** (3 - j) * abs(a) * abs(c - zeta) ** -m, rho[zeta], m)
              for zeta, m, a in terms] for j, terms in enumerate(parts)]
    best = None
    for t in (1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4):
        lam = top + (1 - top) * t
        lead = abs(q[3][0]) * (1 - rho[0.0] / lam) ** 3 * (1 - rho[1.0] / lam)
        g = [min(sum(a * (1 - r / lam) ** -m for a, r, m in terms),
                 sum(abs(x) * lam ** -k for k, x in enumerate(row)) / lead)
             for terms, row in zip(poles, q)]

        def phi(n):
            return (g[2] / (lam * n) + g[1] / (lam ** 2 * n * (n - 2))
                    + g[0] / (lam ** 3 * n * (n - 1) * (n - 2)))

        lo = hi = max(4, math.ceil(g[2] / lam))
        while phi(hi) > 1:
            lo, hi = hi, 2 * hi
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if phi(mid) <= 1 else (mid + 1, hi)
        # the bound reaches 2^-53 about 1.3 times later than lam^N does
        cost = max(hi, math.ceil(1.3 * 53 * math.log(2) / -math.log(lam)))
        if best is None or cost < best[2]:
            best = (lam, hi, cost)
    return best


def _taylor_step(polys, parts, c: float, h: float, data) -> tuple:
    """(values, errors, terms) of one step from ``c`` to ``c + h``: for
    each initial triple (value, first, second derivative) at c in ``data``,
    the triple at c + h that continues it, and a bound on each entry's
    error.

    The Taylor coefficients b_n = f^(n)(c) h^n / n! of each solution come
    from the recurrence that sum_j h^(3-j) P_j(c + h z) D_z^j f = 0 gives
    for b_n in terms of b_(n-1) ... b_(n-4).  The sums stop at the first n
    where, for every solution and order d, the last term and the tail bound
    of ``_majorant_rate`` summed against the weights (n)_d are at most
    _TRUNC times the order's absolute-term sum (the value's, if larger):
    the rule of ``_frobenius_pass``.  Rounding is charged as 2 (n + 3) u
    of the absolute-term sum: the sums' own rounding (Higham's gamma_n)
    and as much again for the coefficients', which the recurrence does not
    amplify, since at an ordinary point each of its solutions decays at
    the rate of the series."""
    q = [[x * h ** (3 - j + k) for k, x in enumerate(_taylor_shift(p, c))]
         for j, p in enumerate(polys)]
    lead = q[3][0]
    if not (abs(lead) >= 2.0 ** -900 and all(
            math.isfinite(x) for row in q for x in row)):
        raise AlgebraError(
            f"a Taylor step at u={c!r} is out of double precision range")
    lags = [[] for _ in range(4)]
    for j, row in enumerate(q):
        for k, x in enumerate(row):
            if (j, k) != (3, 0) and x != 0:
                lags[2 - j + k].append((j, x / lead))
    lam, n0, guess = _majorant_rate(parts, q, c, h)
    # b_-1 = 0, then b_0, b_1, b_2 of each solution
    coeffs = [(0.0,) * len(data)] + [
        tuple(y[d] * h ** d / (1, 1, 2)[d] for y in data) for d in range(3)]
    with np.errstate(divide="ignore"):
        while True:
            start = len(coeffs) - 1
            stop = min(max(start + 16, guess + 8), _MAX_TERMS)
            if start >= stop:
                raise AlgebraError(
                    f"the Taylor step at u={c!r} missed its tail bound "
                    f"within {_MAX_TERMS} terms")
            r4, r3, r2, r1 = coeffs[-4:]
            for a1, a2, a3, a4 in _recurrence_table(lags, start, stop):
                r4, r3, r2, r1 = r3, r2, r1, tuple(
                    a1 * x1 + a2 * x2 + a3 * x3 + a4 * x4
                    for x1, x2, x3, x4 in zip(r1, r2, r3, r4))
                coeffs.append(r1)
            found = _stopping_point(np.array(coeffs[1:]), lam, n0)
            if found is not None:
                break
    n, sums, sizes, tails = found
    rounding = 2 * (n + 3) * _TRUNC
    values = [tuple(float(sums[d, k]) / h ** d for d in range(3))
              for k in range(len(data))]
    errors = [tuple(float(tails[d, k] + rounding * sizes[d, k]) / abs(h) ** d
                    for d in range(3)) for k in range(len(data))]
    return values, errors, n


def _recurrence_table(lags, start: int, stop: int) -> list:
    """Rows (alpha_1(n), ..., alpha_4(n)) for n in [start, stop): the
    recurrence b_n = sum_i alpha_i(n) b_(n-i), alpha_i(n) = -sum_j
    (q_(j,k) / q_(3,0)) (n-i)_j / (n)_3 over the terms of lag i, which
    ``lags[i - 1]`` lists as pairs (j, q_(j,k) / q_(3,0)); alpha_i(n) is 0
    for i > n, where b_(n-i) would precede b_-1."""
    n = np.arange(start, stop, dtype=float)
    den = n * (n - 1) * (n - 2)
    cols = []
    for i, terms in enumerate(lags, 1):
        m = n - i
        falling = (np.ones_like(m), m, m * (m - 1), m * (m - 1) * (m - 2))
        num = sum(x * falling[j] for j, x in terms)
        cols.append(np.where(m >= 0, -num / den, 0.0).tolist())
    return list(zip(*cols))


def _stopping_point(coeffs, lam: float, n0: int):
    """The first N >= n0 at which every column of ``coeffs`` (rows b_0,
    b_1, ...) meets the stopping rule of ``_taylor_step``, as (N, sums,
    absolute sums, tail bounds), each indexed [order, column]; or None.
    The sums are ``np.cumsum``'s, which adds in sequence."""
    n = np.arange(len(coeffs), dtype=float)[:, None]
    terms = np.stack((coeffs, n * coeffs, n * (n - 1) * coeffs))
    sizes = np.cumsum(np.abs(terms), axis=1)
    limit = _TRUNC * np.maximum(sizes, sizes[0])
    # lam^N max_(k<N) |b_k| lam^-k at N = k + 1, in logarithms
    logs = np.log(np.abs(coeffs)) - n * math.log(lam)
    peak = np.exp(np.maximum.accumulate(logs, axis=0)
                  + (n + 1) * math.log(lam))
    tails = np.stack([peak * _tail_weight(d, n + 1, lam) for d in range(3)])
    ok = ((np.abs(terms) <= limit) & (tails <= limit)).all(axis=(0, 2))
    ok[:n0 - 1] = False
    if not ok.any():
        return None
    k = int(ok.argmax())
    return k + 1, np.cumsum(terms, axis=1)[:, k], sizes[:, k], tails[:, k]


def _tail_weight(d: int, n: int, lam: float) -> float:
    """sum_(t >= 0) (n + t)_d lam^t for d = 0, 1, 2, in closed form."""
    r = 1 / (1 - lam)
    return (r, n * r + lam * r * r,
            n * (n - 1) * r + 2 * n * lam * r * r + 2 * lam * lam * r ** 3)[d]


def ode_integrate(spec: HypergeometricSpec, u0: float, y0,
                  u1: float) -> OdeResult:
    """Continue a solution of the operator from ``u0`` to ``u1``.

    ``y0`` is the triple (value, first, second derivative) at ``u0``; the
    returned ``OdeResult`` is the triple at ``u1``, with a bound on each
    entry's error, taking ``y0`` as exact.  The path may not touch or cross
    the singular points 0 and 1.  It is covered by Taylor steps, each at
    most _STEP_RATIO of its centre's distance to {0, 1}
    (``_taylor_step``).  Each step sums the series of the solution itself
    and bounds that sum's error; from the second step on it also continues
    the three unit initial data, whose values (the step's transition
    matrix) and their errors carry the bound so far.  Zero initial data
    stays zero: the equation is linear and homogeneous.
    """
    u0, u1 = _finite(u0, "u0"), _finite(u1, "u1")
    if u0 in (0.0, 1.0) or u1 in (0.0, 1.0):
        raise AlgebraError("endpoints must avoid the singular points 0 and 1")
    if _segment(u0) != _segment(u1):
        raise AlgebraError(
            f"path from {u0!r} to {u1!r} crosses a singular point")
    y0 = tuple(float(v) for v in y0)
    if len(y0) != 3:
        raise AlgebraError("initial data must be (value, first, second derivative)")
    if not all(map(math.isfinite, y0)):
        raise AlgebraError(f"initial data y0 must be finite, got {y0!r}")
    state, bound, steps, terms = y0, (0.0, 0.0, 0.0), 0, 0
    if u0 == u1 or not any(y0):
        return OdeResult(state, bound, steps, terms)
    polys = derivative_coefficients(spec)
    parts = _pole_parts(polys)
    units = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    c = u0
    while c != u1:
        if steps == _MAX_STEPS:
            raise AlgebraError(
                f"path from {u0!r} to {u1!r} needs more than {_MAX_STEPS} "
                "Taylor steps: it runs too close to a singular point")
        reach = _STEP_RATIO * min(abs(c), abs(c - 1))
        # |nxt - c| <= |c| / 2, so nxt - c is exact (Sterbenz)
        nxt = u1 if abs(u1 - c) <= reach else c + math.copysign(reach, u1 - c)
        # the unit solutions carry the error so far: their values at nxt
        # form the step's transition matrix
        values, errors, used = _taylor_step(
            polys, parts, c, nxt - c, (state,) + (units if any(bound) else ()))
        state, bound = values[0], tuple(
            errors[0][d] + sum((abs(v[d]) + e[d]) * b for v, e, b in
                               zip(values[1:], errors[1:], bound))
            for d in range(3))
        c, steps, terms = nxt, steps + 1, terms + used
    return OdeResult(state, bound, steps, terms)


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
    start, stop, step = (_finite(x, name) for x, name in
                         ((start, "start"), (stop, "stop"), (step, "step")))
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
