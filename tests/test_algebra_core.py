"""Unit tests for the exact scalar tower and the rank-2 Cartan-space layer."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from w3toda import algebra_core
from w3toda.algebra_core import (
    E1,
    E2,
    H1,
    H2,
    H3,
    OMEGA1,
    OMEGA2,
    RHO,
    AlgebraError,
    CartanVector,
    CFrac,
    DegreeOverflowError,
    RatFunc,
    background_charge,
    conformal_weight,
    constants,
    cw_constant,
    inner,
    decode,
    encode,
    q_of_gamma,
    spin,
    variable,
)
from w3toda.free_field import engine_spin

# ---------------------------------------------------------------------------
# Cartan data
# ---------------------------------------------------------------------------

CARTAN = [[2, -1], [-1, 2]]
ES = [E1, E2]
OMEGAS = [OMEGA1, OMEGA2]


def test_cartan_matrix():
    for i in range(2):
        for j in range(2):
            assert inner(ES[i], ES[j]) == CARTAN[i][j]


def test_dual_bases():
    for i in range(2):
        for j in range(2):
            assert inner(OMEGAS[i], ES[j]) == (1 if i == j else 0)


def test_omega_gram():
    third = Fraction(1, 3)
    gram = [[2 * third, third], [third, 2 * third]]
    for i in range(2):
        for j in range(2):
            assert inner(OMEGAS[i], OMEGAS[j]) == gram[i][j]


def test_h_vectors():
    assert (H1 + H2 + H3).is_zero
    assert inner(H1, H1) == Fraction(2, 3)
    assert inner(H2, RHO) == 0
    assert inner(H1, RHO) == 1
    assert inner(H3, RHO) == -1
    assert H1 == OMEGA1
    assert H2 == CartanVector(Fraction(-1, 3), Fraction(1, 3))


def test_rho_norm():
    assert inner(RHO, RHO) == 2


def test_omega_basis_roundtrip():
    v = CartanVector(Fraction(5, 7), Fraction(-3, 11))
    a1, a2 = v.to_omega()
    assert CartanVector.from_omega(a1, a2) == v
    assert CartanVector.from_omega(1, 0) == OMEGA1
    assert CartanVector.from_omega(0, 1) == OMEGA2


def test_constants_bundle():
    g = Fraction(3, 5)
    c = constants(g)
    assert c.q == g + Fraction(2) / g
    assert c.Q == c.q * RHO
    assert c.h1 + c.h2 + c.h3 == CartanVector(0, 0)
    sym = constants()
    assert isinstance(sym.q, RatFunc)
    assert sym.q == variable("gamma") + 2 / variable("gamma")


# ---------------------------------------------------------------------------
# Conformal weight and spin
# ---------------------------------------------------------------------------

def test_weight_zero_and_reflection_fixed_points():
    q = variable("q")
    Q = background_charge(q)
    zero = CartanVector(0, 0)
    assert conformal_weight(zero, q) == 0
    assert conformal_weight(2 * Q, q) == 0


def test_weight_semi_degenerate_closed_form():
    q = variable("q")
    kappa = variable("kappa")
    alpha = kappa * OMEGA1
    assert conformal_weight(alpha, q) == kappa * (q - kappa / 3)


def test_weight_reflection_symmetry_random():
    q = Fraction(13, 4)
    Q = background_charge(q)
    for a1, a2 in [(1, 2), (Fraction(-3, 5), Fraction(7, 2)), (0, Fraction(1, 9))]:
        alpha = CartanVector(a1, a2)
        assert conformal_weight(alpha, q) == conformal_weight(2 * Q - alpha, q)


def test_cw_constant_value():
    # Derived by expanding the ratio identity; frozen as an oracle.
    assert cw_constant() == 2


def _sympy_spin_oracle(sympy):
    """(c_w, P) from plain sympy: c_w solved from 3 c_w P(kappa omega_1) /
    (2 Delta) = q - 2 kappa / 3, and P(a1, a2, q) = prod_h <h, alpha - Q>,
    all in simple-root coordinates with the Cartan-matrix pairing."""
    R = sympy.Rational
    q, kappa, cw, a1, a2 = sympy.symbols("q kappa c_w a1 a2")
    cartan = sympy.Matrix([[2, -1], [-1, 2]])

    def pair(u, v):
        return (sympy.Matrix([u]) * cartan * sympy.Matrix(v))[0, 0]

    omega1 = (R(2, 3), R(1, 3))
    hs = (omega1, (R(-1, 3), R(1, 3)), (R(-1, 3), R(-2, 3)))
    big_q = (q, q)

    def product(alpha):
        shifted = tuple(x - y for x, y in zip(alpha, big_q))
        return sympy.prod(pair(h, shifted) for h in hs)

    alpha = tuple(kappa * x for x in omega1)
    delta = pair(alpha, big_q) - pair(alpha, alpha) / 2
    (c,) = sympy.solve(sympy.Eq(3 * cw * product(alpha) / (2 * delta),
                                q - 2 * kappa / 3), cw)
    return sympy.simplify(c), sympy.Lambda((a1, a2, q), product((a1, a2)))


def test_spin_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    c, product = _sympy_spin_oracle(sympy)
    assert c == 2 and cw_constant() == 2
    for a1, a2, q in ((Fraction(1, 2), Fraction(1, 3), Fraction(43, 15)),
                      (Fraction(-2), Fraction(5, 7), Fraction(13, 4)),
                      (Fraction(7, 9), Fraction(-3, 11), Fraction(-5, 2))):
        want = product(*(sympy.Rational(x.numerator, x.denominator)
                         for x in (a1, a2, q)))
        alpha = CartanVector(a1, a2)
        assert spin(alpha, q) == Fraction(str(c * want))
        assert engine_spin(alpha, q) == Fraction(str(c * want / 2))


def test_spin_zeros():
    q = variable("q")
    Q = background_charge(q)
    assert spin(Q, q) == 0
    assert spin(CartanVector(0, 0), q) == 0  # <h2, rho> = 0 kills a factor


def test_spin_antisymmetry():
    q = variable("q")
    Q = background_charge(q)
    alpha = CartanVector(Fraction(5, 7), Fraction(-2, 3))
    assert spin(2 * Q - alpha, q) == -spin(alpha, q)


def test_ratio_identity_symbolic():
    q = variable("q")
    kappa = variable("kappa")
    alpha = kappa * OMEGA1
    ratio = 3 * spin(alpha, q) / (2 * conformal_weight(alpha, q))
    assert ratio == q - kappa * Fraction(2, 3)


def test_weight_and_spin_default_gamma():
    # The same identities through the default symbolic gamma background.
    qg = q_of_gamma()
    alpha = CartanVector(Fraction(1, 2), Fraction(1, 3))
    Q = background_charge(qg)
    assert conformal_weight(2 * Q - alpha) == conformal_weight(alpha)
    assert spin(2 * Q - alpha) == -spin(alpha)


# ---------------------------------------------------------------------------
# RatFunc field arithmetic
# ---------------------------------------------------------------------------

fractions_st = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def ratfunc_st(var="gamma"):
    coeffs = st.lists(fractions_st, min_size=1, max_size=4)
    return st.builds(
        lambda num, den: RatFunc(var, num, den),
        coeffs,
        coeffs.filter(lambda cs: any(c != 0 for c in cs)),
    )


@settings(max_examples=60, deadline=None)
@given(ratfunc_st(), ratfunc_st(), ratfunc_st())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a
    assert a * 1 == a
    assert a - a == 0
    if not b.is_zero:
        assert (a / b) * b == a


@settings(max_examples=40, deadline=None)
@given(ratfunc_st())
def test_canonical_idempotence(a):
    rebuilt = RatFunc(a.var, a.num, a.den)
    assert rebuilt.num == a.num and rebuilt.den == a.den


@settings(max_examples=40, deadline=None)
@given(
    st.lists(fractions_st, min_size=1, max_size=4),
    st.lists(fractions_st, min_size=1, max_size=4).filter(lambda cs: any(c != 0 for c in cs)),
    fractions_st,
)
def test_evaluation_matches_fraction_arithmetic(num, den, x):
    f = RatFunc("gamma", num, den)
    den_val = sum(c * x**i for i, c in enumerate(den))
    if den_val == 0:
        return
    expected = sum(c * x**i for i, c in enumerate(num)) / den_val
    assert f.evaluate({"gamma": x}) == expected


def test_pow_and_reciprocal():
    g = variable("gamma")
    f = (g + 1) / (g - 1)
    assert f**3 == f * f * f
    assert f**-2 == 1 / (f * f)
    assert f**0 == 1


def test_degree_cap():
    g = variable("gamma")
    with pytest.raises(DegreeOverflowError):
        g ** 65


def test_division_by_zero():
    g = variable("gamma")
    zero = g - g
    with pytest.raises(AlgebraError):
        _ = 1 / zero
    with pytest.raises(AlgebraError):
        RatFunc("gamma", (1,), (0,))


def test_mixed_same_level_variables_rejected():
    with pytest.raises(AlgebraError):
        _ = variable("gamma") + variable("chi")


def test_variable_tower():
    q = variable("q")
    k = variable("kappa")
    expr = (q + k) * (q - k)
    assert expr == q * q - k * k
    # coefficient extraction: the kappa^0 coefficient is q^2
    assert expr - q * q == -(k * k)
    val = expr.evaluate({"q": Fraction(3), "kappa": Fraction(2)})
    assert val == 5


def test_unregistered_variable():
    with pytest.raises(AlgebraError):
        variable("zeta")


def test_json_roundtrip():
    g = variable("gamma")
    f = (3 * g**2 - Fraction(1, 2)) / (g + 7)
    data = encode(f)
    assert data == {"var": "gamma", "num": ["-1/2", "0", "3"],
                    "den": ["7", "1"]}  # monic denominator
    assert decode(data) == f


def test_cartan_vector_json_roundtrip():
    kappa, q = variable("kappa"), variable("q")
    assert encode(CartanVector(Fraction(1, 3), 2)) == ["1/3", "2"]
    for v in (CartanVector(Fraction(1, 3), 2), CartanVector(kappa, 1),
              CartanVector(kappa * q, 1 / q)):
        assert CartanVector.from_json(json.loads(json.dumps(encode(v)))) == v


def test_codec_rejects_what_it_cannot_read():
    q_json = {"var": "q", "num": ["1"], "den": ["0", "1"]}
    for bad in ("x", "1/0", ["1", "2", "3"], [q_json, "0"], {"num": ["1"]},
                {"var": "q", "num": ["1"]}, {"var": "zeta", "num": [],
                                             "den": ["1"]}):
        with pytest.raises(AlgebraError, match="cannot decode"):
            decode(bad)
    with pytest.raises(AlgebraError, match="no JSON form"):
        encode(object())


def test_pole_evaluation_raises():
    g = variable("gamma")
    f = 1 / (g - 2)
    with pytest.raises(AlgebraError):
        f.evaluate({"gamma": Fraction(2)})


# ---------------------------------------------------------------------------
# CFrac complex rationals
# ---------------------------------------------------------------------------

cfrac_st = st.builds(CFrac, fractions_st, fractions_st)


@settings(max_examples=60, deadline=None)
@given(cfrac_st, cfrac_st)
def test_cfrac_matches_complex(a, b):
    za, zb = complex(a), complex(b)
    assert complex(a + b) == pytest.approx(za + zb)
    assert complex(a * b) == pytest.approx(za * zb)
    if b.abs2() != 0:
        assert complex(a / b) == pytest.approx(za / zb, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(cfrac_st, cfrac_st)
def test_cfrac_exact_division(a, b):
    if b.abs2() == 0:
        return
    assert (a / b) * b == a


def four_product(a: CFrac, b: CFrac) -> CFrac:
    return CFrac(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


@settings(max_examples=80, deadline=None)
@given(cfrac_st, fractions_st, st.integers(-50, 50))
def test_cfrac_real_operand_product(z, x, n):
    # a real factor on either side, as a real CFrac, a Fraction or an int,
    # gives the four-product value and its canonical parts exactly
    real = CFrac(x)
    for got in (z * real, real * z, z * x, x * z):
        want = four_product(z, real)
        assert (got.re, got.im) == (want.re, want.im)
        assert repr(got) == repr(want)
    for got in (z * n, n * z):
        assert repr(got) == repr(four_product(z, CFrac(n)))
    assert repr(real * CFrac(n)) == repr(four_product(real, CFrac(n)))
    assert repr(z * z.conj()) == repr(four_product(z, z.conj()))


def test_cfrac_basics():
    z = CFrac(Fraction(1, 2), Fraction(-3, 4))
    assert z.conj() == CFrac(Fraction(1, 2), Fraction(3, 4))
    assert z * z.conj() == z.abs2()
    assert CFrac(5) == Fraction(5)
    assert CFrac(5).is_real
    assert not z.is_real
    assert (z**3) == z * z * z
    with pytest.raises(AlgebraError):
        CFrac(0).reciprocal()


# ---------------------------------------------------------------------------
# The integer-triple CFrac against a sympy Rational + I*Rational oracle
# ---------------------------------------------------------------------------

big_fractions_st = st.fractions(max_denominator=10 ** 12).filter(
    lambda x: abs(x) < 10 ** 15)
wide_cfrac_st = st.builds(CFrac, big_fractions_st, big_fractions_st)
exact_operand_st = st.one_of(cfrac_st, fractions_st, st.integers(-40, 40))


def triple(z: CFrac) -> tuple:
    """The stored (a, b, d) of (a + b i)/d."""
    return z._a, z._b, z._d


def check_cfrac(z, want, sympy):
    """z is a canonical CFrac with the oracle's value and Fraction parts."""
    a, b, d = triple(z)
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and math.gcd(a, b, d) == 1
    assert type(z.re) is Fraction and type(z.im) is Fraction
    want = sympy.expand(want)
    assert z.re == Fraction(str(sympy.re(want)))
    assert z.im == Fraction(str(sympy.im(want)))


def sym(sympy, x):
    z = CFrac.of(x)
    return (sympy.Rational(z.re.numerator, z.re.denominator) + sympy.I
            * sympy.Rational(z.im.numerator, z.im.denominator))


@settings(max_examples=80, deadline=None)
@given(cfrac_st, exact_operand_st, st.integers(-3, 4))
def test_cfrac_arithmetic_matches_sympy(z, x, n):
    sympy = pytest.importorskip("sympy")
    sz, sx = sym(sympy, z), sym(sympy, x)
    for got, want in ((z + x, sz + sx), (x + z, sz + sx),
                      (z - x, sz - sx), (x - z, sx - sz),
                      (z * x, sz * sx), (x * z, sz * sx), (-z, -sz),
                      (z.conj(), sympy.conjugate(sz))):
        check_cfrac(got, want, sympy)
    if x != 0:
        check_cfrac(z / x, sz / sx, sympy)
    if z != 0:
        check_cfrac(x / z, sx / sz, sympy)
        check_cfrac(z.reciprocal(), 1 / sz, sympy)
    if n >= 0 or z != 0:
        check_cfrac(z ** n, sz ** n, sympy)
    assert z.abs2() == Fraction(str(sympy.expand(sz * sympy.conjugate(sz))))
    assert type(z.abs2()) is Fraction


@settings(max_examples=80, deadline=None)
@given(cfrac_st, exact_operand_st)
def test_cfrac_equality_is_value_equality(z, x):
    same = z.re == CFrac.of(x).re and z.im == CFrac.of(x).im
    assert (z == x) is same and (x == z) is same
    assert (z != x) is not same
    assert z == CFrac(z.re, z.im) and CFrac(z.re, z.im) == z
    if z.is_real:
        assert z == z.re and z.re == z
    else:
        assert z != z.re


@settings(max_examples=80, deadline=None)
@given(fractions_st, st.integers(-10 ** 20, 10 ** 20), cfrac_st)
def test_cfrac_hash_matches_the_real_value(x, n, z):
    assert hash(CFrac(x)) == hash(x)
    assert hash(CFrac(n)) == hash(n) == hash(Fraction(n))
    assert hash(CFrac(x, 0)) == hash(CFrac.of(x))
    assert hash(z) == hash(CFrac(z.re, z.im))
    assert len({CFrac(x), x}) == 1


@settings(max_examples=150, deadline=None)
@given(wide_cfrac_st)
def test_cfrac_complex_is_the_float_of_each_part(z):
    got = complex(z)
    want = complex(float(z.re), float(z.im))
    assert got.real.hex() == want.real.hex()
    assert got.imag.hex() == want.imag.hex()


def test_cfrac_division_by_zero_raises():
    z = CFrac(Fraction(1, 2), Fraction(-3, 4))
    zeros = (0, Fraction(0), CFrac(0), CFrac(0, 0))
    for zero in zeros:
        with pytest.raises(AlgebraError, match="division by zero"):
            _ = z / zero
        with pytest.raises(AlgebraError, match="division by zero"):
            _ = 3 / CFrac.of(zero)
    for bad in (lambda: CFrac(0).reciprocal(), lambda: CFrac(0) ** -2):
        with pytest.raises(AlgebraError, match="division by zero"):
            bad()


def test_cfrac_constructor_reduces_to_one_denominator():
    z = CFrac(Fraction(6, 4), Fraction(-5, 6))
    assert triple(z) == (9, -5, 6)
    assert (z.re, z.im) == (Fraction(3, 2), Fraction(-5, 6))
    assert triple(CFrac(Fraction(1, 4), Fraction(3, 4))) == (1, 3, 4)
    assert triple(CFrac()) == (0, 0, 1)
    assert triple(CFrac("2/6", 1.5)) == (2, 9, 6)
    for bad in (None, "x", CFrac(1)):
        with pytest.raises((TypeError, ValueError)):
            CFrac(bad)
    with pytest.raises(TypeError):
        _ = CFrac(1) + 0.5
    with pytest.raises(TypeError):
        _ = CFrac(1) * True
    with pytest.raises(AttributeError):
        CFrac(1).re = Fraction(2)


# ---------------------------------------------------------------------------
# RatFunc against sympy.cancel
# ---------------------------------------------------------------------------

def _to_sympy(x, gens):
    """An exact scalar, nested coefficients included, as an element of
    sympy's field of rational functions, whose values ``sympy.cancel``
    keeps reduced; ``gens`` maps variable names to its generators."""
    if isinstance(x, (int, Fraction)):
        return gens["q"].field(x)
    v = gens[x.var]
    num = sum((_to_sympy(c, gens) * v ** i for i, c in enumerate(x.num)),
              gens[x.var].field.zero)
    den = sum(_to_sympy(c, gens) * v ** i for i, c in enumerate(x.den))
    return num / den


def _plain(sympy, x):
    """An exact scalar as a plain sympy expression in the symbols q, kappa,
    gamma and s, nested coefficients flattened into it."""
    if isinstance(x, CFrac):
        return _plain(sympy, x.re) + sympy.I * _plain(sympy, x.im)
    if isinstance(x, (int, Fraction)):
        return sympy.Rational(x.numerator, x.denominator)
    v = sympy.Symbol(x.var)
    return (sum(_plain(sympy, c) * v ** i for i, c in enumerate(x.num))
            / sum(_plain(sympy, c) * v ** i for i, c in enumerate(x.den)))


def _random_operand(rng, x):
    """A constant, a polynomial in q (constant denominator), a rational
    function of q, a polynomial in kappa over Q(q), or a value sharing the
    denominator of ``x``."""
    def frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    def q_poly(deg):
        return RatFunc("q", [frac() for _ in range(deg)] + [Fraction(1)])

    kind = rng.randrange(5)
    if kind == 0:
        return frac()
    if kind == 1:
        return frac() * q_poly(rng.randint(1, 2))
    if kind == 2:
        return q_poly(rng.randint(0, 2)) / q_poly(rng.randint(1, 2))
    if kind == 3:
        return (variable("kappa") - frac()) * q_poly(1) / q_poly(1)
    return RatFunc(x.var, (frac(), frac()), x.den)


@pytest.mark.parametrize("seed", range(8))
def test_ratfunc_chains_match_sympy_cancel(seed):
    # random + - * / chains mixing constant, equal and nested denominators
    sympy = pytest.importorskip("sympy")
    _, qs, ks = sympy.field("q,kappa", sympy.QQ)
    gens = {"q": qs, "kappa": ks}
    ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
           "*": lambda a, b: a * b, "/": lambda a, b: a / b}
    rng = random.Random(seed)
    x = variable("q") + _random_operand(rng, variable("q"))
    want = _to_sympy(x, gens)
    for _ in range(7):
        y = _random_operand(rng, x)
        op = rng.choice("+-*/")
        if op == "/" and y == 0:
            op = "*"
        x = ops[op](x, y)
        want = ops[op](want, _to_sympy(y, gens))
        assert _to_sympy(x, gens) == want
        # canonical: monic denominator of the reduced degree
        assert x.den[-1] == 1
        assert want.denom.degree(gens[x.var].numer) == len(x.den) - 1
        data = encode(x)
        back = decode(data)
        assert back == x and encode(back) == data
    # the last value once more through sympy.cancel on plain expressions
    assert sympy.cancel(_plain(sympy, x) - want.as_expr()) == 0


# ---------------------------------------------------------------------------
# Reduction fast paths against Euclid and sympy.cancel
# ---------------------------------------------------------------------------

def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _divmod(a, b):
    a, q = list(a), [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        q[i] = a[i + len(b) - 1] / b[-1]
        for j, cb in enumerate(b):
            a[i + j] = a[i + j] - cb * q[i]
    return _trim(q), _trim(a[: len(b) - 1])


def euclid_reduced(num, den):
    """num/den divided by their Euclidean gcd, then by the leading
    coefficient of the denominator: every RatFunc's reduction before the
    fast paths, kept here as the reference."""
    num, den = _trim(num), _trim(den)
    g, r = num, den
    while r:
        g, r = r, _divmod(g, r)[1]
    num, den = _divmod(num, g)[0], _divmod(den, g)[0]
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


def _poly_mul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _poly_add(a, b):
    a, b = list(a), list(b)
    n = max(len(a), len(b))
    a += [Fraction(0)] * (n - len(a))
    b += [Fraction(0)] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


def unreduced(op, x, y):
    """(num, den) of x op y, neither reduced nor made monic."""
    if op == "+":
        return (_poly_add(_poly_mul(x.num, y.den), _poly_mul(y.num, x.den)),
                _poly_mul(x.den, y.den))
    if op == "-":
        return unreduced("+", x, -y)
    if op == "*":
        return _poly_mul(x.num, y.num), _poly_mul(x.den, y.den)
    return _poly_mul(x.num, y.den), _poly_mul(x.den, y.num)


OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
       "*": lambda a, b: a * b, "/": lambda a, b: a / b}

small_st = st.fractions(min_value=-6, max_value=6, max_denominator=5)
nonzero_st = small_st.filter(lambda c: c != 0)


@st.composite
def raw_gamma_pair(draw):
    """(num, den) coefficient lists: the numerator may be zero or start
    with zeros; the denominator is c*gamma^k or general."""
    num = [Fraction(0)] * draw(st.integers(0, 3))
    num += draw(st.lists(small_st, max_size=4))
    if draw(st.booleans()):
        den = [Fraction(0)] * draw(st.integers(0, 3)) + [draw(nonzero_st)]
    else:
        den = draw(st.lists(small_st, min_size=1, max_size=4)
                   .filter(lambda cs: any(cs)))
    return num, den


def _sympy_json(sympy, num, den):
    """sympy.cancel's reduced numerator and denominator, divided by the
    denominator's leading coefficient, in ``encode``'s form."""
    g = sympy.Symbol("gamma")

    def expr(cs):
        return sum((sympy.Rational(c.numerator, c.denominator) * g ** i
                    for i, c in enumerate(cs)), sympy.Integer(0))

    n, d = (sympy.Poly(p, g) for p in
            sympy.fraction(sympy.cancel(expr(num) / expr(den))))
    lead = d.LC()

    def enc(p):
        return [] if p.is_zero else [str(c / lead)
                                     for c in reversed(p.all_coeffs())]
    return {"var": "gamma", "num": enc(n), "den": enc(d)}


def _check_canonical(x, num, den, sympy=None):
    want = euclid_reduced(num, den)
    assert (x.num, x.den) == want
    assert x.den[-1] == 1
    if sympy is not None:
        assert encode(x) == _sympy_json(sympy, num, den)


@settings(max_examples=80, deadline=None)
@given(raw_gamma_pair())
def test_construction_matches_euclid_and_sympy(pair):
    sympy = pytest.importorskip("sympy")
    num, den = pair
    _check_canonical(RatFunc("gamma", num, den), num, den, sympy)


@settings(max_examples=50, deadline=None)
@given(raw_gamma_pair(), raw_gamma_pair(), st.integers(-2, 3))
def test_arithmetic_matches_euclid_and_sympy(p, r, n):
    # + - * / ** on monomial and general denominators, zero numerators
    # included, against the Euclid reduction of the unreduced result
    sympy = pytest.importorskip("sympy")
    x, y = RatFunc("gamma", *p), RatFunc("gamma", *r)
    for op, fn in OPS.items():
        if op == "/" and y.is_zero:
            continue
        _check_canonical(fn(x, y), *unreduced(op, x, y), sympy)
    if n < 0 and x.is_zero:
        return
    base = x if n >= 0 else x.reciprocal()
    num, den = [Fraction(1)], [Fraction(1)]
    for _ in range(abs(n)):
        num, den = _poly_mul(num, base.num), _poly_mul(den, base.den)
    _check_canonical(x ** n, num, den, sympy)


@st.composite
def nested_kappa(draw):
    """A polynomial in kappa over Q(q) divided by c*kappa^k: coefficients
    are Fractions, polynomials in q or rational functions of q."""
    def coeff(nonzero=False):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return draw(nonzero_st if nonzero else small_st)
        if kind == 1:
            c = RatFunc("q", [draw(small_st), draw(nonzero_st)])
        else:
            c = RatFunc("q", [draw(small_st), Fraction(1)],
                        [draw(nonzero_st), draw(small_st)])
        return c if nonzero or draw(st.booleans()) else c - c
    num = [Fraction(0)] * draw(st.integers(0, 2))
    num += [coeff() for _ in range(draw(st.integers(0, 3)))]
    den = [Fraction(0)] * draw(st.integers(0, 2)) + [coeff(nonzero=True)]
    return RatFunc("kappa", num, den), num, den


def sympy_reduced(num, den, gens):
    """num/den over Q(q)[kappa] reduced by sympy and divided by the
    denominator's leading coefficient in kappa: the (num, den) coefficient
    lists, as elements of sympy's field.  This is the nested reference.  A
    Euclid over Q(q) coefficients, as ``euclid_reduced`` runs it, swells
    their degree in q past the kernel's ``DEGREE_CAP`` on some pairs."""
    q, kappa = gens["q"], gens["kappa"]
    value = (sum((_to_sympy(c, gens) * kappa ** i for i, c in enumerate(num)),
                 q.field.zero)
             / sum(_to_sympy(c, gens) * kappa ** i for i, c in enumerate(den)))

    def by_kappa(poly):
        coeffs = {}
        for (eq, ek), c in poly.terms():
            coeffs[ek] = coeffs.get(ek, q.field.zero) + q.field(c) * q ** eq
        return [coeffs.get(i, q.field.zero)
                for i in range(max(coeffs, default=-1) + 1)]

    num_cs, den_cs = by_kappa(value.numer), by_kappa(value.denom)
    lead = den_cs[-1]
    return [c / lead for c in num_cs], [c / lead for c in den_cs]


def _check_nested(x, num, den, gens):
    want = sympy_reduced(num, den, gens)
    assert ([_to_sympy(c, gens) for c in x.num],
            [_to_sympy(c, gens) for c in x.den]) == want
    assert x.den[-1] == 1


def _nested_case(num, den):
    return RatFunc("kappa", num, den), num, den


# a pair on which a Euclid over Q(q) coefficients passes DEGREE_CAP: the
# product's remainders reach degree 70 in q
_SWELLING_PAIR = (
    _nested_case([RatFunc("q", [Fraction(-16, 7), Fraction(4, 7)],
                          [Fraction(-1, 7), Fraction(1)]),
                  RatFunc("q", [Fraction(5), Fraction(17, 3)]),
                  RatFunc("q", [Fraction(-1, 3), Fraction(-4, 21)])],
                 [Fraction(0), Fraction(0), Fraction(-3)]),
    _nested_case([RatFunc("q", [Fraction(-5, 2), Fraction(-21, 4)]),
                  RatFunc("q", [Fraction(-24, 23), Fraction(4, 23)],
                          [Fraction(-32, 69), Fraction(1)]),
                  Fraction(0)],
                 [Fraction(0), Fraction(0), Fraction(-19, 4)]))


@settings(max_examples=30, deadline=None)
@given(nested_kappa(), nested_kappa())
@example(*_SWELLING_PAIR)
def test_nested_monomial_denominators_match_euclid_and_sympy(p, r):
    sympy = pytest.importorskip("sympy")
    _, qs, ks = sympy.field("q,kappa", sympy.QQ)
    gens = {"q": qs, "kappa": ks}
    (x, *xraw), (y, *_) = p, r
    _check_nested(x, *xraw, gens)
    for op, fn in OPS.items():
        if op == "/" and y.is_zero:
            continue
        got = fn(x, y)
        _check_nested(got, *unreduced(op, x, y), gens)
        want = OPS[op](_to_sympy(x, gens), _to_sympy(y, gens))
        assert _to_sympy(got, gens) == want
        assert want.denom.degree(ks.numer) == len(got.den) - 1


def test_monomial_denominators_make_no_gcd(monkeypatch):
    calls = []
    gcd = algebra_core.poly_gcd

    def counted(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(algebra_core, "poly_gcd", counted)
    g = variable("gamma")
    q = g + 2 / g
    chi = 2 / g
    values = [q * q, q ** 3 - chi, (3 * g ** 2 - 1) / g ** 3 + chi * q,
              g ** -3 * q, (q - g) / g ** 2, q - q, chi ** 2 / 4 * g]
    assert calls == []
    assert values[0] == g ** 2 + 4 + 4 / g ** 2
    assert values[5] == 0 and values[5].den == (1,)
    # a general denominator still takes the Euclidean gcd
    _ = (g + 1) / (g - 1)
    assert calls


def test_public_constructors_keep_their_checks():
    f = RatFunc("gamma", (1, 2), (0, 3))
    assert all(type(c) is Fraction for c in f.num + f.den)
    for bad in ((True,), (Fraction(1), False), (0.5,), ("1",)):
        with pytest.raises(AlgebraError):
            RatFunc("gamma", bad)
        with pytest.raises(AlgebraError):
            RatFunc("gamma", (1,), bad)
    with pytest.raises(AlgebraError, match="unregistered"):
        RatFunc("zeta", (1,))
    for den in ((0, 0), (), (Fraction(0),)):
        with pytest.raises(AlgebraError, match="zero denominator"):
            RatFunc("gamma", (1,), den)
    g = variable("gamma")
    with pytest.raises(AlgebraError, match="bool"):
        _ = g + True
    with pytest.raises(TypeError):
        _ = g * 0.5
    z = CFrac(1, -2)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    for w in (z + 1, 1 - z, z * 3, z * z, -z, z.conj(), z.reciprocal(),
              z / 2, z ** 2, CFrac.of(4)):
        assert type(w.re) is Fraction and type(w.im) is Fraction


# ---------------------------------------------------------------------------
# RatFunc constant operands against the lifting path
# ---------------------------------------------------------------------------

def lift(x: RatFunc, c) -> RatFunc:
    """The constant c as a RatFunc in x's variable."""
    return RatFunc(x.var, (c,))


def general_add(a, b):
    if a.den == b.den:
        return RatFunc(a.var, algebra_core.poly_add(a.num, b.num), a.den)
    num = algebra_core.poly_add(algebra_core.poly_mul(a.num, b.den),
                                algebra_core.poly_mul(b.num, a.den))
    return RatFunc(a.var, num, algebra_core.poly_mul(a.den, b.den))


def general_mul(a, b):
    return RatFunc(a.var, algebra_core.poly_mul(a.num, b.num),
                   algebra_core.poly_mul(a.den, b.den))


def general_reciprocal(a):
    return RatFunc(a.var, a.den, a.num)


def general_results(x, c):
    """x op c and c op x along the lifting path: c is made a RatFunc in
    x's variable first, and the operands meet as two RatFuncs."""
    k = lift(x, c)
    out = {"x*c": general_mul(x, k), "x+c": general_add(x, k),
           "x-c": general_add(x, -k), "x==c": x.num == k.num and x.den == k.den}
    if isinstance(c, RatFunc):
        # c's own operator lifts c and puts it first
        out.update({"c*x": general_mul(k, x), "c+x": general_add(k, x),
                    "c-x": general_add(k, -x)})
    else:
        out.update({"c*x": general_mul(x, k), "c+x": general_add(x, k),
                    "c-x": general_add(-x, k)})
    if not k.is_zero:
        out["x/c"] = general_mul(x, general_reciprocal(k))
    if not x.is_zero:
        out["c/x"] = general_mul(k, general_reciprocal(x))
    return out


def fast_results(x, c):
    out = {"x*c": x * c, "c*x": c * x, "x+c": x + c, "c+x": c + x,
           "x-c": x - c, "c-x": c - x, "x==c": x == c}
    if c != 0:
        out["x/c"] = x / c
    if not x.is_zero:
        out["c/x"] = c / x
    return out


def shape(x):
    """Structure of an exact scalar: every coefficient's type and value."""
    if isinstance(x, RatFunc):
        return ("RatFunc", x.var, tuple(shape(c) for c in x.num),
                tuple(shape(c) for c in x.den))
    return (type(x).__name__, x)


def assert_same_as_general(x, c):
    want = general_results(x, c)
    got = fast_results(x, c)
    assert got.keys() == want.keys()
    for key, w in want.items():
        g = got[key]
        if key == "x==c":
            assert g is w
            continue
        assert shape(g) == shape(w), key
        assert repr(g) == repr(w), key
        assert g == w, key


gamma_constant_st = st.one_of(st.just(0), st.integers(-9, 9), small_st)


@settings(max_examples=120, deadline=None)
@given(raw_gamma_pair(), gamma_constant_st)
@example(pair=([2], [1, 1]), c=2)   # num is (c,), den is not 1
def test_gamma_constant_operands_match_the_lifting_path(pair, c):
    x = RatFunc("gamma", *pair)
    assert_same_as_general(x, c)
    assert_same_as_general(x, Fraction(c))


@st.composite
def kappa_over_q(draw, small_st=small_st, nonzero_st=nonzero_st):
    """A rational function of kappa over Q(q), with a monomial or a general
    denominator whose leading coefficient may itself be a function of q;
    its rational numbers are drawn from ``small_st`` and ``nonzero_st``."""
    def coeff(nonzero=False):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return draw(nonzero_st if nonzero else small_st)
        if kind == 1:
            c = RatFunc("q", [draw(small_st), draw(nonzero_st)])
        else:
            c = RatFunc("q", [draw(small_st), Fraction(1)],
                        [draw(nonzero_st), draw(small_st)])
        return c if nonzero or draw(st.booleans()) else c - c
    num = [coeff() for _ in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        den = [Fraction(0)] * draw(st.integers(0, 2)) + [coeff(nonzero=True)]
    else:
        den = [coeff() for _ in range(draw(st.integers(0, 2)))]
        den.append(coeff(nonzero=True))
    return RatFunc("kappa", num, den)


q_constant_st = st.one_of(
    gamma_constant_st,
    st.builds(lambda a, b: RatFunc("q", [a, b]), small_st, nonzero_st),
    st.builds(lambda a, b, c: RatFunc("q", [a, Fraction(1)], [b, c]),
              small_st, nonzero_st, small_st),
    st.just(RatFunc("q", ())))


_Q1 = RatFunc("q", (1, 1))


@settings(max_examples=120, deadline=None)
@given(kappa_over_q(), q_constant_st)
# a denominator led by a function of q, which keeps the lifting path
@example(x=RatFunc("kappa", (1, 2), (3, _Q1)), c=0)
@example(x=RatFunc("kappa", (1, 2), (3, _Q1)), c=5)
# a zero slot of the numerator that is a function of q
@example(x=RatFunc("kappa", (1, _Q1 - _Q1, 2), (3, 0, 1)), c=5)
def test_nested_constant_operands_match_the_lifting_path(x, c):
    assert_same_as_general(x, c)


def test_constant_operands_make_no_poly_mul_or_gcd(monkeypatch):
    values = [RatFunc("gamma", (1, 2, 3), (5, 0, 1)),
              RatFunc("gamma", (0, 0, 4), (0, 0, 0, 2)),
              RatFunc("kappa", (1, 0, 3), (2, 1)),
              RatFunc("kappa", (-3, RatFunc("q", (0, 2))), (1, 1))]
    q_constant = RatFunc("q", (1, 1), (3, 1))
    calls = []
    for name in ("poly_mul", "poly_gcd"):
        real = getattr(algebra_core, name)
        monkeypatch.setattr(
            algebra_core, name,
            lambda *args, _name=name, _real=real:
            calls.append(_name) or _real(*args))
    for x in values:
        for c in (0, 5, Fraction(-2, 3)):
            _ = [x * c, c * x, x + c, c + x, x - c, c - x,
                 x == c, c == x, x != c]
    # a lower-level RatFunc is a constant on the right; on the left its own
    # operator lifts it, as before
    x = values[2]
    _ = [x * q_constant, x + q_constant, x - q_constant, x == q_constant]
    assert calls == []
    # a same-variable operand still takes the general path
    g = variable("gamma")
    _ = g * (g + 1)
    assert calls


def test_lower_level_lead_takes_the_canonical_form():
    # a denominator led by a function of q is divided by that lead; its
    # lead becomes the Fraction 1, and what comes out rational is stored
    # as a Fraction, as when the same value is built over rationals
    q1, q2 = RatFunc("q", (1,)), RatFunc("q", (2,))
    rational_pairs = [
        (RatFunc("kappa", [1], [0, q1]), RatFunc("kappa", [1], [0, 1])),
        (RatFunc("kappa", [3, 1], [1, q2]),
         RatFunc("kappa", [Fraction(3, 2), Fraction(1, 2)],
                 [Fraction(1, 2), 1])),
        (RatFunc("kappa", [], [q2]), RatFunc("kappa", [])),
    ]
    for a, b in rational_pairs:
        assert a == b
        assert shape(a) == shape(b)
        assert repr(a) == repr(b)
        assert encode(a) == encode(b)
    a = RatFunc("kappa", [1], [0, _Q1])
    b = RatFunc("kappa", [1 / _Q1], [0, 1])
    assert a == b and shape(a) == shape(b) and repr(a) == repr(b)
    # a zero over such a denominator: both operand orders give one form
    x = rational_pairs[0][0]
    z = x - x
    assert shape(z + 0) == shape(lift(z, 0) + z) == shape(RatFunc("kappa", []))


def test_constant_lower_level_coefficients_are_fractions():
    # a product, a sum or a construction that leaves a function of q
    # constant stores it as a Fraction, as the same value built over
    # rationals does
    kappa, q = variable("kappa"), variable("q")
    cases = [((kappa * q) * (1 / q), kappa),
             (RatFunc("kappa", [RatFunc("q", (2,))]), RatFunc("kappa", [2])),
             ((kappa + q) - q, kappa),
             (RatFunc("kappa", [0, 1], [RatFunc("q", (2,)), 1]),
              RatFunc("kappa", [0, 1], [2, 1]))]
    for a, b in cases:
        assert a == b
        assert shape(a) == shape(b)
        assert repr(a) == repr(b)
        assert encode(a) == encode(b)


def _step(y, op, c, c_first):
    """y op c, or c op y when ``c_first``."""
    a, b = (c, y) if c_first else (y, c)
    return {"+": a + b, "-": a - b}[op] if op in "+-" else \
        (a * b if op == "*" else a / b)


def _undo(y, op, c, c_first):
    """The x with ``_step(x, op, c, c_first) == y``."""
    if op == "+":
        return y - c
    if op == "*":
        return y / c
    if c_first:                     # y = c - x or y = c / x
        return c - y if op == "-" else c / y
    return y + c if op == "-" else y * c


# a constant of Q(q), or a kappa + b over it: a linear operand keeps the
# chains' degrees, and so their reductions, small
chain_operand_st = st.one_of(
    q_constant_st,
    st.builds(lambda a, b: a * variable("kappa") + b,
              q_constant_st.filter(lambda a: a != 0), q_constant_st))


@settings(max_examples=150, deadline=None)
@given(kappa_over_q(),
       st.lists(st.tuples(st.sampled_from("+-*/"), chain_operand_st,
                          st.booleans()), max_size=3))
@example(x=variable("kappa"), steps=[("*", variable("q"), False)])
@example(x=variable("kappa"), steps=[("+", variable("q"), True)])
def test_equal_two_level_values_have_one_repr(x, steps):
    # a chain of operations mixing kappa and Q(q), with constants on either
    # side, then its inverse steps in reverse: the value returns to x, and
    # an equal value must print, and encode, as x does
    y, done = x, []
    for op, c, c_first in steps:
        if op in "*/" and c == 0 or op == "/" and c_first and y == 0:
            continue
        y = _step(y, op, c, c_first)
        done.append((op, c, c_first))
    for op, c, c_first in reversed(done):
        y = _undo(y, op, c, c_first)
    assert y == x
    assert repr(y) == repr(x)
    assert shape(y) == shape(x)
    rebuilt = RatFunc(y.var, y.num, y.den)
    assert repr(rebuilt) == repr(y) and shape(rebuilt) == shape(y)


# ---------------------------------------------------------------------------
# The JSON codec
# ---------------------------------------------------------------------------

# the same small rationals as small_st and nonzero_st, built from two
# integers: st.fractions takes about 1.7 ms a draw (2-vCPU Xeon), which
# 2,000 chains of up to 20 rationals each cannot afford
lean_st = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
lean_nonzero_st = st.builds(lambda s, n, d: Fraction(s * n, d),
                            st.sampled_from((-1, 1)), st.integers(1, 6),
                            st.integers(1, 5))
lean_q_constant_st = st.one_of(
    st.integers(-9, 9), lean_st,
    st.builds(lambda a, b: RatFunc("q", [a, b]), lean_st, lean_nonzero_st),
    st.builds(lambda a, b, c: RatFunc("q", [a, Fraction(1)], [b, c]),
              lean_st, lean_nonzero_st, lean_st))
lean_chain_operand_st = st.one_of(
    lean_q_constant_st,
    st.builds(lambda a, b: a * variable("kappa") + b,
              lean_q_constant_st.filter(lambda a: a != 0),
              lean_q_constant_st))
cfrac_st = st.builds(CFrac, lean_st, lean_st)


def _as_quotient(x, ring):
    """(num, den) of a rational number, or of a rational function of q or
    of kappa over Q(q), as polynomials of ``ring`` in q and kappa: every
    coefficient's denominator is cleared by their product, nothing is
    reduced."""
    if isinstance(x, (int, Fraction)):
        return ring(x), ring(1)
    v = ring.gens[("q", "kappa").index(x.var)]
    num, den = ([_as_quotient(c, ring) for c in cs] for cs in (x.num, x.den))
    common = ring(1)
    for _, d in num + den:
        common = common * d
    return tuple(sum((n * common.exquo(d) * v ** i
                      for i, (n, d) in enumerate(parts)), ring(0))
                 for parts in (num, den))


@st.composite
def codec_chain(draw):
    """(x, steps): a start value and + - * / steps on it, each with its
    constant and a flag for the constant's side.  A two-level chain starts
    at kappa over Q(q) and takes constants of Q(q), ints and Fractions
    among them, and affine functions of kappa; a complex chain starts at a
    CFrac and takes Fractions and CFracs.  Each chain keeps its start's
    type."""
    if draw(st.booleans()):
        x = draw(kappa_over_q(lean_st, lean_nonzero_st))
        operand = lean_chain_operand_st
    else:
        x, operand = draw(cfrac_st), st.one_of(lean_st, cfrac_st)
    steps = draw(st.lists(st.tuples(st.sampled_from("+-*/"), operand,
                                    st.booleans()), max_size=3))
    return x, steps


@settings(max_examples=2000, deadline=None)
@given(codec_chain())
@example(case=(variable("kappa") * variable("q"),
               [("+", 1 / variable("q"), False)]))
@example(case=(CFrac(1, 2), [("*", Fraction(3, 4), True)]))
def test_codec_round_trips_chains_and_matches_sympy(case):
    # the chain's value encodes like every equal value, comes back from
    # JSON text equal and of the same structure, and is the value sympy
    # gives the chain flattened: a two-level chain in sympy's field of
    # rational functions in q and kappa, whose elements sympy.cancel keeps
    # reduced (each value enters it as one quotient of polynomials), a
    # complex chain in sympy's Gaussian rationals
    sympy = pytest.importorskip("sympy")
    x, steps = case
    if isinstance(x, CFrac):
        def flatten(v):
            return sympy.QQ_I.from_sympy(_plain(sympy, v))
    else:
        field = sympy.field("q,kappa", sympy.QQ)[0]

        def flatten(v):
            return field.new(*_as_quotient(v, field.ring))
    y, flat, done = x, flatten(x), []
    for op, c, c_first in steps:
        if op in "*/" and c == 0 or op == "/" and c_first and y == 0:
            continue
        y = _step(y, op, c, c_first)
        flat = _step(flat, op, flatten(c), c_first)
        done.append((op, c, c_first))
    back = y
    for op, c, c_first in reversed(done):
        back = _undo(back, op, c, c_first)
    assert back == x
    assert encode(back) == encode(x) and repr(back) == repr(x)
    data = encode(y)
    decoded = decode(json.loads(json.dumps(data)))
    assert decoded == y and shape(decoded) == shape(y)
    assert encode(decoded) == data and repr(decoded) == repr(y)
    assert flatten(decoded) == flat
