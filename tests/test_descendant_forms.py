"""Unit tests for derivative-field multilinear forms and the spin-3 realization."""

import json
import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from w3toda.algebra_core import (
    H1,
    H2,
    H3,
    OMEGA1,
    OMEGA2,
    RHO,
    AlgebraError,
    CartanVector,
    CFrac,
    _HVECS,
    _as_coeff,
    conformal_weight,
    decode,
    encode,
    inner,
    q_of_gamma,
    spin,
    variable,
)
from w3toda import descendant_forms
from w3toda.descendant_forms import (
    FieldMonomial,
    FieldPolynomial,
    MiuraConvention,
    Weight,
    _compositions,
    _current_words,
    _extract_sectors,
    _quad_words,
    _read_form,
    combine,
    contraction,
    l_form,
    miura_convention,
    miura_current_terms,
    miura_w_form,
    screening_branch,
    vec_factor,
)

ALPHA = CartanVector(Fraction(5, 7), Fraction(-3, 11))
QSYM = variable("q")


# ---------------------------------------------------------------------------
# Monomials and polynomials
# ---------------------------------------------------------------------------

def test_monomial_sorted_and_level():
    m = FieldMonomial(((2, 1), (1, 2), (1, 1)))
    assert m.factors == ((1, 1), (1, 2), (2, 1))
    assert m.level == 4


def test_monomial_validation():
    with pytest.raises(AlgebraError):
        FieldMonomial(((0, 1),))
    with pytest.raises(AlgebraError):
        FieldMonomial(((1, 3),))


def test_polynomial_rejects_mixed_levels():
    with pytest.raises(AlgebraError, match="mixes levels"):
        FieldPolynomial({
            FieldMonomial(((1, 1),)): 1,
            FieldMonomial(((2, 1),)): 1,
        })


def test_polynomial_drops_zero_terms():
    p = FieldPolynomial({FieldMonomial(((1, 1),)): 0})
    assert p.is_zero
    assert p.level is None


def test_additive_inverse_and_level():
    f = l_form((2,), ALPHA, q=QSYM)
    assert (f - f).is_zero
    assert f.level == 2
    assert l_form((1, 1, 1), ALPHA, q=QSYM).level == 3


def test_scalar_multiplication_sides():
    f = l_form((1,), ALPHA)
    assert Fraction(3, 2) * f == f * Fraction(3, 2)
    assert (0 * f).is_zero


@settings(max_examples=40, deadline=None)
@given(
    a=st.fractions(min_value=-5, max_value=5),
    b=st.fractions(min_value=-5, max_value=5),
    c1=st.fractions(min_value=-3, max_value=3),
    c2=st.fractions(min_value=-3, max_value=3),
)
def test_bilinearity_properties(a, b, c1, c2):
    u = CartanVector(c1, c2)
    f1 = vec_factor(u, 1)
    f2 = vec_factor(RHO, 1)
    # distributivity of scalar combinations over products
    lhs = (a * f1 + b * f2) * f2
    rhs = a * (f1 * f2) + b * (f2 * f2)
    assert lhs == rhs
    # product commutes
    assert f1 * f2 == f2 * f1


def test_vec_factor_linearity():
    u = CartanVector(2, -3)
    v = CartanVector(Fraction(1, 2), 5)
    assert vec_factor(u, 2) + vec_factor(v, 2) == vec_factor(u + v, 2)


def test_contraction_symmetry_and_values():
    # <dPhi, dPhi> pairs through the inverse Cartan matrix
    c = contraction(1, 1)
    m11 = FieldMonomial(((1, 1), (1, 1)))
    m12 = FieldMonomial(((1, 1), (1, 2)))
    m22 = FieldMonomial(((1, 2), (1, 2)))
    assert c.terms[m11] == Fraction(2, 3)
    assert c.terms[m12] == Fraction(2, 3)  # both cross terms accumulate
    assert c.terms[m22] == Fraction(2, 3)
    assert contraction(2, 1) == contraction(1, 2)


# ---------------------------------------------------------------------------
# Closed Virasoro-type formulas
# ---------------------------------------------------------------------------

def test_l_form_level_one():
    assert l_form((1,), ALPHA, q=QSYM) == vec_factor(ALPHA, 1)
    assert l_form(1, ALPHA, q=QSYM) == vec_factor(ALPHA, 1)


def test_l_form_level_two():
    want = vec_factor(QSYM * RHO + ALPHA, 2) - contraction(1, 1)
    assert l_form((2,), ALPHA, q=QSYM) == want


def test_l_form_level_three():
    head = (2 * QSYM) * RHO + ALPHA
    want = (Fraction(1, 2) * vec_factor(head, 3)
            - contraction(1, 2) - contraction(2, 1))
    assert l_form((3,), ALPHA, q=QSYM) == want


def test_l_form_one_one():
    v1 = vec_factor(ALPHA, 1)
    want = vec_factor(ALPHA, 2) + v1 * v1
    assert l_form((1, 1), ALPHA, q=QSYM) == want
    assert l_form((1, 1), CartanVector(0, 0), q=QSYM).is_zero


def test_l_form_one_two():
    head = QSYM * RHO + ALPHA
    v1 = vec_factor(ALPHA, 1)
    want = (vec_factor(head, 3) + vec_factor(head, 2) * v1
            - 2 * contraction(2, 1) - contraction(1, 1) * v1)
    assert l_form((1, 2), ALPHA, q=QSYM) == want


def test_l_form_one_one_one():
    v1 = vec_factor(ALPHA, 1)
    want = (vec_factor(ALPHA, 3) + 3 * (vec_factor(ALPHA, 2) * v1)
            + v1 * v1 * v1)
    assert l_form((1, 1, 1), ALPHA, q=QSYM) == want


def test_l_form_default_q_is_symbolic():
    f = l_form((2,), ALPHA)
    g = l_form((2,), ALPHA, q=q_of_gamma())
    assert f == g


def test_l_form_unsupported_index():
    with pytest.raises(AlgebraError, match="unsupported derivative multi-index"):
        l_form((2, 2), ALPHA)
    with pytest.raises(AlgebraError, match="unsupported derivative multi-index"):
        l_form((0,), ALPHA)


# ---------------------------------------------------------------------------
# Linear combinations
# ---------------------------------------------------------------------------

def test_combine_cancellation():
    f = l_form((1, 2), ALPHA, q=QSYM)
    assert combine([1, -1], [f, f]).is_zero


def test_combine_mixed_levels_rejected():
    with pytest.raises(AlgebraError, match="mixed levels"):
        combine([1, 1], [l_form((1,), ALPHA), l_form((2,), ALPHA)])


def test_combine_length_mismatch():
    with pytest.raises(AlgebraError):
        combine([1], [l_form((1,), ALPHA), l_form((1,), ALPHA)])


def test_combine_with_rational_function_coefficients():
    f = l_form((2,), ALPHA, q=QSYM)
    g = l_form((1, 1), ALPHA, q=QSYM)
    out = combine([QSYM, -1], [f, g])
    assert out == QSYM * f - g


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_scalar_json_roundtrip():
    kappa = variable("kappa")
    cases = [
        (Fraction(-3, 7), "-3/7"),
        (Fraction(5), "5"),
        (CFrac(Fraction(1, 2), -3), ["1/2", "-3"]),
        (QSYM ** 2 - 2 / QSYM,
         {"var": "q", "num": ["-2", "0", "0", "1"], "den": ["0", "1"]}),
        # kappa over Q(q): every coefficient is encoded in turn
        (kappa * QSYM + 1 / QSYM,
         {"var": "kappa",
          "num": [{"var": "q", "num": ["1"], "den": ["0", "1"]},
                  {"var": "q", "num": ["0", "1"], "den": ["1"]}],
          "den": ["1"]}),
    ]
    for c, data in cases:
        assert encode(c) == data
        back = decode(json.loads(json.dumps(data)))
        assert back == c and type(back) is type(c)


def test_polynomial_json_roundtrip():
    # the second one's coordinates kappa and q give it coefficients in
    # kappa over Q(q), whose JSON form nests
    for f in (l_form((1, 2), ALPHA, q=QSYM),
              l_form((1, 1), CartanVector(variable("kappa"), QSYM))):
        data = json.loads(json.dumps(f.to_json()))
        assert isinstance(data, list)
        for entry in data:
            assert set(entry) == {"factors", "coeff"}
        assert FieldPolynomial.from_json(data) == f


def test_polynomial_json_plain_rational_coeffs():
    f = l_form((1, 1), ALPHA, q=Fraction(3))
    data = f.to_json()
    for entry in data:
        m = FieldMonomial(tuple(tuple(pi) for pi in entry["factors"]))
        assert entry["coeff"] == str(f.terms[m])  # "p/q"
    assert FieldPolynomial.from_json(data) == f


# ---------------------------------------------------------------------------
# Spin-3 realization
# ---------------------------------------------------------------------------

def test_current_words_cubic_component():
    # hand-expanded composition: the cubic component of
    # ((q/2)d + b1)((q/2)d + b2)((q/2)d + b3) without the quadratic shift
    want = {
        (2, ((3, 2),)): Fraction(1),
        (1, ((1, 0), (3, 1))): Fraction(1),
        (1, ((2, 1), (3, 0))): Fraction(1),
        (1, ((2, 0), (3, 1))): Fraction(1),
        (0, ((1, 0), (2, 0), (3, 0))): Fraction(1),
    }
    assert dict(_current_words(Fraction(0))) == want


def test_frozen_convention():
    conv = miura_convention()
    assert conv == MiuraConvention(
        order=(1, 2, 3),
        sign_field=1,
        sign_q=-1,
        parity=-1,
        shift=Fraction(-1, 2),
        contraction=Fraction(-1, 2),
        normalization=Fraction(-8),
    )


def test_spin2_anchor_matches_closed_formulas():
    conv = miura_convention()
    for n in (1, 2, 3, 4):
        assert _read_form(_quad_words(), n, ALPHA, QSYM, conv, Fraction(2)) \
            == l_form((n,), ALPHA, q=QSYM)


def test_level_one_constraint_symbolic():
    q, kappa = variable("q"), variable("kappa")
    alpha = kappa * OMEGA1
    lhs = miura_w_form(1, alpha, q=q)
    rhs = (q - Fraction(2, 3) * kappa) * l_form((1,), alpha, q=q)
    assert lhs == rhs


def test_level_one_constraint_matches_spin_ratio():
    # the proportionality constant equals 3*spin / (2*weight) at the
    # degenerate-ray weight, for concrete rational data
    q = Fraction(43, 15)  # gamma = 6/5
    kappa = Fraction(3, 7)
    alpha = kappa * OMEGA1
    ratio = 3 * spin(alpha, q=q) / (2 * conformal_weight(alpha, q=q))
    assert miura_w_form(1, alpha, q=q) == ratio * l_form((1,), alpha, q=q)


def _chi_targets(chi):
    q = chi + 2 / chi
    beta = (-chi) * OMEGA1
    w2 = miura_w_form(2, beta, q=q)
    t2 = (-4 / chi) * l_form((1, 1), beta, q=q) \
        - (chi * Fraction(4, 3)) * l_form((2,), beta, q=q)
    w3 = miura_w_form(3, beta, q=q)
    t3 = (-(chi / 3 + 2 / chi)) * l_form((3,), beta, q=q) \
        + (4 / chi) * l_form((1, 2), beta, q=q) \
        + (8 / chi ** 3) * l_form((1, 1, 1), beta, q=q)
    return w2, t2, w3, t3


def test_level_two_three_constraints_symbolic_chi():
    chi = variable("chi")
    w2, t2, w3, t3 = _chi_targets(chi)
    assert w2 == t2
    assert w3 == t3


def test_level_two_three_constraints_gamma_branches():
    gamma = variable("gamma")
    for chi in (gamma, 2 / gamma):
        w2, t2, w3, t3 = _chi_targets(chi)
        assert w2 == t2
        assert w3 == t3


def test_level_two_three_constraints_rational_chi():
    for chi in (Fraction(6, 5), Fraction(5, 3), Fraction(7, 2)):
        w2, t2, w3, t3 = _chi_targets(chi)
        assert w2 == t2
        assert w3 == t3


def test_miura_w_form_level_validation():
    with pytest.raises(AlgebraError):
        miura_w_form(4, ALPHA)
    with pytest.raises(AlgebraError):
        miura_w_form(0, ALPHA)


def test_miura_w_form_levels():
    for n in (1, 2, 3):
        assert miura_w_form(n, ALPHA, q=QSYM).level == n


def test_current_terms_structure():
    terms = miura_current_terms(q=QSYM)
    # cubic word in three first-derivative fields plus quantum corrections
    cubic = [t for t in terms if len(t[1]) == 3]
    assert len(cubic) == 1
    coeff, factors = cubic[0]
    assert coeff == Fraction(-8)
    assert [v for v, _ in factors] == [H1, H2, H3]
    assert all(p == 1 for _, p in factors)
    # every term is a degree-3 word
    for coeff, factors in terms:
        assert sum(p for _, p in factors) == 3


def test_audit_scan_is_unique_and_matches_frozen():
    assert miura_convention(audit=True) == miura_convention()


class TestWeight:
    def test_generic(self):
        w = Weight.generic(ALPHA)
        assert w.tag == "generic"
        assert w.vector == ALPHA
        assert w.index is None and w.parameter is None

    def test_semi_degenerate_both_rays(self):
        kap = variable("kappa")
        w1 = Weight.semi_degenerate(1, kap)
        assert w1.vector == kap * OMEGA1
        assert (w1.tag, w1.index) == ("semi_degenerate", 1)
        w2 = Weight.semi_degenerate(2, Fraction(3, 4))
        assert w2.vector == Fraction(3, 4) * CartanVector(Fraction(1, 3), Fraction(2, 3))
        assert w2.index == 2

    def test_fully_degenerate(self):
        g = variable("gamma")
        for chi in (g, 2 / g, Fraction(7, 5)):
            w = Weight.fully_degenerate(chi)
            assert w.tag == "fully_degenerate"
            assert w.vector == (-1) * chi * OMEGA1
            assert w.parameter == chi

    def test_direct_construction_validated(self):
        kap = Fraction(2)
        # consistent direct construction is allowed
        Weight(kap * OMEGA1, "semi_degenerate", 1, kap)
        with pytest.raises(AlgebraError, match="unknown weight tag"):
            Weight(ALPHA, "odd")
        with pytest.raises(AlgebraError, match="parameter \\* omega_1"):
            Weight(ALPHA, "semi_degenerate", 1, kap)
        with pytest.raises(AlgebraError, match="index 1 or 2"):
            Weight(kap * OMEGA1, "semi_degenerate", 3, kap)
        with pytest.raises(AlgebraError, match="index 1 or 2"):
            Weight.semi_degenerate(0, kap)
        with pytest.raises(AlgebraError, match="no index or parameter"):
            Weight(ALPHA, "generic", 1)
        with pytest.raises(AlgebraError, match="scale parameter"):
            Weight(ALPHA, "fully_degenerate")
        with pytest.raises(AlgebraError, match="-parameter \\* omega_1"):
            Weight(kap * OMEGA1, "fully_degenerate", None, kap)
        with pytest.raises(AlgebraError, match="do not take an index"):
            Weight((-1) * kap * OMEGA1, "fully_degenerate", 1, kap)

    def test_screening_branch(self):
        # one resolver for a branch name, a numeric or a symbolic scale
        g = variable("gamma")
        f = Fraction
        assert screening_branch("gamma") == ("gamma", g)
        assert screening_branch("2/gamma", f(4, 5)) == ("2/gamma", f(5, 2))
        assert screening_branch(f(4, 5), f(4, 5)) == ("gamma", f(4, 5))
        assert screening_branch(2 / g, g) == ("2/gamma", 2 / g)
        with pytest.raises(AlgebraError, match="needs gamma"):
            screening_branch(f(4, 5))
        with pytest.raises(AlgebraError,
                           match="screening scale must equal gamma or 2/gamma"):
            screening_branch(f(1, 3), f(4, 5))


# ---------------------------------------------------------------------------
# Template-then-substitute reading against the plain per-weight loop
# ---------------------------------------------------------------------------

def plain_sectors(words, n, alpha, q, order, s_b, s_q, par) -> dict:
    """The level-n sector reading written out term by term, with alpha and
    q multiplied in inside the loop and no template."""
    sectors = {}
    for (qpow, factors), c in words:
        # the composed operator's derivative slot carries q/2, matching the
        # half-weight pairing of the free field
        base = _as_coeff(c) * Fraction(1, 2) ** qpow
        if s_q < 0 and qpow % 2:
            base = -base
        if s_b < 0 and len(factors) % 2:
            base = -base
        scalar0 = base * q ** qpow if qpow else base
        us = tuple(_HVECS[order[slot - 1] - 1] for slot, _ in factors)
        ps = tuple(d + 1 for _, d in factors)
        for rs in _compositions(n, len(factors)):
            if any(0 < r < p for p, r in zip(ps, rs)):
                continue
            k = sum(1 for r in rs if r == 0)
            scalar = scalar0
            poly = None
            for u, p, r in zip(us, ps, rs):
                if r == 0:
                    w = factorial(p - 1) * inner(u, alpha)
                    if par < 0 and (p - 1) % 2:
                        w = -w
                    scalar = scalar * w
                else:
                    f = vec_factor(u, r)
                    if r > p:
                        f = Fraction(1, factorial(r - p)) * f
                    poly = f if poly is None else poly * f
            if poly is None:
                continue
            prev = sectors.get(k)
            add = scalar * poly
            sectors[k] = add if prev is None else prev + add
    return {k: p for k, p in sectors.items() if not p.is_zero}


def plain_read_form(words, n, alpha, q, conv, normalization):
    total = FieldPolynomial.zero()
    sectors = plain_sectors(words, n, alpha, q, conv.order, conv.sign_field,
                            conv.sign_q, conv.parity)
    for k, poly in sectors.items():
        total = total + (normalization * conv.contraction ** k) * poly
    return total


def _reading_cases():
    q, kappa, gamma = variable("q"), variable("kappa"), variable("gamma")
    cases = [(kappa * OMEGA1, q), (kappa * OMEGA2, q)]
    cases += [((-1) * chi * OMEGA1, q_of_gamma()) for chi in (gamma, 2 / gamma)]
    chi = variable("chi")
    cases.append(((-1) * chi * OMEGA1, chi + 2 / chi))
    rng = random.Random(11)
    for _ in range(4):
        alpha = CartanVector(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        cases.append((alpha, Fraction(rng.randint(1, 40), rng.randint(1, 9))))
    return cases


@pytest.mark.parametrize("alpha,q", _reading_cases())
def test_w_forms_match_plain_reading(alpha, q):
    conv = miura_convention()
    for n in (1, 2, 3):
        got = miura_w_form(n, alpha, q=q)
        want = plain_read_form(_current_words(conv.shift), n, alpha, q, conv,
                               conv.normalization)
        assert got == want
        assert repr(got) == repr(want)


@pytest.mark.parametrize("alpha,q", _reading_cases()[::2])
def test_quadratic_forms_match_plain_reading(alpha, q):
    conv = miura_convention()
    for n in (1, 2, 3, 4):
        got = _read_form(_quad_words(), n, alpha, q, conv, Fraction(2))
        want = plain_read_form(_quad_words(), n, alpha, q, conv, Fraction(2))
        assert got == want
        assert repr(got) == repr(want)


@pytest.mark.parametrize("order", [(1, 2, 3), (3, 1, 2)])
def test_scan_sectors_match_plain_reading(order):
    # the convention scan reads unfrozen conventions the same way
    q, kappa = variable("q"), variable("kappa")
    alpha = kappa * OMEGA1
    for s_b, s_q, par, shift in ((1, 1, 1, Fraction(0)),
                                 (-1, 1, -1, Fraction(3, 4)),
                                 (1, -1, 1, Fraction(-1, 2))):
        words = _current_words(shift)
        for n in (1, 2, 3):
            got = _extract_sectors(words, n, alpha, q, order, s_b, s_q, par)
            want = plain_sectors(words, n, alpha, q, order, s_b, s_q, par)
            assert sorted(got) == sorted(want)
            for k in want:
                assert repr(got[k]) == repr(want[k])


def test_frozen_templates_built_once_per_level(monkeypatch):
    miura_convention()
    built = Counter()
    real = descendant_forms._sector_templates

    def counted(words, n, *rest):
        built[n] += 1
        return real(words, n, *rest)

    monkeypatch.setattr(descendant_forms, "_sector_templates", counted)
    descendant_forms._frozen_template.cache_clear()
    rng = random.Random(5)
    for _ in range(4):
        alpha = CartanVector(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for n in (1, 2, 3):
            miura_w_form(n, alpha, q=Fraction(rng.randint(1, 40), 7))
            miura_w_form(n, alpha)
    assert built == Counter({1: 1, 2: 1, 3: 1})
