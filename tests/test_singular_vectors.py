"""Unit tests for null combinations, their solvers and boundary constants."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from w3toda.algebra_core import (
    E1,
    E2,
    OMEGA1,
    OMEGA2,
    RHO,
    AlgebraError,
    CartanVector,
    decode,
    encode,
    inner,
    q_of_gamma,
    variable,
)
from w3toda.descendant_forms import (
    Weight,
    combine,
    contraction,
    l_form,
    miura_w_form,
    vec_factor,
)
from w3toda.free_field import CorrelatorConfig
from w3toda.singular_vectors import (
    D2Table,
    EomRecord,
    EomTerm,
    SingularVectorSpec,
    W_KEY,
    build_singular,
    d2_table,
    eom_constant,
    eom_rhs,
    solve_d1,
    verify_null_form,
)

QSYM = variable("q")
KAPPA = variable("kappa")
GAMMA = variable("gamma")


def exact_fractions(**kw):
    return st.fractions(max_denominator=40, **kw)


# ---------------------------------------------------------------------------
# build_singular
# ---------------------------------------------------------------------------

class TestBuildSingular:
    def test_level1_coefficients_symbolic(self):
        spec = build_singular(1, Weight.semi_degenerate(1, KAPPA))
        assert spec.level == 1
        assert spec.coefficients[W_KEY] == 1
        assert spec.coefficients[(1,)] == -(QSYM - 2 * KAPPA / 3)

    def test_level1_mirror_ray_flips_the_ratio(self):
        spec = build_singular(1, Weight.semi_degenerate(2, KAPPA))
        assert spec.coefficients[(1,)] == QSYM - 2 * KAPPA / 3

    def test_level1_numeric(self):
        q = q_of_gamma(Fraction(6, 5))
        spec = build_singular(1, Weight.semi_degenerate(1, Fraction(1, 3)), q=q)
        assert spec.coefficients[(1,)] == -(q - Fraction(2, 9))

    def test_level2_coefficients(self):
        spec = build_singular(2, Weight.fully_degenerate(GAMMA))
        assert spec.coefficients == {
            W_KEY: 1, (1, 1): 4 / GAMMA, (2,): 4 * GAMMA / 3}

    def test_level3_coefficients(self):
        chi = 2 / GAMMA
        spec = build_singular(3, Weight.fully_degenerate(chi))
        assert spec.coefficients[(3,)] == chi / 3 + 2 / chi
        assert spec.coefficients[(1, 2)] == -4 / chi
        # at chi = 2/gamma the cubic coefficient -8/chi^3 collapses to -gamma^3
        assert spec.coefficients[(1, 1, 1)] == -GAMMA ** 3

    def test_level_validation(self):
        with pytest.raises(AlgebraError, match="levels 1, 2, 3"):
            build_singular(4, Weight.semi_degenerate(1, KAPPA))
        with pytest.raises(AlgebraError, match="levels 1, 2, 3"):
            build_singular(0, Weight.semi_degenerate(1, KAPPA))

    def test_tag_validation(self):
        with pytest.raises(AlgebraError, match="semi-degenerate"):
            build_singular(1, Weight.fully_degenerate(GAMMA))
        with pytest.raises(AlgebraError, match="fully degenerate"):
            build_singular(2, Weight.semi_degenerate(1, KAPPA))
        with pytest.raises(AlgebraError, match="fully degenerate"):
            build_singular(3, Weight.generic(OMEGA1))

    def test_ratio_undefined_at_vanishing_weight(self):
        with pytest.raises(AlgebraError, match="ratio undefined"):
            build_singular(1, Weight.semi_degenerate(1, Fraction(0)))
        # kappa = 3q is the other root of kappa*(q - kappa/3)
        q = Fraction(43, 15)
        with pytest.raises(AlgebraError, match="ratio undefined"):
            build_singular(1, Weight.semi_degenerate(1, 3 * q), q=q)

    def test_spec_type_validates_directly(self):
        with pytest.raises(AlgebraError, match="levels 1, 2, 3"):
            SingularVectorSpec(5, Weight.semi_degenerate(1, KAPPA), {})
        with pytest.raises(AlgebraError, match="fully_degenerate"):
            SingularVectorSpec(2, Weight.semi_degenerate(1, KAPPA), {})

    def test_to_json_shape(self):
        spec = build_singular(2, Weight.fully_degenerate(GAMMA))
        data = spec.to_json()
        json.dumps(data)
        assert data["level"] == 2
        assert set(data["coefficients"]) == {"W", "1,1", "2"}
        assert data["weight"]["tag"] == "fully_degenerate"

    def test_to_json_two_level(self):
        # kappa over Q(q): the coefficients nest and decode to the record's
        spec = build_singular(1, Weight.semi_degenerate(1, KAPPA), q=QSYM)
        data = json.loads(json.dumps(spec.to_json()))
        assert data["weight"]["parameter"] == encode(KAPPA)
        assert CartanVector.from_json(data["weight"]["vector"]) \
            == spec.weight.vector
        assert set(data["coefficients"]) == {"W", "1"}
        for key, c in spec.coefficients.items():
            name = key if key == W_KEY else ",".join(map(str, key))
            assert decode(data["coefficients"][name]) == c


# ---------------------------------------------------------------------------
# verify_null_form: all five (level, weight-class) combinations
# ---------------------------------------------------------------------------

class TestVerifyNullForm:
    def test_level1_symbolic(self):
        spec = build_singular(1, Weight.semi_degenerate(1, KAPPA))
        assert verify_null_form(spec).is_zero

    def test_level1_mirror_symbolic(self):
        spec = build_singular(1, Weight.semi_degenerate(2, KAPPA))
        assert verify_null_form(spec).is_zero

    @pytest.mark.parametrize("level", [2, 3])
    @pytest.mark.parametrize("chi_of", [lambda g: g, lambda g: 2 / g],
                             ids=["chi=gamma", "chi=2/gamma"])
    def test_levels23_symbolic(self, level, chi_of):
        spec = build_singular(level, Weight.fully_degenerate(chi_of(GAMMA)))
        assert verify_null_form(spec).is_zero

    def test_numeric_weight(self):
        g = Fraction(6, 5)
        spec = build_singular(2, Weight.fully_degenerate(2 / g))
        assert verify_null_form(spec).is_zero
        spec1 = build_singular(1, Weight.semi_degenerate(1, Fraction(2, 7)))
        assert verify_null_form(spec1).is_zero

    def test_tampered_coefficients_leave_a_residual(self):
        spec = build_singular(2, Weight.fully_degenerate(GAMMA))
        coeffs = dict(spec.coefficients)
        coeffs[(2,)] = coeffs[(2,)] + 1
        tampered = SingularVectorSpec(2, spec.weight, coeffs)
        assert not verify_null_form(tampered).is_zero

    def test_explicit_q_override_must_match_the_degeneracy(self):
        # away from q = chi + 2/chi the level-2 combination is not null
        spec = build_singular(2, Weight.fully_degenerate(Fraction(1, 2)))
        assert verify_null_form(spec).is_zero
        assert not verify_null_form(spec, q=Fraction(7)).is_zero


# ---------------------------------------------------------------------------
# solve_d1
# ---------------------------------------------------------------------------

BASES = {
    "deg2 chi=gamma": (
        lambda g: 3 * ((-1) * g * OMEGA1) + g * E2,
        lambda g: (-1) * g * OMEGA1 + g * E2),
    "deg2 chi=2/gamma": (
        lambda g: 3 * ((-1) * (2 / g) * OMEGA1) + g * E2,
        lambda g: (-1) * (2 / g) * OMEGA1 + g * E2),
    "deg3 chi=gamma": (
        lambda g: g * E1 - g * E2,
        lambda g: (-1) * g * OMEGA1 + g * E1),
    "deg3 chi=2/gamma": (
        lambda g: g * E1 - (2 / g) * RHO,
        lambda g: (-1) * (2 / g) * OMEGA1 + g * E1),
}


class TestSolveD1:
    def test_target_equal_base_gives_identity(self):
        base = Fraction(1, 3) * E1 + Fraction(5, 7) * E2
        a, b = solve_d1(base, base)
        assert (a, b) == (1, 0)

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_instances_reconstruct_exactly(self, name):
        target_of, base_of = BASES[name]
        target, base = target_of(GAMMA), base_of(GAMMA)
        a, b = solve_d1(target, base)
        q = q_of_gamma()
        residual = combine(
            [a, b, -1],
            [l_form((1,), base, q), miura_w_form(1, base, q), l_form((1,), target, q)])
        assert residual.is_zero

    def test_deg3_chi_gamma_solution_is_three_zero(self):
        # gamma*e1 - gamma*e2 is exactly three times -gamma*omega1 + gamma*e1,
        # so the derivative form alone reconstructs the target
        target, base = BASES["deg3 chi=gamma"]
        assert target(GAMMA) == 3 * base(GAMMA)
        a, b = solve_d1(target(GAMMA), base(GAMMA))
        assert (a, b) == (3, 0)

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_symbolic_matches_numeric_gamma(self, name):
        g = Fraction(6, 5)
        target_of, base_of = BASES[name]
        a_sym, b_sym = solve_d1(target_of(GAMMA), base_of(GAMMA))
        a_num, b_num = solve_d1(target_of(g), base_of(g), q=q_of_gamma(g))
        assert a_sym.evaluate({"gamma": g}) == a_num
        assert b_sym.evaluate({"gamma": g}) == b_num

    def test_uniqueness_perturbed_pair_fails(self):
        target, base = BASES["deg2 chi=gamma"]
        a, b = solve_d1(target(GAMMA), base(GAMMA))
        q = q_of_gamma()
        bad = combine(
            [a + 1, b, -1],
            [l_form((1,), base(GAMMA), q), miura_w_form(1, base(GAMMA), q),
             l_form((1,), target(GAMMA), q)])
        assert not bad.is_zero

    def test_semi_degenerate_base_is_singular(self):
        with pytest.raises(AlgebraError, match="singular level-1 system"):
            solve_d1(OMEGA2, Fraction(1, 2) * OMEGA1)
        with pytest.raises(AlgebraError, match="singular level-1 system"):
            solve_d1(OMEGA2, KAPPA * OMEGA1)


# ---------------------------------------------------------------------------
# eom_constant
# ---------------------------------------------------------------------------

class TestEomConstant:
    def test_zero_measures(self):
        assert eom_constant("c", 0.7, 0.0, 0.0, 0.0) == 0.0

    def test_zero_of_the_bracket(self):
        g, mu = 0.9, 0.3
        s = math.sin(math.pi * g * g / 2)
        c = math.cos(math.pi * g * g / 2)
        mu_b = 2 * mu * mu * (1 - c) / s
        assert abs(eom_constant("c", g, mu, mu, mu_b)) < 1e-15

    def test_reference_value_gamma_07(self):
        expected = math.gamma(0.245) * math.gamma(0.51) / math.gamma(0.755)
        assert eom_constant("c", 0.7, 1.0, 0.0, 0.0) == pytest.approx(
            expected, rel=1e-14)

    def test_pieces_vanish_above_one(self):
        assert eom_constant("c1", 1.2, 1.0, 1.0, 1.0) == 0.0
        assert eom_constant("c2", 1.2, 1.0, 1.0, 1.0) == 0.0
        assert eom_constant("c", 1.2, 1.0, 0.0, 0.0) != 0.0

    @given(gamma=st.floats(min_value=0.05, max_value=0.999),
           mu_l=st.floats(min_value=0.0, max_value=3.0),
           mu_r=st.floats(min_value=0.0, max_value=3.0),
           mu_b=st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_decomposition_identity_below_one(self, gamma, mu_l, mu_r, mu_b):
        c = eom_constant("c", gamma, mu_l, mu_r, mu_b)
        c1 = eom_constant("c1", gamma, mu_l, mu_r, mu_b)
        c2 = eom_constant("c2", gamma, mu_l, mu_r, mu_b)
        assert c == pytest.approx(c1 + c2, rel=1e-12, abs=1e-12)

    def test_degenerate_coupling(self):
        with pytest.raises(AlgebraError, match="degenerate coupling"):
            eom_constant("c", 1.0, 1.0, 0.0, 0.0)

    def test_domain_and_name_validation(self):
        with pytest.raises(AlgebraError, match="gamma must lie"):
            eom_constant("c", 1.5, 1.0, 0.0, 0.0)
        with pytest.raises(AlgebraError, match="gamma must lie"):
            eom_constant("c", 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(AlgebraError, match="unknown constant name"):
            eom_constant("c3", 0.7, 1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# d2_table
# ---------------------------------------------------------------------------

class TestD2Table:
    @pytest.mark.parametrize("chi_of", [lambda g: g, lambda g: 2 / g],
                             ids=["chi=gamma", "chi=2/gamma"])
    def test_matches_the_recorded_slots(self, chi_of):
        chi = chi_of(GAMMA)
        w = Weight.fully_degenerate(chi)
        tab = d2_table(w)
        beta, sg = w.vector, GAMMA * E2
        Qv = q_of_gamma() * RHO
        lin = (8 / chi ** 3) * (3 * beta + sg) + (4 / chi) * (Qv + beta + sg)
        vb, vs = vec_factor(beta, 1), vec_factor(sg, 1)
        expected = (vec_factor(lin, 2)
                    + (8 / chi ** 3) * (3 * (vb * vb) + 3 * (vb * vs) + vs * vs)
                    - (4 / chi) * contraction(1, 1))
        assert tab.polynomial == expected
        assert tab.shifted == beta + sg
        assert tab.status == "unverified"
        assert tab.polynomial.level == 2

    def test_numeric_gamma(self):
        g = Fraction(4, 5)
        tab = d2_table(Weight.fully_degenerate(2 / g), g)
        assert tab.polynomial.level == 2
        json.dumps(tab.to_json())

    def test_requires_fully_degenerate(self):
        with pytest.raises(AlgebraError, match="fully degenerate"):
            d2_table(Weight.semi_degenerate(1, KAPPA))

    def test_requires_matching_screening_scale(self):
        with pytest.raises(AlgebraError, match="screening scale"):
            d2_table(Weight.fully_degenerate(Fraction(3)), Fraction(6, 5))


# ---------------------------------------------------------------------------
# eom_rhs
# ---------------------------------------------------------------------------

def boundary_cfg(gamma, weight_vector, mu_left_pair, mu_right_pair,
                 mu_bulk=(0, 0)):
    """Two boundary points; the weight sits at index 0 with distinct arcs."""
    return CorrelatorConfig(
        gamma=gamma,
        boundary=((Fraction(-1), weight_vector), (Fraction(2), OMEGA1)),
        mu_bulk=mu_bulk,
        # index 0 sees arc 1 on its left (wrap) and arc 0 on its right
        mu_boundary=(mu_right_pair, mu_left_pair),
    )


class TestEomRhsLevel1:
    G = Fraction(6, 5)

    def test_coefficient_and_weight(self):
        kap = Fraction(1, 3)
        w = Weight.semi_degenerate(1, kap)
        cfg = boundary_cfg(self.G, w.vector,
                           (Fraction(1, 2), Fraction(1, 3)),
                           (Fraction(1, 4), Fraction(2, 7)))
        rec = eom_rhs(1, w, cfg)
        assert rec.status == "ok"
        (term,) = rec.terms
        q = q_of_gamma(self.G)
        mu_l2, mu_r2 = cfg.mu_left(0)[1], cfg.mu_right(0)[1]
        assert term.kind == "primary"
        assert term.coefficient == 2 * (q - kap) * (mu_l2 - mu_r2)
        assert term.weight == w.vector + self.G * E2

    def test_vanishes_for_equal_measures(self):
        w = Weight.semi_degenerate(1, Fraction(1, 3))
        pair = (Fraction(1, 2), Fraction(1, 3))
        rec = eom_rhs(1, w, boundary_cfg(self.G, w.vector, pair, pair))
        assert rec.terms[0].coefficient == 0

    def test_vanishes_for_kappa_equal_q(self):
        q = q_of_gamma(self.G)
        w = Weight.semi_degenerate(1, q)
        cfg = boundary_cfg(self.G, w.vector,
                           (Fraction(1, 2), Fraction(1, 3)),
                           (Fraction(1, 4), Fraction(2, 7)))
        assert eom_rhs(1, w, cfg).terms[0].coefficient == 0

    def test_generic_coefficient_is_nonzero(self):
        w = Weight.semi_degenerate(1, Fraction(1, 3))
        cfg = boundary_cfg(self.G, w.vector,
                           (Fraction(1, 2), Fraction(1, 3)),
                           (Fraction(1, 4), Fraction(2, 7)))
        assert eom_rhs(1, w, cfg).terms[0].coefficient != 0

    @given(kappa=exact_fractions(min_value=Fraction(1, 10), max_value=3),
           mu_l2=exact_fractions(min_value=0, max_value=2),
           mu_r2=exact_fractions(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_vanishing_iff_property(self, kappa, mu_l2, mu_r2):
        q = q_of_gamma(self.G)
        w = Weight.semi_degenerate(1, kappa)
        cfg = boundary_cfg(self.G, w.vector,
                           (Fraction(1, 2), mu_l2), (Fraction(1, 4), mu_r2))
        coeff = eom_rhs(1, w, cfg).terms[0].coefficient
        assert (coeff == 0) == (mu_l2 == mu_r2 or kappa == q)

    def test_mirror_ray_not_recorded(self):
        w = Weight.semi_degenerate(2, Fraction(1, 3))
        cfg = boundary_cfg(self.G, w.vector,
                           (Fraction(1, 2), Fraction(1, 3)),
                           (Fraction(1, 4), Fraction(2, 7)))
        with pytest.raises(AlgebraError, match="omega_1 only"):
            eom_rhs(1, w, cfg)

    def test_insertion_location_errors(self):
        w = Weight.semi_degenerate(1, Fraction(1, 3))
        cfg = boundary_cfg(self.G, OMEGA2,
                           (Fraction(1, 2), Fraction(1, 3)),
                           (Fraction(1, 4), Fraction(2, 7)))
        with pytest.raises(AlgebraError, match="no boundary insertion"):
            eom_rhs(1, w, cfg)
        with pytest.raises(AlgebraError, match="out of range"):
            eom_rhs(1, w, cfg, at=5)
        with pytest.raises(AlgebraError, match="does not carry"):
            eom_rhs(1, w, cfg, at=0)


class TestEomRhsLevel2:
    def test_chi_2_over_gamma_terms(self):
        g = Fraction(4, 5)
        w = Weight.fully_degenerate(2 / g)
        cfg = boundary_cfg(g, w.vector,
                           (Fraction(1, 2), Fraction(1, 3)),
                           (Fraction(1, 4), Fraction(2, 7)))
        rec = eom_rhs(2, w, cfg)
        assert rec.status == "ok"
        d1, prim = rec.terms
        mu_l, mu_r = cfg.mu_left(0), cfg.mu_right(0)
        assert d1.kind == "D1"
        assert d1.coefficient == 2 * g * (mu_r[1] - mu_l[1])
        assert d1.weight == w.vector + g * E2
        assert prim.kind == "primary"
        assert prim.coefficient == 2 * (2 / g - g) * (mu_l[0] + mu_r[0])
        assert prim.weight == w.vector + g * E1

    def test_chi_2_over_gamma_substitution_reconstructs(self):
        g = Fraction(4, 5)
        w = Weight.fully_degenerate(2 / g)
        cfg = boundary_cfg(g, w.vector,
                           (Fraction(1, 2), Fraction(1, 3)),
                           (Fraction(1, 4), Fraction(2, 7)))
        d1 = eom_rhs(2, w, cfg).terms[0]
        q = q_of_gamma(g)
        base = w.vector + g * E2
        target = 3 * w.vector + g * E2
        residual = combine(
            [d1.a, d1.b, -1],
            [l_form((1,), base, q), miura_w_form(1, base, q),
             l_form((1,), target, q)])
        assert residual.is_zero

    def test_chi_gamma_below_one(self):
        g = Fraction(4, 5)
        w = Weight.fully_degenerate(g)
        mu_b = (Fraction(1, 5), Fraction(0))
        cfg = boundary_cfg(g, w.vector,
                           (Fraction(1, 2), Fraction(1, 3)),
                           (Fraction(1, 4), Fraction(2, 7)), mu_bulk=mu_b)
        rec = eom_rhs(2, w, cfg)
        d1, prim = rec.terms
        mu_l, mu_r = cfg.mu_left(0), cfg.mu_right(0)
        assert d1.coefficient == (4 / g) * (mu_r[1] - mu_l[1])
        cg = eom_constant("c", float(g), float(mu_l[0]), float(mu_r[0]),
                          float(mu_b[0]))
        assert prim.coefficient == 2 * float(g) * cg
        assert prim.weight == w.vector + 2 * g * E1

    def test_chi_gamma_above_one_suppresses_the_primary(self):
        g = Fraction(6, 5)
        w = Weight.fully_degenerate(g)
        cfg = boundary_cfg(g, w.vector,
                           (Fraction(1, 2), Fraction(1, 3)),
                           (Fraction(1, 4), Fraction(2, 7)))
        rec = eom_rhs(2, w, cfg)
        assert rec.terms[1].coefficient == 0.0
        assert any("gamma >= 1" in n for n in rec.notes)

    def test_screening_scale_must_match_gamma(self):
        w = Weight.fully_degenerate(Fraction(3))
        cfg = boundary_cfg(Fraction(6, 5), w.vector,
                           (Fraction(1, 2), Fraction(1, 3)),
                           (Fraction(1, 4), Fraction(2, 7)))
        with pytest.raises(AlgebraError, match="screening scale"):
            eom_rhs(2, w, cfg)


class TestEomRhsLevel3:
    MU_EQ = (Fraction(1, 2), Fraction(1, 3))
    MU_EQ_OTHER = (Fraction(1, 4), Fraction(1, 3))  # same second component

    def test_chi_2_over_gamma_ok(self):
        g = Fraction(4, 5)
        w = Weight.fully_degenerate(2 / g)
        cfg = boundary_cfg(g, w.vector, self.MU_EQ, self.MU_EQ_OTHER)
        rec = eom_rhs(3, w, cfg)
        assert rec.status == "ok"
        main, d2term = rec.terms
        mu_l, mu_r = cfg.mu_left(0), cfg.mu_right(0)
        assert main.kind == "D1"
        assert main.coefficient == g * g * (g - 2 / g) * (mu_l[0] + mu_r[0])
        assert main.weight == w.vector + g * E1
        assert d2term.kind == "D2"
        assert d2term.coefficient == 0
        assert rec.d2.status == "unverified"

    def test_composition_matches_level2(self):
        # the level-3 coefficient is -(2/chi^2) times the level-2 primary one
        g = Fraction(4, 5)
        for chi in (2 / g, g):
            w = Weight.fully_degenerate(chi)
            mu_b = (Fraction(1, 5), Fraction(0))
            cfg = boundary_cfg(g, w.vector, self.MU_EQ, self.MU_EQ_OTHER,
                               mu_bulk=mu_b)
            prim2 = eom_rhs(2, w, cfg).terms[1]
            main3 = eom_rhs(3, w, cfg).terms[0]
            factor = -(2 / chi ** 2)
            if isinstance(prim2.coefficient, float):
                assert main3.coefficient == pytest.approx(
                    float(factor) * prim2.coefficient, rel=1e-14)
            else:
                assert main3.coefficient == factor * prim2.coefficient
            assert main3.weight == prim2.weight

    def test_chi_gamma_solution_pair(self):
        g = Fraction(4, 5)
        w = Weight.fully_degenerate(g)
        cfg = boundary_cfg(g, w.vector, self.MU_EQ, self.MU_EQ_OTHER)
        main = eom_rhs(3, w, cfg).terms[0]
        assert (main.a, main.b) == (3, 0)
        assert main.weight == w.vector + 2 * g * E1

    def test_unequal_second_measures_not_covered(self):
        g = Fraction(4, 5)
        w = Weight.fully_degenerate(2 / g)
        cfg = boundary_cfg(g, w.vector,
                           (Fraction(1, 2), Fraction(1, 3)),
                           (Fraction(1, 4), Fraction(2, 7)))
        rec = eom_rhs(3, w, cfg)
        assert rec.status.startswith("not covered")
        mu_l2, mu_r2 = cfg.mu_left(0)[1], cfg.mu_right(0)[1]
        d2term = rec.terms[1]
        assert d2term.coefficient == mu_l2 - mu_r2
        assert d2term.coefficient != 0
        assert d2term.weight == w.vector + g * E2
        assert rec.d2 is not None

    def test_record_serializes(self):
        g = Fraction(4, 5)
        w = Weight.fully_degenerate(g)
        cfg = boundary_cfg(g, w.vector, self.MU_EQ, self.MU_EQ_OTHER)
        data = eom_rhs(3, w, cfg).to_json()
        json.dumps(data)
        assert data["status"] == "ok"
        assert data["d2"]["status"] == "unverified"
        assert len(data["terms"]) == 2
