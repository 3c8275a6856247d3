"""Tests for the current-insertion constraint systems and the hypergeometric
reductions: local pole expansions against exact zero-measure descendant
values, global row assembly against test-local reference rows, closability
counting, measure matching, and the two ODE families against an independent
root-space-embedding computation."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from w3toda.algebra_core import (
    E2,
    H1,
    H2,
    OMEGA1,
    OMEGA2,
    AlgebraError,
    CartanVector,
    CFrac,
    background_charge,
    decode,
    inner,
    q_of_gamma,
    variable,
)
from w3toda.descendant_forms import Weight, l_form, miura_w_form
from w3toda.free_field import (
    CorrelatorConfig,
    descendant_ratio_at,
    doubled_insertions,
    engine_spin,
    engine_weight,
)
from w3toda.singular_vectors import eom_constant
from test_free_field import reference_virasoro_row, reference_w_row
from w3toda.ward_bpz import (
    AffineTerm,
    HypergeometricSpec,
    RowTerm,
    WardRow,
    bpz_spec,
    closability_deficit,
    closable,
    closable_scan,
    evaluate_pole_terms,
    free_field_descendants,
    free_field_residuals,
    global_ward_system,
    indicial_exponents,
    indicial_polynomial,
    local_ward_rhs,
    mu_condition_check,
    principal_cases,
    weight_ray,
)

F = Fraction
GAMMA = F(6, 5)
Q_NUM = GAMMA + 2 / GAMMA


def oracle_configs():
    """A doubled-neutral configuration with a probe as its last boundary
    point, and the same configuration without the probe."""
    q = Q_NUM
    Qv = CartanVector(q, q)
    alpha = CartanVector(F(1, 2), F(1, 3))
    beta_probe = CartanVector(F(3, 4), F(2, 3))
    beta1 = 2 * Qv - 2 * alpha - beta_probe
    with_probe = CorrelatorConfig(
        GAMMA, ((CFrac(0, 1), alpha),),
        ((F(-1), beta1), (F(2), beta_probe)))
    without = CorrelatorConfig(
        GAMMA, ((CFrac(0, 1), alpha),), ((F(-1), beta1),))
    return with_probe, without, beta_probe


def random_neutral_cfg(rng, n_bulk, m_boundary):
    """Neutral configuration with random small-rational weights; the last
    boundary weight balances the total charge."""
    gamma = F(rng.randrange(2, 8), 5)
    Qv = CartanVector(gamma + 2 / gamma, gamma + 2 / gamma)
    bulk = []
    total = CartanVector(0, 0)
    xs = rng.sample(range(-8, 9), n_bulk + m_boundary)
    for k in range(n_bulk):
        alpha = CartanVector(F(rng.randrange(-4, 5), 3), F(rng.randrange(-4, 5), 3))
        bulk.append((CFrac(xs[k], rng.randrange(1, 4)), alpha))
        total = total + 2 * alpha
    ss = sorted(xs[n_bulk:])
    boundary = []
    for l in range(m_boundary - 1):
        beta = CartanVector(F(rng.randrange(-4, 5), 3), F(rng.randrange(-4, 5), 3))
        boundary.append((F(ss[l]), beta))
        total = total + beta
    boundary.append((F(ss[-1]), 2 * Qv - total))
    return CorrelatorConfig(gamma, tuple(bulk), tuple(boundary))


class TestWeightRay:
    def test_fundamental_rays(self):
        assert weight_ray(3 * OMEGA1) == "omega1"
        assert weight_ray(F(-7, 2) * OMEGA2) == "omega2"
        assert weight_ray(variable("kappa") * OMEGA2) == "omega2"

    def test_generic_and_zero(self):
        assert weight_ray(CartanVector(1, 1)) is None
        assert weight_ray(CartanVector(0, 0)) is None


class TestLocalWardRhs:
    def test_mode_one_stress_tensor_reduces_to_derivatives(self):
        _, cfg, _ = oracle_configs()
        rhs = local_ward_rhs(1, F(2), cfg)
        kinds = {t.kind for t in rhs.virasoro}
        assert kinds == {"derivative"}
        for t in rhs.virasoro:
            assert t.coefficient == -1 and t.pole_order == 0

    def test_mode_two_spin3_has_no_scalar(self):
        _, cfg, _ = oracle_configs()
        rhs = local_ward_rhs(2, F(2), cfg)
        assert {t.kind for t in rhs.spin3} == {"w2"}
        for t in rhs.spin3:
            assert t.coefficient == -1 and t.pole_order == 0

    def test_mode_three_single_insertion_scalar_is_minus_spin(self):
        beta = CartanVector(F(5, 4), F(1, 2))
        cfg = CorrelatorConfig(GAMMA, (), ((F(0), beta),))
        rhs = local_ward_rhs(3, F(1), cfg)
        assert rhs.coefficient("spin3", 0, "scalar", 3) == -engine_spin(beta, Q_NUM)
        assert rhs.coefficient("spin3", 0, "w2", 1) == -1
        assert rhs.coefficient("spin3", 0, "w1", 2) == 1
        assert rhs.coefficient("virasoro", 0, "scalar", 3) == 2 * engine_weight(beta, Q_NUM)

    def test_probe_collision_and_bad_mode(self):
        _, cfg, _ = oracle_configs()
        with pytest.raises(AlgebraError, match="coincides"):
            local_ward_rhs(2, F(-1), cfg)
        with pytest.raises(AlgebraError, match="positive integer"):
            local_ward_rhs(0, F(2), cfg)

    def test_probe_is_parsed_as_an_exact_real(self):
        _, cfg, _ = oracle_configs()
        want = local_ward_rhs(3, F(2), cfg).to_json()
        for t in (2, 2.0, "2", "4/2", CFrac(2), [2, 0], 2 + 0j):
            assert local_ward_rhs(3, t, cfg).to_json() == want
        for t in (CFrac(0, 1), 1j, [2, 1], "x", True, None,
                  float("inf"), complex("inf")):
            with pytest.raises(AlgebraError, match="probe"):
                local_ward_rhs(3, t, cfg)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_free_field_oracle(self, mode):
        """The pole expansion, fed the exact descendant values of the full
        configuration, reproduces the probe's own descendant ratio."""
        cfg_all, cfg_wo, beta_probe = oracle_configs()
        k_probe = len(doubled_insertions(cfg_wo))
        values = free_field_descendants(cfg_all, indices=range(k_probe))
        rhs = local_ward_rhs(mode, F(2), cfg_wo)
        lhs_vir = descendant_ratio_at(
            cfg_all, k_probe, l_form((mode,), beta_probe, q=Q_NUM))
        assert evaluate_pole_terms(rhs.virasoro, rhs.probe, values) == lhs_vir
        lhs_w = descendant_ratio_at(
            cfg_all, k_probe, miura_w_form(mode, beta_probe, q=Q_NUM))
        assert evaluate_pole_terms(rhs.spin3, rhs.probe, values) == lhs_w

    def test_json_round(self):
        _, cfg, _ = oracle_configs()
        data = local_ward_rhs(3, F(2), cfg).to_json()
        json.dumps(data)
        assert data["mode"] == 3 and data["spin3"]


class TestGlobalWardSystem:
    def test_shape_and_tags(self):
        cfg_all, _, _ = oracle_configs()
        system = global_ward_system(cfg_all)
        assert len(system.rows) == 8
        assert [r.current for r in system.rows] == ["virasoro"] * 3 + ["spin3"] * 5
        assert len(system.unknowns) == 4 * cfg_all.n_bulk + 2 * cfg_all.n_boundary
        mirrors = {t.insertion: t.mirror_of for t in system.unknowns}
        assert mirrors[1] == 0 and mirrors[0] is None and mirrors[2] is None

    def test_degree_zero_rows(self):
        cfg_all, _, _ = oracle_configs()
        system = global_ward_system(cfg_all)
        vir0 = system.rows[0]
        assert vir0.entries == () and all(
            t.kind == "derivative" and t.coefficient == CFrac(1)
            for t in vir0.affine)
        w0 = system.rows[3]
        assert w0.affine == ()
        assert all(system.unknowns[t.unknown].order == 2 and t.coefficient == CFrac(1)
                   for t in w0.entries)

    def test_degree_one_spin3_row(self):
        cfg_all, _, _ = oracle_configs()
        system = global_ward_system(cfg_all)
        w1row = system.rows[4]
        assert w1row.affine == ()
        for term in w1row.entries:
            tag = system.unknowns[term.unknown]
            zk = system.positions[tag.insertion]
            if tag.order == 2:
                assert term.coefficient == zk
            else:
                assert term.coefficient == CFrac(1)

    def test_precondition(self):
        cfg = CorrelatorConfig(GAMMA, (), ((F(0), CartanVector(1, 0)),))
        assert not cfg.neutral and not cfg.seiberg_ok
        with pytest.raises(AlgebraError, match="neutral or integrable"):
            global_ward_system(cfg)

    def test_free_field_rows_vanish_on_random_neutral(self):
        rng = random.Random(20260825)
        done = 0
        while done < 8:
            n, m = rng.randrange(0, 3), rng.randrange(1, 4)
            cfg = random_neutral_cfg(rng, n, m)
            assert cfg.neutral
            assert all(r == 0 for r in free_field_residuals(cfg))
            done += 1

    def test_rows_match_powers_formed_per_row(self):
        # each row reads z_k^0..z_k^4 and the two constants formed once per
        # insertion; here every power and constant is formed where it is used
        rng = random.Random(20261018)
        for n, m in ((0, 3), (1, 2), (2, 1), (2, 2)):
            cfg = random_neutral_cfg(rng, n, m)
            q = cfg.q
            ins = doubled_insertions(cfg)
            want = []
            for idx in range(3):
                affine = []
                for k, (zk, wk) in enumerate(ins):
                    affine.append(AffineTerm(k, "derivative", zk ** idx))
                    c = (CFrac.of(idx * engine_weight(wk, q))
                         * zk ** (idx - 1)) if idx else CFrac(0)
                    if c != 0:
                        affine.append(AffineTerm(k, "scalar", c))
                want.append(WardRow("virasoro", idx, (), tuple(affine)))
            for idx in range(5):
                entries, affine = [], []
                for k, (zk, wk) in enumerate(ins):
                    if zk ** idx != 0:
                        entries.append(RowTerm(2 * k + 1, zk ** idx))
                    if idx >= 1 and CFrac.of(idx) * zk ** (idx - 1) != 0:
                        entries.append(
                            RowTerm(2 * k, CFrac.of(idx) * zk ** (idx - 1)))
                    c0 = (CFrac.of(F(idx * (idx - 1), 2)) * zk ** (idx - 2)
                          * CFrac.of(engine_spin(wk, q))) if idx >= 2 \
                        else CFrac(0)
                    if c0 != 0:
                        affine.append(AffineTerm(k, "scalar", c0))
                want.append(WardRow("spin3", idx, tuple(entries),
                                    tuple(affine)))
            got = global_ward_system(cfg).rows
            assert json.dumps([r.to_json() for r in got]) \
                == json.dumps([r.to_json() for r in want])

    def test_assembly_matches_direct_rows_off_neutrality(self):
        q = Q_NUM
        beta = CartanVector(q + 1, q + 1)
        cfg = CorrelatorConfig(GAMMA, (), ((F(-1), beta), (F(1), beta)))
        assert cfg.seiberg_ok and not cfg.neutral
        system = global_ward_system(cfg)
        res = system.residuals(free_field_descendants(cfg))
        direct = [reference_virasoro_row(cfg, n) for n in range(3)] \
            + [reference_w_row(cfg, m) for m in range(5)]
        assert list(res) == direct
        assert any(r != 0 for r in direct)

    def test_reduction_counts(self):
        q = Q_NUM
        Qv = CartanVector(q, q)
        alpha = 2 * OMEGA2
        beta_semi = 3 * OMEGA1
        beta_bal = 2 * Qv - 2 * alpha - beta_semi
        cfg = CorrelatorConfig(
            GAMMA, ((CFrac(1, 1), alpha),),
            ((F(0), beta_semi), (F(3), beta_bal)))
        system = global_ward_system(cfg)
        assert system.reductions == {"bulk_semi_degenerate": 1,
                                     "boundary_semi_degenerate": 1,
                                     "eliminable": 3}

    def test_json(self):
        cfg_all, _, _ = oracle_configs()
        data = global_ward_system(cfg_all).to_json()
        json.dumps(data)
        assert len(data["rows"]) == 8 and len(data["unknowns"]) == 8


class TestClosable:
    def probe(self):
        return Weight.fully_degenerate(GAMMA)

    def test_generic_bulk_semi_boundary(self):
        rep = closable([Weight.generic(CartanVector(1, 1))],
                       [Weight.semi_degenerate(2, F(3, 2)), self.probe()])
        assert (rep.n_bulk, rep.n_boundary) == (1, 1)
        assert rep.unknowns == 6 and rep.deficit == 0 and rep.closable

    def test_semi_bulk_generic_boundary(self):
        rep = closable([Weight.semi_degenerate(1, F(5, 2))],
                       [Weight.generic(CartanVector(1, 2)), self.probe()])
        assert rep.deficit == -1 and rep.closable

    def test_three_generic_boundary_not_closable(self):
        rep = closable([], [Weight.generic(CartanVector(1, 0)),
                            Weight.generic(CartanVector(0, 1)),
                            Weight.generic(CartanVector(1, 1)),
                            self.probe()])
        assert rep.deficit == 1 and not rep.closable

    def test_probe_errors(self):
        with pytest.raises(AlgebraError, match="exactly one fully degenerate"):
            closable([], [Weight.generic(CartanVector(1, 1))])
        with pytest.raises(AlgebraError, match="exactly one fully degenerate"):
            closable([], [self.probe(), self.probe()])
        with pytest.raises(AlgebraError, match="boundary probe only"):
            closable([self.probe()], [self.probe()])
        with pytest.raises(AlgebraError, match="tagged Weight"):
            closable([CartanVector(1, 1)], [self.probe()])

    @given(n=st.integers(0, 3), m=st.integers(0, 4), data=st.data())
    def test_deficit_formula(self, n, m, data):
        bs = data.draw(st.integers(0, n))
        ms = data.draw(st.integers(0, m))
        assert closability_deficit(n, m, bs, ms) == 4 * n + 2 * m - 5 - 2 * bs - ms

    def test_scan_principal_cases(self):
        cases = closable_scan()
        principal = principal_cases(cases)
        summary = {(c.n_bulk, c.n_boundary, c.bulk_semi, c.boundary_semi,
                    c.deficit) for c in principal}
        assert summary == {(1, 1, 0, 1, 0), (1, 1, 1, 0, -1), (0, 3, 0, 1, 0)}

    def test_scan_contents(self):
        cases = {(c.n_bulk, c.n_boundary, c.bulk_semi, c.boundary_semi): c
                 for c in closable_scan()}
        assert cases[(1, 2, 0, 0)].deficit == 3
        assert not cases[(1, 2, 0, 0)].closable
        assert cases[(0, 2, 0, 0)].closable
        json.dumps([c.to_json() for c in closable_scan()])


class TestMuCondition:
    def test_all_zero_measures(self):
        for chi in ("gamma", "2/gamma"):
            assert mu_condition_check(chi, F(7, 10), (0, 0), (0, 0), 0)

    def test_gamma_branch_solved_quadratic(self):
        g = 0.7
        theta = math.pi * g * g / 2
        mu_b = 2 * (1 - math.cos(theta)) / math.sin(theta)
        assert mu_condition_check("gamma", g, (1, 5), (1, 5), mu_b)
        assert not mu_condition_check("gamma", g, (1, 5), (1, 5), mu_b + 1)

    def test_other_branch_sign(self):
        assert not mu_condition_check("2/gamma", F(7, 10), (1, 0), (1, 0), 0)
        assert mu_condition_check("2/gamma", F(7, 10), (F(3, 2), 4), (F(-3, 2), 4), 9)

    def test_second_measures_must_match(self):
        assert not mu_condition_check("2/gamma", F(7, 10), (0, 1), (0, 2), 0)
        assert not mu_condition_check("gamma", F(7, 10), (0, 1), (0, 2), 0)

    def test_numeric_chi_resolution(self):
        g = F(7, 10)
        assert mu_condition_check(2 / g, g, (1, 3), (-1, 3), 0)
        with pytest.raises(AlgebraError, match="gamma or 2/gamma"):
            mu_condition_check(F(1, 3), g, (0, 0), (0, 0), 0)

    @given(ml1=st.floats(-3, 3), mr1=st.floats(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_gamma_branch_zeroes_the_eom_constant(self, ml1, mr1):
        g = 0.7
        theta = math.pi * g * g / 2
        mu_b = (ml1 ** 2 + mr1 ** 2 - 2 * ml1 * mr1 * math.cos(theta)) \
            / math.sin(theta)
        assert mu_condition_check("gamma", g, (ml1, 2), (mr1, 2), mu_b)
        scale = max(1.0, abs(ml1) ** 2, abs(mr1) ** 2)
        assert abs(eom_constant("c", g, ml1, mr1, mu_b)) < 1e-11 * scale


class TestBpzSpec:
    def test_bulk_boundary_pinned_instance(self):
        """Frozen from an independent orthonormal-embedding computation of
        the same inner products (gamma = 6/5, scale on the gamma branch)."""
        spec = bpz_spec("bulk_boundary",
                        (CartanVector(F(1, 2), F(1, 3)), CartanVector(1, 2)),
                        "gamma", GAMMA)
        assert spec.a == (F(-34, 25), F(-1, 25), F(79, 50))
        assert spec.b == (F(1, 2), F(9, 50))
        assert spec.prefactors == (("i", F(3, 5)),)
        assert spec.variable == "1/(1+t^2)"

    def test_boundary_4pt_pinned_instance(self):
        spec = bpz_spec("boundary_4pt",
                        (CartanVector(F(1, 3), F(1, 4)),
                         CartanVector(F(2, 7), F(1, 5)),
                         CartanVector(F(2, 3), F(4, 3))),
                        "2/gamma", GAMMA)
        assert spec.a == (F(-1751, 378), F(-3917, 1512), F(-515, 1512))
        assert spec.b == (1, F(-68, 63))
        assert spec.prefactors == (("0", F(5, 18)), ("1", F(5, 21)))
        assert spec.variable == "t"

    def test_bulk_boundary_b1_is_half_symbolically(self):
        spec = bpz_spec("bulk_boundary",
                        (CartanVector(variable("s"), F(1, 3)),
                         CartanVector(1, 2)), "gamma")
        assert spec.b[0] == F(1, 2)
        spec2 = bpz_spec("bulk_boundary",
                         (CartanVector(F(1, 3), variable("s")),
                          CartanVector(1, 2)), "2/gamma")
        assert spec2.b[0] == F(1, 2)

    def test_4pt_b1_is_one_symbolically(self):
        for beta2 in (CartanVector(variable("s"), F(1, 5)),
                      CartanVector(F(1, 5), variable("s"))):
            for branch in ("gamma", "2/gamma"):
                spec = bpz_spec("boundary_4pt",
                                (CartanVector(F(1, 3), F(1, 4)), beta2,
                                 CartanVector(1, 2)), branch)
                assert spec.b[0] == 1

    def test_4pt_a_difference_display(self):
        spec = bpz_spec("boundary_4pt",
                        (CartanVector(F(1, 3), F(1, 4)),
                         CartanVector(F(2, 7), F(1, 5)),
                         CartanVector(F(2, 3), F(4, 3))),
                        "2/gamma", GAMMA)
        chi = 2 / GAMMA
        Qv = background_charge(Q_NUM)
        expected = chi / 2 * inner(H2 - H1, CartanVector(F(1, 3), F(1, 4)) - Qv)
        assert spec.a[1] - spec.a[0] == expected

    def test_bulk_boundary_b2_kappa_formula(self):
        kappa = variable("kappa")
        spec = bpz_spec("bulk_boundary",
                        (CartanVector(F(1, 2), F(1, 3)), kappa * OMEGA2),
                        "gamma")
        chi = variable("gamma")
        q = q_of_gamma()
        assert spec.b[1] == 1 + chi / 4 * (kappa - 2 * q)

    def test_bulk_boundary_prefactor_symbolic(self):
        alpha = CartanVector(variable("s"), F(1, 3))
        spec = bpz_spec("bulk_boundary", (alpha, CartanVector(1, 2)), "gamma")
        chi = variable("gamma")
        assert spec.prefactors[0][1] == chi * inner(OMEGA1, alpha)

    def test_semi_weight_validation(self):
        with pytest.raises(AlgebraError, match="omega_2 ray"):
            bpz_spec("bulk_boundary",
                     (CartanVector(1, 1), CartanVector(1, 1)), "gamma", GAMMA)
        with pytest.raises(AlgebraError, match="takes \\(bulk weight"):
            bpz_spec("bulk_boundary", (CartanVector(1, 1),), "gamma", GAMMA)
        with pytest.raises(AlgebraError, match="unknown family"):
            bpz_spec("other", (), "gamma", GAMMA)

    def test_chi_resolution_errors(self):
        with pytest.raises(AlgebraError, match="needs gamma"):
            bpz_spec("bulk_boundary",
                     (CartanVector(1, 1), CartanVector(1, 2)), F(3, 2))
        with pytest.raises(AlgebraError, match="gamma or 2/gamma"):
            bpz_spec("bulk_boundary",
                     (CartanVector(1, 1), CartanVector(1, 2)), F(3, 2), GAMMA)

    def test_measure_flag_refusals(self):
        weights = (CartanVector(F(1, 2), F(1, 3)), CartanVector(1, 2))
        with pytest.raises(AlgebraError, match="refused: the gamma branch"):
            bpz_spec("bulk_boundary", weights, "gamma", GAMMA,
                     degenerate_mu_ok=False)
        with pytest.raises(AlgebraError, match="opposite first measures"):
            bpz_spec("bulk_boundary", weights, "2/gamma", GAMMA,
                     degenerate_mu_ok=False)
        with pytest.raises(AlgebraError, match="continuous across"):
            bpz_spec("bulk_boundary", weights, "gamma", GAMMA,
                     semi_mu_ok=False)

    def test_indicial_exponents_symbolic(self):
        spec = bpz_spec("bulk_boundary",
                        (CartanVector(variable("s"), F(1, 3)),
                         CartanVector(1, 2)), "gamma")
        roots = indicial_exponents(spec)
        assert roots[0] == 0
        assert roots[1] == 1 - spec.b[0]
        assert roots[2] == 1 - spec.b[1]
        spec4 = bpz_spec("boundary_4pt",
                         (CartanVector(F(1, 3), F(1, 4)),
                          CartanVector(variable("s"), F(1, 5)),
                          CartanVector(1, 2)), "2/gamma")
        roots4 = indicial_exponents(spec4)
        assert roots4[1] == 0 and roots4[2] == 1 - spec4.b[1]

    def test_indicial_polynomial_is_monic_cubic_up_to_sign(self):
        spec = bpz_spec("bulk_boundary",
                        (CartanVector(F(1, 2), F(1, 3)), CartanVector(1, 2)),
                        "gamma", GAMMA)
        poly = indicial_polynomial(spec)
        assert len(poly) == 4 and poly[3] == -1 and poly[0] == 0
        total = Fraction(0)
        x = F(17)
        for c in reversed(poly):
            total = total * x + c
        assert total != 0

    def test_operator_terms_encoding(self):
        spec = bpz_spec("bulk_boundary",
                        (CartanVector(F(1, 2), F(1, 3)), CartanVector(1, 2)),
                        "gamma", GAMMA)
        terms = spec.operator_terms()
        assert terms[0] == (1, 1, spec.a)
        scale, u_power, shifts = terms[1]
        assert (scale, u_power) == (-1, 0)
        assert shifts == (0, spec.b[0] - 1, spec.b[1] - 1)

    @given(a1=st.fractions(min_value=-3, max_value=3, max_denominator=8),
           a2=st.fractions(min_value=-3, max_value=3, max_denominator=8),
           kappa=st.fractions(min_value=F(1, 4), max_value=3, max_denominator=8))
    @settings(max_examples=30, deadline=None)
    def test_indicial_verification_random_weights(self, a1, a2, kappa):
        spec = bpz_spec("bulk_boundary",
                        (CartanVector(a1, a2), kappa * OMEGA2),
                        "gamma", GAMMA)
        roots = indicial_exponents(spec)
        assert len(roots) == 3

    def test_json(self):
        spec = bpz_spec("boundary_4pt",
                        (CartanVector(F(1, 3), F(1, 4)),
                         CartanVector(variable("s"), F(1, 5)),
                         CartanVector(1, 2)), "gamma")
        data = json.loads(json.dumps(spec.to_json()))
        assert data["family"] == "boundary_4pt" and data["variable"] == "t"
        # exponents in s over Q(gamma) come back from their JSON form
        assert decode(data["chi"]) == spec.chi
        assert [decode(x) for x in data["a"] + data["b"]] \
            == list(spec.a + spec.b)
        assert [[anchor, decode(e)] for anchor, e in data["prefactors"]] \
            == [list(p) for p in spec.prefactors]
