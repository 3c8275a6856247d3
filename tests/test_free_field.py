"""Tests for the exact zero-measure Coulomb-gas layer."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from w3toda.algebra_core import (
    E1,
    E2,
    AlgebraError,
    CartanVector,
    CFrac,
    background_charge,
    conformal_weight,
    inner,
    q_of_gamma,
    spin,
)
from w3toda.descendant_forms import l_form, miura_w_form
from w3toda.free_field import (
    CorrelatorConfig,
    InsertionPairings,
    PoleSumTable,
    RationalField,
    _ipp_factor,
    coulomb_log_correlator,
    descendant_ratio_at,
    doubled_insertions,
    doubled_neutral,
    engine_spin,
    engine_weight,
    ipp_insert,
    verify_derivative_identity,
    w_current_field,
)
from w3toda import free_field, ward_bpz
from w3toda.ward_bpz import free_field_descendants, free_field_residuals

GAMMA = F(6, 5)
QV = background_charge(q_of_gamma(GAMMA))


def boundary_neutral_cfg():
    """Three boundary insertions whose weights sum to twice the background."""
    b1 = CartanVector(F(1, 2), F(1, 3))
    b2 = CartanVector(F(-1, 4), F(2, 5))
    b3 = 2 * QV - b1 - b2
    return CorrelatorConfig(
        GAMMA, (), ((F(-2), b1), (F(1, 3), b2), (F(7, 2), b3)))


def mixed_neutral_cfg():
    """One bulk + one boundary insertion, doubled weights summing to 2Q."""
    a1 = CartanVector(F(3, 4), F(1, 2))
    b1 = 2 * QV - 2 * a1
    return CorrelatorConfig(
        GAMMA, ((CFrac(F(1, 3), 2), a1),), ((F(1, 2), b1),))


def non_neutral_cfg():
    a1 = CartanVector(F(3, 4), F(1, 2))
    return CorrelatorConfig(
        GAMMA,
        ((CFrac(0, 1), a1),),
        ((F(1, 2), CartanVector(F(1, 2), F(1, 3))),
         (F(3), CartanVector(F(-1, 4), F(2, 5)))))


def seiberg_non_neutral_cfg():
    """Not neutral, but within the Seiberg bounds, so the global rows are
    assembled; two heavy boundary weights push the total charge up."""
    q = GAMMA + 2 / GAMMA
    b = CartanVector(q + 1, q + 1)
    return CorrelatorConfig(
        GAMMA, ((CFrac(0, 1), CartanVector(F(3, 4), F(1, 2))),),
        ((F(1, 2), b), (F(3), b)))


# ---------------------------------------------------------------------------
# Configuration validation and bookkeeping
# ---------------------------------------------------------------------------

class TestCorrelatorConfig:
    def test_gamma_range(self):
        with pytest.raises(AlgebraError, match="gamma"):
            CorrelatorConfig(F(0))
        with pytest.raises(AlgebraError, match="gamma"):
            CorrelatorConfig(F(-1, 2))
        with pytest.raises(AlgebraError, match="gamma"):
            CorrelatorConfig(F(3, 2))  # square exceeds 2
        assert CorrelatorConfig(F(7, 5)).gamma == F(7, 5)

    def test_exact_parsing(self):
        cfg = CorrelatorConfig("6/5", ((["1/3", 2], ["3/4", "1/2"]),),
                               (("1/2", [1, 0]),))
        assert cfg.gamma == F(6, 5)
        assert cfg.bulk[0][0] == CFrac(F(1, 3), 2)
        assert cfg.bulk[0][1] == CartanVector(F(3, 4), F(1, 2))
        assert cfg.boundary[0][0] == F(1, 2)

    def test_bulk_must_be_upper_half_plane(self):
        with pytest.raises(AlgebraError, match="upper half-plane"):
            CorrelatorConfig(GAMMA, ((CFrac(1, 0), CartanVector(1, 0)),))
        with pytest.raises(AlgebraError, match="/bulk/0/z"):
            CorrelatorConfig(GAMMA, ((CFrac(0, -1), CartanVector(1, 0)),))

    def test_boundary_strictly_increasing(self):
        b = CartanVector(1, 0)
        with pytest.raises(AlgebraError, match="strictly increasing"):
            CorrelatorConfig(GAMMA, (), ((F(1), b), (F(1), b)))
        with pytest.raises(AlgebraError, match="/boundary/1/s"):
            CorrelatorConfig(GAMMA, (), ((F(2), b), (F(1), b)))

    def test_mu_validation(self):
        b = CartanVector(1, 0)
        with pytest.raises(AlgebraError, match="/mu_bulk"):
            CorrelatorConfig(GAMMA, mu_bulk=(F(1),))
        with pytest.raises(AlgebraError, match="/mu_bulk"):
            CorrelatorConfig(GAMMA, mu_bulk=(F(-1), F(0)))
        with pytest.raises(AlgebraError, match="per arc"):
            CorrelatorConfig(GAMMA, (), ((F(0), b), (F(1), b)),
                             mu_boundary=((F(0), F(0)),))
        with pytest.raises(AlgebraError, match="/mu_boundary/0"):
            CorrelatorConfig(GAMMA, mu_boundary=((F(0), F(-2)),))

    @pytest.mark.parametrize("kwargs, path", [
        ({"bulk": (5,)}, "/bulk/0"),
        ({"boundary": (5,)}, "/boundary/0"),
        ({"boundary": ((0,),)}, "/boundary/0"),
        ({"bulk": ((1j,),)}, "/bulk/0"),
        ({"bulk": 5}, "/bulk"),
        ({"boundary": None}, "/boundary"),
    ], ids=["bulk-entry-int", "boundary-entry-int", "boundary-entry-short",
            "bulk-entry-short", "bulk-int", "boundary-none"])
    def test_malformed_insertions_are_named(self, kwargs, path):
        # built from Python, not from_json: the shapes are checked before
        # any entry is unpacked
        with pytest.raises(AlgebraError, match=f"^{path}: needs "):
            CorrelatorConfig(GAMMA, **kwargs)

    def test_mu_boundary_defaults_one_pair_per_arc(self):
        cfg = boundary_neutral_cfg()
        assert len(cfg.mu_boundary) == 3
        assert cfg.all_mu_zero
        assert CorrelatorConfig(GAMMA).mu_boundary == ((F(0), F(0)),)

    def test_arc_neighbors_wrap(self):
        cfg = CorrelatorConfig(
            GAMMA, (), ((F(0), CartanVector(1, 0)), (F(1), CartanVector(0, 1))),
            mu_boundary=((F(1), F(0)), (F(0), F(2))))
        assert cfg.mu_right(0) == (F(1), F(0))
        assert cfg.mu_left(0) == (F(0), F(2))
        assert cfg.mu_left(1) == (F(1), F(0))

    def test_neutrality_flags(self):
        cfg = boundary_neutral_cfg()
        assert cfg.neutral and cfg.s_vector.is_zero
        assert doubled_neutral(cfg)
        cfg2 = non_neutral_cfg()
        assert not cfg2.neutral
        assert not doubled_neutral(cfg2)

    def test_q_and_charge(self):
        cfg = boundary_neutral_cfg()
        assert cfg.q == F(43, 15)
        assert cfg.Q == QV

    def test_with_zero_mu(self):
        cfg = CorrelatorConfig(GAMMA, (), ((F(0), CartanVector(1, 0)),),
                               mu_bulk=(F(1), F(0)),
                               mu_boundary=((F(2), F(3)),))
        assert not cfg.all_mu_zero
        z = cfg.with_zero_mu()
        assert z.all_mu_zero and z.boundary == cfg.boundary

    def test_seiberg_flag(self):
        # small weights leave s = sum - Q dominated by -Q: fails
        assert not boundary_neutral_cfg().seiberg_ok
        # a single bulk weight near zero: s = -Q fails the first test too
        small = CorrelatorConfig(
            GAMMA, ((CFrac(0, 1), CartanVector(F(-1), F(-1))),))
        assert not small.seiberg_ok
        # two insertions just below Q keep each alpha-Q negative along both
        # simple roots while the total pushes s = sum alpha - Q positive
        a = QV + CartanVector(F(-1, 10), F(-1, 10))
        ok = CorrelatorConfig(GAMMA, ((CFrac(0, 1), a), (CFrac(1, 1), a)))
        assert ok.seiberg_ok
        assert ok.convergence_failure() is None
        assert "first fundamental weight" in small.convergence_failure()
        # one insertion above Q along the first root: the total passes,
        # the per-insertion bound names the insertion and the root
        heavy = CorrelatorConfig(
            GAMMA, ((CFrac(0, 1), a), (CFrac(1, 1), QV + CartanVector(1, 0))))
        assert not heavy.seiberg_ok
        assert heavy.convergence_failure().startswith(
            "charge bound fails at bulk insertion 2")

    def test_json_roundtrip(self):
        cfg = CorrelatorConfig(
            GAMMA,
            ((CFrac(F(1, 3), 2), CartanVector(F(3, 4), F(1, 2))),),
            ((F(1, 2), CartanVector(F(1), F(0))),),
            mu_bulk=(F(1, 7), F(0)),
            mu_boundary=((F(2, 5), F(0)),))
        data = cfg.to_json()
        assert data == {
            "gamma": "6/5",
            "bulk": [{"z": ["1/3", "2"], "alpha": ["3/4", "1/2"]}],
            "boundary": [{"s": "1/2", "beta": ["1", "0"]}],
            "mu_bulk": ["1/7", "0"],
            "mu_boundary": [["2/5", "0"]]}
        back = CorrelatorConfig.from_json(data)
        assert back == cfg

    def test_json_validation_paths(self):
        with pytest.raises(AlgebraError, match="/gamma"):
            CorrelatorConfig.from_json({})
        with pytest.raises(AlgebraError, match="/bulk/0"):
            CorrelatorConfig.from_json({"gamma": "6/5", "bulk": [{"z": [0, 1]}]})
        with pytest.raises(AlgebraError, match="/boundary/1"):
            CorrelatorConfig.from_json(
                {"gamma": "6/5",
                 "boundary": [{"s": 0, "beta": [1, 0]}, {"beta": [0, 1]}]})
        # a number where a list belongs
        with pytest.raises(AlgebraError, match="/mu_bulk"):
            CorrelatorConfig.from_json({"gamma": "6/5", "mu_bulk": 5})
        with pytest.raises(AlgebraError, match="/mu_boundary/0"):
            CorrelatorConfig.from_json({"gamma": "6/5", "mu_boundary": [5]})
        with pytest.raises(AlgebraError, match="/mu_boundary"):
            CorrelatorConfig.from_json({"gamma": "6/5", "mu_boundary": 5})
        with pytest.raises(AlgebraError, match="/bulk"):
            CorrelatorConfig.from_json({"gamma": "6/5", "bulk": 5})
        # a value that is no exact real
        with pytest.raises(AlgebraError, match="/mu_bulk/0"):
            CorrelatorConfig.from_json({"gamma": "6/5", "mu_bulk": [1e999, 0]})
        with pytest.raises(AlgebraError, match="/gamma"):
            CorrelatorConfig.from_json({"gamma": "1/0"})


class TestDoubledInsertions:
    def test_order_and_count(self):
        cfg = mixed_neutral_cfg()
        pts = doubled_insertions(cfg)
        assert len(pts) == 2 * cfg.n_bulk + cfg.n_boundary == 3
        z, a = cfg.bulk[0]
        assert pts[0] == (z, a)
        assert pts[1] == (z.conj(), a)
        assert pts[2][0] == CFrac(F(1, 2))
        assert pts[2][1] == cfg.boundary[0][1]

    def test_boundary_only(self):
        cfg = boundary_neutral_cfg()
        pts = doubled_insertions(cfg)
        assert [p[0] for p in pts] == [CFrac(F(-2)), CFrac(F(1, 3)), CFrac(F(7, 2))]


# ---------------------------------------------------------------------------
# Closed-form exponent table
# ---------------------------------------------------------------------------

class TestCoulombLogCorrelator:
    def test_requires_neutrality(self):
        with pytest.raises(AlgebraError,
                           match="free-field closed form requires neutrality"):
            coulomb_log_correlator(non_neutral_cfg())

    def test_pair_and_self_exponents(self):
        cfg = mixed_neutral_cfg()
        tab = coulomb_log_correlator(cfg)
        pts = doubled_insertions(cfg)
        a = cfg.bulk[0][1]
        # cross pair: -<a_k, a_l>
        assert tab[(0, 2)] == -inner(a, pts[2][1])
        assert tab[(1, 2)] == -inner(a, pts[2][1])
        # bulk self-pair carries +|alpha|^2/2 on the diagonal key
        assert tab[(0, 0)] == inner(a, a) / 2
        # the z-zbar pair carries the full -<a, a>
        assert tab[(0, 1)] == -inner(a, a)

    def test_zero_exponents_dropped(self):
        b1 = CartanVector(F(0), F(0))
        b2 = CartanVector(F(1, 2), F(1, 3))
        b3 = 2 * QV - b1 - b2
        cfg = CorrelatorConfig(GAMMA, (),
                               ((F(0), b1), (F(1), b2), (F(2), b3)))
        tab = coulomb_log_correlator(cfg)
        assert all(0 not in key for key in tab)
        assert (1, 2) in tab


# ---------------------------------------------------------------------------
# Rational-function arithmetic
# ---------------------------------------------------------------------------

PTS = (CFrac(1), CFrac(F(5, 2)), CFrac(0, 1), CFrac(F(-1, 3), F(2, 7)))
T0 = CFrac(F(7, 11), F(1, 7))
T1 = CFrac(F(-3, 5), F(9, 4))


class TestRationalField:
    def f(self):
        return RationalField(PTS, {(0, 1): CFrac(F(2, 3)),
                                   (1, 2): CFrac(F(-1, 2), F(1, 3)),
                                   (3, 1): CFrac(0, 1)})

    def g(self):
        return RationalField(PTS, {(1, 1): CFrac(3),
                                   (2, 3): CFrac(F(1, 5)),
                                   (3, 2): CFrac(F(1, 9), F(-2))})

    def test_zero_and_is_zero(self):
        z = RationalField.zero(PTS)
        assert z.is_zero
        assert (self.f() - self.f()).is_zero
        assert not self.f().is_zero

    def test_validation(self):
        with pytest.raises(AlgebraError, match="pole index"):
            RationalField(PTS, {(7, 1): CFrac(1)})
        with pytest.raises(AlgebraError, match="order"):
            RationalField(PTS, {(0, 0): CFrac(1)})
        with pytest.raises(AlgebraError, match="different pole sets"):
            self.f() + RationalField(PTS[:2], {(0, 1): CFrac(1)})

    def test_sum_evaluates(self):
        for t in (T0, T1):
            assert (self.f() + self.g()).evaluate(t) == \
                self.f().evaluate(t) + self.g().evaluate(t)

    def test_product_evaluates(self):
        for t in (T0, T1):
            assert (self.f() * self.g()).evaluate(t) == \
                self.f().evaluate(t) * self.g().evaluate(t)

    def test_product_same_pole_merges_orders(self):
        a = RationalField(PTS, {(0, 1): CFrac(2)})
        b = RationalField(PTS, {(0, 2): CFrac(F(1, 2))})
        assert (a * b).terms == {(0, 3): CFrac(1)}

    def test_scalar_multiples(self):
        f = self.f()
        assert (F(3, 2) * f).evaluate(T0) == CFrac(F(3, 2)) * f.evaluate(T0)
        assert (f * CFrac(0, 1)).evaluate(T0) == CFrac(0, 1) * f.evaluate(T0)

    def test_derivative_of_product_leibniz(self):
        f, g = self.f(), self.g()
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert (lhs - rhs).is_zero

    def test_derivative_shifts_orders(self):
        f = RationalField(PTS, {(0, 2): CFrac(5)})
        assert f.derivative().terms == {(0, 3): CFrac(10)}

    def test_evaluate_complex_fallback(self):
        val = self.f().evaluate(0.25 + 0.5j)
        assert isinstance(val, complex)
        assert abs(val - complex(self.f().evaluate(CFrac(F(1, 4), F(1, 2))))) < 1e-12

    @pytest.mark.parametrize("t", [1, CFrac(1), 1.0, 1 + 0j,
                                   CFrac(F(-1, 3), F(2, 7)),
                                   complex(-1 / 3, 2 / 7)])
    def test_evaluate_at_a_pole_raises(self, t):
        # exact and float probes alike; a float probe is on the pole when
        # it equals the point's complex()
        with pytest.raises(AlgebraError):
            self.f().evaluate(t)


# ---------------------------------------------------------------------------
# Integration by parts
# ---------------------------------------------------------------------------

BETA = CartanVector(F(2, 7), F(-1, 3))


class TestIppInsert:
    def test_level_one_pole_sum(self):
        cfg = boundary_neutral_cfg()
        res = ipp_insert(l_form((1,), BETA), F(5), BETA, cfg)
        pts = doubled_insertions(cfg)
        expected = {(k, 1): CFrac.of(F(inner(BETA, w), 2))
                    for k, (_, w) in enumerate(pts)}
        assert res.terms == expected

    def test_higher_derivative_prefactor(self):
        # <u, d^p Phi> maps to (p-1)! * sum_k <u, a_k> / (2 (z_k - t)^p)
        from w3toda.descendant_forms import vec_factor
        cfg = boundary_neutral_cfg()
        pts = doubled_insertions(cfg)
        for p, pref in ((2, F(1)), (3, F(2))):
            res = ipp_insert(vec_factor(BETA, p), F(5), BETA, cfg)
            expected = {(k, p): CFrac.of(pref * inner(BETA, w) / 2)
                        for k, (_, w) in enumerate(pts)}
            assert res.terms == expected

    def test_bulk_probe_appends_image(self):
        cfg = mixed_neutral_cfg()
        t = CFrac(F(1, 5), F(3, 2))
        res = ipp_insert(l_form((1,), BETA), t, BETA, cfg)
        n = len(doubled_insertions(cfg))
        assert len(res.points) == n + 1
        assert res.points[n] == t.conj()
        assert res.terms[(n, 1)] == CFrac.of(F(inner(BETA, BETA), 2))

    def test_real_probe_no_image(self):
        cfg = mixed_neutral_cfg()
        res = ipp_insert(l_form((1,), BETA), F(9), BETA, cfg)
        assert len(res.points) == len(doubled_insertions(cfg))

    def test_probe_collision(self):
        cfg = mixed_neutral_cfg()
        with pytest.raises(AlgebraError, match="collides"):
            ipp_insert(l_form((1,), BETA), F(1, 2), BETA, cfg)
        with pytest.raises(AlgebraError, match="collides"):
            ipp_insert(l_form((1,), BETA), CFrac(F(1, 3), 2), BETA, cfg)
        with pytest.raises(AlgebraError, match="collides"):
            ipp_insert(l_form((1,), BETA), CFrac(F(1, 3), -2), BETA, cfg)

    def test_requires_zero_measures(self):
        cfg = CorrelatorConfig(GAMMA, (), boundary_neutral_cfg().boundary,
                               mu_bulk=(F(1), F(0)))
        with pytest.raises(AlgebraError, match="measures zero"):
            ipp_insert(l_form((1,), BETA), F(5), BETA, cfg)

    def test_linear_in_form(self):
        cfg = boundary_neutral_cfg()
        f1 = l_form((1, 1), BETA)
        f2 = l_form((2,), BETA, q=cfg.q)
        combo = F(3, 4) * f1 + F(-2, 5) * f2
        lhs = ipp_insert(combo, F(5), BETA, cfg)
        rhs = (F(3, 4) * ipp_insert(f1, F(5), BETA, cfg)
               + F(-2, 5) * ipp_insert(f2, F(5), BETA, cfg))
        assert (lhs - rhs).is_zero


# ---------------------------------------------------------------------------
# Derivative identities
# ---------------------------------------------------------------------------

LAMBDAS = ((1,), (1, 1), (1, 1, 1), (1, 2))


class TestDerivativeIdentities:
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_exact_on_neutral_configs(self, lam):
        for cfg in (boundary_neutral_cfg(), mixed_neutral_cfg()):
            ok, res = verify_derivative_identity(lam, BETA, cfg)
            assert ok and res.is_zero

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_formal_identity_without_neutrality(self, lam):
        ok, res = verify_derivative_identity(lam, BETA, non_neutral_cfg())
        assert ok and res.is_zero

    def test_int_alias(self):
        ok, _ = verify_derivative_identity(1, BETA, boundary_neutral_cfg())
        assert ok

    def test_unsupported_index(self):
        with pytest.raises(AlgebraError, match="unsupported"):
            verify_derivative_identity((2, 2), BETA, boundary_neutral_cfg())


def _rand_neutral(draw, gamma=GAMMA):
    small = st.fractions(min_value=F(-2), max_value=F(2),
                         max_denominator=5)
    n_bulk = draw(st.integers(min_value=0, max_value=2))
    m_bnd = draw(st.integers(min_value=1, max_value=3))
    Qv = background_charge(gamma + 2 / gamma)
    total = CartanVector(0, 0)
    bulk = []
    seen = set()
    for _ in range(n_bulk):
        re = draw(small)
        im = draw(st.fractions(min_value=F(1, 5), max_value=F(2),
                               max_denominator=5))
        if (re, im) in seen:
            im = im + F(5, 2)
        seen.add((re, im))
        a = CartanVector(draw(small), draw(small))
        bulk.append((CFrac(re, im), a))
        total = total + 2 * a
    svals = draw(st.lists(small, min_size=m_bnd, max_size=m_bnd,
                          unique=True)).copy()
    svals.sort()
    boundary = []
    for s in svals[:-1]:
        b = CartanVector(draw(small), draw(small))
        boundary.append((s, b))
        total = total + b
    boundary.append((svals[-1], 2 * Qv - total))
    return CorrelatorConfig(gamma, tuple(bulk), tuple(boundary))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_identities_on_randomized_neutral_configs(data):
    cfg = _rand_neutral(data.draw)
    assert cfg.neutral
    beta = CartanVector(data.draw(st.fractions(min_value=F(-2), max_value=F(2),
                                               max_denominator=7)),
                        data.draw(st.fractions(min_value=F(-2), max_value=F(2),
                                               max_denominator=7)))
    for lam in LAMBDAS:
        ok, res = verify_derivative_identity(lam, beta, cfg)
        assert ok and res.is_zero


# ---------------------------------------------------------------------------
# Engine constants and global Ward rows
# ---------------------------------------------------------------------------

class TestEngineConstants:
    def test_engine_weight_is_half_physical(self):
        q = F(43, 15)
        for a in (CartanVector(F(1, 2), F(1, 3)), CartanVector(F(-2), F(5, 7))):
            assert engine_weight(a, q) == conformal_weight(a, q=q) / 2

    def test_engine_spin_is_half_physical(self):
        q = F(43, 15)
        for a in (CartanVector(F(1, 2), F(1, 3)), CartanVector(F(-2), F(5, 7))):
            assert engine_spin(a, q) == spin(a, q=q) / 2


class TestCurrentInsertion:
    def test_polar_data_matches_mode_ratios(self):
        # The current insertion, as an exact rational function, must agree
        # pole by pole with the realized mode forms: simple pole <-> level 2,
        # double pole <-> level 1, triple pole <-> the engine spin constant.
        for cfg in (boundary_neutral_cfg(), mixed_neutral_cfg()):
            field = w_current_field(cfg)
            pts = doubled_insertions(cfg)
            q = cfg.q
            for k, (zk, wk) in enumerate(pts):
                c1 = -field.terms.get((k, 1), CFrac(0))
                c2 = field.terms.get((k, 2), CFrac(0))
                c3 = -field.terms.get((k, 3), CFrac(0))
                assert c1 == descendant_ratio_at(cfg, k, miura_w_form(2, wk, q=q))
                assert c2 == descendant_ratio_at(cfg, k, miura_w_form(1, wk, q=q))
                assert c3 == CFrac.of(engine_spin(wk, q))


class TestGlobalRows:
    # free_field_residuals(cfg) holds the Virasoro rows n = 0..2 at [n] and
    # the spin-3 rows m = 0..4 at [3 + m]
    def test_virasoro_rows_vanish(self):
        for cfg in (boundary_neutral_cfg(), mixed_neutral_cfg()):
            for n in (0, 1, 2):
                assert free_field_residuals(cfg)[n] == CFrac(0)

    def test_w_rows_vanish(self):
        for cfg in (boundary_neutral_cfg(), mixed_neutral_cfg()):
            for m in range(5):
                assert free_field_residuals(cfg)[3 + m] == CFrac(0)

    def test_rows_detect_non_neutrality(self):
        cfg = seiberg_non_neutral_cfg()
        assert not cfg.neutral and cfg.seiberg_ok
        rows = free_field_residuals(cfg)
        assert rows[1] != CFrac(0)
        assert any(rows[3 + m] != CFrac(0) for m in range(2, 5))

    def test_descendant_ratio_index_validation(self):
        cfg = boundary_neutral_cfg()
        with pytest.raises(AlgebraError, match="out of range"):
            descendant_ratio_at(cfg, 3, l_form((1,), BETA))


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_global_rows_on_randomized_neutral_configs(data):
    cfg = _rand_neutral(data.draw)
    rows = free_field_residuals(cfg)
    for n in (0, 1, 2):
        assert rows[n] == CFrac(0)
    for m in range(5):
        assert rows[3 + m] == CFrac(0)


# ---------------------------------------------------------------------------
# Pole-sum tables against the per-factor RationalField reading
# ---------------------------------------------------------------------------

def reference_ratio(cfg, k, form):
    """``descendant_ratio_at`` read without a table: one pole sum
    ``_ipp_factor(u, p, others).evaluate(z_k)`` per distinct factor."""
    insertions = doubled_insertions(cfg)
    zk = insertions[k][0]
    others = [(z, w) for i, (z, w) in enumerate(insertions) if i != k]
    sums = {}
    total = CFrac(0)
    for m, coeff in form.terms.items():
        piece = CFrac.of(coeff)
        for p, i in m.factors:
            if (p, i) not in sums:
                sums[p, i] = _ipp_factor((E1, E2)[i - 1], p,
                                         others).evaluate(zk)
            piece = piece * sums[p, i]
        total = total + piece
    return total


def reference_virasoro_row(cfg, n):
    q = cfg.q
    total = CFrac(0)
    for k, (zk, wk) in enumerate(doubled_insertions(cfg)):
        total = total + zk ** n * reference_ratio(cfg, k, l_form((1,), wk, q=q))
        if n >= 1:
            total = total + CFrac.of(n * engine_weight(wk, q)) * zk ** (n - 1)
    return total


def reference_w_row(cfg, m):
    q = cfg.q
    total = CFrac(0)
    for k, (zk, wk) in enumerate(doubled_insertions(cfg)):
        w2 = reference_ratio(cfg, k, miura_w_form(2, wk, q=q))
        total = total + zk ** m * w2
        if m >= 1:
            w1 = reference_ratio(cfg, k, miura_w_form(1, wk, q=q))
            total = total + CFrac.of(m) * zk ** (m - 1) * w1
        if m >= 2:
            total = total + (CFrac.of(F(m * (m - 1), 2)) * zk ** (m - 2)
                             * CFrac.of(engine_spin(wk, q)))
    return total


def seeded_neutral_cfg(rng, n_bulk, m_boundary):
    """Neutral configuration with bulk and boundary points and small random
    rational weights; the last boundary weight balances the charge."""
    gamma = F(rng.randint(7, 13), 10)
    qv = background_charge(gamma + 2 / gamma)
    def small():
        return F(rng.randint(-6, 6), rng.randint(1, 4))
    xs = rng.sample(range(-9, 10), n_bulk + m_boundary)
    total = CartanVector(0, 0)
    bulk = []
    for x in xs[:n_bulk]:
        alpha = CartanVector(small(), small())
        bulk.append((CFrac(F(x, 2), F(rng.randint(1, 6), 3)), alpha))
        total = total + 2 * alpha
    ss = sorted(xs[n_bulk:])
    boundary = []
    for s in ss[:-1]:
        beta = CartanVector(small(), small())
        boundary.append((F(s), beta))
        total = total + beta
    boundary.append((F(ss[-1]), 2 * qv - total))
    return CorrelatorConfig(gamma, tuple(bulk), tuple(boundary))


SEEDED_SHAPES = ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1))


@pytest.mark.parametrize("seed", range(4))
def test_pole_sum_tables_match_the_factor_reading(seed):
    rng = random.Random(seed)
    for shape in SEEDED_SHAPES:
        cfg = seeded_neutral_cfg(rng, *shape)
        q = cfg.q
        values = free_field_descendants(cfg)
        beta = CartanVector(F(rng.randint(-5, 5), 3), F(rng.randint(-5, 5), 7))
        for k, (_, wk) in enumerate(doubled_insertions(cfg)):
            forms = {"derivative": l_form((1,), wk, q=q),
                     "w1": miura_w_form(1, wk, q=q),
                     "w2": miura_w_form(2, wk, q=q),
                     "probe": l_form((1, 2), beta, q=q)}
            for key, form in forms.items():
                want = reference_ratio(cfg, k, form)
                got = descendant_ratio_at(cfg, k, form)
                assert repr(got) == repr(want)
                if key != "probe":
                    assert repr(values[key][k]) == repr(want)
        rows = free_field_residuals(cfg)
        for n in range(3):
            assert repr(rows[n]) == repr(reference_virasoro_row(cfg, n))
        for m in range(5):
            assert repr(rows[3 + m]) == repr(reference_w_row(cfg, m))


def test_one_pole_sum_table_per_insertion(monkeypatch):
    built = []
    real = PoleSumTable.__init__

    def counted(self, insertions, k):
        built.append(k)
        real(self, insertions, k)

    monkeypatch.setattr(PoleSumTable, "__init__", counted)
    pairings_built = []
    real_pairings = InsertionPairings.__init__
    monkeypatch.setattr(
        InsertionPairings, "__init__",
        lambda self, insertions: (pairings_built.append(1)
                                  or real_pairings(self, insertions)))
    reciprocals = []
    real_reciprocal = CFrac.reciprocal
    monkeypatch.setattr(
        CFrac, "reciprocal",
        lambda self: reciprocals.append(1) or real_reciprocal(self))
    pairings = []
    real_inner = free_field.inner
    monkeypatch.setattr(
        free_field, "inner",
        lambda u, v: pairings.append(1) or real_inner(u, v))
    cfg = seeded_neutral_cfg(random.Random(7), 2, 2)
    n = len(doubled_insertions(cfg))
    free_field_descendants(cfg)
    # one table per insertion, two pairings per insertion, and one
    # 1/(z_l - z_k) per unordered pair, shared by both ends, both
    # directions and every order of the three forms
    assert built == list(range(n))
    assert len(pairings) == 2 * n
    assert len(reciprocals) == n * (n - 1) // 2
    built.clear()
    free_field_residuals(cfg)
    assert built == list(range(n))
    # the (1, 2) identity reads its left side, the probe field and the
    # log-derivative at each insertion through one set of pairings
    pairings_built.clear()
    pairings.clear()
    assert verify_derivative_identity((1, 2), BETA, cfg)[0]
    assert len(pairings_built) == 1
    assert len(pairings) == 2 * n       # the pairings, and no other product
    pairings_built.clear()
    w_current_field(cfg)
    assert len(pairings_built) == 1


def test_forms_built_once_per_distinct_weight(monkeypatch):
    calls = {"l_form": [], "miura_w_form": []}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(ward_bpz, name), **kw):
            calls[_name].append(args[-1])
            return _f(*args, **kw)
        monkeypatch.setattr(ward_bpz, name, counted)
    cfg = seeded_neutral_cfg(random.Random(7), 2, 2)
    weights = [w for _, w in doubled_insertions(cfg)]
    distinct = [w for i, w in enumerate(weights) if w not in weights[:i]]
    # two bulk points and their mirrors carry two weights among six points
    assert (len(weights), len(distinct)) == (6, 4)
    values = free_field_descendants(cfg)
    assert calls["miura_w_form"] == [w for w in distinct for _ in (1, 2)]
    assert calls["l_form"] == distinct
    # each mirror reads its own pole sums through the shared forms
    for k, w in enumerate(weights):
        assert repr(values["w2"][k]) == repr(
            descendant_ratio_at(cfg, k, miura_w_form(2, w, q=cfg.q)))
