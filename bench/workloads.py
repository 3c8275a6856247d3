"""The four benchmark workloads: inputs, the timed operation, and checks.

A workload is built once per process (``setup``: input generation plus the
program's one-time lazy work) and then runs whole *rounds* of operations.
Every operation gets fresh inputs derived from its own seed, so two runs
with different base seeds exercise different inputs of the same size.

``check`` functions never compare against stored copies of earlier output:
they use an independent computation (mpmath, a second code path through
public functions) or a property the method must have.  Each returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from w3toda.algebra_core import (
    E1,
    E2,
    OMEGA1,
    OMEGA2,
    RHO,
    CartanVector,
    CFrac,
    inner,
    q_of_gamma,
    variable,
)
from w3toda.descendant_forms import Weight, miura_convention
from w3toda.free_field import CorrelatorConfig, verify_derivative_identity
from w3toda.gmc_mc import estimate_correlator, fusion_probe
from w3toda.hyp_numeric import (
    hyp_grid,
    ode_integrate,
    paper_integrals,
    series_derivatives,
    series_eval,
)
from w3toda.singular_vectors import (
    build_singular,
    eom_constant,
    eom_rhs,
    solve_d1,
    verify_null_form,
)
from w3toda.ward_bpz import bpz_spec, free_field_residuals, indicial_exponents

F = Fraction
GAMMA = variable("gamma")
KAPPA = variable("kappa")

# stride between the seeds of consecutive operations of one run
SEED_STRIDE = 1000


def op_seed(base_seed: int, index: int) -> int:
    """Seed of operation ``index`` in a run started with ``base_seed``."""
    return base_seed * SEED_STRIDE + index


def mu_config() -> CorrelatorConfig:
    """Four-insertion half-plane configuration with bulk and boundary
    measures on (the interacting configuration of the GMC test suite)."""
    a = F(3, 5) * F(33, 10)
    b2, b3 = F(1, 5) * F(33, 10), F(3, 10) * F(33, 10)
    return CorrelatorConfig(
        F(4, 5),
        bulk=(((F(3, 10), F(1, 2)), (a, a)), ((F(-1, 4), F(9, 20)), (a, a))),
        boundary=((F(-1, 2), (b2, b2)), (F(2, 5), (b3, b3))),
        mu_bulk=(F(1, 2), F(7, 10)),
        mu_boundary=((F(3, 10), F(1, 5)), (F(1, 10), F(2, 5))))


class Workload:
    """A round is ``round_size`` operations; ``check_round`` sees the
    outputs of one round together."""

    round_size = 1

    def check_round(self, outputs) -> list:
        return []


# ---------------------------------------------------------------------------
# audit_scan
# ---------------------------------------------------------------------------

class AuditScan(Workload):
    """One full ``miura_convention(audit=True)`` per operation: the scan of
    all 1,008 sign/ordering conventions with the uniqueness check."""

    name = "audit_scan"

    def setup(self, base_seed: int) -> None:
        # the frozen path is the reference the scan must reproduce
        self.frozen = miura_convention()

    def op(self, seed: int):
        miura_convention.cache_clear()
        return miura_convention(audit=True)

    def check(self, seed: int, conv) -> list:
        problems = []
        if conv != self.frozen:
            problems.append(f"audit convention {conv!r} differs from the "
                            f"frozen path {self.frozen!r}")
        for spec in (build_singular(1, Weight.semi_degenerate(1, KAPPA)),
                     build_singular(2, Weight.fully_degenerate(GAMMA)),
                     build_singular(3, Weight.fully_degenerate(GAMMA))):
            if not verify_null_form(spec).is_zero:
                problems.append(
                    f"level-{spec.level} null form is not identically zero")
        return problems


# ---------------------------------------------------------------------------
# exact_chain
# ---------------------------------------------------------------------------

# gamma in (0, 1) keeps paper_integrals defined and the eom constant's
# gamma < 1 branch live; gamma^2 = 1 is a pole and is never drawn
_GAMMAS = tuple(F(n, 20) for n in range(9, 19))

# (target, base) pairs of the first-order substitutions of eom_rhs
_D1_BASES = (
    (lambda g: 3 * ((-1) * g * OMEGA1) + g * E2,
     lambda g: (-1) * g * OMEGA1 + g * E2),
    (lambda g: 3 * ((-1) * (2 / g) * OMEGA1) + g * E2,
     lambda g: (-1) * (2 / g) * OMEGA1 + g * E2),
    (lambda g: g * E1 - g * E2,
     lambda g: (-1) * g * OMEGA1 + g * E1),
    (lambda g: g * E1 - (2 / g) * RHO,
     lambda g: (-1) * (2 / g) * OMEGA1 + g * E1),
)

_LAMBDAS = ((1,), (1, 1), (1, 2), (1, 1, 1))


def _small(rng, lo=-4, hi=4, den=3) -> Fraction:
    return F(rng.randint(lo, hi), den)


def random_neutral_config(rng, gamma, n_bulk: int, m_boundary: int):
    """Neutral configuration with small random rational weights; the last
    boundary weight balances the total charge."""
    qv = gamma + 2 / gamma
    total = CartanVector(0, 0)
    xs = rng.sample(range(-8, 9), n_bulk + m_boundary)
    bulk = []
    for k in range(n_bulk):
        alpha = CartanVector(_small(rng), _small(rng))
        bulk.append((CFrac(xs[k], rng.randint(1, 3)), alpha))
        total = total + 2 * alpha
    ss = sorted(xs[n_bulk:])
    boundary = []
    for s in ss[:-1]:
        beta = CartanVector(_small(rng), _small(rng))
        boundary.append((F(s), beta))
        total = total + beta
    boundary.append((F(ss[-1]), 2 * CartanVector(qv, qv) - total))
    return CorrelatorConfig(gamma, tuple(bulk), tuple(boundary))


def _at(x, gamma):
    """Value of an exact scalar at a rational gamma."""
    return x.evaluate({"gamma": gamma}) if hasattr(x, "evaluate") else x


def _non_resonant(b) -> bool:
    roots = (F(0), 1 - b[0], 1 - b[1])
    return all((x - y).denominator != 1
               for i, x in enumerate(roots) for y in roots[i + 1:])


def _bulk_boundary_spec(rng, gamma):
    """Seeded bulk-boundary reduction whose three indicial exponents differ
    by non-integers (the Frobenius series has no logarithmic case)."""
    while True:
        alpha = CartanVector(_small(rng, 1, 6, 6), _small(rng, 1, 6, 6))
        beta_star = _small(rng, 1, 9, 4) * OMEGA2
        branch = rng.choice(("gamma", "2/gamma"))
        spec = bpz_spec("bulk_boundary", (alpha, beta_star), branch, gamma)
        if _non_resonant(spec.b):
            return spec


class ExactChain(Workload):
    """The paper's exact pipeline on the frozen convention, one pass per
    operation: null forms, first-order substitutions and boundary equations
    of motion, free-field Ward residuals, the BPZ reduction to the 3F2
    equation and its numerics."""

    name = "exact_chain"

    # (bulk, boundary) insertion counts of the seeded neutral configurations;
    # fixed so that every pass does the same amount of pole-sum work
    CONFIG_SHAPES = ((0, 1), (0, 3), (1, 2), (1, 3), (2, 1), (2, 2))

    def __init__(self, config_shapes=CONFIG_SHAPES, grid_points: int = 91):
        self.config_shapes = tuple(config_shapes)
        self.grid_points = grid_points

    def setup(self, base_seed: int) -> None:
        miura_convention()

    def op(self, seed: int) -> dict:
        rng = random.Random(seed)
        g = rng.choice(_GAMMAS)
        out = {"gamma": g}

        # null combinations, symbolic in q (level 1) or gamma (levels 2, 3),
        # plus one seeded numeric weight per level
        kap = F(rng.randint(1, 30), rng.randint(31, 60))
        specs = [build_singular(1, Weight.semi_degenerate(i, KAPPA))
                 for i in (1, 2)]
        specs += [build_singular(level, Weight.fully_degenerate(chi))
                  for level in (2, 3) for chi in (GAMMA, 2 / GAMMA)]
        specs += [build_singular(1, Weight.semi_degenerate(1, kap)),
                  build_singular(2, Weight.fully_degenerate(g)),
                  build_singular(3, Weight.fully_degenerate(2 / g))]
        out["null"] = [(s.level, verify_null_form(s)) for s in specs]

        # first-order substitutions, symbolic and at the drawn gamma
        out["d1"] = [(solve_d1(t(GAMMA), b(GAMMA)),
                      solve_d1(t(g), b(g), q=q_of_gamma(g)))
                     for t, b in _D1_BASES]

        # boundary equations of motion at levels 1-3 on a seeded boundary
        mus = [F(rng.randint(1, 9), 10) for _ in range(5)]
        records = []
        for level, weight in ((1, Weight.semi_degenerate(1, kap)),
                              (2, Weight.fully_degenerate(g)),
                              (2, Weight.fully_degenerate(2 / g)),
                              (3, Weight.fully_degenerate(g)),
                              (3, Weight.fully_degenerate(2 / g))):
            cfg = CorrelatorConfig(
                g, boundary=((F(-1), weight.vector), (F(2), OMEGA1)),
                mu_bulk=(mus[4], F(0)),
                mu_boundary=((mus[0], mus[1]), (mus[2], mus[1])))
            records.append(eom_rhs(level, weight, cfg))
        out["eom"] = records
        out["eom_mu"] = tuple(float(m) for m in (mus[2], mus[0], mus[4]))
        out["eom_c"] = {name: eom_constant(name, float(g), *out["eom_mu"])
                        for name in ("c", "c1", "c2")}

        # free-field Ward residuals and probe-derivative identities
        cfgs = [random_neutral_config(rng, g, n, m)
                for n, m in self.config_shapes]
        out["ward"] = [free_field_residuals(c) for c in cfgs]
        beta = CartanVector(_small(rng, -6, 6, 5), _small(rng, -6, 6, 5))
        out["identity"] = [verify_derivative_identity(lam, beta, cfgs[0])
                           for lam in _LAMBDAS]

        # BPZ reduction, its exponents, and the hypergeometric numerics
        spec = _bulk_boundary_spec(rng, g)
        out["spec"] = spec
        out["spec4"] = bpz_spec(
            "boundary_4pt",
            (CartanVector(_small(rng, 1, 4, 4), _small(rng, 1, 4, 4)),
             CartanVector(_small(rng, 1, 4, 5), _small(rng, 1, 4, 5)),
             _small(rng, 1, 9, 3) * OMEGA2),
            rng.choice(("gamma", "2/gamma")), g)
        roots = indicial_exponents(spec)
        out["roots"] = roots
        out["exponents4"] = indicial_exponents(out["spec4"])
        start, stop = 0.05, 0.5
        out["grid"] = hyp_grid(spec, start, stop,
                               (stop - start) / (self.grid_points - 1))
        u_probe = rng.uniform(0.1, 0.7)
        out["probe"] = (u_probe, [series_eval(spec, s, u_probe) for s in roots])
        near, far = 0.5, 0.85
        out["ode"] = [
            (ode_integrate(spec, near,
                           series_derivatives(spec, s, near, orders=2), far),
             series_derivatives(spec, s, far, orders=2))
            for s in roots]
        out["integrals"] = paper_integrals(float(g))
        return out

    def check(self, seed: int, out: dict) -> list:
        problems = []
        g = out["gamma"]
        for level, residual in out["null"]:
            if not residual.is_zero:
                problems.append(f"level-{level} null residual is nonzero")

        for (a_sym, b_sym), (a_num, b_num) in out["d1"]:
            if (_at(a_sym, g), _at(b_sym, g)) != (a_num, b_num):
                problems.append("symbolic solve_d1 disagrees with the "
                                f"numeric solve at gamma = {g}")
        for rec in out["eom"]:
            # the second boundary measure matches across the insertion, so
            # every level is fully recorded
            if rec.status != "ok":
                problems.append(f"level-{rec.level} eom_rhs status "
                                f"{rec.status!r}")

        c, c1, c2 = out["eom_c"]["c"], out["eom_c"]["c1"], out["eom_c"]["c2"]
        lhs = c * (1.0 if float(g) < 1.0 else 0.0)
        if abs(lhs - (c1 + c2)) > 1e-12 * max(1.0, abs(c), abs(c1), abs(c2)):
            problems.append(f"eom_constant: c*[gamma<1] = {lhs!r} but "
                            f"c1 + c2 = {c1 + c2!r}")

        for k, rows in enumerate(out["ward"]):
            if any(r != 0 for r in rows):
                problems.append(f"free_field_residuals row of config {k} "
                                "is nonzero")
        for lam, (holds, residual) in zip(_LAMBDAS, out["identity"]):
            if not (holds and residual.is_zero):
                problems.append(f"derivative identity {lam} fails")

        problems += check_hypergeometric(out)
        return problems


def _hyp3f2_solution(spec, sigma: float, u: float) -> tuple:
    """(value, scale) of u^sigma 3F2 with the parameters shifted by sigma,
    from mpmath at 30 digits.  The lower parameters are {1 + sigma,
    B1 + sigma, B2 + sigma} less the one that equals 1.  ``scale`` is the
    sum of the absolute values of the series terms: summing the series in
    floating point cannot do better than rounding error times ``scale``,
    which exceeds the value where the terms cancel."""
    import mpmath

    with mpmath.workdps(30):
        s, x = mpmath.mpf(sigma), mpmath.mpf(u)
        a = [mpmath.mpf(float(v)) + s for v in spec.a]
        b = [mpmath.mpf(float(v)) + s for v in spec.b]
        lower = [1 + s] + b
        lower.pop(min(range(3), key=lambda i: abs(lower[i] - 1)))
        # an exact zero of the function is a valid result, not a failure
        value = mpmath.hyp3f2(*a, *lower, x, zeroprec=200)
        term = total = mpmath.mpf(1)
        m = 0
        while abs(term) > mpmath.mpf(10) ** -40 * total and m < 100_000:
            term *= (a[0] + m) * (a[1] + m) * (a[2] + m) * x / (
                (1 + s + m) * (b[0] + m) * (b[1] + m))
            total += abs(term)
            m += 1
        weight = x ** s
        return float(weight * value), float(weight * total)


def check_hypergeometric(out: dict) -> list:
    problems = []
    for spec, roots in ((out["spec"], out["roots"]),
                        (out["spec4"], out["exponents4"])):
        b1, b2 = spec.b
        if sorted(roots) != sorted((F(0), 1 - b1, 1 - b2)):
            problems.append(f"{spec.family} indicial exponents {roots} are "
                            "not {0, 1-B1, 1-B2}")
    spec, roots = out["spec"], out["roots"]
    u, values = out["probe"]
    sample_rows = out["grid"][::45]
    points = [(u, values)] + [(row[0], row[1:4]) for row in sample_rows]
    for at, vals in points:
        for sigma, val in zip(roots, vals):
            ref, scale = _hyp3f2_solution(spec, float(sigma), at)
            if not abs(val - ref) <= 1e-10 * scale:
                problems.append(f"series_eval at sigma={float(sigma):.4g}, "
                                f"u={at:.4g}: {val!r} vs mpmath {ref!r} "
                                f"(term scale {scale:.3g})")
    for row in out["grid"]:
        scale = max(1.0, *(abs(v) for v in row[1:4]))
        if any(not abs(r) <= 1e-9 * scale for r in row[4:]):
            problems.append(f"hyp_grid operator residual too large at "
                            f"u={row[0]:.4g}")
            break
    for sigma, (integrated, series) in zip(roots, out["ode"]):
        for d, (x, y) in enumerate(zip(integrated, series)):
            # a subdominant solution amplifies the integrator's local error
            # by the dominant one's growth from 0.5 to 0.85; over all 6,228
            # specs the seeds can draw the largest deviation is 2.3e-7.
            # Starting at 0.5 rather than near 0 also keeps the fixed
            # atol of ode_integrate, too loose for tiny values, out of view
            # (see README.md)
            if not abs(x - y) <= 1e-6 * max(1.0, abs(y)):
                problems.append(f"ode_integrate derivative {d} at the far "
                                f"point, sigma={float(sigma):.4g}: {x!r} vs "
                                f"series {y!r}")
    for pair in out["integrals"]:
        gap = abs(pair.numeric - pair.closed_form)
        if not gap <= pair.quad_error + 1e-13 * abs(pair.closed_form):
            problems.append(f"paper_integrals {pair.name}: gap {gap:.3e} "
                            f"exceeds the quadrature error "
                            f"{pair.quad_error:.3e}")
    return problems


# ---------------------------------------------------------------------------
# gmc_estimate
# ---------------------------------------------------------------------------

class GmcEstimate(Workload):
    """``estimate_correlator`` on the interacting four-insertion
    configuration, measures on, so the zero-mode integral runs.  A round is
    two estimates at two seeds, which must agree within their stderr."""

    name = "gmc_estimate"
    round_size = 2
    DELTA, EPS, RHO, WINDOW_TOL = 0.12, 0.1, 0.03, 1e-8
    # 30 seeds at 50k replicas gave relative stderrs of 0.023 to 0.059; the
    # floor is half the lowest.  There is no useful ceiling: the estimator
    # is heavy-tailed, one replica took an estimate's relative stderr to
    # 0.20, and for positive replicas it cannot exceed 1 anyway.
    REL_STDERR_FLOOR = 0.012

    def __init__(self, replicas: int = 50_000):
        self.replicas = replicas

    def setup(self, base_seed: int) -> None:
        self.cfg = mu_config()

    def op(self, seed: int):
        return estimate_correlator(self.cfg, self.DELTA, self.EPS, self.RHO,
                                   self.replicas, seed=seed,
                                   window_tol=self.WINDOW_TOL)

    def check(self, seed: int, est) -> list:
        problems = []
        if est.replicas != self.replicas:
            problems.append(f"estimate used {est.replicas} replicas, "
                            f"asked for {self.replicas}")
        if not (math.isfinite(est.value) and est.value > 0
                and est.stderr > 0):
            problems.append(f"estimate {est.value!r} +- {est.stderr!r} is "
                            "not finite and positive")
            return problems
        expected = est.diagnostics["expected_masses"]
        for key, (mean, se) in est.masses.items():
            if not abs(mean - expected[key]) <= 5 * se:
                problems.append(f"mass {key}: mean {mean:.6g} is more than "
                                f"5 stderr ({se:.3g}) from its expectation "
                                f"{expected[key]:.6g}")
        for tail in est.diagnostics["tail_increment"]:
            if not tail <= self.WINDOW_TOL:
                problems.append(f"zero-mode tail increment {tail:.3e} above "
                                f"window_tol {self.WINDOW_TOL:.1e}")
        rel = est.stderr / est.value
        if not rel >= self.REL_STDERR_FLOOR:
            problems.append(f"relative stderr {rel:.4g} below the seeded "
                            f"floor {self.REL_STDERR_FLOOR}")
        return problems

    def check_round(self, outputs) -> list:
        problems = []
        for x, y in zip(outputs, outputs[1:]):
            gap = abs(x.value - y.value)
            if not gap <= 5 * math.hypot(x.stderr, y.stderr):
                problems.append(f"estimates at two seeds disagree: "
                                f"{x.value:.6g} +- {x.stderr:.3g} vs "
                                f"{y.value:.6g} +- {y.stderr:.3g}")
        return problems


# ---------------------------------------------------------------------------
# fusion_ladder
# ---------------------------------------------------------------------------

class FusionLadder(Workload):
    """``fusion_probe`` on the first boundary pair of the interacting
    configuration over four rungs: one sampling pass, re-weighted per
    rung."""

    name = "fusion_ladder"
    PAIR = ("boundary", 0, 1)
    LADDER = (0.006, 0.009, 0.0135, 0.02)
    DELTA, EPS, RHO = 0.12, 0.12, 0.003

    def __init__(self, replicas: int = 4096):
        self.replicas = replicas

    def setup(self, base_seed: int) -> None:
        self.cfg = mu_config()
        _, i, j = self.PAIR
        pairing = inner(self.cfg.boundary[i][1], self.cfg.boundary[j][1])
        self.exponent = float(-pairing / 2)

    def op(self, seed: int):
        return fusion_probe(self.cfg, self.PAIR, self.LADDER,
                            delta=self.DELTA, eps=self.EPS, rho=self.RHO,
                            replicas=self.replicas, seed=seed)

    def check(self, seed: int, rep) -> list:
        problems = []
        if len(rep.values) != len(self.LADDER):
            problems.append(f"{len(rep.values)} rung values for "
                            f"{len(self.LADDER)} rungs")
        for d, v in zip(rep.distances, rep.values):
            if not (math.isfinite(v) and v > 0):
                problems.append(f"rung {d}: value {v!r} is not finite and "
                                "positive")
        if not abs(rep.exponent - self.exponent) <= 1e-12:
            problems.append(f"exponent {rep.exponent!r} is not "
                            f"-inner(beta_i, beta_j)/2 = {self.exponent!r}")
        if not rep.satisfied():
            problems.append(f"slope {rep.slope:.4g} above the bound "
                            f"{rep.bound:.4g}")
        return problems


WORKLOADS = {w.name: w for w in (AuditScan, ExactChain, GmcEstimate,
                                 FusionLadder)}
