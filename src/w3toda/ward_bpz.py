"""Current-insertion constraint systems and their hypergeometric reductions.

A mode of the stress tensor or of the spin-3 current inserted next to a
half-plane correlator expands into pole terms anchored at the other
insertions; summing position-weighted insertions instead yields global
constraint rows with no free probe.  This module assembles both pictures
over the doubled coordinate list and draws the two consequences that close
into ordinary differential equations:

* ``local_ward_rhs`` tabulates the pole expansion of a single mode
  insertion: derivative terms, tagged spin-3 descendant unknowns, and
  scalar weight/spin constants, each with its pole order;
* ``global_ward_system`` builds the three position-weighted stress-tensor
  rows and five spin-3 rows as a linear system in the tagged descendant
  unknowns (two per doubled insertion), with degeneracy-reduction counts
  attached; ``free_field_residuals`` substitutes the exact zero-measure
  descendant values and returns the row residuals.  It is the one
  evaluation of the global rows, and its values read their pole sums
  through ``free_field.PoleSumTable``s sharing one ``InsertionPairings``;
* ``closable`` / ``closable_scan`` count leftover unknowns after the five
  spin-3 rows and the degeneracy reductions are spent, deciding which
  correlator shapes close into differential equations;
* ``bpz_spec`` emits the third-order generalized-hypergeometric data
  (``HypergeometricSpec``) for the two closed families: a bulk weight
  paired with a semi-degenerate boundary weight, and a four-point boundary
  correlator with one semi-degenerate weight;
* ``mu_condition_check`` tests the boundary-measure matching constraints
  under which the level-2 and level-3 singular combinations become null
  and the degenerate probe's descendants turn into differential operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import cos, isclose, pi, sin

from .algebra_core import (
    E2,
    H1,
    H2,
    OMEGA1,
    AlgebraError,
    CartanVector,
    CFrac,
    Record,
    _HVECS,
    background_charge,
    inner,
    poly_add,
    poly_eval,
    poly_from_shifts,
    q_of_gamma,
    variable,
)
from .descendant_forms import (
    Weight,
    l_form,
    miura_w_form,
    screening_branch,
)
from .free_field import (
    CorrelatorConfig,
    InsertionPairings,
    PoleSumTable,
    _exact_complex,
    doubled_insertions,
    engine_spin,
    engine_weight,
)

def weight_ray(vector: CartanVector):
    """``"omega1"``/``"omega2"`` if the nonzero vector lies on a
    fundamental-weight ray, else ``None``."""
    if vector.is_zero:
        return None
    if vector.c1 == 2 * vector.c2:
        return "omega1"
    if vector.c2 == 2 * vector.c1:
        return "omega2"
    return None


# ---------------------------------------------------------------------------
# Local mode expansion at a real probe point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoleTerm(Record):
    """One term  coefficient * X_k / (z_k - t)^pole_order  of a local
    expansion; ``kind`` selects X_k: ``"derivative"`` for d/dz_k acting on
    the correlator, ``"w1"``/``"w2"`` for the tagged spin-3 descendant
    ratios, ``"scalar"`` for the correlator itself."""

    insertion: int
    kind: str
    pole_order: int
    coefficient: object


@dataclass(frozen=True)
class LocalWardRhs(Record):
    """Pole expansions of the mode-``n`` stress-tensor and spin-3 current
    insertions at the probe, over the doubled insertion list."""

    mode: int
    probe: CFrac
    virasoro: tuple
    spin3: tuple

    def coefficient(self, current: str, insertion: int, kind: str,
                    pole_order: int):
        terms = self.virasoro if current == "virasoro" else self.spin3
        for t in terms:
            if (t.insertion, t.kind, t.pole_order) == (insertion, kind, pole_order):
                return t.coefficient
        return Fraction(0)


def local_ward_rhs(n: int, t, cfg: CorrelatorConfig) -> LocalWardRhs:
    """Pole expansion of the mode-``n`` current insertions at real ``t``
    (an exact real, a float, a "p/q" string, or a real ``CFrac``).

    Stress tensor: -1 on the position derivative at order n-1 and
    (n-1) * weight constant at order n.  Spin-3 current: -1 on the level-2
    descendant at order n-2, (n-2) on the level-1 descendant at order n-1,
    and -(n-1)(n-2)/2 * spin constant at order n.  Zero coefficients are
    dropped.  Pole order p stands for the factor (z_k - t)^(-p); p <= 0
    encodes polynomial growth.
    """
    if not isinstance(n, int) or n < 1:
        raise AlgebraError(f"mode index must be a positive integer, got {n!r}")
    probe = _exact_complex(t, "probe")
    if not probe.is_real:
        raise AlgebraError(f"probe: must be real, got {probe!r}")
    q = cfg.q
    virasoro = []
    spin3 = []
    for k, (zk, wk) in enumerate(doubled_insertions(cfg)):
        if zk == probe:
            raise AlgebraError(
                f"probe point coincides with doubled insertion {k}")
        virasoro.append(PoleTerm(k, "derivative", n - 1, Fraction(-1)))
        if n >= 2:
            virasoro.append(PoleTerm(
                k, "scalar", n, (n - 1) * engine_weight(wk, q)))
        spin3.append(PoleTerm(k, "w2", n - 2, Fraction(-1)))
        if n != 2:
            spin3.append(PoleTerm(k, "w1", n - 1, Fraction(n - 2)))
        if n >= 3:
            spin3.append(PoleTerm(
                k, "scalar", n,
                Fraction(-(n - 1) * (n - 2), 2) * engine_spin(wk, q)))
    virasoro = [t for t in virasoro if t.coefficient != 0]
    spin3 = [t for t in spin3 if t.coefficient != 0]
    return LocalWardRhs(n, probe, tuple(virasoro), tuple(spin3))


def free_field_descendants(cfg: CorrelatorConfig, indices=None) -> dict:
    """Exact zero-measure values of the quantities a constraint row can
    reference, per doubled index: ``"derivative"`` holds the level-1
    derivative ratio, ``"w1"``/``"w2"`` the spin-3 descendant ratios.  The
    three forms at an insertion read one ``PoleSumTable``, and the tables
    share one ``InsertionPairings``.  The forms are built once per distinct
    weight, since a bulk point and its mirror share one; weights are
    unhashable, so a short list is searched by ``==``."""
    insertions = doubled_insertions(cfg)
    if indices is None:
        indices = range(len(insertions))
    q = cfg.q
    out = {"derivative": {}, "w1": {}, "w2": {},
           "positions": {k: z for k, (z, _) in enumerate(insertions)}}
    pairs = InsertionPairings(insertions)
    built = []
    for k in indices:
        sums = PoleSumTable(pairs, k)
        wk = insertions[k][1]
        forms = next((f for w, f in built if w == wk), None)
        if forms is None:
            forms = (l_form((1,), wk, q=q), miura_w_form(1, wk, q=q),
                     miura_w_form(2, wk, q=q))
            built.append((wk, forms))
        for key, form in zip(("derivative", "w1", "w2"), forms):
            out[key][k] = sums.ratio(form)
    return out


def evaluate_pole_terms(terms, probe: CFrac, values: dict) -> CFrac:
    """Sum  coefficient * X_k * (z_k - probe)^(-pole_order)  with X_k read
    from ``values`` (``"scalar"`` terms take X_k = 1).  ``values`` must also
    carry the doubled positions under the key ``"positions"``."""
    positions = values["positions"]
    total = CFrac(0)
    for term in terms:
        zk = positions[term.insertion]
        if term.kind == "scalar":
            x = CFrac(1)
        else:
            x = values[term.kind][term.insertion]
        factor = (zk - probe) ** (-term.pole_order)
        total = total + CFrac.of(term.coefficient) * x * factor
    return total


# ---------------------------------------------------------------------------
# Global constraint rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DescendantTag(Record):
    """Unknown label: the level-``order`` spin-3 descendant ratio at doubled
    insertion ``insertion``; ``mirror_of`` marks reflected bulk copies,
    whose value is the conjugated anti-holomorphic descendant of the listed
    original insertion."""

    insertion: int
    order: int
    mirror_of: object = None


@dataclass(frozen=True)
class RowTerm(Record):
    unknown: int
    coefficient: CFrac


@dataclass(frozen=True)
class AffineTerm(Record):
    """Affine part of a row: ``"derivative"`` terms multiply d/dz_k acting
    on the correlator, ``"scalar"`` terms multiply the correlator itself."""

    insertion: int
    kind: str
    coefficient: CFrac


@dataclass(frozen=True)
class WardRow(Record):
    current: str
    index: int
    entries: tuple
    affine: tuple


@dataclass(frozen=True)
class WardSystem(Record):
    """Global constraint rows as a linear system in the tagged spin-3
    descendant unknowns (two per doubled insertion, 4N + 2M in total):
    three stress-tensor rows (index 0..2, no unknowns, derivative plus
    scalar affine parts) and five spin-3 rows (index 0..4)."""

    positions: tuple
    weights: tuple
    n_bulk: int
    n_boundary: int
    unknowns: tuple
    rows: tuple
    reductions: dict

    def residuals(self, values: dict) -> tuple:
        """Row residuals under the substitution ``values`` (same layout as
        ``free_field_descendants`` output)."""
        out = []
        for row in self.rows:
            total = CFrac(0)
            for term in row.entries:
                tag = self.unknowns[term.unknown]
                total = total + term.coefficient * values[f"w{tag.order}"][tag.insertion]
            for term in row.affine:
                if term.kind == "scalar":
                    total = total + term.coefficient
                else:
                    total = total + term.coefficient * values["derivative"][term.insertion]
            out.append(total)
        return tuple(out)


def global_ward_system(cfg: CorrelatorConfig) -> WardSystem:
    """Assemble the 3 + 5 global constraint rows over the doubled list.

    Stress-tensor row n (0..2): sum_k z_k^n * (d/dz_k) + n z_k^(n-1) *
    weight constant = 0.  Spin-3 row m (0..4): sum_k z_k^m * (level-2
    unknown) + m z_k^(m-1) * (level-1 unknown) + m(m-1)/2 z_k^(m-2) * spin
    constant = 0.  Degeneracy-reduction counts are attached: each bulk
    weight on a fundamental ray is worth two unknowns, each boundary one.
    """
    if not (cfg.neutral or cfg.seiberg_ok):
        raise AlgebraError(
            "global constraint rows need a neutral or integrable configuration")
    insertions = doubled_insertions(cfg)
    positions = tuple(z for z, _ in insertions)
    weights = tuple(w for _, w in insertions)
    n, m_bdry = cfg.n_bulk, cfg.n_boundary
    q = cfg.q

    unknowns = []
    for k in range(len(insertions)):
        mirror = k - n if n <= k < 2 * n else None
        unknowns.append(DescendantTag(k, 1, mirror))
        unknowns.append(DescendantTag(k, 2, mirror))

    # per insertion: z^0..z^4 by running product, weight and spin constants
    powers = []
    for zk in positions:
        pw = [CFrac(1)]
        for _ in range(4):
            pw.append(pw[-1] * zk)
        powers.append(pw)
    h = [engine_weight(w, q) for w in weights]
    s3 = [CFrac.of(engine_spin(w, q)) for w in weights]

    rows = []
    for idx in range(3):
        affine = []
        for k, pw in enumerate(powers):
            affine.append(AffineTerm(k, "derivative", pw[idx]))
            if idx >= 1:
                c = CFrac.of(idx * h[k]) * pw[idx - 1]
                if c != 0:
                    affine.append(AffineTerm(k, "scalar", c))
        rows.append(WardRow("virasoro", idx, (), tuple(affine)))
    for idx in range(5):
        entries = []
        affine = []
        for k, pw in enumerate(powers):
            c2 = pw[idx]
            if c2 != 0:
                entries.append(RowTerm(2 * k + 1, c2))
            if idx >= 1:
                c1 = CFrac.of(idx) * pw[idx - 1]
                if c1 != 0:
                    entries.append(RowTerm(2 * k, c1))
            if idx >= 2:
                c0 = (CFrac.of(Fraction(idx * (idx - 1), 2))
                      * pw[idx - 2] * s3[k])
                if c0 != 0:
                    affine.append(AffineTerm(k, "scalar", c0))
        rows.append(WardRow("spin3", idx, tuple(entries), tuple(affine)))

    bulk_semi = sum(1 for _, a in cfg.bulk if weight_ray(a) is not None)
    boundary_semi = sum(1 for _, b in cfg.boundary if weight_ray(b) is not None)
    reductions = {"bulk_semi_degenerate": bulk_semi,
                  "boundary_semi_degenerate": boundary_semi,
                  "eliminable": 2 * bulk_semi + boundary_semi}
    return WardSystem(positions, weights, n, m_bdry, tuple(unknowns),
                      tuple(rows), reductions)


def free_field_residuals(cfg: CorrelatorConfig) -> tuple:
    """Residuals of the eight global rows under the exact zero-measure
    descendant values; all vanish on doubled-neutral configurations."""
    system = global_ward_system(cfg)
    return system.residuals(free_field_descendants(cfg))


# ---------------------------------------------------------------------------
# Closability counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosabilityReport(Record):
    n_bulk: int
    n_boundary: int
    bulk_semi: int
    boundary_semi: int
    unknowns: int
    deficit: int
    closable: bool


def closability_deficit(n_bulk: int, n_boundary: int, bulk_semi: int,
                        boundary_semi: int) -> int:
    """Unknowns left after the five spin-3 rows and the degeneracy
    reductions: 4N + 2M - 5 - 2*(bulk semi) - (boundary semi).  The probe's
    own two descendants are excluded up front: under the measure matching
    constraints they are differential operators, never unknowns."""
    if not 0 <= bulk_semi <= n_bulk:
        raise AlgebraError(
            f"bulk semi-degenerate count {bulk_semi} outside 0..{n_bulk}")
    if not 0 <= boundary_semi <= n_boundary:
        raise AlgebraError(
            f"boundary semi-degenerate count {boundary_semi} outside 0..{n_boundary}")
    return 4 * n_bulk + 2 * n_boundary - 5 - 2 * bulk_semi - boundary_semi


def closable(bulk, boundary) -> ClosabilityReport:
    """Closability report for tagged weights; ``boundary`` must contain
    exactly one fully degenerate entry (the probe, not counted)."""
    bulk = tuple(bulk)
    boundary = tuple(boundary)
    for w in bulk + boundary:
        if not isinstance(w, Weight):
            raise AlgebraError(
                "closability counting takes tagged Weight entries")
    if any(w.tag == "fully_degenerate" for w in bulk):
        raise AlgebraError(
            "the counting covers a boundary probe only; found a fully "
            "degenerate weight in the bulk list")
    probes = sum(1 for w in boundary if w.tag == "fully_degenerate")
    if probes != 1:
        raise AlgebraError(
            "the counting needs exactly one fully degenerate boundary probe, "
            f"found {probes}")
    others = tuple(w for w in boundary if w.tag != "fully_degenerate")
    n, m = len(bulk), len(others)
    bulk_semi = sum(1 for w in bulk if w.tag == "semi_degenerate")
    boundary_semi = sum(1 for w in others if w.tag == "semi_degenerate")
    deficit = closability_deficit(n, m, bulk_semi, boundary_semi)
    return ClosabilityReport(n, m, bulk_semi, boundary_semi,
                             4 * n + 2 * m, deficit, deficit <= 0)


@dataclass(frozen=True)
class ScanCase(Record):
    n_bulk: int
    n_boundary: int
    bulk_semi: int
    boundary_semi: int
    deficit: int
    closable: bool


def closable_scan(max_bulk: int = 1, max_boundary: int = 3) -> tuple:
    """All degeneracy patterns (by semi-degenerate counts) for up to
    ``max_bulk`` bulk and ``max_boundary`` boundary insertions besides the
    probe, with their deficits."""
    cases = []
    for n in range(max_bulk + 1):
        for m in range(max_boundary + 1):
            for bs in range(n + 1):
                for ms in range(m + 1):
                    d = closability_deficit(n, m, bs, ms)
                    cases.append(ScanCase(n, m, bs, ms, d, d <= 0))
    return tuple(cases)


def principal_cases(cases=None) -> tuple:
    """Closable patterns that are position-rigid and minimally degenerate.

    Position-rigid: 2N + M = 3, so the half-plane symmetries fix every
    insertion and the correlator is a pure constant before the probe is
    added.  Minimally degenerate: turning any single semi-degenerate
    insertion generic breaks closability.  Within N <= 1, M <= 3 exactly
    three patterns survive: one generic bulk with one semi-degenerate
    boundary, one semi-degenerate bulk with one generic boundary, and two
    generic with one semi-degenerate boundary.
    """
    if cases is None:
        cases = closable_scan()
    out = []
    for c in cases:
        if 2 * c.n_bulk + c.n_boundary != 3 or not c.closable:
            continue
        minimal = True
        if c.bulk_semi > 0 and closability_deficit(
                c.n_bulk, c.n_boundary, c.bulk_semi - 1, c.boundary_semi) <= 0:
            minimal = False
        if c.boundary_semi > 0 and closability_deficit(
                c.n_bulk, c.n_boundary, c.bulk_semi, c.boundary_semi - 1) <= 0:
            minimal = False
        if minimal:
            out.append(c)
    return tuple(out)


# ---------------------------------------------------------------------------
# Boundary-measure matching constraints
# ---------------------------------------------------------------------------

def _measures_close(a, b, tol: float) -> bool:
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return a == b
    return isclose(float(a), float(b), rel_tol=tol, abs_tol=tol)


def mu_condition_check(chi, gamma, mu_left, mu_right, mu_bulk1,
                       tol: float = 1e-12) -> bool:
    """Whether the boundary measures around a fully degenerate insertion
    satisfy the matching constraint of the chosen screening branch.

    Both branches need equal second measures.  On the 2/gamma branch the
    first measures must be opposite; on the gamma branch they must satisfy
    the quadratic relation whose angle is pi*gamma^2/2, sourced by the
    first bulk measure.
    """
    branch, _ = screening_branch(chi, gamma)
    ml1, ml2 = mu_left
    mr1, mr2 = mu_right
    if not _measures_close(ml2, mr2, tol):
        return False
    if branch == "2/gamma":
        return _measures_close(ml1, -mr1, tol)
    theta = pi * float(gamma) ** 2 / 2
    lhs = float(ml1) ** 2 + float(mr1) ** 2 - 2 * float(ml1) * float(mr1) * cos(theta)
    rhs = float(mu_bulk1) * sin(theta)
    return isclose(lhs, rhs, rel_tol=tol, abs_tol=tol)


# ---------------------------------------------------------------------------
# Hypergeometric reductions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypergeometricSpec(Record):
    """Data of the third-order operator
    u * (A1 + u d)(A2 + u d)(A3 + u d) - (B1 - 1 + u d)(B2 - 1 + u d) u d
    together with the prefactor exponents and the argument variable of the
    reduced correlator family."""

    family: str
    chi: object
    a: tuple
    b: tuple
    prefactors: tuple
    variable: str

    def operator_terms(self) -> tuple:
        """Euler-form encoding: entries (scale, u_power, shifts) stand for
        scale * u^u_power * prod_s (theta + s) with theta = u d/du."""
        b1, b2 = self.b
        return ((Fraction(1), 1, tuple(self.a)),
                (Fraction(-1), 0, (Fraction(0), b1 - 1, b2 - 1)))


def indicial_polynomial(spec: HypergeometricSpec) -> tuple:
    """Coefficients (low degree first) of the indicial polynomial at 0,
    expanded from the operator terms that carry no power of the variable."""
    coeffs = ()
    for scale, u_power, shifts in spec.operator_terms():
        if u_power == 0:
            coeffs = poly_add(coeffs, poly_from_shifts(scale, shifts))
    return coeffs


def indicial_exponents(spec: HypergeometricSpec) -> tuple:
    """Exponent set {0, 1 - B1, 1 - B2} at the origin, verified against the
    indicial polynomial derived from the operator terms."""
    b1, b2 = spec.b
    candidates = (Fraction(0), 1 - b1, 1 - b2)
    poly = indicial_polynomial(spec)
    if len(poly) != 4:
        raise AlgebraError("indicial polynomial is not cubic")
    for sigma in candidates:
        if poly_eval(poly, sigma) != 0:
            raise AlgebraError(
                f"indicial candidate {sigma!r} is not a root of the derived "
                "indicial polynomial")
    return candidates


def _semi_boundary_weight(w: CartanVector, where: str) -> CartanVector:
    if weight_ray(w) != "omega2":
        raise AlgebraError(
            f"{where}: the semi-degenerate boundary weight must lie on the "
            "omega_2 ray")
    return w


def bpz_spec(family: str, weights, chi, gamma=None, *,
             degenerate_mu_ok: bool = True,
             semi_mu_ok: bool = True) -> HypergeometricSpec:
    """Hypergeometric data for the two correlator families that close.

    ``family="bulk_boundary"``: ``weights = (alpha, beta_star)`` for one
    bulk weight at i and one semi-degenerate boundary weight at infinity;
    argument u(t) = 1/(1+t^2), prefactor |t-i| to the exponent
    -<probe weight, alpha>.  ``family="boundary_4pt"``: ``weights =
    (beta1, beta2, beta_star)`` for boundary weights at 0, infinity, 1;
    argument t, prefactors |t| and |t-1|.  ``chi`` is the branch name or a
    numeric screening scale; the probe weight is -chi * omega_1.

    The flags assert the measure constraints: ``degenerate_mu_ok`` that the
    measures around the probe satisfy the matching constraint of the
    branch, ``semi_mu_ok`` that the first boundary measure is continuous
    across the semi-degenerate insertion.  A false flag is refused.
    """
    branch, chi_val = screening_branch(chi, gamma)
    if not degenerate_mu_ok:
        if branch == "2/gamma":
            named = ("equal second measures and opposite first measures "
                     "around the probe")
        else:
            named = ("equal second measures and the quadratic first-measure "
                     "relation around the probe")
        raise AlgebraError(f"refused: the {branch} branch needs {named}")
    if not semi_mu_ok:
        raise AlgebraError(
            "refused: the first boundary measure must be continuous across "
            "the semi-degenerate insertion")
    q = q_of_gamma(gamma)
    Qv = background_charge(q)
    probe_weight = (-1) * (chi_val * OMEGA1)

    if family == "bulk_boundary":
        if len(weights) != 2:
            raise AlgebraError(
                "bulk_boundary takes (bulk weight, semi-degenerate boundary weight)")
        alpha, beta_star = weights
        _semi_boundary_weight(beta_star, "weights[1]")
        charge = 2 * alpha + beta_star + probe_weight - 2 * Qv
        a = tuple(
            chi_val * Fraction(1, 4) * inner(H1, charge)
            + chi_val * Fraction(1, 2) * inner(H1 - h, Qv - alpha)
            for h in _HVECS)
        b = (Fraction(1, 2),
             1 + chi_val * Fraction(1, 4) * inner(E2, beta_star - 2 * Qv))
        prefactors = (("i", -inner(probe_weight, alpha)),)
        return HypergeometricSpec("bulk_boundary", chi_val, a, b, prefactors,
                                  "1/(1+t^2)")

    if family == "boundary_4pt":
        if len(weights) != 3:
            raise AlgebraError(
                "boundary_4pt takes (beta1, beta2, semi-degenerate boundary weight)")
        beta1, beta2, beta_star = weights
        _semi_boundary_weight(beta_star, "weights[2]")
        charge = beta1 + beta2 + probe_weight + beta_star - 2 * Qv
        a = tuple(
            chi_val * Fraction(1, 2) * inner(H1, charge)
            + chi_val * Fraction(1, 2) * inner(h - H1, beta1 - Qv)
            for h in _HVECS)
        b = tuple(
            1 + chi_val * Fraction(1, 2) * inner(H1 - h, beta2 - Qv)
            for h in (H1, H2))
        prefactors = (("0", chi_val * Fraction(1, 2) * inner(OMEGA1, beta1)),
                      ("1", chi_val * Fraction(1, 2) * inner(OMEGA1, beta2)))
        return HypergeometricSpec("boundary_4pt", chi_val, a, b, prefactors, "t")

    raise AlgebraError(
        f"unknown family {family!r}; expected 'bulk_boundary' or 'boundary_4pt'")
