"""Degenerate-weight null combinations and their boundary right-hand sides.

At a semi-degenerate weight (kappa times a fundamental weight) the level-one
spin-3 form is a multiple of the level-one Virasoro form; at a fully
degenerate weight (-chi * omega_1, chi in {gamma, 2/gamma}) the level-two and
level-three spin-3 forms reduce to Virasoro-type combinations.  Each
reduction yields a null combination ``psi`` with exact rational coefficients:
``build_singular`` produces the combination and ``verify_null_form``
re-assembles it through the form layer, returning a residual polynomial that
must vanish identically.

On a boundary the null combinations do not annihilate correlation functions;
the mismatch is a sum of primary fields at shifted weights, some entering
through a first-order substitution a*L_{-1} + b*W_{-1}.  ``solve_d1`` solves
the two-by-two systems that pin (a, b), ``eom_constant`` evaluates the
Gamma-factor constants multiplying the shifted primaries, and ``eom_rhs``
assembles the full predicted right-hand side from the measure weights of a
correlator configuration.  A recorded (but unvalidated) second-order
substitution is exposed through ``d2_table``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra_core import (
    E1,
    E2,
    RHO,
    AlgebraError,
    CartanVector,
    Record,
    conformal_weight,
    encode,
    q_of_gamma,
    spin,
    variable,
)
from .descendant_forms import (
    FieldMonomial,
    FieldPolynomial,
    Weight,
    combine,
    l_form,
    miura_w_form,
    screening_branch,
)

#: Key used for the spin-3 form in a coefficient map; every other key is a
#: derivative multi-index (tuple) naming a Virasoro-type form of the level.
W_KEY = "W"

_LEVEL_PARTITIONS = {1: ((1,),), 2: ((1, 1), (2,)), 3: ((3,), (1, 2), (1, 1, 1))}

_M1 = FieldMonomial(((1, 1),))
_M2 = FieldMonomial(((1, 2),))


@dataclass(frozen=True)
class SingularVectorSpec:
    """Null combination W_{-n} + sum over lam of c_lam * L_{-lam} at a weight.

    ``coefficients`` maps each derivative multi-index (tuple) to its exact
    scalar coefficient, plus the key ``"W"`` (always 1) for the spin-3 form.
    """

    level: int
    weight: Weight
    coefficients: dict

    def __post_init__(self):
        if self.level not in (1, 2, 3):
            raise AlgebraError(
                f"singular combinations exist at levels 1, 2, 3, got {self.level}")
        needed = "semi_degenerate" if self.level == 1 else "fully_degenerate"
        if self.weight.tag != needed:
            raise AlgebraError(
                f"level-{self.level} singular combination needs a {needed} "
                f"weight, got tag {self.weight.tag!r}")

    def to_json(self) -> dict:
        """The field walk, with each multi-index key written as "1,1"."""
        return {"level": self.level, "weight": encode(self.weight),
                "coefficients": {
                    key if key == W_KEY else ",".join(map(str, key)): encode(c)
                    for key, c in self.coefficients.items()}}


SingularVectorSpec.__hash__ = None


def build_singular(level: int, weight: Weight, q=None) -> SingularVectorSpec:
    """Null combination of the given level at a degenerate weight.

    Level one needs a semi-degenerate weight; its Virasoro coefficient is
    -3*spin/(2*conformal_weight) evaluated at the weight, with a symbolic
    background scalar ``q`` unless one is passed.  Levels two and three need
    a fully degenerate weight; their coefficients are rational in the
    screening scale chi alone.
    """
    if level not in (1, 2, 3):
        raise AlgebraError(
            f"singular combinations exist at levels 1, 2, 3, got {level}")
    if level == 1:
        if weight.tag != "semi_degenerate":
            raise AlgebraError(
                "level-1 singular combination needs a semi-degenerate weight, "
                f"got tag {weight.tag!r}")
        qs = variable("q") if q is None else q
        delta = conformal_weight(weight.vector, qs)
        if delta == 0:
            raise AlgebraError(
                "ratio undefined: the weight has vanishing conformal weight")
        ratio = 3 * spin(weight.vector, qs) / (2 * delta)
        coeffs = {W_KEY: Fraction(1), (1,): -ratio}
        return SingularVectorSpec(level, weight, coeffs)
    if weight.tag != "fully_degenerate":
        raise AlgebraError(
            f"level-{level} singular combination needs a fully degenerate "
            f"weight, got tag {weight.tag!r}")
    chi = weight.parameter
    if level == 2:
        coeffs = {W_KEY: Fraction(1), (1, 1): 4 / chi, (2,): 4 * chi / Fraction(3)}
    else:
        coeffs = {
            W_KEY: Fraction(1),
            (3,): chi / Fraction(3) + 2 / chi,
            (1, 2): -4 / chi,
            (1, 1, 1): -8 / chi ** 3,
        }
    return SingularVectorSpec(level, weight, coeffs)


def verify_null_form(spec: SingularVectorSpec, q=None) -> FieldPolynomial:
    """Re-assemble the stored combination through the form layer.

    Returns the canonical residual polynomial, identically zero when the
    spin-3 realization is consistent.  Level one keeps ``q`` symbolic by
    default (matching ``build_singular``); levels two and three evaluate at
    the background scalar chi + 2/chi forced by the degeneracy.
    """
    vec = spec.weight.vector
    if spec.level == 1:
        qv = variable("q") if q is None else q
    elif q is None:
        chi = spec.weight.parameter
        qv = chi + 2 / chi
    else:
        qv = q
    coeffs = [spec.coefficients[W_KEY]]
    forms = [miura_w_form(spec.level, vec, qv)]
    for lam in _LEVEL_PARTITIONS[spec.level]:
        if lam in spec.coefficients:
            coeffs.append(spec.coefficients[lam])
            forms.append(l_form(lam, vec, qv))
    return combine(coeffs, forms)


def solve_d1(target: CartanVector, base: CartanVector, q=None):
    """Exact (a, b) with a*L_{-1}^base + b*W_{-1}^base = <target, .>.

    Both level-one forms are linear in the derivative field, so this is a
    two-by-two linear system over exact scalars.  The default background
    scalar is gamma + 2/gamma with gamma symbolic.
    """
    qv = q_of_gamma() if q is None else q
    lf = l_form((1,), base, qv)
    wf = miura_w_form(1, base, qv)
    tf = l_form((1,), target, qv)
    l1, l2 = lf.terms.get(_M1, 0), lf.terms.get(_M2, 0)
    w1, w2 = wf.terms.get(_M1, 0), wf.terms.get(_M2, 0)
    t1, t2 = tf.terms.get(_M1, 0), tf.terms.get(_M2, 0)
    det = l1 * w2 - l2 * w1
    if det == 0:
        raise AlgebraError(
            "singular level-1 system: the spin-3 form is proportional to the "
            "derivative form at this base weight")
    a = (t1 * w2 - t2 * w1) / det
    b = (l1 * t2 - l2 * t1) / det
    residual = combine([a, b, -1], [lf, wf, tf])
    if not residual.is_zero:
        raise AlgebraError(
            f"level-1 solve failed to reconstruct the target: {residual!r}")
    return a, b


def eom_constant(name: str, gamma: float, mu_l1: float, mu_r1: float,
                 mu_b1: float) -> float:
    """Gamma-factor constant multiplying a shifted primary on the boundary.

    ``name`` selects the full constant ``"c"`` or its two pieces ``"c1"``
    (the bulk-measure part) and ``"c2"`` (the quadratic boundary-measure
    part); the pieces carry an indicator vanishing for gamma >= 1, so that
    c * [gamma < 1] == c1 + c2 identically.
    """
    gamma = float(gamma)
    if not 0.0 < gamma < math.sqrt(2.0):
        raise AlgebraError(f"gamma must lie in (0, sqrt(2)), got {gamma}")
    g2 = gamma * gamma
    if abs(g2 - 1.0) < 1e-12:
        raise AlgebraError(
            "degenerate coupling: gamma^2 = 1 is a pole of the Gamma factor")
    gfac = math.gamma(g2 / 2) * math.gamma(1 - g2) / math.gamma(1 - g2 / 2)
    sin_, cos_ = math.sin(math.pi * g2 / 2), math.cos(math.pi * g2 / 2)
    quad = (float(mu_l1) ** 2 + float(mu_r1) ** 2
            - 2 * float(mu_l1) * float(mu_r1) * cos_)
    if name == "c":
        return (quad - float(mu_b1) * sin_) * gfac
    cut = 1.0 if gamma < 1.0 else 0.0
    if name == "c1":
        return -float(mu_b1) * sin_ * gfac * cut
    if name == "c2":
        return quad * gfac * cut
    raise AlgebraError(
        f"unknown constant name {name!r}; expected 'c', 'c1' or 'c2'")


@dataclass(frozen=True)
class D2Table(Record):
    """Recorded second-order substitution at a shifted weight.

    ``polynomial`` is the level-two combination acting on the shifted
    primary; it is stored as given and is not validated against any
    level-three identity, hence ``status`` stays ``"unverified"``.
    """

    weight: Weight
    shifted: CartanVector
    polynomial: FieldPolynomial
    status: str = "unverified"


D2Table.__hash__ = None


def d2_table(weight: Weight, gamma=None) -> D2Table:
    """Second-order substitution D_{-2} at the shifted weight beta + gamma*e2.

    With beta = -chi * omega_1 the substitution acts as
    (8/chi^3) <3 beta + gamma e2, u> + (4/chi) <Q + beta + gamma e2, u> on
    the second-derivative slot and as
    (8/chi^3) (3<beta,u><beta,v> + (3/2)(<beta,u><g e2,v> + <beta,v><g e2,u>)
    + <g e2,u><g e2,v>) - (4/chi) <u,v> on the bilinear slot.  The result is
    returned as a level-two polynomial, marked unverified.
    """
    g = variable("gamma") if gamma is None else gamma
    if weight.tag != "fully_degenerate":
        raise AlgebraError(
            "second-order substitution is recorded for fully degenerate "
            f"weights, got tag {weight.tag!r}")
    chi = weight.parameter
    screening_branch(chi, g)
    beta = weight.vector
    sg = g * E2
    shifted = beta + sg
    qv = q_of_gamma(g)
    c8, c4 = 8 / chi ** 3, 4 / chi
    poly = combine(
        [c8 * Fraction(3, 2), c8 * Fraction(3, 2), c8 * Fraction(-1, 2), c4],
        [l_form((1, 1), shifted), l_form((1, 1), beta), l_form((1, 1), sg),
         l_form((2,), shifted, qv)],
    )
    return D2Table(weight, shifted, poly)


@dataclass(frozen=True)
class EomTerm(Record):
    """One predicted term: a coefficient times a (substituted) primary field.

    ``kind`` is ``"primary"`` for a plain shifted-weight field, ``"D1"`` for
    the first-order substitution a*L_{-1} + b*W_{-1} applied to it, and
    ``"D2"`` for the recorded (unverified) second-order substitution.
    """

    kind: str
    coefficient: object
    weight: CartanVector
    a: object = None
    b: object = None


EomTerm.__hash__ = None


@dataclass(frozen=True)
class EomRecord(Record):
    """Predicted boundary right-hand side for one null combination."""

    level: int
    weight: Weight
    status: str
    terms: tuple
    notes: tuple = ()
    d2: D2Table = None


EomRecord.__hash__ = None


def _locate_insertion(weight: Weight, cfg, at):
    if at is None:
        matches = [l for l, (_s, beta) in enumerate(cfg.boundary)
                   if beta == weight.vector]
        if not matches:
            raise AlgebraError(
                "no boundary insertion carries the requested weight vector")
        return matches[0]
    if not 0 <= at < len(cfg.boundary):
        raise AlgebraError(
            f"boundary index {at} out of range for {len(cfg.boundary)} points")
    if cfg.boundary[at][1] != weight.vector:
        raise AlgebraError(
            f"boundary insertion {at} does not carry the requested weight vector")
    return at


def eom_rhs(level: int, weight: Weight, cfg, at=None) -> EomRecord:
    """Predicted right-hand side for the null combination at a boundary point.

    The insertion is located by matching ``weight.vector`` against the
    boundary weights of ``cfg`` (or taken at index ``at``); the measure
    weights of the arcs left and right of that point, together with the first
    bulk measure weight, assemble the coefficients.  All structural terms are
    kept, including those with vanishing coefficients.  Level three is fully
    recorded only when the second boundary measure matches across the
    insertion; otherwise the record is returned with a "not covered" status.
    """
    build_singular(level, weight)
    at = _locate_insertion(weight, cfg, at)
    mu_l, mu_r = cfg.mu_left(at), cfg.mu_right(at)
    g = cfg.gamma
    qv = q_of_gamma(g)
    beta = weight.vector

    if level == 1:
        if weight.index != 1:
            raise AlgebraError(
                "boundary right-hand sides are recorded for semi-degenerate "
                "weights along omega_1 only")
        coeff = 2 * (qv - weight.parameter) * (mu_l[1] - mu_r[1])
        term = EomTerm("primary", coeff, beta + g * E2)
        return EomRecord(1, weight, "ok", (term,))

    branch, _ = screening_branch(weight.parameter, g)
    notes = []

    if level == 2:
        a, b = solve_d1(3 * beta + g * E2, beta + g * E2, qv)
        if branch == "2/gamma":
            d1 = EomTerm("D1", 2 * g * (mu_r[1] - mu_l[1]), beta + g * E2, a, b)
            prim = EomTerm("primary",
                           2 * (2 / g - g) * (mu_l[0] + mu_r[0]),
                           beta + g * E1)
        else:
            d1 = EomTerm("D1", (4 / g) * (mu_r[1] - mu_l[1]), beta + g * E2, a, b)
            if g < 1:
                cg = eom_constant("c", float(g), float(mu_l[0]), float(mu_r[0]),
                                  float(cfg.mu_bulk[0]))
                prim_coeff = 2 * float(g) * cg
            else:
                prim_coeff = 0.0
                notes.append("shifted primary term vanishes for gamma >= 1")
            prim = EomTerm("primary", prim_coeff, beta + 2 * g * E1)
        return EomRecord(2, weight, "ok", (d1, prim), tuple(notes))

    # level 3: composition of -(2/chi^2) times the first-order substitution
    # with the level-2 right-hand side, valid when the second boundary
    # measure matches across the insertion.
    table = d2_table(weight, g)
    if branch == "2/gamma":
        a, b = solve_d1(g * E1 - (2 / g) * RHO, beta + g * E1, qv)
        main = EomTerm("D1",
                       g * g * (g - 2 / g) * (mu_l[0] + mu_r[0]),
                       beta + g * E1, a, b)
    else:
        a, b = solve_d1(g * E1 - g * E2, beta + g * E1, qv)
        if g < 1:
            cg = eom_constant("c", float(g), float(mu_l[0]), float(mu_r[0]),
                              float(cfg.mu_bulk[0]))
            main_coeff = -(4 / float(g)) * cg
        else:
            main_coeff = 0.0
            notes.append("shifted primary term vanishes for gamma >= 1")
        main = EomTerm("D1", main_coeff, beta + 2 * g * E1, a, b)
    d2term = EomTerm("D2", mu_l[1] - mu_r[1], beta + g * E2)
    notes.append("the 'D2' term comes from a recorded, unverified identity")
    if mu_l[1] == mu_r[1]:
        status = "ok"
    else:
        status = ("not covered: the second boundary measure differs across "
                  "the insertion")
    return EomRecord(3, weight, status, (main, d2term), tuple(notes), table)
