"""Multilinear forms in derivative fields and the realization of spin-3 forms.

The building block is the pairing of a root-space vector against the p-th
holomorphic derivative of the two-component field: monomials are finite
products of factors ``<e_i, d^p Phi>`` and polynomials attach exact scalar
coefficients (``Fraction`` or ``RatFunc``) to them.  Every polynomial is
homogeneous: all monomials share one total derivative degree (the "level").
Its JSON form lists the terms, each coefficient written by
``algebra_core.encode`` and read back by ``algebra_core.decode``.

Virasoro-type forms at levels up to three are produced from explicit closed
formulas (``l_form``).  The spin-3 forms (``miura_w_form``) are generated by
composing three first-order symbols ``(q/2)*d + <h_i, dPhi>`` with the
Leibniz rule, optionally shifting the cubic component by a multiple of the
derivative of the quadratic one, and converting each term's action on a
highest-weight vector into a multilinear form (``_read_form``).  The weight
alpha and the scalar q enter that reading only through q**qpow and the three
contracted products <h_i, alpha>, so it is done in two steps: a template
over Q, keyed by the power of q and the contracted h-indices, is built in
``Fraction`` arithmetic (``_sector_templates``), then alpha and q are
substituted into it (``_substitute``).  The frozen convention's templates
for W_{-1..3} are built once per process (``_frozen_template``).  The halved
derivative slot is pinned by an anchor: the quadratic component of the same
composition, read with normalization 2, reproduces the closed Virasoro
formulas.  ``test_spin2_anchor_matches_closed_formulas`` checks this; the
convention scan does not.  The finite space of sign/ordering conventions is
validated against three exact linear constraints and the unique passing
realization is cached (``miura_convention``); an ambiguous or empty search is
a hard error, never a silent pick.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

from .algebra_core import (
    OMEGA1,
    OMEGA2,
    RHO,
    AlgebraError,
    CartanVector,
    RatFunc,
    Record,
    _HVECS,
    _as_coeff,
    decode,
    encode,
    inner,
    q_of_gamma,
    variable,
)

# Inverse Cartan matrix, used to expand <d^p Phi, d^r Phi> over basis factors.
_AINV = (
    (Fraction(2, 3), Fraction(1, 3)),
    (Fraction(1, 3), Fraction(2, 3)),
)

_SUPPORTED = "(n,) for n >= 1, (1, 1), (1, 2), (1, 1, 1)"


@dataclass(frozen=True)
class FieldMonomial:
    """Product of factors <e_i, d^p Phi>, stored as a sorted tuple of (p, i)."""

    factors: tuple

    def __post_init__(self):
        fs = []
        for p, i in self.factors:
            p, i = int(p), int(i)
            if p < 1:
                raise AlgebraError(f"derivative order must be >= 1, got {p}")
            if i not in (1, 2):
                raise AlgebraError(f"basis index must be 1 or 2, got {i}")
            fs.append((p, i))
        object.__setattr__(self, "factors", tuple(sorted(fs)))

    @property
    def level(self) -> int:
        return sum(p for p, _ in self.factors)

    def times(self, other: "FieldMonomial") -> "FieldMonomial":
        return FieldMonomial(self.factors + other.factors)

    def __repr__(self):
        if not self.factors:
            return "1"
        return "*".join(f"<e{i},d{p}Phi>" for p, i in self.factors)


class FieldPolynomial:
    """Homogeneous polynomial in derivative-field factors with exact scalars.

    ``terms`` maps FieldMonomial to a nonzero scalar; the constructor drops
    zero coefficients and rejects mixed levels.  The zero polynomial has no
    terms and level ``None`` (compatible with every level).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        lev = None
        for m, c in (terms or {}).items():
            c = _as_coeff(c)
            if c == 0:
                continue
            if lev is None:
                lev = m.level
            elif m.level != lev:
                raise AlgebraError(
                    f"field polynomial mixes levels {lev} and {m.level}")
            clean[m] = c
        self.terms = clean

    @staticmethod
    def zero() -> "FieldPolynomial":
        return FieldPolynomial()

    @staticmethod
    def of(factors, coeff=1) -> "FieldPolynomial":
        return FieldPolynomial({FieldMonomial(tuple(factors)): coeff})

    @property
    def level(self):
        return next(iter(self.terms)).level if self.terms else None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, FieldPolynomial):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            prev = out.get(m)
            out[m] = c if prev is None else prev + c
        return FieldPolynomial(out)

    def __neg__(self):
        return FieldPolynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, FieldPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FieldPolynomial):
            out = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = m1.times(m2)
                    c = c1 * c2
                    prev = out.get(m)
                    out[m] = c if prev is None else prev + c
            return FieldPolynomial(out)
        try:
            c = _as_coeff(other)
        except AlgebraError:
            return NotImplemented
        return FieldPolynomial({m: v * c for m, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, FieldPolynomial):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[m] == other.terms[m] for m in self.terms)

    __hash__ = None

    def to_json(self) -> list:
        """[{"factors": [[p, i], ...], "coeff": encode(c)}, ...] in monomial
        order."""
        return [{"factors": encode(m.factors), "coeff": encode(c)}
                for m, c in sorted(self.terms.items(),
                                   key=lambda kv: kv[0].factors)]

    @staticmethod
    def from_json(data) -> "FieldPolynomial":
        return FieldPolynomial({
            FieldMonomial(tuple(map(tuple, entry["factors"]))):
                decode(entry["coeff"])
            for entry in data})

    def __repr__(self):
        if not self.terms:
            return "FieldPolynomial(0)"
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda kv: kv[0].factors):
            parts.append(f"({c})*{m!r}")
        return " + ".join(parts)


_WEIGHT_TAGS = ("generic", "semi_degenerate", "fully_degenerate")


@dataclass(frozen=True)
class Weight(Record):
    """Highest-weight vector together with its degeneracy class.

    ``generic`` weights carry no constraint.  ``semi_degenerate`` weights lie
    on a fundamental-weight ray, vector = parameter * omega_index with index
    in {1, 2}.  ``fully_degenerate`` weights sit at vector =
    -parameter * omega_1 where the parameter is the screening scale chi
    (one of gamma or 2/gamma).  Constructors fill the vector from the tag
    data; direct construction is validated for consistency.
    """

    vector: CartanVector
    tag: str = "generic"
    index: int = None
    parameter: object = None

    def __post_init__(self):
        if self.tag not in _WEIGHT_TAGS:
            raise AlgebraError(
                f"unknown weight tag {self.tag!r}; expected one of {_WEIGHT_TAGS}")
        if self.tag == "generic":
            if self.index is not None or self.parameter is not None:
                raise AlgebraError("generic weights carry no index or parameter")
            return
        if self.parameter is None:
            raise AlgebraError(f"{self.tag} weights need a scale parameter")
        if self.tag == "semi_degenerate":
            if self.index not in (1, 2):
                raise AlgebraError(
                    f"semi-degenerate weights take index 1 or 2, got {self.index!r}")
            expected = self.parameter * (OMEGA1 if self.index == 1 else OMEGA2)
            if self.vector != expected:
                raise AlgebraError(
                    "semi-degenerate weight vector must equal "
                    f"parameter * omega_{self.index}")
        else:
            if self.index is not None:
                raise AlgebraError("fully degenerate weights do not take an index")
            if self.vector != (-1) * self.parameter * OMEGA1:
                raise AlgebraError(
                    "fully degenerate weight vector must equal -parameter * omega_1")

    @staticmethod
    def generic(vector: CartanVector) -> "Weight":
        return Weight(vector, "generic")

    @staticmethod
    def semi_degenerate(index: int, parameter) -> "Weight":
        if index not in (1, 2):
            raise AlgebraError(
                f"semi-degenerate weights take index 1 or 2, got {index!r}")
        om = OMEGA1 if index == 1 else OMEGA2
        return Weight(parameter * om, "semi_degenerate", index, parameter)

    @staticmethod
    def fully_degenerate(parameter) -> "Weight":
        return Weight((-1) * parameter * OMEGA1, "fully_degenerate", None, parameter)


Weight.__hash__ = None


def screening_branch(chi, gamma=None) -> tuple:
    """(branch, value) of a screening scale chi in {gamma, 2/gamma}.

    ``chi`` is the branch name ``"gamma"``/``"2/gamma"``, resolved against
    ``gamma`` (symbolic by default), or a numeric or symbolic scale, which
    needs ``gamma`` and must equal one of the two values.
    """
    if chi in ("gamma", "2/gamma"):
        g = variable("gamma") if gamma is None else gamma
        return chi, (g if chi == "gamma" else 2 / (Fraction(1) * g))
    if gamma is None:
        raise AlgebraError(
            "a screening scale given by value needs gamma to fix the "
            "background charge")
    if chi == gamma:
        return "gamma", chi
    if chi * gamma == 2:
        return "2/gamma", chi
    raise AlgebraError(
        "screening scale must equal gamma or 2/gamma for the given gamma, "
        f"got {chi!r}")


def vec_factor(u: CartanVector, p: int) -> FieldPolynomial:
    """<u, d^p Phi> expanded over the simple-root factors."""
    return FieldPolynomial({
        FieldMonomial(((p, 1),)): u.c1,
        FieldMonomial(((p, 2),)): u.c2,
    })


def contraction(p1: int, p2: int) -> FieldPolynomial:
    """<d^p1 Phi, d^p2 Phi>: bilinear pairing of two derivative fields."""
    terms = {}
    for i in (1, 2):
        for j in (1, 2):
            m = FieldMonomial(((p1, i), (p2, j)))
            prev = terms.get(m)
            c = _AINV[i - 1][j - 1]
            terms[m] = c if prev is None else prev + c
    return FieldPolynomial(terms)


def l_form(lam, alpha: CartanVector, q=None) -> FieldPolynomial:
    """Virasoro-type multilinear form for the index list ``lam``.

    Supported index lists: a single layer (n,), and the iterated forms
    (1, 1), (1, 2), (1, 1, 1).  ``q`` is the background-charge scalar
    (symbolic in gamma when omitted); it only enters through Q = q*rho.
    """
    if isinstance(lam, int):
        lam = (lam,)
    lam = tuple(int(x) for x in lam)
    if q is None:
        q = q_of_gamma()
    if len(lam) == 1:
        n = lam[0]
        if n < 1:
            raise AlgebraError(
                f"unsupported derivative multi-index {lam!r}; supported: {_SUPPORTED}")
        head = alpha if n == 1 else ((n - 1) * q) * RHO + alpha
        out = Fraction(1, factorial(n - 1)) * vec_factor(head, n)
        for i in range(n - 1):
            coeff = Fraction(1, factorial(i) * factorial(n - 2 - i))
            out = out - coeff * contraction(i + 1, n - 1 - i)
        return out
    if lam == (1, 1):
        v1 = vec_factor(alpha, 1)
        return vec_factor(alpha, 2) + v1 * v1
    if lam == (1, 2):
        head = q * RHO + alpha
        v1 = vec_factor(alpha, 1)
        return (vec_factor(head, 3) + vec_factor(head, 2) * v1
                - 2 * contraction(2, 1) - contraction(1, 1) * v1)
    if lam == (1, 1, 1):
        v1 = vec_factor(alpha, 1)
        return vec_factor(alpha, 3) + 3 * (vec_factor(alpha, 2) * v1) + v1 * v1 * v1
    raise AlgebraError(
        f"unsupported derivative multi-index {lam!r}; supported: {_SUPPORTED}")


def combine(coeffs, forms) -> FieldPolynomial:
    """Exact linear combination of forms sharing a single level."""
    coeffs, forms = list(coeffs), list(forms)
    if len(coeffs) != len(forms):
        raise AlgebraError("combine needs one coefficient per form")
    levels = {f.level for f in forms if f.level is not None}
    if len(levels) > 1:
        raise AlgebraError(f"cannot combine forms of mixed levels {sorted(levels)}")
    out = FieldPolynomial.zero()
    for c, f in zip(coeffs, forms):
        out = out + c * f
    return out


# ---------------------------------------------------------------------------
# Spin-3 realization: compose ((q/2)d + b1)((q/2)d + b2)((q/2)d + b3) with the
# Leibniz rule, where b_j is a first-derivative field.  Operator words are
# keyed by (qpow, factors, dpow): (q/2)^qpow * prod of derivatives of the b's
# * d^dpow, with factors a sorted tuple of (slot, extra derivative count).
# ---------------------------------------------------------------------------

def _acc(table, key, c):
    prev = table.get(key)
    table[key] = c if prev is None else prev + c


@lru_cache(maxsize=1)
def _composed_words() -> tuple:
    """Expansion of the third-order composed operator as sorted
    ((qpow, factors, dpow), coeff) items."""
    words = {(1, (), 1): Fraction(1), (0, ((3, 0),), 0): Fraction(1)}
    for slot in (2, 1):
        nxt = {}
        for (qpow, factors, dpow), c in words.items():
            _acc(nxt, (qpow + 1, factors, dpow + 1), c)
            for j in range(len(factors)):
                fs = list(factors)
                s, d = fs[j]
                fs[j] = (s, d + 1)
                _acc(nxt, (qpow + 1, tuple(sorted(fs)), dpow), c)
            _acc(nxt, (qpow, tuple(sorted(factors + ((slot, 0),))), dpow), c)
        words = {k: v for k, v in nxt.items() if v != 0}
    return tuple(sorted(words.items()))


@lru_cache(maxsize=1)
def _quad_words() -> tuple:
    """Quadratic-component words, the first-derivative coefficient of the
    composed operator with its overall q divided out."""
    quad = {}
    for (qpow, factors, dpow), c in _composed_words():
        if dpow == 1 and factors:
            _acc(quad, (qpow - 1, factors), c)
    return tuple(sorted(quad.items()))


@lru_cache(maxsize=None)
def _current_words(shift: Fraction) -> tuple:
    """Cubic-component words shifted by ``shift * (q/2) * d(quadratic
    component)``, as sorted ((qpow, factors), coeff) items."""
    cubic = {}
    for (qpow, factors, dpow), c in _composed_words():
        if dpow == 0:
            _acc(cubic, (qpow, factors), c)
    if shift:
        for (qpow, factors), c in _quad_words():
            for j in range(len(factors)):
                fs = list(factors)
                s, d = fs[j]
                fs[j] = (s, d + 1)
                _acc(cubic, (qpow + 1, tuple(sorted(fs))), shift * c)
    return tuple(sorted((k, v) for k, v in cubic.items() if v != 0))


@dataclass(frozen=True)
class MiuraConvention:
    """Frozen sign/ordering choice for the spin-3 realization.

    order[slot-1] names which h-vector sits in composition slot 1..3;
    sign_field flips every b factor and sign_q the q symbol; shift multiplies
    the quadratic-derivative correction of the current.  Reading the current
    against a highest-weight vector contracts each chosen factor into the
    scalar contraction * parity^(p-1) * (p-1)! * <u, alpha>; contraction and
    the overall normalization are solved exactly from the level-1 constraint,
    never guessed.
    """

    order: tuple
    sign_field: int
    sign_q: int
    parity: int
    shift: Fraction
    contraction: Fraction
    normalization: Fraction


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _sector_templates(words, n, order, s_b, s_q, par) -> dict:
    """Weight-free part of the level-n reading of ``words``, in ``Fraction``
    arithmetic only: {k: {(qpow, idx): poly}} with k the number of
    contracted factors, idx the sorted h-indices of those factors and poly a
    form over Q, so that sector k on alpha is the sum of
    q**qpow * prod_{i in idx} <h_i, alpha> * poly (``_substitute``).

    Per current term c * prod_j <u_j, d^{p_j} Phi>, a factor is either
    contracted into parity^(p-1) * (p-1)! * <u, alpha> or kept with r >= p
    derivatives and Taylor weight 1/(r-p)!; the kept degrees sum to n.  The
    unit contraction constant and unit normalization apply.
    """
    sectors = {}
    for (qpow, factors), c in words:
        # the composed operator's derivative slot carries q/2, matching the
        # half-weight pairing of the free field
        base = _as_coeff(c) * Fraction(1, 2) ** qpow
        if s_q < 0 and qpow % 2:
            base = -base
        if s_b < 0 and len(factors) % 2:
            base = -base
        hs = tuple(order[slot - 1] for slot, _ in factors)
        ps = tuple(d + 1 for _, d in factors)
        for rs in _compositions(n, len(factors)):
            if any(0 < r < p for p, r in zip(ps, rs)):
                continue
            scalar = base
            idx = []
            poly = None
            for h, p, r in zip(hs, ps, rs):
                if r == 0:
                    w = factorial(p - 1)
                    if par < 0 and (p - 1) % 2:
                        w = -w
                    scalar = scalar * w
                    idx.append(h)
                else:
                    f = vec_factor(_HVECS[h - 1], r)
                    if r > p:
                        f = Fraction(1, factorial(r - p)) * f
                    poly = f if poly is None else poly * f
            if poly is None:
                continue
            groups = sectors.setdefault(len(idx), {})
            key = (qpow, tuple(sorted(idx)))
            prev = groups.get(key)
            add = scalar * poly
            groups[key] = add if prev is None else prev + add
    return {k: {key: p for key, p in groups.items() if not p.is_zero}
            for k, groups in sectors.items()}


def _substitute(groups, alpha: CartanVector, q) -> FieldPolynomial:
    """sum of q**qpow * prod_{i in idx} <h_i, alpha> * poly over the
    {(qpow, idx): poly} groups of a template, with the three contracted
    inner products and the powers of q formed once."""
    xs = tuple(inner(h, alpha) for h in _HVECS)
    qpows = {}
    out = {}
    for (qpow, idx), poly in groups.items():
        scalar = None
        if qpow:
            scalar = qpows.get(qpow)
            if scalar is None:
                scalar = qpows[qpow] = q ** qpow
        for i in idx:
            scalar = xs[i - 1] if scalar is None else scalar * xs[i - 1]
        for m, v in poly.terms.items():
            c = v if scalar is None else v * scalar
            prev = out.get(m)
            out[m] = c if prev is None else prev + c
    return FieldPolynomial(out)


def _extract_sectors(words, n, alpha, q, order, s_b, s_q, par) -> dict:
    """Level-n reading of a list of current words on the highest-weight
    vector alpha, split by how many factors were contracted, with unit
    contraction constant and unit normalization: each weight-free sector
    template of ``_sector_templates`` substituted at (alpha, q)."""
    sectors = {}
    for k, groups in _sector_templates(words, n, order, s_b, s_q, par).items():
        poly = _substitute(groups, alpha, q)
        if not poly.is_zero:
            sectors[k] = poly
    return sectors


def _form_template(words, n: int, conv: MiuraConvention,
                   normalization) -> dict:
    """Sector templates of ``words`` under ``conv`` merged into one
    {(qpow, idx): poly} map, the sector with k contracted factors weighted
    by ``normalization * conv.contraction ** k``."""
    out = {}
    templates = _sector_templates(words, n, conv.order, conv.sign_field,
                                  conv.sign_q, conv.parity)
    for k, groups in templates.items():
        weight = normalization * conv.contraction ** k
        for key, poly in groups.items():
            out[key] = weight * poly
    return out


def _read_form(words, n: int, alpha: CartanVector, q, conv: MiuraConvention,
               normalization) -> FieldPolynomial:
    """Level-n form of ``words`` on alpha under ``conv``: the sector with k
    contracted factors times ``normalization * contraction ** k``, read by
    building the weight-free template over Q (``_form_template``) and
    substituting alpha and q into it.  The current words with
    ``conv.normalization`` give W_{-n}; the quadratic words with
    normalization 2 give the Virasoro forms."""
    return _substitute(_form_template(words, n, conv, normalization), alpha, q)


@lru_cache(maxsize=1)
def _scan_targets() -> tuple:
    """(beta, q, level-2 target, level-3 target) at symbolic chi, with
    beta = -chi omega_1 and q = chi + 2/chi.  No target depends on the
    convention, so every trial of the scan reads the same ones."""
    chi = variable("chi")
    q = chi + 2 / chi
    beta = (-chi) * OMEGA1
    c2 = (-4 / chi) * l_form((1, 1), beta, q=q) \
        - (chi * Fraction(4, 3)) * l_form((2,), beta, q=q)
    c3 = (-(chi / 3 + 2 / chi)) * l_form((3,), beta, q=q) \
        + (4 / chi) * l_form((1, 2), beta, q=q) \
        + (8 / chi ** 3) * l_form((1, 1, 1), beta, q=q)
    return beta, q, c2, c3


def _try_convention(order, s_b, s_q, par, lam):
    """Solve (contraction, normalization) from the level-1 constraint as an
    exact 2x2 linear system, then accept the convention only if the level-2
    and level-3 constraints also hold identically."""
    qv, kv = variable("q"), variable("kappa")
    alpha = kv * OMEGA1
    words = _current_words(lam)
    sectors = _extract_sectors(words, 1, alpha, qv, order, s_b, s_q, par)
    s1 = sectors.get(1, FieldPolynomial.zero())
    s2 = sectors.get(2, FieldPolynomial.zero())
    if set(sectors) - {1, 2}:
        return None
    target1 = (qv - Fraction(2, 3) * kv) * l_form((1,), alpha, q=qv)
    monomials = sorted(set(s1.terms) | set(s2.terms) | set(target1.terms),
                       key=lambda m: m.factors)

    def coeff(poly, m, asg):
        c = poly.terms.get(m, Fraction(0))
        return c.evaluate(asg) if isinstance(c, RatFunc) else c

    # unknowns u = normalization*contraction, v = normalization*contraction^2;
    # pin them from exact sample points, then verify the identity symbolically
    points = ({"q": Fraction(2), "kappa": Fraction(3)},
              {"q": Fraction(5), "kappa": Fraction(7)},
              {"q": Fraction(11), "kappa": Fraction(13)})
    rows = [(coeff(s1, m, p), coeff(s2, m, p), coeff(target1, m, p))
            for m in monomials for p in points]
    solved = None
    for ia in range(len(rows)):
        for ib in range(ia + 1, len(rows)):
            a1, b1, t1 = rows[ia]
            a2, b2, t2 = rows[ib]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            solved = ((t1 * b2 - t2 * b1) / det, (a1 * t2 - a2 * t1) / det)
            break
        if solved:
            break
    if solved is None:
        return None
    u0, v0 = solved
    if not u0 or not v0:
        return None
    sigma = v0 / u0
    cw = u0 * u0 / v0
    if u0 * s1 + v0 * s2 != target1:
        return None
    conv = MiuraConvention(order, s_b, s_q, par, lam, sigma, cw)
    beta, qs, c2, c3 = _scan_targets()
    if _read_form(words, 2, beta, qs, conv, cw) != c2:
        return None
    if _read_form(words, 3, beta, qs, conv, cw) != c3:
        return None
    return conv


_SHIFTS = tuple(Fraction(n, d) * s
                for n, d in ((0, 1), (1, 1), (2, 1), (3, 1), (1, 2), (3, 2),
                             (1, 3), (2, 3), (4, 3), (1, 4), (3, 4))
                for s in ((1,) if n == 0 else (1, -1)))

# first admissible convention in scan order, revalidated on every fresh call
_FROZEN_CONVENTION = ((1, 2, 3), 1, -1, -1, Fraction(-1, 2))


@lru_cache(maxsize=2)
def miura_convention(audit: bool = False) -> MiuraConvention:
    """Return the unique admissible sign/ordering convention.

    The default path revalidates a frozen choice against all three
    constraints.  With ``audit=True`` the full finite space is scanned and
    uniqueness of the resulting realization is enforced; raise if none or
    several distinct realizations pass.
    """
    if not audit:
        conv = _try_convention(*_FROZEN_CONVENTION)
        if conv is not None:
            return conv
    found = []
    for order in permutations((1, 2, 3)):
        for s_b in (1, -1):
            for s_q in (1, -1):
                for par in (1, -1):
                    for lam in _SHIFTS:
                        conv = _try_convention(order, s_b, s_q, par, lam)
                        if conv is not None:
                            found.append(conv)
    if not found:
        raise AlgebraError(
            "no sign/ordering convention satisfies the three spin-3 constraints")
    # conventions with equal modes W_{-1..3} at a generic rational weight
    # and symbolic q are one realization; the first in scan order stands
    qv = variable("q")
    alpha = CartanVector(Fraction(5, 7), Fraction(-3, 11))
    distinct = []
    for conv in found:
        modes = tuple(_read_form(_current_words(conv.shift), n, alpha, qv,
                                 conv, conv.normalization) for n in (1, 2, 3))
        if all(modes != seen for seen, _ in distinct):
            distinct.append((modes, conv))
    if len(distinct) > 1:
        raise AlgebraError(
            "ambiguous spin-3 realization; distinct passing conventions: "
            + repr([conv for _, conv in distinct]))
    return distinct[0][1]


def miura_w_form(n: int, alpha: CartanVector, q=None) -> FieldPolynomial:
    """Spin-3 form W_{-n} on the highest-weight vector alpha, n in {1, 2, 3}."""
    if n not in (1, 2, 3):
        raise AlgebraError(f"spin-3 modes are realized for n in 1..3, got {n}")
    if q is None:
        q = q_of_gamma()
    return _substitute(_frozen_template(n), alpha, q)


@lru_cache(maxsize=3)
def _frozen_template(n: int) -> dict:
    """Template of W_{-n} under the frozen convention, built once per level."""
    conv = miura_convention()
    return _form_template(_current_words(conv.shift), n, conv,
                          conv.normalization)


def miura_current_terms(q=None) -> list:
    """Field-level spin-3 current of the frozen convention, as a list of
    (coefficient, ((vector, derivative order), ...)) terms."""
    conv = miura_convention()
    if q is None:
        q = q_of_gamma()
    out = []
    keys = sorted(_current_words(conv.shift),
                  key=lambda kv_: (len(kv_[0][1]), kv_[0][1], kv_[0][0]))
    for (qpow, factors), c in keys:
        coeff = c * conv.normalization * Fraction(1, 2) ** qpow
        if conv.sign_q < 0 and qpow % 2:
            coeff = -coeff
        if conv.sign_field < 0 and len(factors) % 2:
            coeff = -coeff
        if qpow:
            coeff = coeff * q ** qpow
        out.append((coeff,
                    tuple((_HVECS[conv.order[s - 1] - 1], d + 1) for s, d in factors)))
    return out
