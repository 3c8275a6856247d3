"""Exact Coulomb-gas layer at vanishing interaction measures.

A configuration holds bulk insertions in the open upper half-plane, boundary
insertions on the real line, and the interaction-measure parameters.  All
closed-form work happens over the *doubled* coordinate list (bulk points,
their conjugates, then boundary points) with holomorphic logarithms carrying
half-weight exponents, so that descendant insertions become exact rational
functions of the probe point:

* ``coulomb_log_correlator`` returns the closed-form exponent table of the
  zero-measure correlator (requires neutrality);
* ``ipp_insert`` converts a derivative-field form into its Gaussian
  integration-by-parts pole sum, each factor ``<u, d^p Phi>`` mapping to
  ``(p-1)! * sum_k <u, a_k> / (2 (z_k - t)^p)`` over the doubled list;
* ``verify_derivative_identity`` checks the probe-derivative identities for
  the supported index lists as exact identities of rational functions;
* ``w_current_field`` reads the spin-3 current as a rational function of
  the probe, whose polar data reproduce the mode ratios.

The global Ward rows, the decisive cross-check of the spin-3 realization,
are evaluated on this layer's values by ``ward_bpz.free_field_residuals``.

Pole sums as functions of the probe live in ``RationalField``: finite linear
combinations of ``(z_k - t)^{-p}`` with exact complex-rational coefficients,
closed under sum, product (partial fractions) and d/dt.  One
``InsertionPairings`` per configuration builds every pole sum: each factor
<E_i, d^p Phi> once, as a ``RationalField``.  A form read at the probe
multiplies its factors; read at an insertion z_k, as the descendant ratios
and the Ward rows read it, it goes through one ``PoleSumTable`` per
insertion, which evaluates each factor at z_k without the k-th pole.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb, factorial
from operator import mul

from .algebra_core import (
    E1,
    E2,
    OMEGA1,
    OMEGA2,
    AlgebraError,
    CartanVector,
    CFrac,
    background_charge,
    conformal_weight,
    decode,
    encode,
    inner,
    q_of_gamma,
    spin,
)
from .descendant_forms import (
    FieldPolynomial,
    l_form,
    miura_current_terms,
    vec_factor,
)


# ---------------------------------------------------------------------------
# Exact parsing helpers (JSON values may be ints, floats, or "p/q" strings).
# ---------------------------------------------------------------------------

def _exact_real(x, where: str) -> Fraction:
    try:
        y = decode(x) if isinstance(x, str) else x
        if isinstance(y, (int, Fraction, float)) and not isinstance(y, bool):
            return Fraction(y)
    except (ValueError, OverflowError):
        pass
    raise AlgebraError(f"{where}: cannot interpret {x!r} as an exact real")


def _is_pair(x) -> bool:
    return isinstance(x, (list, tuple)) and len(x) == 2


def _pairs(entries, where: str, names: str) -> tuple:
    """A list of pairs, checked before it is unpacked: a container or an
    entry of another shape raises an ``AlgebraError`` naming its path."""
    if not isinstance(entries, (list, tuple)):
        raise AlgebraError(f"{where}: needs a list of {names} pairs")
    for k, entry in enumerate(entries):
        if not _is_pair(entry):
            raise AlgebraError(f"{where}/{k}: needs two components {names}")
    return tuple(entries)


def _exact_complex(x, where: str) -> CFrac:
    if isinstance(x, CFrac):
        return x
    if isinstance(x, complex):
        x = (x.real, x.imag)
    if _is_pair(x):
        return CFrac(_exact_real(x[0], where), _exact_real(x[1], where))
    return CFrac(_exact_real(x, where))


def _weight(x, where: str) -> CartanVector:
    if isinstance(x, CartanVector):
        return x
    if _is_pair(x):
        return CartanVector(_exact_real(x[0], where), _exact_real(x[1], where))
    raise AlgebraError(f"{where}: weight needs two root-basis coordinates")


# ---------------------------------------------------------------------------
# Correlator configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelatorConfig:
    """Immutable insertion data for a half-plane correlator.

    ``bulk`` is a tuple of (z, alpha) with z in the open upper half-plane;
    ``boundary`` a tuple of (s, beta) with strictly increasing real s;
    ``mu_bulk`` the two bulk measure weights; ``mu_boundary`` one (mu_1, mu_2)
    pair per boundary arc.  With M >= 1 boundary points the real line closes
    into M arcs (the last wraps through infinity); with M = 0 there is a
    single arc.
    """

    gamma: Fraction
    bulk: tuple = ()
    boundary: tuple = ()
    mu_bulk: tuple = (Fraction(0), Fraction(0))
    mu_boundary: tuple = None

    def __post_init__(self):
        g = _exact_real(self.gamma, "/gamma")
        if not 0 < g or g * g >= 2:
            raise AlgebraError("/gamma: must satisfy 0 < gamma < sqrt(2)")
        object.__setattr__(self, "gamma", g)

        bulk = []
        for k, (z, alpha) in enumerate(
                _pairs(self.bulk, "/bulk", "(z, alpha)")):
            z = _exact_complex(z, f"/bulk/{k}/z")
            if z.im <= 0:
                raise AlgebraError(
                    f"/bulk/{k}/z: bulk insertion must lie in the open upper half-plane")
            bulk.append((z, _weight(alpha, f"/bulk/{k}/alpha")))
        object.__setattr__(self, "bulk", tuple(bulk))

        boundary = []
        prev = None
        for l, (s, beta) in enumerate(
                _pairs(self.boundary, "/boundary", "(s, beta)")):
            s = _exact_real(s, f"/boundary/{l}/s")
            if prev is not None and s <= prev:
                raise AlgebraError(
                    f"/boundary/{l}/s: boundary points must be strictly increasing")
            prev = s
            boundary.append((s, _weight(beta, f"/boundary/{l}/beta")))
        object.__setattr__(self, "boundary", tuple(boundary))

        if not _is_pair(self.mu_bulk):
            raise AlgebraError("/mu_bulk: needs exactly two components")
        mu_bulk = tuple(_exact_real(x, f"/mu_bulk/{i}")
                        for i, x in enumerate(self.mu_bulk))
        if any(x < 0 for x in mu_bulk):
            raise AlgebraError("/mu_bulk: measure weights must be >= 0")
        object.__setattr__(self, "mu_bulk", mu_bulk)

        arcs = max(len(boundary), 1)
        if self.mu_boundary is None:
            object.__setattr__(self, "mu_boundary",
                               ((Fraction(0), Fraction(0)),) * arcs)
        pairs = _pairs(self.mu_boundary, "/mu_boundary", "(mu_1, mu_2)")
        if len(pairs) != arcs:
            raise AlgebraError(
                f"/mu_boundary: needs one (mu_1, mu_2) pair per arc, "
                f"expected {arcs}, got {len(pairs)}")
        mub = []
        for l, pair in enumerate(pairs):
            pair = tuple(_exact_real(x, f"/mu_boundary/{l}/{i}")
                         for i, x in enumerate(pair))
            if any(x < 0 for x in pair):
                raise AlgebraError(f"/mu_boundary/{l}: measure weights must be >= 0")
            mub.append(pair)
        object.__setattr__(self, "mu_boundary", tuple(mub))

    # -- structure ---------------------------------------------------------

    @property
    def n_bulk(self) -> int:
        return len(self.bulk)

    @property
    def n_boundary(self) -> int:
        return len(self.boundary)

    @property
    def q(self) -> Fraction:
        return self.gamma + 2 / self.gamma

    @property
    def Q(self) -> CartanVector:
        return background_charge(self.q)

    def mu_right(self, l: int):
        """Arc measure immediately to the right of boundary point l."""
        return self.mu_boundary[l % len(self.mu_boundary)]

    def mu_left(self, l: int):
        """Arc measure immediately to the left of boundary point l."""
        return self.mu_boundary[(l - 1) % len(self.mu_boundary)]

    @property
    def all_mu_zero(self) -> bool:
        return (all(x == 0 for x in self.mu_bulk)
                and all(x == 0 for pair in self.mu_boundary for x in pair))

    def with_zero_mu(self) -> "CorrelatorConfig":
        arcs = max(self.n_boundary, 1)
        zero = (Fraction(0), Fraction(0))
        return CorrelatorConfig(self.gamma, self.bulk, self.boundary,
                                zero, (zero,) * arcs)

    # -- weight bookkeeping ------------------------------------------------

    @property
    def s_vector(self) -> CartanVector:
        total = CartanVector(0, 0)
        for _, alpha in self.bulk:
            total = total + alpha
        for _, beta in self.boundary:
            total = total + Fraction(1, 2) * beta
        return total - self.Q

    @property
    def neutral(self) -> bool:
        return self.s_vector.is_zero

    def convergence_failure(self):
        """The first failing charge condition of the interacting
        correlator, as a message, or None when all hold: the total charge
        pairs positively with both fundamental weights, and every bulk
        weight pairs below the background charge along both simple roots."""
        s = self.s_vector
        for name, omega in (("first", OMEGA1), ("second", OMEGA2)):
            if not inner(s, omega) > 0:
                return ("zero-mode integral does not converge: the total "
                        "charge must pair positively with the "
                        f"{name} fundamental weight")
        Qv = self.Q
        for k, (_, alpha) in enumerate(self.bulk, start=1):
            for idx, e in ((1, E1), (2, E2)):
                if not inner(alpha - Qv, e) < 0:
                    return (f"charge bound fails at bulk insertion {k}: the "
                            "weight must pair below the background charge "
                            f"along simple root {idx}")
        return None

    @property
    def seiberg_ok(self) -> bool:
        return self.convergence_failure() is None

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """The field walk, with each insertion as a keyed object."""
        return {
            "gamma": encode(self.gamma),
            "bulk": [{"z": encode(z), "alpha": encode(a)} for z, a in self.bulk],
            "boundary": [{"s": encode(s), "beta": encode(b)}
                         for s, b in self.boundary],
            "mu_bulk": encode(self.mu_bulk),
            "mu_boundary": encode(self.mu_boundary),
        }

    @staticmethod
    def from_json(data: dict) -> "CorrelatorConfig":
        """The configuration of a JSON object; bad input raises an
        ``AlgebraError`` that names its JSON path."""
        if not isinstance(data, dict):
            raise AlgebraError("/: configuration must be a JSON object")
        if "gamma" not in data:
            raise AlgebraError("/gamma: required")
        insertions = []
        for key, (a, b) in (("bulk", ("z", "alpha")), ("boundary", ("s", "beta"))):
            entries = data.get(key, [])
            if not isinstance(entries, list):
                raise AlgebraError(f"/{key}: must be a JSON array")
            for k, entry in enumerate(entries):
                if not isinstance(entry, dict) or a not in entry or b not in entry:
                    raise AlgebraError(f"/{key}/{k}: needs {a!r} and {b!r}")
            insertions.append(tuple((e[a], e[b]) for e in entries))
        return CorrelatorConfig(data["gamma"], *insertions,
                                data.get("mu_bulk", (0, 0)),
                                data.get("mu_boundary"))


def doubled_insertions(cfg: CorrelatorConfig) -> list:
    """(z_1..z_N, conj z_1..conj z_N, s_1..s_M) with bulk weights duplicated."""
    out = [(z, alpha) for z, alpha in cfg.bulk]
    out += [(z.conj(), alpha) for z, alpha in cfg.bulk]
    out += [(CFrac(s), beta) for s, beta in cfg.boundary]
    return out


def doubled_neutral(cfg: CorrelatorConfig) -> bool:
    """Weights of the doubled list sum to twice the background charge."""
    total = CartanVector(0, 0)
    for _, w in doubled_insertions(cfg):
        total = total + w
    return total == 2 * cfg.Q


def coulomb_log_correlator(cfg: CorrelatorConfig) -> dict:
    """Exponent table of the closed-form zero-measure correlator.

    Keys (k, l) with k < l give the exponent of ln|zeta_k - zeta_l| over the
    doubled list; diagonal keys (k, k) for bulk k give the self-pair exponent
    +|alpha_k|^2/2 multiplying ln|z_k - conj z_k|.  Zero exponents are
    dropped.
    """
    if not cfg.neutral:
        raise AlgebraError("free-field closed form requires neutrality")
    pts = doubled_insertions(cfg)
    table = {}
    for k in range(len(pts)):
        for l in range(k + 1, len(pts)):
            e = -inner(pts[k][1], pts[l][1])
            if e != 0:
                table[(k, l)] = e
    for k in range(cfg.n_bulk):
        alpha = cfg.bulk[k][1]
        e = inner(alpha, alpha) * Fraction(1, 2)
        if e != 0:
            table[(k, k)] = e
    return table


# ---------------------------------------------------------------------------
# Rational functions of the probe point
# ---------------------------------------------------------------------------

class RationalField:
    """Finite sum  sum_{k,p} c_{k,p} / (z_k - t)^p  over fixed pole points.

    Closed under addition, multiplication (partial fractions), scalar
    multiples, and d/dt; coefficients are exact complex rationals.
    """

    __slots__ = ("points", "terms")

    def __init__(self, points, terms=None):
        self.points = tuple(points)
        self.terms = {}
        for (k, p), c in (terms or {}).items():
            if not 0 <= k < len(self.points):
                raise AlgebraError(f"pole index {k} outside the point list")
            if p < 1:
                raise AlgebraError(f"pole order must be >= 1, got {p}")
            c = CFrac.of(c)
            if c != 0:
                self.terms[k, p] = c

    @staticmethod
    def zero(points) -> "RationalField":
        return RationalField(points)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _same(self, other: "RationalField"):
        if self.points != other.points:
            raise AlgebraError("rational fields live over different pole sets")

    def __add__(self, other):
        if not isinstance(other, RationalField):
            return NotImplemented
        self._same(other)
        out = dict(self.terms)
        for kp, c in other.terms.items():
            prev = out.get(kp)
            out[kp] = c if prev is None else prev + c
        return RationalField(self.points, out)

    def __neg__(self):
        return RationalField(self.points, {kp: -c for kp, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, RationalField):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RationalField):
            self._same(other)
            out = {}
            for (k, p), c1 in self.terms.items():
                for (l, q), c2 in other.terms.items():
                    c = c1 * c2
                    for kp, w in _pair_product(self.points, k, p, l, q):
                        prev = out.get(kp)
                        add = c * w
                        out[kp] = add if prev is None else prev + add
            return RationalField(self.points, out)
        try:
            c = other if isinstance(other, CFrac) else CFrac.of(other)
        except AlgebraError:
            return NotImplemented
        return RationalField(self.points,
                             {kp: v * c for kp, v in self.terms.items()})

    __rmul__ = __mul__

    def derivative(self) -> "RationalField":
        """d/dt of  sum c / (z_k - t)^p  =  sum p*c / (z_k - t)^(p+1)."""
        return RationalField(self.points,
                             {(k, p + 1): p * c for (k, p), c in self.terms.items()})

    def evaluate(self, t):
        """The value at an exact probe (a CFrac, int or Fraction), or in
        floating point at any other probe ``complex()`` accepts."""
        exact = isinstance(t, (CFrac, int, Fraction))
        t = CFrac.of(t) if exact else complex(t)
        powers = {}         # k -> [1/(z_k - t), its square, ...]
        total = CFrac(0) if exact else 0j
        for (k, p), c in self.terms.items():
            pw = powers.get(k)
            if pw is None:
                z = self.points[k] if exact else complex(self.points[k])
                if z == t:
                    raise AlgebraError(f"evaluation hits the pole at {z!r}")
                pw = powers[k] = [1 / (z - t)]
            while len(pw) < p:
                pw.append(pw[-1] * pw[0])
            total = total + (c if exact else complex(c)) * pw[p - 1]
        return total

    def __eq__(self, other):
        if not isinstance(other, RationalField):
            return NotImplemented
        return self.points == other.points and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "RationalField(0)"
        bits = [f"({c!r})/(z{k}-t)^{p}"
                for (k, p), c in sorted(self.terms.items())]
        return " + ".join(bits)


def _pair_product(points, k, p, l, q):
    """Partial-fraction expansion of 1/((z_k-t)^p (z_l-t)^q) as
    ((index, order), weight) pairs."""
    if k == l:
        return (((k, p + q), CFrac(1)),)
    d = points[l] - points[k]
    if d == 0:
        # distinct indices at a coincident point still merge
        return (((k, p + q), CFrac(1)),)
    # each end a, of order m against n, reads 1/(z_other - z_a)
    out = []
    dinv = d.reciprocal()
    for a, m, n, r in ((k, p, q, dinv), (l, q, p, -dinv)):
        for i in range(1, m + 1):
            w = CFrac(comb(m + n - i - 1, m - i)) * r ** (m + n - i)
            out.append(((a, i), -w if (m - i) % 2 else w))
    return tuple(out)


# ---------------------------------------------------------------------------
# Gaussian integration by parts at zero interaction measure
# ---------------------------------------------------------------------------

class InsertionPairings:
    """One configuration's doubled insertions as the pole sums read them.

    ``pairings[l]`` is (<E_1, w_l>, <E_2, w_l>), formed once per insertion.
    ``factor(p, i)`` is the pole sum of the factor <E_i, d^p Phi> as a
    function of the probe, formed once per factor: the only place that
    forms a pole-sum coefficient.  Each unordered pair's 1/(z_l - z_k) and
    its powers are formed once, on first use, and the other end reads them
    with the sign (-1)^p.
    """

    __slots__ = ("points", "pairings", "_factors", "_powers")

    def __init__(self, insertions):
        self.points = tuple(z for z, _ in insertions)
        self.pairings = [(inner(E1, w), inner(E2, w)) for _, w in insertions]
        self._factors = {}      # (p, i) -> RationalField
        self._powers = {}       # (k, l), k < l -> [1/(z_l - z_k), its square, ...]

    def factor(self, p: int, i: int) -> RationalField:
        """(p-1)! * sum_l <E_i, w_l> / (2 (z_l - t)^p)."""
        f = self._factors.get((p, i))
        if f is None:
            pref = Fraction(factorial(p - 1), 2)
            f = self._factors[p, i] = RationalField(self.points, {
                (l, p): CFrac.of(pref * e[i - 1])
                for l, e in enumerate(self.pairings)})
        return f

    def power(self, k: int, l: int, p: int) -> CFrac:
        """1/(z_l - z_k)^p, for k != l."""
        key = (k, l) if k < l else (l, k)
        pw = self._powers.get(key)
        if pw is None:
            z0, z1 = self.points[key[0]], self.points[key[1]]
            pw = self._powers[key] = [(z1 - z0).reciprocal()]
        while len(pw) < p:
            pw.append(pw[-1] * pw[0])
        return pw[p - 1] if k < l or p % 2 == 0 else -pw[p - 1]


def _pairings_of(insertions) -> InsertionPairings:
    """The pairings of a (point, weight) list, or the pairings themselves."""
    if isinstance(insertions, InsertionPairings):
        return insertions
    return InsertionPairings(insertions)


def _ipp_factor(u: CartanVector, p: int, insertions) -> RationalField:
    """The pole sum of one factor <u, d^p Phi> over the (point, weight) list
    or its pairings: u_1 times that of <E_1, d^p Phi> plus u_2 times that of
    <E_2, d^p Phi>."""
    pairs = _pairings_of(insertions)
    return pairs.factor(p, 1) * u.c1 + pairs.factor(p, 2) * u.c2


def _ipp_field(form: FieldPolynomial, insertions) -> RationalField:
    """The pole-sum reading of a form: each monomial the product of its
    factors' pole sums, read from one set of pairings."""
    pairs = _pairings_of(insertions)
    total = RationalField.zero(pairs.points)
    for m, coeff in form.terms.items():
        fields = [pairs.factor(p, i) for p, i in m.factors]
        if fields:
            total = total + reduce(mul, fields) * coeff
    return total


def ipp_insert(form: FieldPolynomial, t, beta: CartanVector,
               cfg: CorrelatorConfig) -> RationalField:
    """Pole-sum ratio of a descendant insertion at probe t over the primary.

    Each factor <u, d^p Phi> maps to (p-1)! * sum_k <u, a_k> / (2 (z_k-t)^p)
    over the doubled list; for a bulk probe the conjugate point joins the
    list with the probe weight.  Valid only with every interaction measure
    zero.
    """
    if not cfg.all_mu_zero:
        raise AlgebraError(
            "integration-by-parts closed form requires all measures zero")
    t = _exact_complex(t, "probe")
    insertions = doubled_insertions(cfg)
    for z, _ in insertions:
        if z == t:
            raise AlgebraError(f"probe {t!r} collides with an insertion")
    if t.im != 0:
        insertions = insertions + [(t.conj(), beta)]
    return _ipp_field(form, insertions)


# ---------------------------------------------------------------------------
# Probe-derivative identities
# ---------------------------------------------------------------------------

def verify_derivative_identity(lam, beta: CartanVector,
                               cfg: CorrelatorConfig):
    """Check the probe-derivative identity for index list lam; returns
    (holds, residual) with the residual an exact rational function of t.

    Supported: (1,) against d/dt of the log-correlator; (1,1) and (1,1,1)
    against the second and third normalized t-derivatives; (1,2) against
    d/dt composed with the sum over insertions of
    d/d z_k /(t - z_k) + Delta_k /(t - z_k)^2, with the half-weight
    engine value of Delta_k.  Every pole sum reads one set of pairings.
    """
    if isinstance(lam, int):
        lam = (lam,)
    lam = tuple(int(x) for x in lam)
    insertions = doubled_insertions(cfg)
    pairs = InsertionPairings(insertions)
    q = q_of_gamma(cfg.gamma)
    lhs = _ipp_field(l_form(lam, beta, q=q), pairs)

    # d/dt of the log-correlator: <beta, w_k> / (2 (z_k - t))
    P = _ipp_factor(beta, 1, pairs)
    if lam == (1,):
        rhs = P
    elif lam == (1, 1):
        rhs = P.derivative() + P * P
    elif lam == (1, 1, 1):
        dP = P.derivative()
        rhs = dP.derivative() + 3 * (P * dP) + P * P * P
    elif lam == (1, 2):
        # d/dz_k of the log-correlator is the level-1 ratio <w_k, d Phi>
        # at z_k; the double pole carries <w_k, beta>/2 + Delta_k
        terms = {}
        for k, (_, w) in enumerate(insertions):
            terms[(k, 1)] = -PoleSumTable(pairs, k).ratio(vec_factor(w, 1))
            terms[(k, 2)] = (P.terms.get((k, 1), CFrac(0))
                             + CFrac.of(engine_weight(w, q)))
        R = RationalField(pairs.points, terms)
        rhs = R.derivative() + R * P
    else:
        raise AlgebraError(
            f"unsupported derivative multi-index {lam!r} for identity check")
    residual = lhs - rhs
    return residual.is_zero, residual


# ---------------------------------------------------------------------------
# Pole sums at an insertion (engine-normalized constants)
# ---------------------------------------------------------------------------

def engine_weight(alpha_hat: CartanVector, q) -> Fraction:
    """Half-weight conformal constant attached to a doubled insertion."""
    return conformal_weight(alpha_hat, q=q) * Fraction(1, 2)


def engine_spin(alpha_hat: CartanVector, q) -> Fraction:
    """Half-weight spin constant attached to a doubled insertion.

    Equals half the closed-form spin of the doubled weight; it is the exact
    triple-pole coefficient of the current insertion at that point.
    """
    return spin(alpha_hat, q=q) / 2


class PoleSumTable:
    """Pole sums at one doubled insertion z_k over the other insertions.

    The entry for a factor (p, i), i.e. <E_i, d^p Phi>, is the pairings'
    ``factor(p, i)`` evaluated at t = z_k without its k-th pole:
    (p-1)!/2 sum_{l != k} <E_i, w_l> / (z_l - z_k)^p.  The tables of one
    configuration share an ``InsertionPairings`` (pass it in place of the
    (point, weight) list), so each factor's coefficients and each pair's
    reciprocal powers are formed once for all of them; each entry is
    summed once, on first use.  ``ratio`` reads a whole form through the
    table.
    """

    __slots__ = ("_pairs", "_k", "_sums")

    def __init__(self, insertions, k: int):
        pairs = _pairings_of(insertions)
        if not 0 <= k < len(pairs.points):
            raise AlgebraError(f"doubled index {k} out of range")
        self._pairs, self._k, self._sums = pairs, k, {}

    def __getitem__(self, factor) -> CFrac:
        s = self._sums.get(factor)
        if s is None:
            k, pairs = self._k, self._pairs
            s = CFrac(0)
            for (l, p), c in pairs.factor(*factor).terms.items():
                if l != k:
                    s = s + c * pairs.power(k, l, p)
            self._sums[factor] = s
        return s

    def ratio(self, form: FieldPolynomial) -> CFrac:
        """Descendant/primary ratio of ``form`` inserted at z_k."""
        total = CFrac(0)
        for m, coeff in form.terms.items():
            piece = CFrac.of(coeff)
            for factor in m.factors:
                piece = piece * self[factor]
            total = total + piece
        return total


def descendant_ratio_at(cfg: CorrelatorConfig, k: int,
                        form: FieldPolynomial) -> CFrac:
    """Descendant/primary ratio for a form inserted at doubled index k,
    with pole sums over the other doubled insertions evaluated at z_k
    (read through a ``PoleSumTable``)."""
    return PoleSumTable(doubled_insertions(cfg), k).ratio(form)


def w_current_field(cfg: CorrelatorConfig) -> RationalField:
    """Full spin-3 current insertion ratio as an exact rational function.

    Its polar data reproduce, insertion by insertion, the mode ratios: the
    simple pole carries the level-2 form, the double pole the level-1 form,
    and the triple pole the half-weight spin constant of the local weight.
    """
    current = FieldPolynomial.zero()
    for coeff, factors in miura_current_terms(q=cfg.q):
        term = FieldPolynomial.of((), coeff)
        for u, p in factors:
            term = term * vec_factor(u, p)
        current = current + term
    return _ipp_field(current, doubled_insertions(cfg))
