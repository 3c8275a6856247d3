"""Exact arithmetic core: rational-function scalars, complex rationals, and
rank-2 root-space vectors with the Cartan pairing.

Scalars are duck-typed so downstream symbolic layers can freely mix plain
``Fraction`` values with ``RatFunc`` elements (rational functions in one named
variable with exact coefficients).  Variables live on levels (``VAR_LEVEL``);
a level-1 variable may carry level-0 rational functions as coefficients, which
is how "polynomial in kappa over Q(q)" identities are represented without a
general multivariate engine.  All values are immutable after construction and
kept canonical, so structural equality is mathematical equality.

The two scalar types do their hot arithmetic without building intermediate
objects: a ``CFrac`` is one integer triple (a + b i)/d, and a ``RatFunc``
multiplies, shifts and compares by a constant (an int, a ``Fraction`` or a
lower-level ``RatFunc``) on its own numerator, without lifting the constant
to a ``RatFunc`` first.

``encode`` and ``decode`` are the one JSON form of these values: every
record of the exact layers serializes through ``encode``, most of them as
the field walk of ``Record``, and the records that are read back
(``FieldPolynomial``, ``CorrelatorConfig``, ``CartanVector``) read their
scalars with ``decode``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from math import gcd

DEGREE_CAP = 64

# Variable registry: name -> nesting level.  Same-level variables never mix;
# a higher-level RatFunc absorbs lower-level ones as scalar coefficients.
VAR_LEVEL = {"gamma": 0, "q": 0, "chi": 0, "kappa": 1, "s": 1}


class AlgebraError(ValueError):
    """Invalid exact-arithmetic operation (mixed variables, zero division...)."""


class DegreeOverflowError(AlgebraError):
    """A polynomial operation exceeded DEGREE_CAP (runaway computation guard)."""


def _as_coeff(x):
    """Normalize a scalar for the exact layer (ints become Fractions)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise AlgebraError("bool is not a scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, RatFunc):
        return x
    raise AlgebraError(f"unsupported exact scalar {type(x).__name__}")


def _is_zero(c) -> bool:
    return c == 0


def _rational(c: "RatFunc"):
    """c's value as a Fraction when it is a rational constant, else c."""
    r = c.as_constant()
    return c if r is None else r


_ZERO = Fraction(0)
_ONE = (Fraction(1),)


# ---------------------------------------------------------------------------
# Dense univariate polynomial helpers over a duck-typed coefficient field.
# Coefficient sequences are tuples, low degree first, trailing zeros stripped;
# the zero polynomial is the empty tuple.
# ---------------------------------------------------------------------------

def poly_trim(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and _is_zero(cs[-1]):
        cs.pop()
    return tuple(cs)


def poly_add(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return poly_trim(out)


def poly_neg(a) -> tuple:
    return tuple(-c for c in a)


def poly_scale(a, s) -> tuple:
    if _is_zero(s):
        return ()
    return poly_trim([c * s for c in a])


def _zero_slots(a) -> tuple:
    """a with every zero coefficient as ``_ZERO``, as ``poly_mul`` leaves the
    slots of a first factor's zeros."""
    return tuple(_ZERO if _is_zero(c) else c for c in a)


def poly_mul(a, b) -> tuple:
    if not a or not b:
        return ()
    deg = len(a) + len(b) - 2
    if deg > DEGREE_CAP:
        raise DegreeOverflowError(f"polynomial degree {deg} exceeds cap {DEGREE_CAP}")
    # each slot starts from its first product, not from a zero
    out = [None] * (deg + 1)
    for i, ca in enumerate(a):
        if _is_zero(ca):
            continue
        for j, cb in enumerate(b):
            prev = out[i + j]
            out[i + j] = ca * cb if prev is None else prev + ca * cb
    return poly_trim([_ZERO if c is None else c for c in out])


def poly_divmod(a, b):
    if not b:
        raise AlgebraError("polynomial division by zero")
    a = list(a)
    lead_inv = 1 / b[-1]
    qlen = max(0, len(a) - len(b) + 1)
    q = [_ZERO] * qlen
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * lead_inv
        if _is_zero(c):
            continue
        q[i] = c
        for j, cb in enumerate(b):
            a[i + j] = a[i + j] - cb * c
    return poly_trim(q), poly_trim(a[: len(b) - 1])


def poly_monic(a) -> tuple:
    if not a:
        return a
    return poly_scale(a, 1 / a[-1])


def poly_gcd(a, b) -> tuple:
    a, b = poly_trim(a), poly_trim(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a)


def poly_eval(a, x):
    """Horner evaluation; exact for exact coefficients, float for floats."""
    res = 0
    for c in reversed(a):
        res = res * x + c
    return res


def poly_from_shifts(scale, shifts) -> tuple:
    """Coefficients of scale * prod_s (x + s), one linear factor at a time;
    exact for exact inputs, float for floats."""
    poly = [scale]
    for s in shifts:
        poly = [poly[0] * s] + [poly[i] * s + poly[i - 1]
                                for i in range(1, len(poly))] + [poly[-1]]
    return tuple(poly)


def _poly_str(a, var: str) -> str:
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a):
        if _is_zero(c):
            continue
        cs = f"({c})" if isinstance(c, RatFunc) else str(c)
        if i == 0:
            parts.append(cs)
        elif i == 1:
            parts.append(f"{cs}*{var}")
        else:
            parts.append(f"{cs}*{var}^{i}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# Rational functions in one named variable, canonical (reduced, monic den).
# ---------------------------------------------------------------------------

class RatFunc:
    """num/den rational function in one registered variable.

    Coefficients are Fractions or RatFuncs in a strictly lower-level
    variable; a lower-level coefficient that is constant is a Fraction.
    The representation is reduced with monic denominator, so ``==`` decides
    mathematical equality.

    The public constructor checks the variable and coerces and trims every
    coefficient.  Results of arithmetic, and the constants it lifts, are
    built by ``_canonical`` from parts that are already canonical, without
    those checks.  Reduction takes these fast paths:

    * a constant denominator skips the gcd, which is then always 1;
    * a monomial denominator c*x^k takes the gcd x^j, j the number of
      leading zero coefficients of the numerator (at most k), by slicing;
    * a denominator that is already monic is not rescaled;
    * equal denominators add without being multiplied;
    * a reciprocal, whose parts are coprime already, is only made monic.

    A constant c (an int, a Fraction or a lower-level RatFunc) is not
    lifted when this value's own operator runs over a Fraction-led
    denominator: x * c and x +- c are (c num)/den and (num +- c den)/den,
    reduced over the same den already, and x == c
    compares den with 1 and num with (c,) or ().  Zero slots come out as
    the lifting path's ``poly_mul`` leaves them, so every result is that
    path's, coefficient types included.  Other mixed operations lift the
    smaller operand to a constant.
    """

    __slots__ = ("var", "num", "den")

    def __init__(self, var: str, num, den=_ONE):
        if var not in VAR_LEVEL:
            raise AlgebraError(f"unregistered variable {var!r}")
        num = poly_trim(tuple(_as_coeff(c) for c in num))
        den = poly_trim(tuple(_as_coeff(c) for c in den))
        if not den:
            raise AlgebraError("zero denominator")
        self._reduce(var, num, den)

    @staticmethod
    def _canonical(var: str, num: tuple, den: tuple) -> "RatFunc":
        """num/den from trimmed tuples of canonical coefficients, den != 0."""
        out = object.__new__(RatFunc)
        out._reduce(var, num, den)
        return out

    def _reduce(self, var, num, den):
        """Set the fields to num/den reduced, with a monic denominator."""
        k = len(den) - 1
        if k and all(_is_zero(c) for c in den[:k]):
            j = next((i for i, c in enumerate(num[:k]) if not _is_zero(c)), k)
            num, den = num[j:], den[j:]
        elif k:
            g = poly_gcd(num, den)
            if len(g) > 1:
                num, _ = poly_divmod(num, g)
                den, _ = poly_divmod(den, g)
        self._set_monic(var, num, den)

    def _set_monic(self, var, num, den):
        """Set the fields to num/den, coprime already, over a denominator
        led by the Fraction 1.  A lower-level lead is divided out.  Every
        lower-level coefficient that is constant is stored as a Fraction,
        so that one value has one form whichever path built it: every
        public construction ends here, and so does every result that can
        make such a coefficient."""
        lead = den[-1]
        if not isinstance(lead, Fraction):
            lead_inv = 1 / lead
            num = tuple(c * lead_inv for c in num)
            den = tuple(c * lead_inv for c in den[:-1]) + _ONE
        elif lead != 1:
            lead_inv = 1 / lead
            num, den = poly_scale(num, lead_inv), poly_scale(den, lead_inv)
        if VAR_LEVEL[var]:          # a level-0 value has only Fractions
            num = tuple(_rational(c) if type(c) is RatFunc else c for c in num)
            den = tuple(_rational(c) if type(c) is RatFunc else c for c in den)
        self.var, self.num, self.den = var, num, den

    # -- coercion ----------------------------------------------------------

    def _wrap(self, value) -> "RatFunc":
        c = _as_coeff(value)
        return RatFunc._canonical(self.var, () if _is_zero(c) else (c,), _ONE)

    def _constant(self, other):
        """other as a constant of this ring (an int becomes a Fraction), or
        None for a bool, a foreign type, or a RatFunc not in a lower-level
        variable."""
        if isinstance(other, Fraction):
            return other
        if isinstance(other, RatFunc):
            return other if VAR_LEVEL[other.var] < VAR_LEVEL[self.var] else None
        if isinstance(other, int) and not isinstance(other, bool):
            return Fraction(other)
        return None

    def _scaled(self, c) -> "RatFunc":
        """c * self for a constant c: (c num)/den, already reduced over the
        same monic denominator.  Zero slots become ``_ZERO``, as in
        ``poly_mul``."""
        out = object.__new__(RatFunc)
        if _is_zero(c):
            out.var, out.num, out.den = self.var, (), _ONE
        else:
            out._set_monic(self.var, tuple(_ZERO if _is_zero(x) else x * c
                                           for x in self.num),
                           _zero_slots(self.den))
        return out

    def _shifted(self, c) -> "RatFunc":
        """self + c for a constant c: (num + c den)/den, already reduced over
        the same monic denominator.  Over a non-constant denominator the
        zero slots of num and den become ``_ZERO``, as in ``poly_mul``."""
        num, den = self.num, self.den
        if len(den) == 1:
            if _is_zero(c):
                return self
            num = poly_add(num, (c,))
        else:
            num = _zero_slots(num)
            if not _is_zero(c):
                num = poly_add(num, tuple(c * x for x in den))
            den = _zero_slots(den)
        out = object.__new__(RatFunc)
        out._set_monic(self.var, num, den)
        return out

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return self, self._wrap(other)
        if isinstance(other, RatFunc):
            if other.var == self.var:
                return self, other
            sl, ol = VAR_LEVEL[self.var], VAR_LEVEL[other.var]
            if ol < sl:
                return self, self._wrap(other)
            if sl < ol:
                return other._wrap(self), other
            raise AlgebraError(
                f"cannot mix same-level variables {self.var!r} and {other.var!r}")
        return None

    # -- ring/field operations --------------------------------------------

    def __add__(self, other):
        c = self._constant(other)
        if c is not None and isinstance(self.den[-1], Fraction):
            return self._shifted(c)
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.den == b.den:
            return RatFunc._canonical(a.var, poly_add(a.num, b.num), a.den)
        num = poly_add(poly_mul(a.num, b.den), poly_mul(b.num, a.den))
        return RatFunc._canonical(a.var, num, poly_mul(a.den, b.den))

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RatFunc)
        out.var, out.num, out.den = self.var, poly_neg(self.num), self.den
        return out

    def __sub__(self, other):
        c = self._constant(other)
        if c is not None and isinstance(self.den[-1], Fraction):
            return self._shifted(-c)
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        c = self._constant(other)
        if c is not None and isinstance(self.den[-1], Fraction):
            return self._scaled(c)
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return RatFunc._canonical(a.var, poly_mul(a.num, b.num),
                                  poly_mul(a.den, b.den))

    __rmul__ = __mul__

    def reciprocal(self) -> "RatFunc":
        if not self.num:
            raise AlgebraError("division by zero rational function")
        # num and den are coprime already: only the new denominator's
        # leading coefficient is divided out
        out = object.__new__(RatFunc)
        out._set_monic(self.var, self.den, self.num)
        return out

    def __truediv__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.reciprocal()

    def __rtruediv__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return b * a.reciprocal()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.reciprocal() ** (-n)
        result = self._wrap(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __eq__(self, other):
        c = self._constant(other)
        if c is not None:
            return self.den == _ONE and self.num == (() if _is_zero(c) else (c,))
        try:
            pair = self._coerce(other)
        except AlgebraError:
            return False
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.num == b.num and a.den == b.den

    __hash__ = None

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    def as_constant(self):
        """Return the underlying scalar if degree (<=0, 0), else None.

        Recurses through nested constant RatFunc coefficients so a doubly
        lifted rational number comes back as a plain Fraction.
        """
        if self.num == () and len(self.den) == 1:
            return Fraction(0)
        if len(self.num) == 1 and len(self.den) == 1:
            c = self.num[0] / self.den[0]
            if isinstance(c, RatFunc):
                return c.as_constant()
            return c
        return None

    def evaluate(self, assignment: dict):
        """Evaluate at concrete values, e.g. {"gamma": 0.6} or exact Fractions.

        Nested coefficients are evaluated recursively; every variable that
        occurs must be assigned.  Raises on denominator zeros.
        """
        def ev(c):
            return c.evaluate(assignment) if isinstance(c, RatFunc) else c

        if self.var not in assignment:
            raise AlgebraError(f"no value supplied for variable {self.var!r}")
        x = assignment[self.var]
        num = 0
        for c in reversed(self.num):
            num = num * x + ev(c)
        den = 0
        for c in reversed(self.den):
            den = den * x + ev(c)
        if den == 0:
            raise AlgebraError(f"evaluation hits a pole of {self.var!r}")
        return num / den

    def __repr__(self):
        num = _poly_str(self.num, self.var)
        if self.den == _ONE:
            return num
        return f"({num})/({_poly_str(self.den, self.var)})"


def variable(name: str) -> RatFunc:
    return RatFunc(name, (Fraction(0), Fraction(1)))


# ---------------------------------------------------------------------------
# Exact complex rationals, used for insertion positions and pole-sum algebra.
# ---------------------------------------------------------------------------

class CFrac:
    """Complex number with exact rational real and imaginary parts.

    A value is one integer triple (a, b, d) standing for (a + b i)/d, with
    d > 0 and gcd(a, b, d) = 1, so ``==`` compares triples and a real value
    hashes as its ``Fraction``.  ``re`` and ``im`` are read-only
    ``Fraction`` views.  The public constructor coerces both parts through
    ``Fraction``.  Arithmetic works on the integers and builds its results
    through ``_canonical``, which divides out one gcd.  A real operand
    scales the other's parts with two products instead of four, equal
    denominators add without being multiplied, and the reciprocal is
    d (a - b i)/(a^2 + b^2).
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        q, s = re.denominator, im.denominator
        # over lcm(q, s) the triple is already coprime
        d = q // gcd(q, s) * s
        self._a = re.numerator * (d // q)
        self._b = im.numerator * (d // s)
        self._d = d

    @staticmethod
    def _canonical(a: int, b: int, d: int) -> "CFrac":
        """(a + b i)/d from ints with d > 0, divided by gcd(a, b, d)."""
        g = gcd(a, b, d)
        out = object.__new__(CFrac)
        out._a, out._b, out._d = a // g, b // g, d // g
        return out

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def of(x) -> "CFrac":
        if isinstance(x, CFrac):
            return x
        if isinstance(x, bool):
            raise AlgebraError("bool is not a scalar")
        if isinstance(x, Fraction):
            return CFrac._canonical(x.numerator, 0, x.denominator)
        if isinstance(x, int):
            return CFrac._canonical(x, 0, 1)
        raise AlgebraError(f"cannot interpret {type(x).__name__} as exact complex")

    @staticmethod
    def _parts(other):
        """The canonical triple of an exact operand, or None."""
        if isinstance(other, CFrac):
            return other._a, other._b, other._d
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        if isinstance(other, int) and not isinstance(other, bool):
            return other, 0, 1
        return None

    def __add__(self, other):
        o = CFrac._parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        if d == self._d:
            return CFrac._canonical(self._a + a, self._b + b, d)
        return CFrac._canonical(self._a * d + a * self._d,
                                self._b * d + b * self._d, self._d * d)

    __radd__ = __add__

    def __neg__(self):
        return CFrac._canonical(-self._a, -self._b, self._d)

    def __sub__(self, other):
        o = CFrac._parts(other)
        if o is None:
            return NotImplemented
        return self + CFrac._canonical(-o[0], -o[1], o[2])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = CFrac._parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        sa, sb = self._a, self._b
        # a real factor scales the other's parts: two products, not four
        if b == 0:
            return CFrac._canonical(sa * a, sb * a, self._d * d)
        if sb == 0:
            return CFrac._canonical(sa * a, sa * b, self._d * d)
        return CFrac._canonical(sa * a - sb * b, sa * b + sb * a, self._d * d)

    __rmul__ = __mul__

    def conj(self) -> "CFrac":
        return CFrac._canonical(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        return Fraction(self._a * self._a + self._b * self._b,
                        self._d * self._d)

    def reciprocal(self) -> "CFrac":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise AlgebraError("division by zero complex rational")
        return CFrac._canonical(d * a, -d * b, n)

    @staticmethod
    def _quotient(x, y) -> "CFrac":
        """x / y for canonical triples: d_y x conj(y_num) / (d_x |y_num|^2)."""
        a, b, d = x
        c, e, f = y
        n = c * c + e * e
        if n == 0:
            raise AlgebraError("division by zero complex rational")
        return CFrac._canonical((a * c + b * e) * f, (b * c - a * e) * f, d * n)

    def __truediv__(self, other):
        o = CFrac._parts(other)
        if o is None:
            return NotImplemented
        return CFrac._quotient((self._a, self._b, self._d), o)

    def __rtruediv__(self, other):
        o = CFrac._parts(other)
        if o is None:
            return NotImplemented
        return CFrac._quotient(o, (self._a, self._b, self._d))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.reciprocal() ** (-n)
        result = CFrac(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        o = CFrac._parts(other)
        if o is None:
            return NotImplemented
        return self._a == o[0] and self._b == o[1] and self._d == o[2]

    def __hash__(self):
        if self._b == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    @property
    def is_real(self) -> bool:
        return self._b == 0

    def __complex__(self):
        # int true division rounds correctly, as float(Fraction) does
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        if self._b == 0:
            return f"CFrac({self.re})"
        return f"CFrac({self.re}, {self.im})"


# ---------------------------------------------------------------------------
# Rank-2 Cartan space: vectors in simple-root coordinates, pairing by the
# Cartan matrix [[2,-1],[-1,2]].
# ---------------------------------------------------------------------------

class CartanVector:
    """Vector in the rank-2 root space, coordinates in the simple-root basis."""

    __slots__ = ("c1", "c2")

    def __init__(self, c1, c2):
        self.c1 = _as_coeff(c1)
        self.c2 = _as_coeff(c2)

    def __add__(self, other):
        if not isinstance(other, CartanVector):
            return NotImplemented
        return CartanVector(self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other):
        if not isinstance(other, CartanVector):
            return NotImplemented
        return CartanVector(self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self):
        return CartanVector(-self.c1, -self.c2)

    def __mul__(self, scalar):
        if isinstance(scalar, CartanVector):
            return NotImplemented
        return CartanVector(self.c1 * scalar, self.c2 * scalar)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, CartanVector):
            return NotImplemented
        return self.c1 == other.c1 and self.c2 == other.c2

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return _is_zero(self.c1) and _is_zero(self.c2)

    def to_omega(self):
        """Coordinates in the fundamental-weight basis: a_i = <v, e_i>."""
        return (2 * self.c1 - self.c2, -self.c1 + 2 * self.c2)

    @staticmethod
    def from_omega(a1, a2) -> "CartanVector":
        a1, a2 = _as_coeff(a1), _as_coeff(a2)
        third = Fraction(1, 3)
        return CartanVector((2 * a1 + a2) * third, (a1 + 2 * a2) * third)

    def evaluate(self, assignment: dict):
        def ev(c):
            return c.evaluate(assignment) if isinstance(c, RatFunc) else c
        return (ev(self.c1), ev(self.c2))

    @staticmethod
    def from_json(data) -> "CartanVector":
        """The vector whose ``encode`` is ``data``."""
        return CartanVector(decode(data[0]), decode(data[1]))

    def __repr__(self):
        return f"CartanVector({self.c1!r}, {self.c2!r})"


# ---------------------------------------------------------------------------
# The JSON form of exact values.  ``encode`` writes it and ``decode`` reads a
# scalar back; no other code in the package knows what it looks like.
# ---------------------------------------------------------------------------

def encode(x):
    """The JSON form of an exact value, or of a record of them.

    A ``Fraction`` is its string ("3/4"), a ``CFrac`` the pair [re, im] of
    such strings, and a ``RatFunc`` {"var", "num", "den"} with every
    coefficient encoded in turn, so that kappa over Q(q) nests.  A
    ``CartanVector`` becomes a list.  A record is its ``to_json``.  Any
    other tuple or list becomes a list and a dict keeps its keys, with
    their entries encoded.  None, bools, ints, floats and strings stay as
    they are.
    """
    if x is None or isinstance(x, (int, float, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, CFrac):
        return [str(x.re), str(x.im)]
    if isinstance(x, RatFunc):
        return {"var": x.var, "num": [encode(c) for c in x.num],
                "den": [encode(c) for c in x.den]}
    if isinstance(x, CartanVector):
        return [encode(x.c1), encode(x.c2)]
    if hasattr(x, "to_json"):
        return x.to_json()
    if isinstance(x, (tuple, list)):
        return [encode(v) for v in x]
    if isinstance(x, dict):
        return {k: encode(v) for k, v in x.items()}
    raise AlgebraError(f"no JSON form for {type(x).__name__}")


def decode(data):
    """The exact scalar whose ``encode`` is ``data``, read with no type
    hint: a string is a ``Fraction``, a pair a ``CFrac`` and a dict with
    "var" a ``RatFunc``; None and numbers come back as they are."""
    if data is None or isinstance(data, (int, float)):
        return data
    try:
        if isinstance(data, str):
            return Fraction(data)
        if isinstance(data, list) and len(data) == 2:
            return CFrac(decode(data[0]), decode(data[1]))
        if isinstance(data, dict) and "var" in data:
            return RatFunc(data["var"], [decode(c) for c in data["num"]],
                           [decode(c) for c in data["den"]])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise AlgebraError(
            f"cannot decode {data!r} as an exact scalar: {exc}") from None
    raise AlgebraError(f"cannot decode {data!r} as an exact scalar")


class Record:
    """Base of the exact layers' frozen dataclass records: the JSON form
    of one is {field: encode(value)}, in field order."""

    def to_json(self) -> dict:
        return {f.name: encode(getattr(self, f.name)) for f in fields(self)}


def inner(u: CartanVector, v: CartanVector):
    """Cartan-matrix pairing <u, v> = sum_ij A_ij u_i v_j, formed as
    v_1 (2 u_1 - u_2) + v_2 (2 u_2 - u_1) with a rational vector as u, so
    that the other side's coordinates enter two products and one sum."""
    if not (isinstance(u.c1, Fraction) and isinstance(u.c2, Fraction)):
        u, v = v, u
    return v.c1 * (2 * u.c1 - u.c2) + v.c2 * (2 * u.c2 - u.c1)


E1 = CartanVector(1, 0)
E2 = CartanVector(0, 1)
OMEGA1 = CartanVector(Fraction(2, 3), Fraction(1, 3))
OMEGA2 = CartanVector(Fraction(1, 3), Fraction(2, 3))
RHO = CartanVector(1, 1)
H1 = OMEGA1
H2 = CartanVector(Fraction(-1, 3), Fraction(1, 3))
H3 = CartanVector(Fraction(-1, 3), Fraction(-2, 3))
_HVECS = (H1, H2, H3)


def q_of_gamma(gamma=None):
    """Background-charge scalar q = gamma + 2/gamma (symbolic by default)."""
    g = variable("gamma") if gamma is None else _as_coeff(gamma)
    return g + 2 / g


def background_charge(q) -> CartanVector:
    return _as_coeff(q) * RHO


@dataclass(frozen=True)
class Sl3Constants:
    e1: CartanVector
    e2: CartanVector
    omega1: CartanVector
    omega2: CartanVector
    rho: CartanVector
    h1: CartanVector
    h2: CartanVector
    h3: CartanVector
    q: object
    Q: CartanVector
    gamma: object


def constants(gamma=None) -> Sl3Constants:
    """Root data plus the gamma-dependent background charge Q = q*rho."""
    g = variable("gamma") if gamma is None else _as_coeff(gamma)
    q = g + 2 / g
    return Sl3Constants(E1, E2, OMEGA1, OMEGA2, RHO, H1, H2, H3, q, q * RHO, g)


def conformal_weight(alpha: CartanVector, q=None):
    """Delta(alpha) = <alpha, Q> - |alpha|^2 / 2 with Q = q*rho."""
    if q is None:
        q = q_of_gamma()
    Qv = background_charge(q)
    return inner(alpha, Qv) - inner(alpha, alpha) * Fraction(1, 2)


def _spin_product(alpha: CartanVector, q):
    """prod_i <h_i, alpha - Q> over the weights h_i of the fundamental."""
    shifted = alpha - background_charge(q)
    prod = Fraction(1)
    for h in _HVECS:
        prod = prod * inner(h, shifted)
    return prod


@lru_cache(maxsize=1)
def cw_constant() -> Fraction:
    """Spin normalization solved from the degenerate-weight ratio identity.

    The constant c_w is fixed by requiring 3*w(kappa*omega1) / (2*Delta) to
    equal q - 2*kappa/3 identically in (q, kappa); it is computed here rather
    than hard-coded.
    """
    q = variable("q")
    kappa = variable("kappa")
    alpha = kappa * OMEGA1
    target = q - kappa * Fraction(2, 3)
    cw = target * 2 * conformal_weight(alpha, q) / (3 * _spin_product(alpha, q))
    value = cw.as_constant() if isinstance(cw, RatFunc) else cw
    if not isinstance(value, Fraction):
        raise AlgebraError("spin normalization did not reduce to a constant")
    return value


def spin(alpha: CartanVector, q=None):
    """w(alpha) = c_w * prod_i <h_i, alpha - Q>, antisymmetric about Q."""
    if q is None:
        q = q_of_gamma()
    return cw_constant() * _spin_product(alpha, q)
