"""Exact arithmetic core: rational-function scalars, complex rationals, and
rank-2 root-space vectors with the Cartan pairing.

Scalars are duck-typed so downstream symbolic layers can freely mix plain
``Fraction`` values with ``RatFunc`` elements (rational functions in one named
variable with exact coefficients).  Variables live on levels (``VAR_LEVEL``);
a level-1 variable may carry level-0 rational functions as coefficients, which
is how "polynomial in kappa over Q(q)" identities are represented without a
general multivariate engine.  All values are immutable after construction and
kept canonical, so structural equality is mathematical equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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

    Coefficients are Fractions or RatFuncs in a strictly lower-level variable.
    The representation is reduced with monic denominator, so ``==`` decides
    mathematical equality; mixed operations with int/Fraction and lower-level
    RatFuncs lift the smaller operand to a constant.

    The public constructor checks the variable and coerces and trims every
    coefficient.  Results of arithmetic, and the constants it lifts, are
    built by ``_canonical`` from parts that are already canonical, without
    those checks.  Reduction takes these fast paths:

    * a constant denominator skips the gcd, which is then always 1;
    * a monomial denominator c*x^k takes the gcd x^j, j the number of
      leading zero coefficients of the numerator (at most k), by slicing;
    * a denominator that is already monic is not rescaled;
    * equal denominators add without being multiplied.
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
        self.var = var
        if isinstance(den[-1], Fraction) and den[-1] == 1:
            self.num, self.den = num, den
            return
        lead_inv = 1 / den[-1]
        self.num = poly_scale(num, lead_inv)
        self.den = poly_scale(den, lead_inv) if not _is_zero(lead_inv - 1) else den

    # -- coercion ----------------------------------------------------------

    def _wrap(self, value) -> "RatFunc":
        c = _as_coeff(value)
        return RatFunc._canonical(self.var, () if _is_zero(c) else (c,), _ONE)

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
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
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
        return RatFunc._canonical(self.var, self.den, self.num)

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

    def to_json(self) -> dict:
        def enc(cs):
            out = []
            for c in cs:
                if not isinstance(c, Fraction):
                    raise AlgebraError("JSON form requires rational coefficients")
                out.append(str(c))
            return out
        return {"num": enc(self.num), "den": enc(self.den)}

    def __repr__(self):
        num = _poly_str(self.num, self.var)
        if self.den == _ONE:
            return num
        return f"({num})/({_poly_str(self.den, self.var)})"


def variable(name: str) -> RatFunc:
    return RatFunc(name, (Fraction(0), Fraction(1)))


def ratfunc_from_json(var: str, data: dict) -> RatFunc:
    num = tuple(Fraction(c) for c in data["num"])
    den = tuple(Fraction(c) for c in data["den"])
    return RatFunc(var, num, den)


# ---------------------------------------------------------------------------
# Exact complex rationals, used for insertion positions and pole-sum algebra.
# ---------------------------------------------------------------------------

class CFrac:
    """Complex number with exact rational real and imaginary parts.

    The public constructor coerces both parts to ``Fraction``.  Results of
    arithmetic, whose parts are Fractions already, are built by
    ``_canonical`` without that re-wrap, and a real factor scales the
    other's parts with two products instead of four.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _canonical(re: Fraction, im: Fraction) -> "CFrac":
        out = object.__new__(CFrac)
        out.re, out.im = re, im
        return out

    @staticmethod
    def of(x) -> "CFrac":
        if isinstance(x, CFrac):
            return x
        if isinstance(x, bool):
            raise AlgebraError("bool is not a scalar")
        if isinstance(x, (int, Fraction)):
            return CFrac(x)
        raise AlgebraError(f"cannot interpret {type(x).__name__} as exact complex")

    def _coerce(self, other):
        if isinstance(other, CFrac):
            return other
        if isinstance(other, bool):
            return None
        if isinstance(other, (int, Fraction)):
            return CFrac(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CFrac._canonical(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return CFrac._canonical(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CFrac._canonical(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # a real factor scales the other's parts: two products, not four
        if o.im == 0:
            return CFrac._canonical(self.re * o.re, self.im * o.re)
        if self.im == 0:
            return CFrac._canonical(self.re * o.re, self.re * o.im)
        return CFrac._canonical(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conj(self) -> "CFrac":
        return CFrac._canonical(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def reciprocal(self) -> "CFrac":
        n = self.abs2()
        if n == 0:
            raise AlgebraError("division by zero complex rational")
        return CFrac._canonical(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
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

    def to_json(self):
        def enc(c):
            if isinstance(c, Fraction):
                return str(c)
            raise AlgebraError("JSON form requires rational coordinates")
        return [enc(self.c1), enc(self.c2)]

    @staticmethod
    def from_json(data) -> "CartanVector":
        return CartanVector(Fraction(data[0]), Fraction(data[1]))

    def __repr__(self):
        return f"CartanVector({self.c1!r}, {self.c2!r})"


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
