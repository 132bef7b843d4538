"""Exact arithmetic in the cyclotomic field Q(zeta12).

Every quantity in this package lives in the degree-4 number field
Q(zeta), where zeta = exp(i*pi/6) is a primitive twelfth root of unity
with minimal polynomial

    zeta**4 - zeta**2 + 1 = 0.

The field contains all special constants of the loop model at its
combinatorial point:

    q = zeta**4     primitive cube root of unity, q + 1/q = -1,
    i = zeta**3     imaginary unit, generating the fourth roots s.

A Scalar stores four rationals (c0, c1, c2, c3) representing

    c0 + c1*zeta + c2*zeta**2 + c3*zeta**3.

Products are reduced with zeta**4 = zeta**2 - 1 (hence zeta**6 = -1),
so the representation is canonical and syntactic equality of the
coefficient vectors coincides with equality in the field.  There is no
floating point anywhere: the four coefficients are kept as integer
numerators over one positive common denominator in lowest terms.
Scalars combine and compare only with Scalars: a Python int or Fraction
enters the field through a constructor (`Scalar(coeffs)`,
`Scalar.from_rational`, `Scalar.from_integers`) and leaves it through
`Scalar.coeffs` or `Scalar.rational_value`, as Fraction values.

An inverse is a conjugate over the norm.  Every value at a rational
point with s = +-1 lies in the subfield Q(zeta^2) = Q(sqrt(-3)), where
c1 = c3 = 0; there the one conjugate zeta^2 -> 1 - zeta^2 does, and only
other elements take the product of all three nontrivial conjugates.

Bulk contractions skip the per-product gcd and run on those Z[zeta]
numerators, plain 4-tuples of ints: `cleared` (and `cleared_columns`,
for sparse columns) puts Scalars over one denominator.  A
`SparseOperator` holds only that integer form, sparse columns over one
denominator.  `zmul` is the one product rule on such numerators, in
the smallest of Z, Z[zeta^2] and Z[zeta] holding both factors: it is
behind `Scalar.__mul__` and `Scalar.inv`, behind `addmul`, the
multiply-add of operator products, and behind the p-adic lifting, on
packed big ints.  The transfer sweep alone writes its Z[zeta^2] product
out inline, which is faster (`transfer._layer`).  Neither `addmul` nor
`same_columns`, which cross-multiplies two denominators, takes a gcd.
`ring_degree` reads the smallest of those rings holding some
numerators; the p-adic lifting chooses its ring with it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Iterable, Sequence, Union

__all__ = [
    "Scalar",
    "ZERO",
    "ONE",
    "ZETA",
    "Q",
    "IMAG",
    "FOURTH_ROOTS",
    "bracket",
    "kfun",
    "cleared",
    "cleared_columns",
    "ring_degree",
    "zmul",
    "addmul",
    "same_columns",
]

_RationalLike = Union[int, Fraction]


def _raw(n: tuple[int, int, int, int], d: int) -> Scalar:
    """Scalar n / d from numerators and a denominator already in lowest terms."""
    x = object.__new__(Scalar)
    x._n = n
    x._d = d
    return x


def _make(n0: int, n1: int, n2: int, n3: int, d: int) -> Scalar:
    """Scalar (n0 + n1 zeta + n2 zeta^2 + n3 zeta^3) / d in lowest terms."""
    g = gcd(d, n0, n1, n2, n3)  # denominator first: gcd stops early at 1
    if d < 0:
        g = -g
    return _raw((n0 // g, n1 // g, n2 // g, n3 // g), d // g)


def zmul(a: tuple, b: tuple) -> tuple:
    """The product a b of two Z[zeta] numerator 4-tuples, the package's
    one product rule, reduced by zeta^4 = zeta^2 - 1, zeta^5 = zeta^3 -
    zeta and zeta^6 = -1, each of l1 norm at most 2: |a b|_1 <= 2 |a|_1
    |b|_1.  Where neither factor has a zeta or zeta^3 part it is taken in
    Z[omega], omega = zeta^2: (a0 + a2 omega)(b0 + b2 omega) = (a0 b0 -
    a2 b2) + ((a0 + a2)(b0 + b2) - a0 b0) omega, three products, and in
    Z, one product, where neither has an omega part either.

    Being linear in each factor, it takes one factor's parts packed,
    sum_i x_i 2^(W i) over signed slots below 2^(W-1) in size: the
    product is the packing of the slot by slot products while they stay
    below that too, and a packed part is 0 only where all its slots are.
    """
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    if a1 or a3 or b1 or b3:
        t4 = a1 * b3 + a2 * b2 + a3 * b1
        t5 = a2 * b3 + a3 * b2
        return (
            a0 * b0 - t4 - a3 * b3,
            a0 * b1 + a1 * b0 - t5,
            a0 * b2 + a1 * b1 + a2 * b0 + t4,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + t5,
        )
    if a2 or b2:
        t = a0 * b0
        return (t - a2 * b2, 0, (a0 + a2) * (b0 + b2) - t, 0)
    return (a0 * b0, 0, 0, 0)


class Scalar:
    """An element of Q(zeta12) in the basis (1, zeta, zeta^2, zeta^3).

    Stored as four integer numerators over one positive common
    denominator, with the gcd of all five equal to 1.  That form is
    canonical, so equality and hashing compare it directly, and the
    ring operations run on machine integers with a single gcd at the
    end instead of one per rational coefficient.  Arithmetic and
    equality take only Scalars (the exponent of ** is an int): Python
    numbers enter through the constructors and leave through `coeffs`
    and `rational_value`, so ONE != 1 and ONE + 1 is a TypeError.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, coeffs: Sequence[_RationalLike] = (0, 0, 0, 0)):
        if len(coeffs) != 4:
            raise ValueError("Scalar needs exactly 4 coefficients")
        fracs = [Fraction(c) for c in coeffs]
        d = lcm(*(f.denominator for f in fracs))
        self._n = tuple(f.numerator * (d // f.denominator) for f in fracs)
        self._d = d

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value: _RationalLike) -> Scalar:
        f = Fraction(value)
        return _make(f.numerator, 0, 0, 0, f.denominator)

    @classmethod
    def zero(cls) -> Scalar:
        return cls()

    @classmethod
    def one(cls) -> Scalar:
        return cls((1, 0, 0, 0))

    @classmethod
    def from_integers(cls, nums: Sequence[int], den: int) -> Scalar:
        """(n0 + n1 zeta + n2 zeta^2 + n3 zeta^3) / den for four integers
        and den > 0, reduced to lowest terms."""
        n0, n1, n2, n3 = nums
        return _make(n0, n1, n2, n3, den)

    # -- views --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(Fraction(n, self._d) for n in self._n)

    def is_zero(self) -> bool:
        return self._n == (0, 0, 0, 0)

    def is_rational(self) -> bool:
        return self._n[1:] == (0, 0, 0)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self._n[0], self._d)

    # -- ring operations ----------------------------------------------
    # Every operand is a Scalar; anything else is NotImplemented.  The
    # reflected names stay attributes: perfbench/tracer.py wraps each one
    # by name through Scalar.__dict__.

    def __add__(self, o: Scalar) -> Scalar:
        if not isinstance(o, Scalar):
            return NotImplemented
        # As in Fraction addition: each operand's numerators are coprime
        # to its denominator, so only a factor of g = gcd(da, db) cancels.
        (a0, a1, a2, a3), da = self._n, self._d
        (b0, b1, b2, b3), db = o._n, o._d
        g = gcd(da, db)
        s, r = da // g, db // g
        t = (a0 * r + b0 * s, a1 * r + b1 * s, a2 * r + b2 * s, a3 * r + b3 * s)
        g2 = gcd(g, *t)
        return _raw(tuple(x // g2 for x in t), s * (db // g2))

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        return _raw(tuple(-a for a in self._n), self._d)

    def __sub__(self, o: Scalar) -> Scalar:
        return self + (-o) if isinstance(o, Scalar) else NotImplemented

    def __rsub__(self, o: Scalar) -> Scalar:
        return o - self if isinstance(o, Scalar) else NotImplemented

    def __mul__(self, o: Scalar) -> Scalar:
        if not isinstance(o, Scalar):
            return NotImplemented
        return _make(*zmul(self._n, o._n), self._d * o._d)

    __rmul__ = __mul__

    def inv(self) -> Scalar:
        """Multiplicative inverse: a conjugate over the norm.

        On the subfield Q(zeta^2) = Q(sqrt(-3)), where c1 = c3 = 0 (every
        rational among them), that is the one conjugate zeta^2 -> 1 - zeta^2:
        1 / (c0 + c2 zeta^2) = ((c0 + c2) - c2 zeta^2) / (c0^2 + c0 c2 + c2^2).
        Every other element takes the product of its three nontrivial
        Galois conjugates (zeta -> zeta^5, zeta^7, zeta^11) over the norm.
        """
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero Scalar")
        (c0, c1, c2, c3), d = self._n, self._d
        if not (c1 or c3):
            return _make(d * (c0 + c2), 0, -d * c2, 0, c0 * c0 + c0 * c2 + c2 * c2)
        s5, s7 = (c0 + c2, -c1, -c2, c1 + c3), (c0, -c1, c2, -c3)
        adj = zmul(zmul(s5, s7), (c0 + c2, c1, -c2, -c1 - c3))
        # self * adj = norm(numerators) / d, a nonzero rational.
        norm = zmul(self._n, adj)[0]
        return _make(*(a * d for a in adj), norm)

    def __truediv__(self, o: Scalar) -> Scalar:
        return self * o.inv() if isinstance(o, Scalar) else NotImplemented

    def __rtruediv__(self, o: Scalar) -> Scalar:
        return o * self.inv() if isinstance(o, Scalar) else NotImplemented

    def __pow__(self, n: int) -> Scalar:
        if not isinstance(n, int):
            return NotImplemented
        base = self.inv() if n < 0 else self
        n = abs(n)
        result = Scalar.one()
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons and hashing --------------------------------------

    def __eq__(self, o: object) -> bool:
        if not isinstance(o, Scalar):
            return NotImplemented
        return self._d == o._d and self._n == o._n

    def __hash__(self) -> int:
        return hash((self._n, self._d))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        if self.is_rational():
            return f"Scalar({self.rational_value()})"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            unit = "" if k == 0 else ("z" if k == 1 else f"z^{k}")
            terms.append(f"{c}{'*' if unit else ''}{unit}")
        return "Scalar(" + " + ".join(terms) + ")"


ZERO = Scalar.zero()
ONE = Scalar.one()
ZETA = Scalar((0, 1, 0, 0))
Q = ZETA ** 4
IMAG = ZETA ** 3

# All solutions of s**4 = 1, by the name the command line gives them.
FOURTH_ROOTS = {"1": ONE, "-1": -ONE, "i": IMAG, "-i": -IMAG}


def bracket(z: Scalar) -> Scalar:
    """[z] = z - 1/z, the elementary antisymmetric building block."""
    return z - z.inv()


def kfun(z: Scalar, zeta: Scalar) -> Scalar:
    """k(z, zeta) = [z/(q zeta)] [z zeta / q].

    Expanding with q + 1/q = -1 gives the handy normal form
    k(z, zeta) = q z^2 + 1/(q z^2) - zeta^2 - 1/zeta^2, so k is even
    in both arguments and symmetric under zeta -> 1/zeta.
    """
    return bracket(z / (Q * zeta)) * bracket(z * zeta / Q)


def cleared(xs: Collection[Scalar]) -> tuple[list[tuple[int, int, int, int]], int]:
    """The numerators of xs over their one positive lcm denominator; an
    entry already over the lcm keeps its numerators as they are."""
    d = lcm(*{x._d for x in xs})
    return [x._n if x._d == d else tuple(n * (d // x._d) for n in x._n) for x in xs], d


def cleared_columns(cols: Sequence[dict[int, Scalar]]) -> tuple[list[dict[int, tuple]], int]:
    """Sparse columns {index: Scalar} as {index: numerators}, all over one
    `cleared` denominator, which is returned with them."""
    nums, d = cleared([v for col in cols for v in col.values()])
    flat = iter(nums)
    # zip stops at the end of col before it draws from flat.
    return [dict(zip(col, flat)) for col in cols], d


def ring_degree(nums: Iterable[tuple[int, int, int, int]]) -> int:
    """The degree d of the smallest of Z, Z[zeta^2] and Z[zeta] that holds
    every one of the Z[zeta] numerators nums: 4 if some has a zeta or
    zeta^3 part, else 2 if some has a zeta^2 part, else 1."""
    d = 1
    for n0, n1, n2, n3 in nums:
        if n1 or n3:
            return 4
        if n2:
            d = 2
    return d


def addmul(acc: dict, b: tuple[int, int, int, int], items: Iterable[tuple]) -> None:
    """acc[k] += `zmul`(a, b) for every (k, a) in items, on Z[zeta]
    numerators, with no gcd.  Z[zeta] has no zero divisors, so with a and
    b nonzero only a sum can cancel, and an entry that does is deleted
    rather than stored as zero."""
    for k, a in items:
        p0, p1, p2, p3 = zmul(a, b)
        prev = acc.get(k)
        if prev is None:
            acc[k] = (p0, p1, p2, p3)
        elif (q := (prev[0] + p0, prev[1] + p1, prev[2] + p2, prev[3] + p3)) != (0, 0, 0, 0):
            acc[k] = q
        else:
            del acc[k]


def same_columns(a: Sequence[dict], da: int, b: Sequence[dict], db: int) -> bool:
    """Whether sparse columns {index: Z[zeta] numerators} a over da and b
    over db, none holding a zero entry, are the same elements of
    Q(zeta): the same indices in each column, and n_a db == n_b da entry
    by entry, cross-multiplied with no gcd."""
    if len(a) != len(b):
        return False
    g = gcd(da, db)
    sa, sb = db // g, da // g
    if sa == sb:  # both 1: one denominator
        return all(x == y for x, y in zip(a, b))
    for x, y in zip(a, b):
        if x.keys() != y.keys():
            return False
        for k, (a0, a1, a2, a3) in x.items():
            b0, b1, b2, b3 = y[k]
            if a0 * sa != b0 * sb or a1 * sa != b1 * sb or a2 * sa != b2 * sb or a3 * sa != b3 * sb:
                return False
    return True
