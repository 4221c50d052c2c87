"""Exact base fields: prime fields GF(p) and the rationals.

Field elements are plain Python values (int for GF(p), Fraction for QQ);
the Field object knows how to normalize and combine them.  Nothing in the
package ever touches floating point.
"""

from __future__ import annotations

import contextlib
import numbers
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import NoSuchRoot, NotInField, ParseError, UnsupportedField

INT64_MAX = 2**63 - 1


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Field:
    """GF(p) when ``p`` is set, the rationals when ``p`` is None.

    GF(p) arrays are int64, so p is bounded by (p - 1)**2 <= 2**63 - 1
    (the largest such prime is 3,037,000,493); see ``linalg``."""

    p: int | None = None

    def __post_init__(self):
        if self.p is None:
            return
        if (self.p - 1) ** 2 > INT64_MAX:
            raise UnsupportedField(f"GF({self.p}): p is above the bound (p - 1)^2 <= 2^63 - 1")
        if not _is_prime(self.p):
            raise UnsupportedField(f"GF({self.p}): {self.p} is not prime")

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    def __call__(self, v):
        """Canonicalize an int or Fraction into this field; over GF(p) a
        fraction a/b maps to a * b^-1 mod p.  A float, a value that is not
        rational, or a fraction whose denominator p divides raises
        ``NotInField``."""
        p = self.p
        if type(v) is not int and not isinstance(v, numbers.Integral):
            if not isinstance(v, numbers.Rational):
                raise NotInField(f"{v!r} is not an integer or a fraction")
            if p is None:
                return Fraction(v)
            if v.denominator % p == 0:
                raise NotInField(f"{v} has no value in GF({p}): {p} divides its denominator")
            return int(v.numerator) * pow(int(v.denominator), -1, p) % p
        return int(v) % p if p is not None else Fraction(int(v))

    @property
    def zero(self):
        return 0 if self.p is not None else Fraction(0)

    @property
    def one(self):
        return 1 if self.p is not None else Fraction(1)

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if self.p is not None:
            a %= self.p
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, -1, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return (a % self.p == 0) if self.p is not None else a == 0

    def __str__(self):
        return f"GF({self.p})" if self.p is not None else "QQ"

    @staticmethod
    def parse(text: str) -> "Field":
        text = text.strip()
        if text == "QQ":
            return Field()
        if text.startswith("GF(") and text.endswith(")") and text[3:-1].strip().isdecimal():
            with contextlib.suppress(ValueError):  # past int()'s limit on digits
                return Field(int(text[3:-1]))
        raise ParseError(f"cannot parse field {text!r}; expected 'GF(p)' or 'QQ'")


GF = Field
QQ = Field()


def root_of_unity(field: Field, n: int):
    """The smallest element of multiplicative order exactly ``n``.

    Over GF(p): r = g^((p-1)/n) has order n for the first g whose r passes
    r^(n/q) != 1 for each prime q dividing n; the elements of order n are
    then the r^k with gcd(k, n) = 1, and the smallest is returned.  Over the
    rationals only n = 1, 2 are possible.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not field.is_prime_field:
        if n == 1:
            return Fraction(1)
        if n == 2:
            return Fraction(-1)
        raise UnsupportedField(f"no primitive {n}th root of unity in QQ")
    p = field.p
    if (p - 1) % n != 0:
        raise NoSuchRoot(f"{n} does not divide {p} - 1")
    primes, m, q = [], n, 2
    while q * q <= m:
        if m % q == 0:
            primes.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        primes.append(m)
    for g in range(1, p):
        r = pow(g, (p - 1) // n, p)
        if all(pow(r, n // q, p) != 1 for q in primes):
            break
    best, x = r, 1
    for k in range(1, n + 1):
        x = x * r % p
        if x < best and gcd(k, n) == 1:
            best = x
    return best
