"""Exact scalar arithmetic over the rationals or a prime field F_p.

Scalars are integers in ``range(p)`` in characteristic p.  In
characteristic 0 they are ints or ``fractions.Fraction`` objects, which
compare, hash and print alike when equal: ``of`` and ``inv`` return an
int for an integral rational, and the arithmetic keeps ints where Python
does.  In every field ``zero`` and ``one`` are the ints 0 and 1, and the
zero scalar is the only falsy one, so callers may test a scalar by its
truth value.  No floating point is used anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """A computable exact field: Q (characteristic 0) or F_p."""

    def __init__(self, characteristic: int = 0):
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValueError(f"characteristic must be 0 or prime, got {characteristic}")
        self.char = characteristic

    @property
    def kind(self) -> str:
        return "rationals" if self.char == 0 else f"prime-field({self.char})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self) -> int:
        return hash(("Field", self.char))

    def __repr__(self) -> str:
        return "Q" if self.char == 0 else f"F{self.char}"

    # -- scalar construction -------------------------------------------------

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def of(self, value) -> object:
        """Coerce an int, Fraction or 'n/d' string into a field scalar."""
        if isinstance(value, str):
            value = Fraction(value)
        if self.char == 0:
            return _integral(Fraction(value))
        if isinstance(value, Fraction):
            if value.denominator % self.char == 0:
                raise ZeroDivisionError(f"{value} has no image in F_{self.char}")
            return (value.numerator * pow(value.denominator, -1, self.char)) % self.char
        return int(value) % self.char

    # -- arithmetic -----------------------------------------------------------

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _integral(1 / Fraction(a)) if self.char == 0 else pow(a, -1, self.char)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def nth_root(self, a, n: int):
        """An exact n-th root of a, or None if the field has none."""
        if n <= 0:
            raise ValueError("root order must be positive")
        if a == self.zero:
            return self.zero
        if self.char == 0:
            root_num = _int_nth_root(a.numerator, n)
            root_den = _int_nth_root(a.denominator, n)
            if root_num is not None and root_den is not None:
                return _integral(Fraction(root_num, root_den))
            if n % 2 == 1 and a < 0:
                root_num = _int_nth_root(-a.numerator, n)
                if root_num is not None and root_den is not None:
                    return _integral(Fraction(-root_num, root_den))
            return None
        for x in range(1, self.char):
            if pow(x, n, self.char) == a:
                return x
        return None

    def format(self, a) -> str:
        return str(a)


def _integral(q: Fraction):
    """q as an int when it is one."""
    return q.numerator if q.denominator == 1 else q


def _int_nth_root(m: int, n: int):
    """Exact n-th root of a nonnegative integer, or None."""
    if m < 0:
        return None
    if m in (0, 1):
        return m
    lo, hi = 1, m
    while lo <= hi:
        mid = (lo + hi) // 2
        p = mid**n
        if p == m:
            return mid
        if p < m:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


QQ = Field(0)
