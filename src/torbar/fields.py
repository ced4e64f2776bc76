"""Exact coefficient fields: the rationals and prime fields.

A field object mediates all coefficient arithmetic.  An integral rational
is a plain int and any other rational a `fractions.Fraction`; prime-field
coefficients are plain ints in ``0..p-1``.  Keeping coefficients as cheap
builtin values makes the sparse linear algebra fast; the field object
carries the operations.

The rationals normalize where a value is made: `of`, `parse`, `add`,
`sub`, `mul` and `inv` turn an integral `Fraction` into its int, and `neg`
keeps the type.  Most exact computations here have integer inputs (signs,
structure constants, a map's coefficients), and elimination divides only
by its pivots, so most coefficients stay ints and skip `Fraction`'s
arithmetic.  Equality, hashing and `str` agree between an int and the
equal `Fraction`, so no caller sees the difference.
"""
from fractions import Fraction


def _rational(q):
    """q, or its numerator when q is an integral `Fraction`."""
    return q.numerator if q.denominator == 1 else q


class Rationals:
    """The field of rational numbers."""

    name = "Q"
    char = 0

    zero = 0
    one = 1

    def of(self, n):
        return n if type(n) is int else _rational(Fraction(n))

    def add(self, a, b):
        c = a + b
        return c if type(c) is int else _rational(c)

    def sub(self, a, b):
        c = a - b
        return c if type(c) is int else _rational(c)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int else _rational(c)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return _rational(1 / Fraction(a))

    def fmt(self, a):
        return str(a)

    def parse(self, s):
        return _rational(Fraction(s.strip()))

    def elements(self):
        raise ValueError("Q is infinite")

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """The field F_p, elements stored as ints in 0..p-1."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def of(self, n):
        # the int test first: `Fraction` is an ABC subclass, so every
        # isinstance test against it runs `ABCMeta.__instancecheck__`
        if type(n) is int:
            return n % self.p
        if isinstance(n, Fraction):
            return self.of(n.numerator) * pow(n.denominator, -1, self.p) % self.p
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, -1, self.p)

    def fmt(self, a):
        return f"{a % self.p} mod {self.p}"

    def parse(self, s):
        s = s.strip()
        if "mod" in s:
            val, mod = s.split("mod")
            if int(mod) != self.p:
                raise ValueError(f"wrong modulus in {s!r} for F_{self.p}")
            return int(val) % self.p
        return int(s) % self.p

    def elements(self):
        return range(self.p)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))


QQ = Rationals()
F2 = PrimeField(2)
F5 = PrimeField(5)


def field_by_name(name):
    """Resolve a field selector string: "Q" or "F<p>"."""
    name = name.strip()
    if name in ("Q", "QQ", "q"):
        return QQ
    if name and name[0] in "Ff":
        return PrimeField(int(name[1:]))
    raise ValueError(f"unknown field selector {name!r}")
