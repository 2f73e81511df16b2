"""Exact multivariate rational functions with deterministic canonical forms.

A value is its variable tuple and a reduced numerator and denominator,
each a map from exponent tuples to Python ints, with jointly primitive
coefficients and a positive graded-lex leading coefficient in the
denominator: the form sympy's `cancel` returns over QQ.  It is unique, so
equal values compare, hash and print alike.  Mixing variable tuples
without a substitution is an error.  Scalars are `int` or `Fraction`.

Every value is reduced by `_fraction`: the constructors, the operators
and `subs` all end there.  When the numerator or the denominator has one
term, their gcd is an integer times a monomial, so the reduction needs no
polynomial gcd (the one-term rule).  Nor does a pair with equal term
counts whose quotient is a rational times a Laurent monomial, read off
the leading terms and checked term by term (the associate rule), nor two
irreducible binomials (both argued at `_fraction`).  Any other pair goes
to `_cancel`, the one place sympy is called: its polynomial gcd over ZZ.
On the benchmark's `symbolic` op list (seed 1) and in
`verify --suite prop-3.2 --n 8` that happens 0 times.  Two exits skip
work whose result is known (the unit exits): `_mul` by the unit
polynomial returns a fresh copy of the other side, a copy because `_sum`
accumulates into `_mul`'s result in place, and `_fraction` returns a pair
over the unit denominator as it is.

A substitution is a total map: every variable that occurs in the source
needs an image, and the images share one variable tuple, the target.  No
variable is carried over by name, since the Grassmannian and the flag
quotient coordinates share names such as `Y_1_1`.  `subs` sends a bare
variable to its image with no arithmetic (the bare-variable rule), so
`compose` is `subs` applied to each image in turn.  Any other
one-term-over-one-term source, such as a Laurent monomial coordinate of
either torus quotient, goes to the product of its images' sides,
prod p_i**e_i over prod q_i**e_i with the two sides swapped for a
negative e_i (the direct product), without a common denominator, and is
reduced once.  Under monomial images that product is one term over one
term, so the one-term rule reduces it.  An image must be a
`RationalFunction`; a scalar is refused by type.  `evaluate` works in
integers too: with the point's denominators cleared, each side is an
integer sum, and the value is one `Fraction` of the two.  A constant
equals its scalar and hashes as its `Fraction`.  Callers read a value
through its `names`, `numer` and `denom`.

sympy is imported with this module, not inside `_cancel`: the benchmark
reads the `sympy` line of `python -X importtime -c "import torusquot.cli"`
and fails without one, so a lazy import waits on a change to that reader.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import add, sub
from typing import Dict, List, Mapping, Optional, Tuple, Union

from sympy.polys.domains import ZZ
from sympy.polys.orderings import grlex
from sympy.polys.rings import ring as _sym_ring

Names = Tuple[str, ...]
Scalar = Union[int, Fraction]
Monomial = Tuple[int, ...]
Poly = Dict[Monomial, int]  # exponent tuple -> nonzero coefficient


@lru_cache(maxsize=None)
def _field_for(names: Names) -> Dict[str, Monomial]:
    """Each name's generator exponent tuple over `names`, built once per tuple."""
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names: {names}")
    return {name: tuple(int(i == j) for j in range(len(names))) for i, name in enumerate(names)}


def _exact(value) -> Scalar:
    """`value`, an int or a `Fraction`; floats, strings and other inexact scalars are refused."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, got {type(value).__name__}")
    return value


def _grlex(mon: Monomial) -> Tuple[int, Monomial]:
    """The graded-lex sort key."""
    return sum(mon), mon


def _terms(poly: Poly) -> List[Tuple[Monomial, int]]:
    """The terms of `poly`, graded-lex descending."""
    return sorted(poly.items(), key=lambda term: _grlex(term[0]), reverse=True)


def _lc(poly: Poly) -> int:
    """The graded-lex leading coefficient."""
    return poly[max(poly, key=_grlex)] if len(poly) > 1 else next(iter(poly.values()))


def _accumulate(total: Poly, poly: Poly, sign: int = 1) -> Poly:
    """total += sign * poly, in place."""
    for mon, c in poly.items():
        c = total.pop(mon, 0) + sign * c
        if c:
            total[mon] = c
    return total


def _mul(p: Poly, q: Poly) -> Poly:
    """p*q in a fresh dict, which `_sum` may accumulate into; a unit
    factor copies the other side."""
    if len(p) < len(q):
        p, q = q, p
    if len(q) == 1:
        (m, c), = q.items()
        if c == 1 and not any(m):
            return dict(p)
        return {tuple(map(add, mon, m)): a * c for mon, a in p.items()}
    out: Poly = {}
    for m, c in q.items():
        for mon, a in p.items():
            key = tuple(map(add, mon, m))
            out[key] = out.get(key, 0) + a * c
    return {mon: c for mon, c in out.items() if c}


def _powers(poly: Poly, d: int, one: Poly) -> List[Poly]:
    """poly**0, ..., poly**d."""
    out = [one]
    for _ in range(d):
        out.append(_mul(out[-1], poly))
    return out


def _fraction(num: Poly, den: Poly) -> Tuple[Poly, Poly]:
    """num/den reduced as sympy's `cancel` reduces it.

    `cancel` divides by the gcd and makes the denominator's grlex leading
    coefficient positive; over ZZ the result has jointly primitive
    coefficients, and it is unique.  When that gcd is an integer times a
    monomial, the reduction needs no polynomial gcd: every exponent drops
    by the componentwise minimum over all terms, the coefficients are
    divided by their gcd, and the sign fixes the leading coefficient.

    The gcd is of that kind when either side has one term (the one-term
    rule), and in two more cases, where the pair passes to that rule:
    - The associate rule, for num and den with equal term counts.  If
      num = c*X**s*den for a rational c and a Laurent monomial X**s, then
      num/den = c*X**s, one term over one term.  Adding s to exponents
      keeps a graded-lex order (total degrees shift alike, and the first
      differing entry is unchanged), so the leading terms a*X**m of num
      and b*X**n of den give s = m - n and c = a/b.  `_associates` reads
      s and a/b off them and checks num[e + s]*b == a*den[e] for every
      term e of den.  Each check is necessary; together they give
      num = (a/b)*X**s*den, since e -> e + s is injective and both sides
      have as many terms.  So the rule fires exactly on such pairs and
      replaces them by {m: a} over {n: b}, in time linear in the terms.
    - Two binomials that are not associates but are both irreducible.
      Write a binomial as X**g * B with g the componentwise minimum of its
      two exponents, so that B = a*X**u + b*X**v with u, v of disjoint
      support.  Two irreducibles that are not associates are coprime, so
      the gcd is an integer times a monomial.  B is irreducible when some
      exponent of u or v is 1, i.e. the two exponents of a variable x
      differ by one: then B = A*x + C with A, C monomials times integers
      sharing no variable, so B has degree one in x and is primitive in
      x.  In a factorisation of B one factor is free of x; it divides A
      and C, so it is a constant (Gauss's lemma).
    Any other pair goes to `_cancel`, which runs the polynomial gcd.
    """
    if not num:
        return {}, {(0,) * len(next(iter(den))): 1}
    if len(den) == 1:
        (m, c), = den.items()
        if c == 1 and not any(m):
            return num, den  # over the unit: nothing to shift, divide or flip
    if len(num) != 1 and len(den) != 1:
        pair = _associates(num, den) if len(num) == len(den) else None
        if pair is not None:
            num, den = pair
        elif not (len(num) == len(den) == 2 and _irreducible(num) and _irreducible(den)):
            return _cancel(num, den)
    shift = tuple(map(min, zip(*num, *den)))
    content = gcd(*num.values(), *den.values())
    if _lc(den) < 0:
        content = -content
    if content == 1 and not any(shift):
        return num, den
    return tuple({tuple(map(sub, mon, shift)): c // content for mon, c in poly.items()}
                 for poly in (num, den))


def _associates(num: Poly, den: Poly) -> Optional[Tuple[Poly, Poly]]:
    """Their leading terms, one over one, if num = c*X**s*den; else None
    (the associate rule, argued at `_fraction`)."""
    m, n = max(num, key=_grlex), max(den, key=_grlex)
    a, b = num[m], den[n]
    s = tuple(map(sub, m, n))
    for e, c in den.items():
        if num.get(tuple(map(add, e, s)), 0) * b != a * c:
            return None
    return {m: a}, {n: b}


def _irreducible(binomial: Poly) -> bool:
    """Whether the two exponents differ by one in some variable."""
    return 1 in map(abs, map(sub, *binomial))


def _cancel(num: Poly, den: Poly) -> Tuple[Poly, Poly]:
    """The fallback: sympy's `cancel` in a grlex ring over ZZ, read back as ints."""
    ring = _sym_ring([f"x{i}" for i in range(len(next(iter(den))))], ZZ, grlex)[0]
    p, q = ring.from_dict(num).cancel(ring.from_dict(den))
    return {mon: int(c) for mon, c in p.items()}, {mon: int(c) for mon, c in q.items()}


class RationalFunction:
    """An element of Q(x_1, ..., x_k), always in reduced form."""

    __slots__ = ("names", "numer", "denom")

    def __init__(self, names: Names, numer: Poly, denom: Poly) -> None:
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "numer", numer)
        object.__setattr__(self, "denom", denom)

    def __setattr__(self, *_):  # immutable
        raise AttributeError("RationalFunction is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def variable(cls, name: str, names: Names) -> "RationalFunction":
        """The value held by `_identity`, built once per name tuple."""
        variables = _identity(tuple(names))
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        return variables[name]

    @classmethod
    def constant(cls, value: Scalar, names: Names) -> "RationalFunction":
        """A `Fraction` is already reduced with a positive denominator."""
        names = tuple(names)
        _field_for(names)
        value = _exact(value)
        zero = (0,) * len(names)
        return cls(names, {zero: value.numerator} if value else {}, {zero: value.denominator})

    @classmethod
    def from_terms(cls, names: Names, numer: Mapping[Monomial, Scalar],
                   denom: Mapping[Monomial, Scalar]) -> "RationalFunction":
        """The reduced quotient of two polynomials given as exponent -> coefficient.

        Each exponent tuple has one nonnegative `int` entry per name."""
        names = tuple(names)
        _field_for(names)
        for mon in (*numer, *denom):
            if len(mon) != len(names) or not all(isinstance(e, int) and e >= 0 for e in mon):
                raise ValueError(f"monomial {mon} is not {len(names)} nonnegative exponents")
        numer, denom = ({mon: _exact(c) for mon, c in terms.items()} for terms in (numer, denom))
        scale = lcm(*(c.denominator for terms in (numer, denom) for c in terms.values()))
        num, den = ({mon: int(c * scale) for mon, c in terms.items() if c}
                    for terms in (numer, denom))
        if not den:
            raise ZeroDivisionError("zero denominator")
        return cls(names, *_fraction(num, den))

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            if other.names != self.names:
                raise ValueError(f"variable sets differ: {self.names} vs {other.names}")
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(other, self.names)
        return NotImplemented  # type: ignore[return-value]

    def _sum(self, o: "RationalFunction", sign: int) -> "RationalFunction":
        """self + sign * o, over the shared denominator when there is one."""
        (a, b), (c, d) = (self.numer, self.denom), (o.numer, o.denom)
        if not c:
            return self
        if not a:
            return RationalFunction(self.names, _accumulate({}, c, sign), d)
        if b == d:
            return RationalFunction(self.names, *_fraction(_accumulate(dict(a), c, sign), b))
        num = _accumulate(_mul(a, d), _mul(b, c), sign)
        return RationalFunction(self.names, *_fraction(num, _mul(b, d)))

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self._sum(o, 1)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self._sum(o, -1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        num, den = _mul(self.numer, o.numer), _mul(self.denom, o.denom)
        return RationalFunction(self.names, *_fraction(num, den))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.numer:
            raise ZeroDivisionError("division by the zero rational function")
        num, den = _mul(self.numer, o.denom), _mul(self.denom, o.numer)
        return RationalFunction(self.names, *_fraction(num, den))

    def __radd__(self, other):
        return self.__add__(other)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o._sum(self, -1)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o.__truediv__(self)

    def __neg__(self):
        return RationalFunction(self.names, _accumulate({}, self.numer, -1), self.denom)

    def __pow__(self, k: int):
        """Powers of coprime polynomials stay coprime: no reduction, at most a sign."""
        if not isinstance(k, int):
            raise TypeError("exponents must be integers")
        if k < 0 and not self.numer:
            raise ZeroDivisionError("zero to a negative power")
        num, den = (self.numer, self.denom) if k >= 0 else (self.denom, self.numer)
        one = {(0,) * len(self.names): 1}
        num, den = _powers(num, abs(k), one)[-1], _powers(den, abs(k), one)[-1]
        if _lc(den) < 0:
            num, den = _accumulate({}, num, -1), _accumulate({}, den, -1)
        return RationalFunction(self.names, num, den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):  # before the slower ABC check below
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = RationalFunction.constant(other, self.names)
        return (self.names, self.numer, self.denom) == (other.names, other.numer, other.denom)

    def __hash__(self) -> int:
        """A constant hashes as the `Fraction` it equals."""
        numer, denom = self.numer, self.denom
        if not any(map(any, (*numer, *denom))):
            return hash(Fraction(sum(numer.values()), sum(denom.values())))
        return hash((self.names, frozenset(numer.items()), frozenset(denom.items())))

    def __repr__(self) -> str:
        return f"RationalFunction({self.canonical()!r})"

    # -- structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.numer

    # -- substitution and evaluation ----------------------------------

    def subs(self, mapping: Mapping[str, "RationalFunction"]) -> "RationalFunction":
        """Image under the total map sending each named variable to its value.

        Every variable that occurs in the source needs an image, and the
        images all live over one variable tuple, the target; an empty map
        leaves a constant over its own tuple.

        A source that is one bare variable goes to its image itself, with
        no arithmetic.  Any other one-term-over-one-term source is the
        direct product of its images' sides (see `_monomial_product`).
        Otherwise the numerator and the denominator are evaluated as
        polynomials over the target, and either way the result is reduced
        once, by `_fraction`.
        """
        return self._subs(mapping, _map_target(mapping, self.names))

    def _subs(self, mapping: Mapping[str, "RationalFunction"], target: Names) -> "RationalFunction":
        """`subs` under a map already checked by `_map_target` against `names`."""
        numer, denom = self.numer, self.denom
        if len(mapping) < len(self.names):  # some variable has no image: it must not occur
            for name, d in zip(self.names, map(max, zip(*numer, *denom))):
                if d and name not in mapping:
                    raise ValueError(f"no image provided for occurring variable {name!r}")
        if not numer:
            return RationalFunction.constant(0, target)
        if len(numer) == len(denom) == 1:
            (mon, c), = numer.items()
            if c == 1 and sum(mon) == 1 and denom == {(0,) * len(mon): 1}:
                return mapping[self.names[mon.index(1)]]
            return _monomial_product(self, mapping, target)
        # Image p_i/q_i of variable i, over the common denominator
        # prod q_i**d_i: monomial exponent e contributes p_i**e q_i**(d_i - e).
        zero = (0,) * len(target)
        one = {zero: 1}
        factors: List[Tuple[int, List[Poly]]] = []
        degrees = map(max, zip(*numer, *denom))
        for i, (name, d) in enumerate(zip(self.names, degrees)):
            if d:
                p, q = _powers(mapping[name].numer, d, one), _powers(mapping[name].denom, d, one)
                factors.append((i, [_mul(p[e], q[d - e]) for e in range(d + 1)]))

        def cleared(poly: Poly) -> Poly:
            total: Poly = {}
            for mon, coeff in poly.items():
                term = {zero: coeff}
                for i, by_exponent in factors:
                    term = _mul(term, by_exponent[mon[i]])
                _accumulate(total, term)
            return total

        den = cleared(denom)
        if not den:
            raise ZeroDivisionError("substitution sends the denominator to zero")
        return RationalFunction(target, *_fraction(cleared(numer), den))

    def evaluate(self, values: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a rational point, as a `Fraction`.

        Every mapped name must be a variable, and every occurring variable
        needs a value; the denominator must not vanish there.  With
        x_i = p_i/q_i and d_i the largest exponent of x_i on either side,
        both sides are multiplied by prod q_i**d_i, so each is the integer
        sum of c * prod p_i**e * q_i**(d_i - e), and the value is one
        `Fraction` of the two.
        """
        known = _field_for(self.names)
        for name, value in values.items():
            if name not in known:
                raise ValueError(f"unknown variable {name!r}")
            _exact(value)
        numer, denom = self.numer, self.denom
        factors: List[Tuple[int, List[int]]] = []
        for i, (name, d) in enumerate(zip(self.names, map(max, zip(*numer, *denom)))):
            if not d:
                continue
            if name not in values:
                raise ValueError(f"no value for occurring variable {name!r}")
            p, q = values[name].numerator, values[name].denominator
            factors.append((i, [p ** e * q ** (d - e) for e in range(d + 1)]))

        def cleared(poly: Poly) -> int:
            return sum(c * prod(by_exponent[mon[i]] for i, by_exponent in factors)
                       for mon, c in poly.items())

        den = cleared(denom)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the point")
        return Fraction(cleared(numer), den)

    def canonical(self) -> str:
        """Deterministic string: denominator scaled to leading coefficient 1."""
        if self.is_zero:
            return "0"
        lc = _lc(self.denom)
        num = _poly_str(_terms(self.numer), self.names, lc)
        if len(self.denom) == 1 and not any(next(iter(self.denom))):
            return num  # constant denominator folds into the numerator
        den = _poly_str(_terms(self.denom), self.names, lc)
        return f"({num})/({den})"


def _map_target(mapping: Mapping[str, RationalFunction], names: Names) -> Names:
    """The target of `mapping` as a substitution of the variables `names`:
    the images' shared variable tuple, or `names` itself for an empty map.
    Every image must be a `RationalFunction`, every mapped name one of
    `names`, and every image over the target."""
    target, known = None, _field_for(names)
    for name, value in mapping.items():
        if not isinstance(value, RationalFunction):
            raise TypeError(
                f"image of {name!r} must be a RationalFunction, got {type(value).__name__}"
            )
        if name not in known:
            raise ValueError(f"unknown variable {name!r}")
        if target is None:
            target = value.names
        elif value.names is not target and value.names != target:
            raise ValueError("substitution values over mixed variable sets")
    return names if target is None else target


def _monomial_product(f: RationalFunction, mapping, target: Names) -> RationalFunction:
    """The direct product: c*X**a/(d*X**b) under images p_i/q_i, as
    c * prod p_i**e_i over d * prod q_i**e_i with e = a - b, the two
    sides swapped for a negative e_i, reduced once by `_fraction`."""
    (a, c), = f.numer.items()
    (b, d), = f.denom.items()
    zero = (0,) * len(target)
    num, den = {zero: c}, {zero: d}
    for name, ea, eb in zip(f.names, a, b):
        e = ea - eb
        if e:
            img = mapping[name]
            p, q = (img.numer, img.denom) if e > 0 else (img.denom, img.numer)
            for _ in range(abs(e)):
                num, den = _mul(num, p), _mul(den, q)
    if not den:
        raise ZeroDivisionError("substitution sends the denominator to zero")
    return RationalFunction(target, *_fraction(num, den))


def _poly_str(terms, names: Names, lc: int) -> str:
    """`terms` divided by `lc`, graded-lex descending as given."""
    parts: List[str] = []
    for mon, coeff in terms:
        c = coeff if lc == 1 else Fraction(coeff, lc)
        factors = [name if e == 1 else f"{name}**{e}" for name, e in zip(names, mon) if e]
        body = "*".join(factors if factors and abs(c) == 1 else [str(abs(c))] + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


Substitution = Dict[str, RationalFunction]


def identity_substitution(names: Names) -> Substitution:
    """Each variable sent to itself, in a fresh dict; the values are built
    once per name tuple."""
    return dict(_identity(tuple(names)))


@lru_cache(maxsize=None)
def _identity(names: Names) -> Substitution:
    unit, gens = {(0,) * len(names): 1}, _field_for(names)
    return {name: RationalFunction(names, {gens[name]: 1}, unit) for name in names}


def compose(second: Substitution, first: Substitution) -> Substitution:
    """The substitution applying `first`, then `second`, to each variable:
    `subs` on each image of `first`, so a bare-variable image becomes its
    image under `second` with no arithmetic.  The map `second` is checked
    once for each variable tuple of those images (they usually share
    one), and each image's occurring variables against it."""
    out: Substitution = {}
    names = target = None
    for name, value in first.items():
        if value.names != names:
            names, target = value.names, _map_target(second, value.names)
        out[name] = value._subs(second, target)
    return out
