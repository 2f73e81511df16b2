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
polynomial gcd (the one-term rule).  Two binomials need none either when
they are associates or both irreducible (the two-term rule, argued at
`_fraction`).  Any other pair goes to `_cancel`, the one place sympy is
called: its polynomial gcd over ZZ.  On the benchmark's `symbolic` op
list (seed 1) that happens 8 times per pass.  `subs` sends a bare
variable to its image with no arithmetic (the bare-variable rule), so
`compose` is `subs` applied to each image in turn.  The coordinates of
both torus quotients are Laurent monomials, and `subs` maps a monomial
under monomial images by an integer linear map on exponent vectors (the
exponent map), without forming a common denominator.

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
def _field_for(names: Names) -> Tuple[Monomial, ...]:
    """The generators' exponent tuples over `names`, built once per tuple."""
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names: {names}")
    return tuple(tuple(int(i == j) for j in range(len(names))) for i in range(len(names)))


def _exact(value) -> Scalar:
    """`value`, an int or a `Fraction`; floats, strings and other inexact scalars are refused."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, got {type(value).__name__}")
    return value


def _terms(poly: Poly) -> List[Tuple[Monomial, int]]:
    """The terms of `poly`, graded-lex descending."""
    return sorted(poly.items(), key=lambda term: (sum(term[0]), term[0]), reverse=True)


def _lc(poly: Poly) -> int:
    """The graded-lex leading coefficient."""
    return _terms(poly)[0][1] if len(poly) > 1 else next(iter(poly.values()))


def _accumulate(total: Poly, poly: Poly, sign: int = 1) -> Poly:
    """total += sign * poly, in place."""
    for mon, c in poly.items():
        c = total.pop(mon, 0) + sign * c
        if c:
            total[mon] = c
    return total


def _mul(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    if len(q) == 1:
        (m, c), = q.items()
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
    rule), and for two binomials that pass the two-term rule.  Write a
    binomial as X**g * B with g the componentwise minimum of its two
    exponents, so that B = a*X**u + b*X**v with u, v of disjoint support.
    - If num = a*X**m + a'*X**m' and den = b*X**n + b'*X**n' with
      m' - m = n' - n and a'/a = b'/b, their parts B are associates, and
      num/den = (a*X**m)/(b*X**n); the one-term rule finishes.
    - Otherwise, when both parts B are irreducible, they are coprime (two
      irreducibles that are not associates), so the gcd is an integer
      times a monomial.  B is irreducible when some exponent of u or v is
      1, i.e. the two exponents of a variable x differ by one: then
      B = A*x + C with A, C monomials times integers sharing no variable,
      so B has degree one in x and is primitive in x.  In a factorisation
      of B one factor is free of x; it divides A and C, so it is a
      constant (Gauss's lemma).
    Any other pair goes to `_cancel`, which runs the polynomial gcd.
    """
    if not num:
        return {}, {(0,) * len(next(iter(den))): 1}
    if len(num) == len(den) == 2:
        pair = _two_term_rule(num, den)
        if pair is None:
            return _cancel(num, den)
        num, den = pair
    elif len(num) != 1 and len(den) != 1:
        return _cancel(num, den)
    shift = tuple(map(min, zip(*num, *den)))
    content = gcd(*num.values(), *den.values())
    if _lc(den) < 0:
        content = -content
    if content == 1 and not any(shift):
        return num, den
    return tuple({tuple(map(sub, mon, shift)): c // content for mon, c in poly.items()}
                 for poly in (num, den))


def _two_term_rule(num: Poly, den: Poly):
    """For binomials num and den: one term over one term if they are
    associates, the pair itself if both are irreducible, else None
    (see `_fraction`)."""
    (m, a), (m2, a2) = num.items()
    (n, b), (n2, b2) = den.items()
    step, den_step = ([y - x for x, y in zip(p, q)] for p, q in ((m, m2), (n, n2)))
    if den_step == [-x for x in step]:
        (n, b), (n2, b2), den_step = (n2, b2), (n, b), step
    if den_step == step and a2 * b == a * b2:
        return {m: a}, {n: b}
    if 1 in map(abs, step) and 1 in map(abs, den_step):
        return num, den
    return None


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
        names = tuple(names)
        gens = _field_for(names)
        if name not in names:
            raise ValueError(f"unknown variable {name!r}")
        return cls(names, {gens[names.index(name)]: 1}, {(0,) * len(names): 1})

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
        """The reduced quotient of two polynomials given as exponent -> coefficient."""
        names = tuple(names)
        _field_for(names)
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
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.constant(other, self.names)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.names, self.numer, self.denom) == (other.names, other.numer, other.denom)

    def __hash__(self) -> int:
        return hash((self.names, frozenset(self.numer.items()), frozenset(self.denom.items())))

    def __repr__(self) -> str:
        return f"RationalFunction({self.canonical()!r})"

    # -- structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.numer

    def numer_terms(self) -> List[Tuple[Tuple[int, ...], Fraction]]:
        """Numerator terms, graded-lex descending, exact coefficients."""
        return [(mon, Fraction(c)) for mon, c in _terms(self.numer)]

    def denom_terms(self) -> List[Tuple[Tuple[int, ...], Fraction]]:
        return [(mon, Fraction(c)) for mon, c in _terms(self.denom)]

    def uses(self, name: str) -> bool:
        """Whether the variable occurs in the reduced fraction."""
        i = self.names.index(name)
        return any(mon[i] for mon in self.numer) or any(mon[i] for mon in self.denom)

    # -- substitution and evaluation ----------------------------------

    def subs(self, mapping: Mapping[str, "RationalFunction"],
             target_names: Optional[Names] = None) -> "RationalFunction":
        """Image under the map sending each named variable to its value.

        Values must all live over one variable tuple (the target).
        Source variables absent from the mapping are sent to the
        same-named target variable; if the target lacks that name the
        variable must not occur.

        A source that is one bare variable goes to its image itself, with
        no arithmetic: the mapped value, or the same-named target variable.
        A one-term-over-one-term source whose occurring variables all go
        to nonzero one-term-over-one-term images (or to the same-named
        target variable) goes to c*X**v, with v an integer linear image
        of the source exponents: the exponent map, with no cancellation.
        Otherwise the numerator and the denominator are evaluated as
        polynomials over the target and reduced once, by `_fraction`.
        """
        if target_names is None:
            target_names = next(iter(mapping.values())).names if mapping else self.names
        target_names = tuple(target_names)
        _check_images(mapping, self.names, target_names)
        numer, denom = self.numer, self.denom
        if len(numer) == len(denom) == 1:
            (mon, c), = numer.items()
            if c == 1 and sum(mon) == 1 and denom == {(0,) * len(mon): 1}:
                var = self.names[mon.index(1)]
                if var in mapping:
                    return mapping[var]
                if var not in target_names:
                    raise ValueError(f"no image provided for occurring variable {var!r}")
                return RationalFunction.variable(var, target_names)
        gens = _field_for(target_names)
        if not numer:
            return RationalFunction.constant(0, target_names)
        if len(numer) == len(denom) == 1:
            image = _monomial_image(self, mapping, target_names)
            if image is not None:
                return image
        # Image p_i/q_i of variable i, over the common denominator
        # prod q_i**d_i: monomial exponent e contributes p_i**e q_i**(d_i - e).
        zero = (0,) * len(target_names)
        one = {zero: 1}
        factors: List[Tuple[int, List[Poly]]] = []
        degrees = map(max, zip(*numer, *denom))
        for i, (name, d) in enumerate(zip(self.names, degrees)):
            if not d:
                continue
            if name in mapping:
                p, q = mapping[name].numer, mapping[name].denom
            elif name in target_names:
                p, q = {gens[target_names.index(name)]: 1}, one
            else:
                raise ValueError(f"no image provided for occurring variable {name!r}")
            p, q = _powers(p, d, one), _powers(q, d, one)
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
        return RationalFunction(target_names, *_fraction(cleared(numer), den))

    def evaluate(self, values: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a rational point; the denominator must not vanish."""
        point = []
        for name in self.names:
            if name not in values:
                if self.uses(name):
                    raise ValueError(f"no value for occurring variable {name!r}")
                point.append(Fraction(0))
            else:
                point.append(_exact(values[name]))
        num, den = (_eval_poly_scalar(poly, point) for poly in (self.numer, self.denom))
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the point")
        return num / den

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


def _check_images(mapping: Mapping[str, RationalFunction], source: Names, target: Names) -> None:
    """Every mapped name must be a source variable, every image over `target`."""
    for name, value in mapping.items():
        if name not in source:
            raise ValueError(f"unknown variable {name!r}")
        if value.names != target:
            raise ValueError("substitution values over mixed variable sets")


def _monomial_image(f: RationalFunction, mapping, target: Names) -> Optional[RationalFunction]:
    """The exponent map: c*X**v for a one-term-over-one-term `f`, or None
    when an occurring variable's image is zero, missing or not one term
    over one term.  c*X**v is reduced as built: the numerator and the
    denominator share no variable, and c is a `Fraction`."""
    (a, c), = f.numer.items()
    (b, d), = f.denom.items()
    v = [0] * len(target)
    for name, ea, eb in zip(f.names, a, b):
        if not (ea or eb):
            continue
        e = ea - eb
        if name in mapping:
            img = mapping[name]
            if len(img.numer) != 1 or len(img.denom) != 1:
                return None
            (u, p), = img.numer.items()
            (w, q), = img.denom.items()
            c, d = (c * p ** e, d * q ** e) if e > 0 else (c * q ** -e, d * p ** -e)
            for j, (uj, wj) in enumerate(zip(u, w)):
                v[j] += e * (uj - wj)
        elif name in target:
            v[target.index(name)] += e
        else:
            return None
    coeff = Fraction(c, d)
    num = {tuple(max(x, 0) for x in v): coeff.numerator}
    return RationalFunction(target, num, {tuple(max(-x, 0) for x in v): coeff.denominator})


def _eval_poly_scalar(poly: Poly, point: List[Fraction]) -> Fraction:
    terms = (c * prod(v ** e for v, e in zip(point, mon) if e) for mon, c in poly.items())
    return sum(terms, Fraction(0))


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
    return {name: RationalFunction.variable(name, names) for name in names}


def compose(second: Substitution, first: Substitution) -> Substitution:
    """The substitution applying `first`, then `second`, to each variable:
    `subs` on each image of `first`, so a bare-variable image becomes its
    image under `second` with no arithmetic."""
    return {name: value.subs(second) for name, value in first.items()}
