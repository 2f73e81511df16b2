"""Exact multivariate rational functions with deterministic canonical forms.

Thin wrapper over sympy's sparse rational-function fields.  Fractions
are gcd-reduced with the monomial order fixed to graded lexicographic
over the declared variable tuple, so equal values always print the
same way.  Each value remembers its variable tuple; mixing coordinate
systems without an explicit substitution is an error.

The fields are built over the integers: a value is a numerator and a
denominator with jointly primitive integer coefficients and a positive
denominator leading coefficient, the form sympy's `cancel` returns over
QQ, held with Python ints.  Scalars are `int` or `Fraction`; anything
inexact is refused with `TypeError`.

Every value is reduced by `_fraction`: the constructors and `subs` call
it, and the arithmetic reaches it through `_Reduced`, the element type
of every field here.  When the numerator or the denominator has one
term, their gcd is an integer times a monomial, so the reduction needs
no polynomial gcd (the one-term rule).  Two binomials need none either
when they are associates or both irreducible (the two-term rule, argued
at `_fraction`).  `subs` sends a bare variable to its image with no
arithmetic (the bare-variable rule), so `compose` is `subs` applied to
each image in turn.  The coordinates of both torus quotients are Laurent
monomials, and `subs` maps a monomial under monomial images by an
integer linear map on exponent vectors (the exponent map), without
forming a common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, List, Mapping, Optional, Tuple, Union

from sympy.polys.domains import ZZ
from sympy.polys.fields import FracElement, FracField, field as _sym_field
from sympy.polys.orderings import grlex

Names = Tuple[str, ...]
Scalar = Union[int, Fraction]


@lru_cache(maxsize=None)
def _field_for(names: Names) -> FracField:
    """sympy's field over `names` with integer coefficients and `_Reduced` elements.

    sympy builds a field's zero, one and generators from `dtype`, and
    every element it makes afterwards with `raw_new`, so resetting those
    four is enough for every element of the field to reduce through
    `_fraction`.  (The per-name attributes such as `fld.x` keep sympy's
    type; nothing here reads them.)
    """
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names: {names}")
    fld = _sym_field(list(names), ZZ, order=grlex)[0]
    fld.dtype = _Reduced(fld, fld.ring.zero).raw_new
    fld.zero, fld.one = fld.dtype(fld.ring.zero), fld.dtype(fld.ring.one)
    fld.gens = fld._gens()
    return fld


def _exact(value) -> Fraction:
    """`value` as a `Fraction`; floats, strings and other inexact scalars are refused."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, got {type(value).__name__}")
    return Fraction(value)


def _fraction(fld: FracField, num, den):
    """The element num/den of `fld`, reduced as sympy's `cancel` reduces it.

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
    Any other pair goes through `fld.new`, which runs the polynomial gcd.
    """
    if not num:
        return fld.zero
    if len(num) == len(den) == 2:
        pair = _two_term_rule(num, den)
        if pair is None:
            return fld.new(num, den)
        num, den = pair
    elif len(num) != 1 and len(den) != 1:
        return fld.new(num, den)
    shift = tuple(map(min, zip(*num, *den)))
    content = gcd(*num.values(), *den.values())
    if den.LC < 0:
        content = -content
    if content == 1 and not any(shift):
        return fld.raw_new(num, den)
    ldiv = fld.ring.monomial_ldiv

    def rebuilt(poly):
        return poly.new([(ldiv(mon, shift), c // content) for mon, c in poly.items()])

    return fld.raw_new(rebuilt(num), rebuilt(den))


def _two_term_rule(num, den):
    """For binomials num and den: one term over one term if they are
    associates, the pair itself if both are irreducible, else None
    (see `_fraction`)."""
    (m, a), (m2, a2) = num.items()
    (n, b), (n2, b2) = den.items()
    step, den_step = ([y - x for x, y in zip(p, q)] for p, q in ((m, m2), (n, n2)))
    if den_step == [-x for x in step]:
        (n, b), (n2, b2), den_step = (n2, b2), (n, b), step
    if den_step == step and a2 * b == a * b2:
        return num.ring.term_new(m, a), den.ring.term_new(n, b)
    if 1 in map(abs, step) and 1 in map(abs, den_step):
        return num, den
    return None


class _Reduced(FracElement):
    """sympy's field element; its arithmetic reduces through `_fraction`."""

    def new(f, numer, denom):
        return _fraction(f.field, numer, denom)

    def __hash__(f):
        # Not the polynomials' cached hashes: sympy's `square` hashes its
        # result (in `imul_num`'s generator check) before it is complete.
        if f._hash is None:
            f._hash = hash((f.field, frozenset(f.numer.items()), frozenset(f.denom.items())))
        return f._hash


class RationalFunction:
    """An element of Q(x_1, ..., x_k), always in reduced form."""

    __slots__ = ("names", "elem")

    def __init__(self, names: Names, elem) -> None:
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "elem", elem)

    def __setattr__(self, *_):  # immutable
        raise AttributeError("RationalFunction is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def variable(cls, name: str, names: Names) -> "RationalFunction":
        names = tuple(names)
        fld = _field_for(names)
        if name not in names:
            raise ValueError(f"unknown variable {name!r}")
        return cls(names, fld.gens[names.index(name)])

    @classmethod
    def constant(cls, value: Scalar, names: Names) -> "RationalFunction":
        names = tuple(names)
        fld = _field_for(names)
        value = _exact(value)
        ring = fld.ring
        return cls(names, _fraction(fld, ring(value.numerator), ring(value.denominator)))

    @classmethod
    def from_terms(
        cls,
        names: Names,
        numer: Mapping[Tuple[int, ...], Scalar],
        denom: Mapping[Tuple[int, ...], Scalar],
    ) -> "RationalFunction":
        """The reduced quotient of two polynomials given as exponent -> coefficient."""
        names = tuple(names)
        fld = _field_for(names)
        numer, denom = ({mon: _exact(c) for mon, c in terms.items()} for terms in (numer, denom))
        scale = lcm(*(c.denominator for terms in (numer, denom) for c in terms.values()))
        num, den = (
            fld.ring.from_dict({mon: int(c * scale) for mon, c in terms.items()})
            for terms in (numer, denom)
        )
        if not den:
            raise ZeroDivisionError("zero denominator")
        return cls(names, _fraction(fld, num, den))

    # -- helpers -----------------------------------------------------

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            if other.names != self.names:
                raise ValueError(
                    f"variable sets differ: {self.names} vs {other.names}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(other, self.names)
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else RationalFunction(self.names, self.elem + o.elem)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else RationalFunction(self.names, self.elem - o.elem)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else RationalFunction(self.names, self.elem * o.elem)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.elem:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.names, self.elem / o.elem)

    def __radd__(self, other):
        return self.__add__(other)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else RationalFunction(self.names, o.elem - self.elem)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return RationalFunction(self.names, -self.elem)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponents must be integers")
        if k < 0 and not self.elem:
            raise ZeroDivisionError("zero to a negative power")
        elem = self.elem ** k
        if elem.denom.LC < 0:  # sympy inverts a negative power without the sign step
            elem = elem.raw_new(-elem.numer, -elem.denom)
        return RationalFunction(self.names, elem)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.constant(other, self.names)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.names == other.names and self.elem == other.elem

    def __hash__(self) -> int:
        return hash((self.names, self.elem))

    def __repr__(self) -> str:
        return f"RationalFunction({self.canonical()!r})"

    # -- structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.elem

    def numer_terms(self) -> List[Tuple[Tuple[int, ...], Fraction]]:
        """Numerator terms, graded-lex descending, exact coefficients."""
        return [(tuple(mon), Fraction(c)) for mon, c in self.elem.numer.terms()]

    def denom_terms(self) -> List[Tuple[Tuple[int, ...], Fraction]]:
        return [(tuple(mon), Fraction(c)) for mon, c in self.elem.denom.terms()]

    def uses(self, name: str) -> bool:
        """Whether the variable occurs in the reduced fraction."""
        i = self.names.index(name)
        return any(mon[i] for mon, _ in self.numer_terms()) or any(
            mon[i] for mon, _ in self.denom_terms()
        )

    # -- substitution and evaluation ----------------------------------

    def subs(
        self,
        mapping: Mapping[str, "RationalFunction"],
        target_names: Optional[Names] = None,
    ) -> "RationalFunction":
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
        Otherwise the numerator and the denominator are evaluated in the
        target's polynomial ring and reduced once, by `_fraction`.
        """
        if target_names is None:
            if mapping:
                target_names = next(iter(mapping.values())).names
            else:
                target_names = self.names
        target_names = tuple(target_names)
        _check_images(mapping, self.names, target_names)
        numer, denom = self.elem.numer, self.elem.denom
        if denom.is_one and numer.is_generator:
            var = self.names[numer.ring.gens.index(numer)]
            if var in mapping:
                return mapping[var]
            if var not in target_names:
                raise ValueError(f"no image provided for occurring variable {var!r}")
            return RationalFunction.variable(var, target_names)
        fld = _field_for(target_names)
        if not numer:
            return RationalFunction(target_names, fld.zero)
        if len(numer) == len(denom) == 1:
            image = _monomial_image(fld, self.names, self.elem, mapping, target_names)
            if image is not None:
                return RationalFunction(target_names, image)
        # Image p_i/q_i of variable i, over the common denominator
        # prod q_i**d_i: monomial exponent e contributes p_i**e q_i**(d_i - e).
        factors: List[Tuple[int, list]] = []
        degrees = map(max, zip(*numer.itermonoms(), *denom.itermonoms()))
        for i, (name, d) in enumerate(zip(self.names, degrees)):
            if not d:
                continue
            if name in mapping:
                img = mapping[name].elem
            elif name in target_names:
                img = fld.gens[target_names.index(name)]
            else:
                raise ValueError(f"no image provided for occurring variable {name!r}")
            p, q = _powers(img.numer, d), _powers(img.denom, d)
            factors.append((i, [p[e] * q[d - e] for e in range(d + 1)]))

        def cleared(poly):
            total = fld.ring.zero
            for mon, coeff in poly.terms():
                term = fld.ring.ground_new(coeff)
                for i, by_exponent in factors:
                    term *= by_exponent[mon[i]]
                total += term
            return total

        den = cleared(denom)
        if not den:
            raise ZeroDivisionError("substitution sends the denominator to zero")
        return RationalFunction(target_names, _fraction(fld, cleared(numer), den))

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
        num = _eval_poly_scalar(self.elem.numer, point)
        den = _eval_poly_scalar(self.elem.denom, point)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the point")
        return num / den

    # -- printing ------------------------------------------------------

    def canonical(self) -> str:
        """Deterministic string: denominator scaled to leading coefficient 1."""
        if self.is_zero:
            return "0"
        lc = self.elem.denom.LC
        num = _poly_str(self.numer_terms(), self.names, Fraction(1, lc))
        den_terms = self.denom_terms()
        if len(den_terms) == 1 and den_terms[0][0] == (0,) * len(self.names):
            return num  # constant denominator folds into the numerator
        den = _poly_str(den_terms, self.names, Fraction(1, lc))
        return f"({num})/({den})"


def _check_images(mapping: Mapping[str, RationalFunction], source: Names, target: Names) -> None:
    """Every mapped name must be a source variable, every image over `target`."""
    for name, value in mapping.items():
        if name not in source:
            raise ValueError(f"unknown variable {name!r}")
        if value.names != target:
            raise ValueError("substitution values over mixed variable sets")


def _monomial_image(fld: FracField, names: Names, elem, mapping, target: Names):
    """The exponent map: c*X**v for a one-term-over-one-term `elem`, or None
    when an occurring variable's image is zero, missing or not one term
    over one term."""
    (a, c), = elem.numer.items()
    (b, d), = elem.denom.items()
    coeff = Fraction(c, d)
    v = [0] * len(target)
    for name, ea, eb in zip(names, a, b):
        if not (ea or eb):
            continue
        e = ea - eb
        if name in mapping:
            img = mapping[name].elem
            if len(img.numer) != 1 or len(img.denom) != 1:
                return None
            (u, p), = img.numer.items()
            (w, q), = img.denom.items()
            coeff *= Fraction(p, q) ** e
            for j, (uj, wj) in enumerate(zip(u, w)):
                v[j] += e * (uj - wj)
        elif name in target:
            v[target.index(name)] += e
        else:
            return None
    ring = fld.ring
    num = ring.term_new(tuple(max(x, 0) for x in v), coeff.numerator)
    den = ring.term_new(tuple(max(-x, 0) for x in v), coeff.denominator)
    return _fraction(fld, num, den)


def _powers(poly, d: int) -> list:
    """poly**0, ..., poly**d."""
    out = [poly.ring.one]
    for _ in range(d):
        out.append(out[-1] * poly)
    return out


def _eval_poly_scalar(poly, point: List[Fraction]) -> Fraction:
    total = Fraction(0)
    for mon, coeff in poly.terms():
        term = coeff
        for v, e in zip(point, mon):
            if e:
                term *= v ** e
        total += term
    return total


def _poly_str(terms, names: Names, scale: Fraction) -> str:
    parts: List[str] = []
    for mon, coeff in terms:
        c = coeff * scale
        factors = [
            name if e == 1 else f"{name}**{e}"
            for name, e in zip(names, mon)
            if e
        ]
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
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
