"""Symmetric group combinatorics: words, lengths, cosets and two orders.

Permutations are written in one-line notation over {1, ..., n}.  The
simple transposition s_i swaps the values i and i+1; products compose
as functions, so in ``u * v`` the permutation ``v`` acts first.

Two partial orders appear side by side.  ``bruhat_leq`` is the
length-additive order (u <= w iff l(w) = l(u) + l(w u^-1), the left
weak order) and ``bruhat_leq_classical`` is the usual subword order.
Neither is on the main path, which orders Grassmannian cells by
``schubert.grassmann_leq``; the tests check that all three orders agree
on Grassmannian quotients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

Word = Tuple[int, ...]


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} in one-line notation.

    >>> s1 = simple_reflection(1, 3)
    >>> s2 = simple_reflection(2, 3)
    >>> (s1 * s2).images
    (2, 3, 1)
    """

    images: Tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return Permutation(tuple(self.images[other.images[i] - 1] for i in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def simple_reflection(i: int, n: int) -> Permutation:
    """The transposition s_i = (i, i+1) in S_n."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple reflection index {i} out of range for S_{n}")
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


def from_word(word: Iterable[int], n: int) -> Permutation:
    """Product s_{i_1} s_{i_2} ... s_{i_k}; the rightmost letter acts first."""
    w = identity(n)
    for i in word:
        w = w * simple_reflection(i, n)
    return w


def length(w: Permutation) -> int:
    """Coxeter length = number of inversions.

    >>> length(from_word([2, 1, 4, 3, 2], 5))
    5
    """
    img = w.images
    return sum(1 for i in range(w.n) for j in range(i + 1, w.n) if img[i] > img[j])


def left_descents(w: Permutation) -> Tuple[int, ...]:
    """Indices i with l(s_i w) < l(w), i.e. i appears after i+1 in w."""
    inv = w.inverse().images
    return tuple(i for i in range(1, w.n) if inv[i - 1] > inv[i])


def reduced_word(w: Permutation) -> Word:
    """Reduced word for w, peeling the smallest left descent first."""
    letters = []
    cur = w
    while True:
        des = left_descents(cur)
        if not des:
            break
        i = des[0]
        letters.append(i)
        cur = simple_reflection(i, cur.n) * cur
    return tuple(letters)


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Length-additive order: u <= w iff l(w) = l(u) + l(w u^-1)."""
    if u.n != w.n:
        raise ValueError("dimension mismatch")
    return length(w) == length(u) + length(w * u.inverse())


def bruhat_leq_classical(u: Permutation, w: Permutation) -> bool:
    """Subword (classical Bruhat) order, via prefix dominance.

    u <= w iff for every k the sorted initial values u(1..k) are
    dominated entrywise by the sorted initial values w(1..k).
    """
    if u.n != w.n:
        raise ValueError("dimension mismatch")
    for k in range(1, u.n):
        us = sorted(u.images[:k])
        ws = sorted(w.images[:k])
        if any(a > b for a, b in zip(us, ws)):
            return False
    return True


def is_min_coset_rep(w: Permutation, I: Iterable[int]) -> bool:
    """True iff w sends every simple root indexed by I to a positive root."""
    return all(w(i) < w(i + 1) for i in I)


def longest_element(I: Iterable[int], n: int) -> Permutation:
    """Longest element of the parabolic subgroup W_I of S_n.

    W_I is a product of symmetric groups on consecutive blocks; its
    longest element reverses each block.

    >>> longest_element([1, 3], 4).images
    (2, 1, 4, 3)
    """
    iset = sorted(set(I))
    if any(not 1 <= i <= n - 1 for i in iset):
        raise ValueError(f"index set {iset} out of range for S_{n}")
    images = list(range(1, n + 1))
    run: list[int] = []
    for i in iset + [None]:  # type: ignore[list-item]
        if run and (i is None or i != run[-1] + 1):
            lo, hi = run[0], run[-1] + 1  # positions lo..hi get reversed
            images[lo - 1 : hi] = images[lo - 1 : hi][::-1]
            run = []
        if i is not None:
            run.append(i)
    return Permutation(tuple(images))


def all_permutations(n: int) -> Iterator[Permutation]:
    for img in itertools.permutations(range(1, n + 1)):
        yield Permutation(img)


def parabolic_elements(I: Iterable[int], n: int) -> Iterator[Permutation]:
    """All elements of W_I, by brute enumeration (small n only)."""
    iset = set(I)
    # w in W_I iff w permutes each block of I-connected positions.
    for w in all_permutations(n):
        ok = True
        for i in range(1, n + 1):
            lo = i
            while lo - 1 in iset:
                lo -= 1
            hi = i
            while hi in iset:
                hi += 1
            if not lo <= w(i) <= hi:
                ok = False
                break
        if ok:
            yield w


def min_coset_reps(I: Iterable[int], n: int) -> Iterator[Permutation]:
    """All minimal coset representatives in W / W_I (small n only)."""
    iset = sorted(set(I))
    for w in all_permutations(n):
        if is_min_coset_rep(w, iset):
            yield w


if __name__ == "__main__":
    import doctest

    doctest.testmod()
