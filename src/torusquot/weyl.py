"""Symmetric group combinatorics: permutations, words and parabolic
subgroups.

Permutations are written in one-line notation over {1, ..., n}.  The
simple transposition s_i swaps the values i and i+1; products compose
as functions, so in ``u * v`` the permutation ``v`` acts first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple


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


def _blocks(I: Iterable[int], n: int) -> List[range]:
    """The runs of positions 1..n joined by the indices in I, left to right.

    Index i joins positions i and i+1, so each position not in I ends a run.
    """
    iset = sorted(set(I))
    if any(not 1 <= i <= n - 1 for i in iset):
        raise ValueError(f"index set {iset} out of range for S_{n}")
    ends = [i for i in range(1, n + 1) if i not in iset]
    return [range(lo + 1, hi + 1) for lo, hi in zip([0] + ends, ends)]


def longest_element(I: Iterable[int], n: int) -> Permutation:
    """Longest element of the parabolic subgroup W_I of S_n.

    W_I is a product of symmetric groups on consecutive blocks; its
    longest element reverses each block.

    >>> longest_element([1, 3], 4).images
    (2, 1, 4, 3)
    """
    return Permutation(tuple(i for block in _blocks(I, n) for i in reversed(block)))


def all_permutations(n: int) -> Iterator[Permutation]:
    for img in itertools.permutations(range(1, n + 1)):
        yield Permutation(img)


def parabolic_elements(I: Iterable[int], n: int) -> Iterator[Permutation]:
    """All elements of W_I, in lexicographic order of their images.

    W_I is the product of the symmetric groups on the blocks of
    positions joined by I, so each element permutes every block within
    itself.
    """
    blocks = [itertools.permutations(block) for block in _blocks(I, n)]
    for parts in itertools.product(*blocks):
        yield Permutation(tuple(itertools.chain.from_iterable(parts)))
