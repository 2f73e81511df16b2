"""Symmetric group combinatorics: permutations, words and parabolic
subgroups.

Permutations are written in one-line notation over {1, ..., n}.  The
simple transposition s_i swaps the values i and i+1; products compose
as functions, so in ``u * v`` the permutation ``v`` acts first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple


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
    """All elements of W_I, in lexicographic order of their images.

    W_I is the product of the symmetric groups on the blocks of
    positions joined by I, so each element permutes every block within
    itself; the last position always closes a block.
    """
    iset = sorted(set(I))
    if any(not 1 <= i <= n - 1 for i in iset):
        raise ValueError(f"index set {iset} out of range for S_{n}")
    blocks = []
    start = 1
    for i in range(1, n + 1):
        if i not in iset:
            blocks.append(itertools.permutations(range(start, i + 1)))
            start = i + 1
    for parts in itertools.product(*blocks):
        yield Permutation(tuple(itertools.chain.from_iterable(parts)))
