"""Finite-scale Stone duality: the clopen algebra, its character group, the
evaluation embedding, the universal property, and inverse systems of finite
Boolean quotients along a partition chain.

For a finite ground set every subset is clopen, so the clopen algebra is the
full power set (bitmasks) under symmetric difference, and "dense subgroup"
statements sharpen to equalities checked exhaustively.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .boolean import BooleanWord
from .errors import CapExceeded, InputError, PreconditionError, shown
from .finite_groups import FiniteGroupTable
from .freegroup import FreeWord, quotient_hom
from .spaces import Partition, PartitionChain

DUAL_CAP = 12  # largest ground set whose 2^n characters are listed
LOCAL_BASE_CAP = 4096  # most homomorphisms F(X/eps) -> Q listed


@dataclass(frozen=True)
class Character:
    """A homomorphism from the clopen algebra to Z_2, stored as the subset S
    with chi_S(f) = |S & f| mod 2."""

    mask: int
    ground: int

    def __call__(self, f: int) -> int:
        return bin(self.mask & f).count("1") % 2

    def __add__(self, other: "Character") -> "Character":
        if self.ground != other.ground:
            raise PreconditionError("characters over different ground sets")
        return Character(self.mask ^ other.mask, self.ground)


def dual_group(ground: int) -> list[Character]:
    """All 2^n characters of the clopen algebra of 0..ground-1, the bitmasks
    under xor; additivity holds by construction of the bitmask pairing and
    is spot-verified here."""
    if ground > DUAL_CAP:
        raise CapExceeded(f"ground size {ground} exceeds cap {DUAL_CAP}")
    order = 1 << ground
    chars = [Character(s, ground) for s in range(order)]
    for chi in chars:
        for f, g in ((1, 1), (order - 1, 1)):
            f %= order
            if chi(f ^ g) != (chi(f) + chi(g)) % 2:
                raise AssertionError("character additivity broke")
    return chars


def evaluation_delta(x: int, ground: int) -> Character:
    """delta_x = chi_{{x}}: evaluation of clopen indicators at x."""
    if type(x) is not int or not 0 <= x < ground:
        raise InputError(f"point {shown(x)} outside 0..{ground - 1}")
    return Character(1 << x, ground)


@dataclass(frozen=True)
class UniversalExtension:
    """The unique homomorphism from the character group extending a map on
    the evaluation image of X, as its image of every character."""

    table: tuple[int, ...]  # the image of chi_S at index S, as elements of G
    group: FiniteGroupTable
    ground: int

    def apply(self, chi: Character) -> int:
        if chi.ground != self.ground:
            raise PreconditionError("character over another ground set")
        return self.table[chi.mask]


def universal_extension(
    f: Sequence[int], group: FiniteGroupTable, ground: int
) -> UniversalExtension:
    """Extend f: X -> G to the character group by linearity over GF(2).

    G must be Boolean (exponent <= 2); the homomorphism property is checked
    exhaustively at this scale.
    """
    if not group.is_boolean():
        raise PreconditionError("target group must have exponent at most 2")
    if len(f) != ground:
        raise InputError("image list does not match the ground set")
    size = 1 << ground
    img = [group.identity] * size
    for s in range(1, size):
        low = s & -s
        img[s] = group.op(img[s ^ low], f[low.bit_length() - 1])
    for s in range(size):
        row = group.mul[img[s]]
        if [img[s ^ t] for t in range(size)] != [row[b] for b in img]:
            raise AssertionError("extension failed to be a homomorphism")
    if any(img[1 << x] != f[x] for x in range(ground)):
        raise AssertionError("extension does not restrict to f")
    return UniversalExtension(tuple(img), group, ground)


@dataclass(frozen=True)
class QuotientHom:
    """A homomorphism F(X/eps) -> Q given by generator images, pulled back
    along the quotient map; a member of the finite-index local base."""

    eps: Partition
    target: FiniteGroupTable
    generator_images: tuple[int, ...]  # one image per block

    def image_of_block_word(self, w: FreeWord) -> int:
        if w.alphabet != len(self.eps.blocks):
            raise PreconditionError("word is not over the blocks of the quotient")
        acc = self.target.identity
        for b, s in w.letters:
            g = self.generator_images[b] if s == 1 else self.target.inv[self.generator_images[b]]
            acc = self.target.op(acc, g)
        return acc

    def contains(self, w: FreeWord) -> bool:
        """Membership of w in the pulled-back kernel subgroup of F(X)."""
        return self.image_of_block_word(quotient_hom(w, self.eps)) == self.target.identity


def local_base_SPro(eps: Partition, target: FiniteGroupTable) -> list[QuotientHom]:
    """All homomorphisms F(X/eps) -> Q as generator assignments."""
    k = len(eps.blocks)
    total = target.order**k
    if total > LOCAL_BASE_CAP:
        raise CapExceeded(f"{total} homomorphisms exceed cap {LOCAL_BASE_CAP}")
    return [
        QuotientHom(eps, target, images)
        for images in itertools.product(range(target.order), repeat=k)
    ]


@dataclass(frozen=True)
class InverseSystem:
    """Finite Boolean quotients B(X/eps_i) along a chain, with bonding maps
    from finer to coarser levels."""

    chain: PartitionChain

    def bond(self, i: int, u: BooleanWord) -> BooleanWord:
        """Send an element of B(X/eps_{i+1}) to B(X/eps_i): the projection
        of the fine blocks' representatives."""
        depth = len(self.chain)
        if type(i) is not int or not 0 <= i < depth - 1:
            raise InputError(f"no bond into level {shown(i)} in a chain of {depth} levels")
        fine = self.chain.partitions[i + 1]
        if u.ground != len(fine.blocks):
            raise PreconditionError("element is not over the finer quotient")
        reps = frozenset(min(fine.blocks[b]) for b in u.points)
        return self.project_from_base(BooleanWord(reps, fine.ground), i)

    def project_from_base(self, u: BooleanWord, i: int) -> BooleanWord:
        """Image of an element of B(X) in the level-i quotient."""
        if type(i) is not int or not 0 <= i < len(self.chain):
            raise InputError(f"level {shown(i)} outside 0..{len(self.chain) - 1}")
        part = self.chain.partitions[i]
        if u.ground != part.ground:
            raise PreconditionError("word ground set does not match the chain")
        sums = part.block_sums(zip(u.points, itertools.repeat(1)))
        return BooleanWord(frozenset(b for b, c in enumerate(sums) if c % 2), len(part.blocks))

    def thread_check(self, thread: Sequence[BooleanWord]) -> bool:
        """Accept exactly bond-consistent sequences, one element per level,
        ordered coarse to fine."""
        parts = self.chain.partitions
        if len(thread) != len(parts):
            raise PreconditionError("thread length must equal the chain depth")
        for i, (u, part) in enumerate(zip(thread, parts)):
            if u.ground != len(part.blocks):
                raise PreconditionError(f"thread entry {i} is over the wrong quotient")
        return all(self.bond(i, thread[i + 1]) == thread[i] for i in range(len(parts) - 1))
