"""The universal property of the free Boolean group at finite scale: every
map f: X -> G into a Boolean group extends to exactly one homomorphism.

For a finite ground set every subset is clopen, so the character group is
the power set of X as bitmasks under symmetric difference; the subset with
bitmask S is the sum of the evaluations at the points of S.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InputError, PreconditionError
from .finite_groups import FiniteGroupTable
from .spaces import index


@dataclass(frozen=True)
class UniversalExtension:
    """The unique homomorphism extending a map X -> G, as its image of every
    subset of X."""

    table: tuple[int, ...]  # the image of the subset with bitmask S at index S

    def apply(self, subset: int) -> int:
        """The image of the subset whose bitmask is `subset`, read by
        `spaces.index`."""
        return self.table[index(subset, len(self.table), "subset")]


def universal_extension(
    f: Sequence[int], group: FiniteGroupTable, ground: int
) -> UniversalExtension:
    """Extend f: X -> G to the character group by linearity over GF(2).

    G must be Boolean (exponent <= 2).  As in Light's test, generators
    suffice: from img[s ^ {x}] = img[s] f(x) for all s, x and img[0] = e,
    induction on |t| gives, for t = t' ^ {x} with x outside t',
    img[s ^ t] = img[s ^ t'] f(x) = img[s] img[t'] f(x) = img[s] img[t],
    so the homomorphism property holds for every pair (s, t).  At s = 0 the
    identity reads img[{x}] = f(x), so the extension restricts to f.
    """
    if not group.is_boolean():
        raise PreconditionError("target group must have exponent at most 2")
    if len(f) != ground:
        raise InputError("image list does not match the ground set")
    for g in f:
        index(g, group.order, "image")
    size = 1 << ground
    img = [group.identity] * size
    for s in range(1, size):
        low = s & -s
        img[s] = group.op(img[s ^ low], f[low.bit_length() - 1])
    for x, g in enumerate(f):
        if [img[s ^ (1 << x)] for s in range(size)] != [group.mul[b][g] for b in img]:
            raise AssertionError("extension failed to be a homomorphism")
    return UniversalExtension(tuple(img))
