"""Free group word calculus, quotients onto free groups of partitions, and
a brute-force Graev-type ultra-metric on words.

Letters are (point id, sign) with sign +-1; words are kept freely reduced.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .abelian import AbelianWord
from .errors import CapExceeded, InputError, PreconditionError, shown
from .oracles import deletion_closure
from .spaces import Matrix, Partition, RankedMatrix, Ranks, index, rank_matrix, validate_ultrametric

Letter = tuple[int, int]

CLOSURE_CAP = 8  # longest words in a computed subgroup ball
DELTA_CAP = 6  # longest reduced u^-1 v the brute-force delta accepts


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word over 0..alphabet-1; letters that cancel are checked too."""

    letters: tuple[Letter, ...]
    alphabet: int

    def __post_init__(self):
        n = self.alphabet
        red: list[Letter] = []
        for p, s in self.letters:
            index(p, n, "letter")
            if type(s) is not int or s not in (1, -1):
                raise InputError(f"exponent {shown(s)} must be +-1")
            if red and red[-1] == (p, -s):
                red.pop()
            else:
                red.append((p, s))
        object.__setattr__(self, "letters", tuple(red))

    def __len__(self) -> int:
        return len(self.letters)

    def is_identity(self) -> bool:
        return not self.letters


def fg_multiply(u: FreeWord, v: FreeWord) -> FreeWord:
    if u.alphabet != v.alphabet:
        raise PreconditionError("words over different alphabets")
    return FreeWord(u.letters + v.letters, u.alphabet)


def fg_invert(u: FreeWord) -> FreeWord:
    return FreeWord(tuple((p, -s) for p, s in reversed(u.letters)), u.alphabet)


def _push(image: tuple[Letter, ...], letter: Letter) -> tuple[Letter, ...]:
    """The reduced word image * letter, for a reduced image: one step of
    free reduction."""
    b, s = letter
    if image and image[-1] == (b, -s):
        return image[:-1]
    return image + (letter,)


def _image(letters: Sequence[Letter], eps: Partition) -> tuple[Letter, ...]:
    """The reduced image of a letter sequence over eps's ground set in the
    free group over its blocks: each letter mapped to its block and pushed."""
    block = eps.block_index
    out: tuple[Letter, ...] = ()
    for p, s in letters:
        out = _push(out, (block(p), s))
    return out


def _kernel(points: Sequence[int], max_len: int, eps: Partition) -> list[tuple[Letter, ...]]:
    """The words of `_raw_words(points, max_len)`, in order, whose image over
    eps's blocks is e.  The walk is `_raw_words`'s, each word carrying its
    image.  A letter moves the image's length by exactly one, so a word whose
    image is longer than the letters still allowed has no extension with
    image e, and its branch is dropped."""
    block = eps.block_index
    # (letter, its inverse, its image, the image's inverse)
    steps = [(((p, s),), (p, -s), (block(p), s), (block(p), -s)) for p in points for s in (1, -1)]
    out: list[tuple[Letter, ...]] = [()]
    frontier = [((), ())]
    for room in range(max_len - 1, -1, -1):
        nxt = []
        for w, image in frontier:
            last = w[-1] if w else None
            for step, inverse, letter, back in steps:
                if last != inverse:
                    if image and image[-1] == back:  # the parent's image fit one letter more
                        nxt.append((w + step, image[:-1]))
                    elif len(image) < room:
                        nxt.append((w + step, image + (letter,)))
        out.extend(w for w, image in nxt if not image)
        frontier = nxt
    return out


def quotient_hom(w: FreeWord, eps: Partition) -> FreeWord:
    """Replace each letter by its block and reduce: the induced homomorphism
    onto the free group over the blocks."""
    if w.alphabet != eps.ground:
        raise PreconditionError("word alphabet does not match the partition")
    return FreeWord(_image(w.letters, eps), len(eps.blocks))


def eps_tilde_membership(w: FreeWord, eps: Partition) -> bool:
    """Membership in the normal subgroup generated by the conjugated
    epsilon-generators: exactly the kernel of the quotient homomorphism."""
    if w.alphabet != eps.ground:
        raise PreconditionError("word alphabet does not match the partition")
    return not _image(w.letters, eps)


def _raw_words(points: Sequence[int], max_len: int) -> list[tuple[Letter, ...]]:
    """All freely reduced letter tuples over `points` of length <= max_len,
    breadth first."""
    steps = [(((p, s),), (p, -s)) for p in points for s in (1, -1)]  # (letter, its inverse)
    out: list[tuple[Letter, ...]] = [()]
    frontier: list[tuple[Letter, ...]] = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            last = w[-1] if w else None
            for step, inverse in steps:
                if last != inverse:
                    nxt.append(w + step)
        out.extend(nxt)
        frontier = nxt
    return out


def v_psi_ball(eps: Partition, length_cap: int) -> frozenset[FreeWord]:
    """Ball of the subgroup generated by {w g w^-1 : g an in-block pair of
    eps}, over eps's ground set, by the exact deletion search
    `oracles.deletion_closure`."""
    if length_cap > CLOSURE_CAP:
        raise CapExceeded(f"length cap {length_cap} exceeds maximum {CLOSURE_CAP}")
    raw = deletion_closure(eps, _raw_words(range(eps.ground), length_cap))
    return frozenset(FreeWord(w, eps.ground) for w in raw)


@dataclass(frozen=True)
class SymmetrizedSpace:
    """An ultra-metric on X union X^-1 union {e} for the Graev construction.

    Indexing: 0..n-1 are the base letters, n..2n-1 their inverses, 2n is e.
    `scale` and `rank` are the rank encoding of `dist` (see RankedMatrix),
    on which the Graev check and delta decide.  `grau` is that check,
    decided when the space is built.
    """

    n: int
    dist: Matrix
    scale: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    rank: Ranks = field(init=False, repr=False, compare=False)
    grau: GrauCheck = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = rank_matrix(self.dist)
        object.__setattr__(self, "dist", table.dist)
        object.__setattr__(self, "scale", table.scale)
        object.__setattr__(self, "rank", table.rank)
        if len(self.dist) != 2 * self.n + 1:
            raise InputError("matrix must cover X, the inverses and e")
        object.__setattr__(self, "grau", _grau_conditions(self, table))

    @property
    def e(self) -> int:
        return 2 * self.n

    def inv_index(self, i: int) -> int:
        if i == self.e:
            return i
        return i + self.n if i < self.n else i - self.n

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def letter_index(self, letter: Letter) -> int:
        p, s = letter
        return p if s == 1 else p + self.n


@dataclass(frozen=True)
class GrauCheck:
    violation: Optional[str]  # None: the conditions hold
    strong_pattern: bool  # d(x^-1, y) = max(d(x,e), d(y,e)) throughout

    @property
    def ok(self) -> bool:
        return self.violation is None


def check_grau_conditions(dbar: SymmetrizedSpace) -> GrauCheck:
    """The inversion-compatibility identities plus ultra-metric validity,
    with the stronger max-pattern flagged when it holds: the space's `grau`."""
    return dbar.grau


def _grau_conditions(dbar: SymmetrizedSpace, table: RankedMatrix) -> GrauCheck:
    """The Graev check of `dbar`, whose distances and ranks are `table`."""
    bad = validate_ultrametric(table)
    if bad is not None:
        return GrauCheck(f"not an ultra-metric: {bad}", False)
    rank, inv, e = dbar.rank, dbar.inv_index, dbar.e
    half = list(range(dbar.n)) + [e]
    for i, j in itertools.product(half, repeat=2):
        ii, ji = inv(i), inv(j)
        if rank[ii][ji] != rank[i][j]:
            return GrauCheck(
                f"d(inv {i}, inv {j}) = {dbar.d(ii, ji)} != d({i},{j}) = {dbar.d(i, j)}", False
            )
        if rank[ii][j] != rank[i][ji]:
            return GrauCheck(
                f"d(inv {i}, {j}) = {dbar.d(ii, j)} != d({i}, inv {j}) = {dbar.d(i, ji)}", False
            )
    strong = all(
        rank[inv(i)][j] == max(rank[i][e], rank[j][e])
        for i, j in itertools.product(range(dbar.n), repeat=2)
    )
    return GrauCheck(None, strong)


def _trivial_sequences(alphabet: tuple[int, ...], length: int, dbar: SymmetrizedSpace):
    """All index sequences of the given length over the alphabet whose word
    freely reduces to e, in alphabet order.  Cached per (alphabet, length).
    The suffix list `tails(stack, r)` of the sequences of length r that reduce
    `stack` to e is built once and shared by every prefix reaching `stack`."""
    key = (alphabet, length, dbar.n)
    cache = _trivial_sequences.cache
    if key in cache:
        return cache[key]
    e = dbar.e
    inv = {a: dbar.inv_index(a) for a in alphabet}
    memo: dict[tuple[tuple[int, ...], int], list[tuple[int, ...]]] = {((), 0): [()]}

    def tails(stack: tuple[int, ...], r: int) -> list[tuple[int, ...]]:
        if len(stack) > r:
            return []
        out = memo.get((stack, r))
        if out is None:
            out = []
            for a in alphabet:
                if a == e:
                    nstack = stack
                elif stack and stack[-1] == inv[a]:
                    nstack = stack[:-1]
                else:
                    nstack = stack + (a,)
                out.extend([(a,) + t for t in tails(nstack, r - 1)])
            memo[stack, r] = out
        return out

    out = tails((), length)
    # `tails` holds itself through its closure cell; deleting it breaks the
    # cycle, so the memo is freed on return, not by the collector
    del tails
    cache[key] = out
    return out


_trivial_sequences.cache = {}


def _delta_word(
    w: FreeWord, dbar: SymmetrizedSpace, alphabet: tuple[int, ...]
) -> Fraction:
    """min over trivial words t (same padded length, letters from the given
    alphabet) of the max letterwise distance to w."""
    if w.is_identity():
        return Fraction(0)
    m = len(w)
    target = m if m % 2 == 0 else m + 1
    widx = [dbar.letter_index(l) for l in w.letters]
    paddings = []
    for positions in itertools.combinations(range(target), target - m):
        seq = []
        it = iter(widx)
        for i in range(target):
            seq.append(dbar.e if i in positions else next(it))
        paddings.append(seq)
    rank = dbar.rank
    best = len(dbar.scale)  # above every rank until a trivial word is costed
    for t in _trivial_sequences(alphabet, target, dbar):
        for seq in paddings:
            cost = 0
            for i in range(target):
                v = rank[seq[i]][t[i]]
                if v > cost:
                    cost = v
                    if cost >= best:
                        break
            else:
                if cost < best:
                    best = cost
    return dbar.scale[best]


def word_alphabet(w: FreeWord, dbar: SymmetrizedSpace, extra: Sequence[int] = ()) -> tuple[int, ...]:
    """Indices of letters(w), their inverses and e, plus optional extras."""
    s = {dbar.e}
    for p, _ in w.letters:
        s.add(p)
        s.add(p + dbar.n)
    for p in extra:
        s.add(index(p, dbar.n, "letter"))
        s.add(p + dbar.n)
    return tuple(sorted(s))


def graev_delta_bruteforce(
    u: FreeWord,
    v: FreeWord,
    dbar: SymmetrizedSpace,
    extra_letters: Sequence[int] = (),
) -> Fraction:
    """Brute-force Graev-type ultra-metric: delta(u, v) as a bottleneck
    matching between u^-1 v (padded with e) and trivial words over the
    restricted alphabet."""
    check = check_grau_conditions(dbar)
    if not check.ok:
        raise PreconditionError(f"symmetrized metric invalid: {check.violation}")
    w = fg_multiply(fg_invert(u), v)
    if w.alphabet != dbar.n:
        raise PreconditionError("word alphabet does not match the symmetrized space")
    if len(w) > DELTA_CAP:
        raise CapExceeded(f"reduced length {len(w)} exceeds cap {DELTA_CAP}")
    return _delta_word(w, dbar, word_alphabet(w, dbar, extra_letters))


def project_to_abelian(w: FreeWord) -> AbelianWord:
    """Signed letter sums."""
    acc: dict[int, int] = {}
    for p, s in w.letters:
        acc[p] = acc.get(p, 0) + s
    return AbelianWord.from_dict(acc, w.alphabet)
