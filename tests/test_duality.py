"""Universal extensions into Boolean groups."""
import itertools

import pytest

from nafree.duality import universal_extension
from nafree.errors import InputError, PreconditionError
from nafree.finite_groups import FiniteGroupTable


def test_universal_extension_examples():
    z2 = FiniteGroupTable.cyclic(2)
    ext = universal_extension((1, 1), z2, 2)
    assert ext.apply(0b11) == 0
    assert ext.apply(0b01) == 1
    trivial = universal_extension((0, 0, 0), z2, 3)
    assert all(trivial.apply(s) == 0 for s in range(8))


def test_universal_extension_identity_case():
    # f = delta itself, viewed through the bitmask isomorphism V* ~ Z2^X
    klein = FiniteGroupTable.boolean_power(2)
    ext = universal_extension((0b01, 0b10), klein, 2)
    for s in range(4):
        assert ext.apply(s) == s


def test_universal_extension_refuses_a_mask_outside_the_ground_set():
    ext = universal_extension((1, 1), FiniteGroupTable.cyclic(2), 2)
    for subset in (-1, 4, True, 1.0):
        with pytest.raises(InputError, match=rf"^subset {subset!r} outside 0..3$"):
            ext.apply(subset)


@pytest.mark.parametrize("image", [True, -1, 2, 1.0])
def test_universal_extension_refuses_an_image_outside_the_group(image):
    with pytest.raises(InputError, match=rf"^image {image!r} outside 0..1$"):
        universal_extension((image, 0), FiniteGroupTable.cyclic(2), 2)


def test_universal_extension_requires_boolean_target():
    with pytest.raises(PreconditionError):
        universal_extension((0, 0), FiniteGroupTable.cyclic(4), 2)


def _extends_everywhere(table, f, group):
    """The exhaustive check: table[s ^ t] = table[s] table[t] for every pair
    (s, t), table[0] = e, and table restricts to f."""
    size = len(table)
    return (table[0] == group.identity
            and all(table[1 << x] == g for x, g in enumerate(f))
            and all(table[s ^ t] == group.mul[table[s]][table[t]]
                    for s in range(size) for t in range(size)))


def _planted(group, g, h):
    """`group` with `op` wrong at (g, h) alone; `mul` stays right, so an
    extension built with `op` gets wrong entries and is checked on `mul`."""
    right = group.op
    planted = FiniteGroupTable(group.mul)
    object.__setattr__(planted, "op", lambda a, b: right(a, b) ^ ((a, b) == (g, h)))
    return planted


def _built(f, group):
    """The table the extension builds with `group.op`: each mask from the
    mask without its lowest point."""
    table = [group.identity] * (1 << len(f))
    for s in range(1, len(table)):
        low = s & -s
        table[s] = group.op(table[s ^ low], f[low.bit_length() - 1])
    return table


def test_generator_check_accepts_exactly_where_the_exhaustive_check_does():
    maps = rejected = 0
    for k, ground in itertools.product(range(1, 4), range(1, 5)):
        group = FiniteGroupTable.boolean_power(k)
        for f in itertools.product(range(group.order), repeat=ground):
            assert _extends_everywhere(universal_extension(f, group, ground).table, f, group)
            maps += 1
            if k > 2 or ground > 3:
                continue
            for g, h in itertools.permutations(range(group.order), 2):  # is_boolean reads op(g, g)
                planted = _planted(group, g, h)
                table = _built(f, planted)
                if _extends_everywhere(table, f, group):
                    assert universal_extension(f, planted, ground).table == tuple(table)
                else:
                    with pytest.raises(AssertionError):
                        universal_extension(f, planted, ground)
                    rejected += 1
    assert (maps, rejected) == (5050, 268)
