"""Universal extensions into Boolean groups."""
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

