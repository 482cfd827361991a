import pytest

import reference
from codezeta.gf import SUPPORTED_Q, FieldError, field_new


def element_order(spec, a):
    """The multiplicative order of a nonzero element, by repeated products
    through the field's tables."""
    acc, k = a, 1
    while acc != 1:
        acc = spec.mul(acc, a)
        k += 1
    return k


def test_gf2_is_xor_and():
    f = field_new(2)
    assert f.add(1, 1) == 0 and f.add(0, 1) == 1
    assert f.mul(1, 1) == 1 and f.mul(1, 0) == 0


def test_gf4_products():
    f = field_new(4)
    assert f.mul(2, 2) == 3  # x * x = x + 1
    assert f.mul(2, 3) == 1  # x (x + 1) = 1
    assert f.add(2, 3) == 1


def test_gf5_mod_arithmetic():
    f = field_new(5)
    assert f.mul(3, 4) == 2
    assert f.add(3, 4) == 2


def test_gf9_square_of_x():
    f = field_new(9)
    assert f.mul(3, 3) == 2  # x^2 = -1 = 2 mod (x^2 + 1)


def test_unsupported_q():
    with pytest.raises(FieldError, match="supported"):
        field_new(6)
    with pytest.raises(FieldError):
        field_new(16)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_field_axioms(q):
    f = field_new(q)
    for a in range(q):
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        # Frobenius a^q = a
        acc = 1
        for _ in range(q):
            acc = f.mul(acc, a)
        assert acc == a


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_multiplicative_group_cyclic(q):
    f = field_new(q)
    orders = [element_order(f, a) for a in range(1, q)]
    assert max(orders) == q - 1  # a generator exists
    assert all((q - 1) % o == 0 for o in orders)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_tables_equal_the_polynomial_construction(q):
    # the products are read off the powers of a primitive element; for
    # q = 9 that is not x, whose fourth power is 1 modulo x^2 + 1
    f = field_new(q)
    assert (f.add_table, f.mul_table, f.neg_table, f.inv_table) == reference.field_tables(q)
