"""Product-space points and their monitored row average."""

from numpy.testing import assert_allclose

from vertipy import product


def test_make_product_point():
    parts = product.make_product_point([1.0, 2.0], 3)
    assert parts.shape == (3, 2)
    assert_allclose(parts, [[1.0, 2.0]] * 3, atol=0)
    # rows are independent copies, and the monitored iterate is their average
    parts[0, 0] = 9.0
    assert parts[1, 0] == 1.0
    assert_allclose(product.diagonal_part(parts), [11.0 / 3.0, 2.0], atol=0)

