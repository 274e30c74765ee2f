"""Product-space points, the product set and the diagonal, and the m-set methods built on them."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vertipy import feasibility as F
from vertipy import product
from vertipy.bestapprox import q_operator
from vertipy.probgen import make_batch


def test_make_product_point():
    parts = product.make_product_point([1.0, 2.0], 3)
    assert parts.shape == (3, 2)
    assert_allclose(parts, [[1.0, 2.0]] * 3, atol=0)
    # rows are independent copies, and the monitored iterate is their average
    parts[0, 0] = 9.0
    assert parts[1, 0] == 1.0
    assert_allclose(product.diagonal_part(parts), [11.0 / 3.0, 2.0], atol=0)


# ------------------------------------- the m-set methods as two-set recursions

def _dr_rows(parts, sets):
    """Row i: x_i - xbar + P_i(2 xbar - x_i)."""
    xbar = parts.mean(axis=0)
    return np.array([
        parts[i] - xbar + c.project(2.0 * xbar - parts[i]) for i, c in enumerate(sets)
    ])


def _badr_rows(parts, v, sets):
    """Row i: x_i - xbar + P_i((v + 2 xbar - x_i) / 2)."""
    xbar = parts.mean(axis=0)
    return np.array([
        parts[i] - xbar + c.project(0.5 * (v + 2.0 * xbar - parts[i]))
        for i, c in enumerate(sets)
    ])


def _pardyk_rows(parts, z, sets):
    """Row i: P_i(z_i + xbar), with the correction z_i + xbar - P_i(z_i + xbar)."""
    xbar = parts.mean(axis=0)
    shifted = [z[i] + xbar for i in range(len(sets))]
    new = np.array([c.project(shifted[i]) for i, c in enumerate(sets)])
    return new, np.array([shifted[i] - new[i] for i in range(len(sets))])


@pytest.mark.parametrize("nonconvex", [False, True], ids=["convex", "nonconvex"])
def test_product_methods_match_the_per_row_formulas_bitwise(nonconvex):
    # D-R, hD-R, baD-R and ParDyk step the product set and the diagonal
    # through the two-set recursions; that must equal the per-row formulas
    # bit for bit, including the signs of zeros
    problem = make_batch(0, count=1, nonconvex=nonconvex)[0]
    sets, v = problem.sets, problem.v
    dr = F.make_algorithm("D-R", sets, v)
    hdr = F.make_algorithm("hD-R", sets, v)
    badr = F.make_algorithm("baD-R", sets, v)
    pardyk = F.make_algorithm("ParDyk", sets, v)
    anchor = product.make_product_point(v, len(sets)).ravel()
    dr_parts = hdr_parts = badr_parts = dyk_parts = product.make_product_point(v, len(sets))
    dyk_z = np.zeros_like(dyk_parts)
    for _ in range(300):
        dr_parts = _dr_rows(dr_parts, sets)
        dr.step()
        assert dr.parts.tobytes() == dr_parts.tobytes()

        target = _dr_rows(hdr_parts, sets)
        hdr_parts = q_operator(anchor, hdr_parts.ravel(), target.ravel()).reshape(target.shape)
        hdr.step()
        assert hdr.parts.tobytes() == hdr_parts.tobytes()

        badr_parts = _badr_rows(badr_parts, v, sets)
        badr.step()
        assert badr.parts.tobytes() == badr_parts.tobytes()

        dyk_parts, dyk_z = _pardyk_rows(dyk_parts, dyk_z, sets)
        pardyk.step()
        assert pardyk.parts.tobytes() == dyk_parts.tobytes()
        assert pardyk.z.tobytes() == dyk_z.tobytes()
