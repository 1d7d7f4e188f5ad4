import numpy as np
from numpy.testing import assert_allclose

from doslab.quadrature import panel_rule


def test_panel_rule_weights_sum_to_length():
    x, w = panel_rule(-2.0, 3.0, n_nodes=8, n_panels=5)
    assert x.shape == w.shape == (40,)
    assert np.all((x > -2.0) & (x < 3.0))
    assert_allclose(w.sum(), 5.0, rtol=1e-14)


def test_gauss_nodes_are_exact_for_polynomials():
    # n nodes integrate degree 2n-1 exactly
    x, w = panel_rule(0.0, 1.0, n_nodes=6, n_panels=1)
    for k in range(12):
        assert_allclose(np.sum(w * x**k), 1.0 / (k + 1), rtol=1e-13, err_msg=f"x^{k}")

