"""Cumulative quadrature: the numpy sums against scipy as an oracle, and their order."""
import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from backstep._quad import cumquad


def scipy_cumquad(g, h, axis):
    """The corrected cumulative trapezoid written with scipy's running sums."""
    out = cumulative_trapezoid(g, dx=h, axis=axis, initial=0.0)
    if g.shape[axis] >= 3:
        d = np.gradient(g, h, axis=axis, edge_order=2)
        out = out - (h * h / 12.0) * (d - np.take(d, [0], axis=axis))
    return out


class TestCumquad:
    @pytest.mark.parametrize("shape, axis", [((41, 83), 0), ((41, 83), 1), ((41, 83), -1),
                                             ((5, 7, 9), 1), ((2,), 0), ((3,), 0),
                                             ((4, 2), 1), ((3, 4), 0), ((5, 7, 9), 0),
                                             ((5, 7, 9), 2), ((5, 7, 9), -3)])
    def test_bit_equal_to_scipy(self, rng, shape, axis):
        g = rng.standard_normal(shape)
        h = 1.0 / (shape[axis] - 1)
        expect = scipy_cumquad(g, h, axis)
        # the same values held contiguously, as a transposed view, and in
        # every other column of a wider array
        wide = np.zeros(shape[:-1] + (2 * shape[-1],))
        wide[..., ::2] = g
        for held in (g, np.ascontiguousarray(g.T).T, wide[..., ::2]):
            assert np.array_equal(cumquad(held, h, axis), expect)

    def test_fourth_order(self):
        errs = []
        for n in (11, 21, 41, 81):
            x = np.linspace(0.0, 1.0, n)
            errs.append(np.max(np.abs(cumquad(np.sin(x), x[1]) - (1.0 - np.cos(x)))))
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all(ratios >= 14.0), ratios
