"""Cumulative quadrature: the numpy sums against a plain-Python statement of their
formula and against scipy as an oracle, and their order."""
import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from backstep._quad import composite_weights, cumquad


def scipy_cumquad(g, h, axis):
    """The corrected cumulative trapezoid written with scipy's running sums."""
    out = cumulative_trapezoid(g, dx=h, axis=axis, initial=0.0)
    d = np.gradient(g, h, axis=axis, edge_order=2)
    return out - (h * h / 12.0) * (d - np.take(d, [0], axis=axis))


def running_sum_cumquad(g, h, axis):
    """cumquad's stencil and its running sum, one line at a time in Python floats."""
    def line(v):
        v = [float(x) for x in v]
        q = [((5.0 * v[0] + 8.0 * v[1]) - v[2]) * (h / 12.0)]
        q += [((13.0 * (v[i] + v[i + 1]) - v[i - 1]) - v[i + 2]) * (h / 24.0)
              for i in range(1, len(v) - 2)]
        q.append(((5.0 * v[-1] + 8.0 * v[-2]) - v[-3]) * (h / 12.0))
        out, total = [0.0], 0.0
        for x in q:
            total += x
            out.append(total)
        return out

    return np.apply_along_axis(line, axis, g)


class TestCumquad:
    @pytest.mark.parametrize("shape, axis", [((41, 83), 0), ((41, 83), 1), ((41, 83), -1),
                                             ((5, 7, 9), 1), ((3, 2, 4), 0), ((3,), 0),
                                             ((4, 3), 1), ((3, 4), 0), ((5, 7, 9), 0),
                                             ((5, 7, 9), 2), ((5, 7, 9), -3)])
    def test_bit_equal_to_scipy(self, rng, shape, axis):
        """Bit-equal to the running sum of the stencil, and within 16 eps of scipy's
        corrected trapezoid, which cumquad matched to the bit before it became a stencil."""
        g = rng.standard_normal(shape)
        h = 1.0 / (shape[axis] - 1)
        expect = running_sum_cumquad(g, h, axis)
        # the same values held contiguously, as a transposed view, and in
        # every other column of a wider array
        wide = np.zeros(shape[:-1] + (2 * shape[-1],))
        wide[..., ::2] = g
        for held in (g, np.ascontiguousarray(g.T).T, wide[..., ::2]):
            assert np.array_equal(cumquad(held, h, axis), expect)
        # the corrected trapezoid of scipy's running sums, to rounding on each line's scale
        ref = scipy_cumquad(g, h, axis)
        scale = np.max(np.abs(ref), axis=axis, keepdims=True)
        assert np.all(np.abs(cumquad(g, h, axis) - ref) <= 16 * np.finfo(float).eps * scale)

    def test_fourth_order(self):
        errs = []
        for n in (11, 21, 41, 81):
            x = np.linspace(0.0, 1.0, n)
            errs.append(np.max(np.abs(cumquad(np.sin(x), x[1]) - (1.0 - np.cos(x)))))
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all(ratios >= 14.0), ratios


class TestCompositeWeights:
    @pytest.mark.parametrize("n_nodes, order, message", [
        (1, 4, "need at least two nodes"),
        (0, 2, "need at least two nodes"),
        (5, 3, "unsupported quadrature order 3"),
        (2, 3, "unsupported quadrature order 3"),
    ])
    def test_rejects(self, n_nodes, order, message):
        with pytest.raises(ValueError, match=message):
            composite_weights(n_nodes, order)
