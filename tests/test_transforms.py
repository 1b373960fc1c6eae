import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from backstep.kernel import kernel_constants, series_oracle
from backstep.norms import lp_norm
from backstep.transforms import (
    Profile,
    check_compatibility,
    feedback_row,
    forward_transform,
    initial_target_data,
    inverse_transform,
    kernel_matrix,
    kx1_on_grid,
    make_compatible,
)


def smooth_profile(m=201):
    return Profile.from_function(lambda x: np.cos(np.pi * x) + 0.3 * x ** 2, m)


class TestProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            Profile(2, np.zeros(2))
        with pytest.raises(ValueError):
            Profile(5, np.zeros(4))

    def test_grid(self):
        p = Profile(3, [0.0, 1.0, 2.0])
        assert p.h == 0.5
        assert np.allclose(p.x, [0, 0.5, 1.0])


class TestForward:
    def test_zero_kernel_is_identity(self, null_kernel):
        w = smooth_profile()
        u = forward_transform(w, null_kernel)
        assert np.array_equal(u.values, w.values)

    def test_zero_input(self, kernels_rx2_101):
        k, _ = kernels_rx2_101
        w = Profile(101, np.zeros(101))
        assert np.all(forward_transform(w, k).values == 0.0)

    def test_constant_against_fine_quadrature(self, kernels_rx2_201):
        # independent check: u(x) = 1 + int_0^x k(x, y) dy via a 10x-finer
        # plain trapezoid on interpolated kernel values
        k, _ = kernels_rx2_201
        m = 101
        w = Profile(m, np.ones(m))
        u = forward_transform(w, k)
        xs = w.x
        for idx in (25, 50, 75, 100):
            yy = np.linspace(0.0, xs[idx], 2001)
            kv = k.values_at(np.full_like(yy, xs[idx]), yy)
            expect = 1.0 + np.trapezoid(kv, yy)
            assert u.values[idx] == pytest.approx(expect, abs=5e-7)

    @given(a=st.floats(-2, 2), b=st.floats(-2, 2))
    def test_linearity(self, kernels_rx2_101, a, b):
        k, _ = kernels_rx2_101
        m = 101
        x = np.linspace(0, 1, m)
        w1 = Profile(m, np.sin(2 * x))
        w2 = Profile(m, x ** 3 - x)
        combo = Profile(m, a * w1.values + b * w2.values)
        lhs = forward_transform(combo, k).values
        rhs = a * forward_transform(w1, k).values + b * forward_transform(w2, k).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_volterra_causality(self, kernels_rx2_101, rng):
        k, _ = kernels_rx2_101
        m = 101
        base = rng.normal(size=m)
        cut = 60
        tail_change = base.copy()
        tail_change[cut + 1:] += rng.normal(size=m - cut - 1)
        u1 = forward_transform(Profile(m, base), k).values
        u2 = forward_transform(Profile(m, tail_change), k).values
        assert np.array_equal(u1[: cut + 1], u2[: cut + 1])


class TestKernelRead:
    """Profile nodes on the kernel lattice read it exactly; others interpolate."""

    @pytest.mark.parametrize("m, step", [(101, 1), (51, 2)])
    def test_on_lattice_grid_is_strided_triangle(self, kernels_rx2_201, m, step):
        for grid in kernels_rx2_201:
            assert np.array_equal(kernel_matrix(grid, m), grid.values_xy[::step, ::step])
            assert np.array_equal(kx1_on_grid(grid, m), grid.kx_xy()[-1][::step])

    def test_off_lattice_grid_interpolates(self, kernels_rx2_201):
        # grid_m = 81 on n_eta = 101: every 4th profile node is every 5th lattice node
        for grid in kernels_rx2_201:
            K = kernel_matrix(grid, 81)
            assert np.max(np.abs(K[::4, ::4] - grid.values_xy[::5, ::5])) < 1e-12
            assert np.max(np.abs(kx1_on_grid(grid, 81)[::4] - grid.trace_kx1[::5])) < 1e-12

    def test_off_lattice_trace_keeps_lattice_error(self, kernels_rx2_201):
        # k_x(1, y) of the series oracle by a central difference in x (error ~1e-10)
        def exact(y, e=1e-6):
            right = series_oracle(10.0, 2.0, 1.0 + e + y, 1.0 + e - y, 25)
            left = series_oracle(10.0, 2.0, 1.0 - e + y, 1.0 - e - y, 25)
            return (right - left) / (2.0 * e)

        k, _ = kernels_rx2_201
        lattice_err = np.max(np.abs(k.trace_kx1 - exact(k.x_nodes)))
        y = np.linspace(0.0, 1.0, 201)
        assert k.node_index(y) is None
        read_err = np.max(np.abs(kx1_on_grid(k, 201) - exact(y)))
        assert read_err <= 1.01 * lattice_err

    def test_traces_are_triangle_rows(self, kernels_rx2_201):
        for grid in kernels_rx2_201:
            assert np.array_equal(grid.trace_kx1, grid.kx_xy()[-1])
            assert np.array_equal(grid.trace_diag, np.diag(grid.values_xy))


class TestInverse:
    def test_zero_kernel(self, null_kernel):
        u = smooth_profile()
        assert np.array_equal(inverse_transform(u, null_kernel).values, u.values)

    def test_zero_input(self, kernels_rx2_101):
        _, l = kernels_rx2_101
        assert np.all(inverse_transform(Profile(101, np.zeros(101)), l).values == 0.0)

    def test_round_trip(self, kernels_rx2_201):
        k, l = kernels_rx2_201
        w = smooth_profile(201)
        back = inverse_transform(forward_transform(w, k), l)
        assert np.max(np.abs(back.values - w.values)) < 1e-6

    def test_round_trip_second_order_mode(self, kernels_rx2_201):
        k, l = kernels_rx2_201
        errs = []
        for m in (51, 101):
            w = smooth_profile(m)
            back = inverse_transform(forward_transform(w, k, order=2), l, order=2)
            errs.append(np.max(np.abs(back.values - w.values)))
        assert 3.0 < errs[0] / errs[1] < 5.0


class TestControlInput:
    def test_zero_kernel(self, null_kernel):
        w = smooth_profile()
        assert feedback_row(null_kernel, w.grid_m) @ w.values == 0.0

    def test_zero_state(self, kernels_rx2_101):
        k, _ = kernels_rx2_101
        assert feedback_row(k, 101) @ np.zeros(101) == 0.0

    def test_constant_state_against_refined_quadrature(self, kernels_rx2_201):
        k, _ = kernels_rx2_201
        coarse = feedback_row(k, 101) @ np.ones(101)
        fine = feedback_row(k, 201) @ np.ones(201)
        assert coarse == pytest.approx(fine, abs=5e-6)
        # sign structure: -k(1,1) - int k_x(1, y) dy
        assert fine == pytest.approx(
            -k.trace_diag[-1] - np.trapezoid(k.trace_kx1, dx=k.delta), abs=1e-3
        )


class TestNormChains:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
    def test_initial_data_chain(self, p, kernels_rx2_201, rng):
        k, l = kernels_rx2_201
        con = kernel_constants(k, l)
        m = 201
        x = np.linspace(0, 1, m)
        for _ in range(3):
            coef = rng.normal(size=4)
            w0 = Profile(m, coef[0] + coef[1] * x + coef[2] * np.cos(np.pi * x)
                         + coef[3] * x ** 2)
            u0 = initial_target_data(w0, k)
            if np.isinf(p):
                bound = 2.0 * max(1.0, con.alpha1) * lp_norm(w0, p)
                assert lp_norm(u0, p) <= bound * (1 + 1e-9)
            else:
                bound = 2 ** (p - 1) * (1 + con.alpha1 ** p) * lp_norm(w0, p) ** p
                assert lp_norm(u0, p) ** p <= bound * (1 + 1e-9)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_inverse_chain(self, p, kernels_rx2_201, rng):
        k, l = kernels_rx2_201
        con = kernel_constants(k, l)
        m = 201
        x = np.linspace(0, 1, m)
        u = Profile(m, 0.3 + np.sin(3 * x) * (1 - x))
        w = inverse_transform(u, l)
        bound = 2 ** (p - 1) * (1 + con.beta1 ** p) * lp_norm(u, p) ** p
        assert lp_norm(w, p) ** p <= bound * (1 + 1e-9)


class TestMakeCompatible:
    def test_residual_vanishes(self, kernels_rx2_201):
        k, _ = kernels_rx2_201
        x = np.linspace(0, 1, 201)
        r = np.abs(x - 0.5) / 0.3
        vals = np.where(r < 1, np.exp(1 - 1 / np.maximum(1 - r ** 2, 1e-12)), 0.0)
        w0, gamma = make_compatible(Profile(201, vals), k)
        rep = check_compatibility(w0, k)
        assert rep.residual_left < 1e-9 and rep.residual_right < 1e-9
        assert gamma != 0.0
