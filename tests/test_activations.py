"""Activation derivatives, interval constants, and g'' inversion."""

import dataclasses
import decimal
import math
import warnings

import numpy as np
import pytest

from netrecover import ConfigError, invert_g2, make_activation


# where each activation's g''' first vanishes, and g'' turns around
TURN = {"tanh": math.atanh(1 / math.sqrt(3)), "sigmoid": math.log(2 + math.sqrt(3))}


def scan(act, radius=None, n=1000):
    """The reference grid check of a shift interval, ``[-tau_inf, tau_inf]`` by default.

    Returns whether each property that shift and sign recovery need holds on
    the grid: g'' strictly decreasing, g''' nonzero with the sign it has at
    0, and g' positive.
    """
    r = act.tau_inf if radius is None else radius
    x = np.linspace(-r, r, n)
    return (bool(np.all(np.diff(act.g2(x)) < 0)),
            bool(np.all(np.sign(act.g3(x)) == np.sign(act.g3(0.0)))),
            bool(np.all(act.g1(x) > 0)))


def grid_kappa(act) -> float:
    """``max_n<=3 sup |g^(n)|`` on a wide grid that holds 0."""
    x = np.linspace(-20.0, 20.0, 100_001)
    return float(max(np.max(np.abs(act.derivative(n)(x))) for n in (1, 2, 3)))


class TestConstants:
    def test_tanh_interval(self, tanh_act):
        assert tanh_act.tau_inf == 0.6 < TURN["tanh"]

    def test_sigmoid_interval(self, sigmoid_act):
        assert sigmoid_act.tau_inf == 1.3 < TURN["sigmoid"]

    def test_tanh_third_derivative_at_zero(self, tanh_act):
        # -2 (1 - t^2)(1 - 3 t^2) evaluated at t = tanh(0) = 0
        assert tanh_act.g3(0.0) == pytest.approx(-2.0, abs=1e-15)

    def test_sigmoid_third_derivative_at_zero(self, sigmoid_act):
        assert sigmoid_act.g3(0.0) == pytest.approx(-0.125, abs=1e-15)

    def test_tanh_kappa(self, tanh_act):
        # kappa = max(sup|g'|, sup|g''|, sup|g'''|) = sup|g'''| = 2 at the origin,
        # the literal that tests/test_teacher.py bounds the FD Hessian error with
        assert grid_kappa(tanh_act) == abs(tanh_act.g3(0.0)) == 2.0

    def test_monotone_direction(self, tanh_act, sigmoid_act):
        # invert_g2 orients its bracket by g'' at the two ends: it falls across the interval
        for act in (tanh_act, sigmoid_act):
            assert act.g2(-act.tau_inf) > 0 > act.g2(act.tau_inf)

    def test_tanh_monotone_on_full_interval(self, tanh_act):
        assert scan(tanh_act) == (True, True, True)
        # past atanh(1/sqrt(3)) ~ 0.658 both properties fail
        assert scan(tanh_act, 0.7)[:2] == (False, False)

    def test_sigmoid_monotone_core(self, sigmoid_act):
        assert scan(sigmoid_act) == (True, True, True)
        # past ln(2 + sqrt(3)) ~ 1.317 both properties fail
        assert scan(sigmoid_act, 1.5)[:2] == (False, False)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
    def test_central_differences(self, kind):
        act = make_activation(kind)
        rng = np.random.default_rng(0)
        x = rng.uniform(-3, 3, size=1000)
        h = 1e-4
        for low, high in ((act.g, act.g1), (act.g1, act.g2), (act.g2, act.g3)):
            fd = (low(x + h) - low(x - h)) / (2 * h)
            assert np.max(np.abs(fd - high(x))) < 10 * h * h

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
    def test_kappa_bounds_derivatives(self, kind):
        act = make_activation(kind)
        x = np.linspace(-10, 10, 5000)
        for n in (1, 2, 3):
            assert np.max(np.abs(act.derivative(n)(x))) <= grid_kappa(act) + 1e-12


class TestGAndG1:
    X = np.random.default_rng(1).uniform(-8, 8, size=(37, 5))

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
    def test_bit_equal_to_separate_calls(self, kind):
        act = make_activation(kind)
        g, g1 = act.g_and_g1(self.X)
        assert np.array_equal(g, act.g(self.X))
        assert np.array_equal(g1, act.g1(self.X))

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
    def test_follows_replaced_callables(self, kind):
        base = make_activation(kind)
        for field in ("g", "g1"):
            act = dataclasses.replace(base, **{field: lambda x: 2.0 * np.cos(x)})
            g, g1 = act.g_and_g1(self.X)
            assert np.array_equal(g, act.g(self.X))
            assert np.array_equal(g1, act.g1(self.X))
            assert np.array_equal(g if field == "g" else g1, 2.0 * np.cos(self.X))


def ulps(a, b):
    """Distance in units in the last place between same-signed finite doubles."""
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


class TestSigmoid:
    def test_within_two_ulp_of_correctly_rounded(self, sigmoid_act):
        x = np.linspace(-40, 40, 10_001)
        ctx = decimal.Context(prec=40)
        exact = np.array([float(ctx.divide(1, 1 + ctx.exp(-decimal.Decimal(float(v)))))
                          for v in x])
        assert ulps(sigmoid_act.g(x), exact).max() <= 2

    def test_within_four_ulp_of_expit(self, sigmoid_act):
        # both are within 2 ulp of the correctly rounded value, and they differ
        # by 3-4 ulp on a few points near x = -37
        from scipy.special import expit

        x = np.linspace(-40, 40, 1_000_001)
        assert ulps(sigmoid_act.g(x), expit(x)).max() <= 4

    def test_saturates_without_warnings(self, sigmoid_act):
        x = np.array([-800.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [sigmoid_act.derivative(n)(x) for n in range(4)]
            pair = sigmoid_act.g_and_g1(x)
            scalar = sigmoid_act.g(-800.0)
        assert values[0].tolist() == [0.0, 1.0]
        assert scalar == 0.0
        for higher in values[1:]:
            assert higher.tolist() == [0.0, 0.0]
        assert np.array_equal(pair[0], values[0]) and np.array_equal(pair[1], values[1])


class TestInvertG2:
    def test_zero_maps_to_zero(self, tanh_act):
        assert invert_g2(tanh_act, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_forward_backward(self, tanh_act):
        t = invert_g2(tanh_act, float(tanh_act.g2(0.3)))
        assert t == pytest.approx(0.3, abs=1e-10)

    def test_clamps_below_image(self, tanh_act):
        # tanh g'' decreases, so its minimum over the interval sits at +0.6;
        # anything below that image value must clamp to the +0.6 boundary
        y = float(tanh_act.g2(0.6)) - 1.0
        assert invert_g2(tanh_act, y) == 0.6

    def test_clamps_above_image(self, tanh_act):
        y = float(tanh_act.g2(-0.6)) + 1.0
        assert invert_g2(tanh_act, y) == -0.6

    def test_in_image_value_inverts_exactly(self, tanh_act):
        # g''(-0.6) - 1 = -0.235 still lies inside the image, so the exact
        # interior preimage wins over any endpoint
        y = float(tanh_act.g2(-0.6)) - 1.0
        t = invert_g2(tanh_act, y)
        assert abs(t) < 0.6
        assert float(tanh_act.g2(t)) == pytest.approx(y, abs=1e-12)

    def test_round_trip_sweep(self, tanh_act):
        rng = np.random.default_rng(42)
        for tau in rng.uniform(-0.59, 0.59, size=100):
            assert invert_g2(tanh_act, float(tanh_act.g2(tau))) == pytest.approx(
                tau, abs=1e-9)

    def test_round_trip_sigmoid_core(self, sigmoid_act):
        rng = np.random.default_rng(43)
        for tau in rng.uniform(-1.29, 1.29, size=100):
            assert invert_g2(sigmoid_act, float(sigmoid_act.g2(tau))) == pytest.approx(
                tau, abs=1e-9)

    def test_residual_tolerance(self, tanh_act):
        rng = np.random.default_rng(44)
        for tau in rng.uniform(-0.55, 0.55, size=50):
            y = float(tanh_act.g2(tau))
            t = invert_g2(tanh_act, y)
            assert abs(float(tanh_act.g2(t)) - y) <= 1e-12

    def test_rejects_non_finite(self, tanh_act):
        with pytest.raises(ConfigError):
            invert_g2(tanh_act, float("nan"))


class TestCustomBundle:
    """Only the two declared kinds are built; there is no custom bundle."""

    def test_unknown_kind_rejected(self):
        for kind in ("relu", "custom"):
            with pytest.raises(ConfigError, match="unknown activation kind"):
                make_activation(kind)
