import math

import numpy as np
import pytest

from pampa import oracle
from pampa.scheme import DofField
from pampa.systems import Euler
from pampa.timeint import make_integrator


class LinearDecay:
    """u' = -u for both average and point blocks."""

    def residual(self, field, dt, record=None, entry=None):
        return DofField(-field.avgs, -field.points)

    def finish_stage(self, field):
        return field


class ZeroRhs:
    def residual(self, field, dt, record=None, entry=None):
        return DofField(np.zeros_like(field.avgs), np.zeros_like(field.points))

    def finish_stage(self, field):
        return field


def _unit_field():
    return DofField(np.array([[1.0]]), np.array([[1.0]]))


def test_zero_residual_identity():
    for kind in ("forward_euler", "ssp_rk3", "ssp_ms3"):
        integ = make_integrator(kind)
        f = _unit_field()
        for _ in range(5):
            f = integ.step(ZeroRhs(), f, 0.1)
        assert f.avgs[0, 0] == 1.0 and f.points[0, 0] == 1.0


def test_rk3_linear_step_value():
    # symbolic Shu-Osher expansion on u' = -u gives the third-order Taylor
    # polynomial of e^{-dt}: 1 - 0.1 + 0.005 - 1/6000
    f1 = make_integrator("ssp_rk3").step(LinearDecay(), _unit_field(), 0.1)
    assert f1.avgs[0, 0] == pytest.approx(0.9048333333333333, abs=1e-15)


def _ode_orders(kind):
    errs = []
    for dt in (0.1, 0.05, 0.025, 0.0125):
        integ = make_integrator(kind)
        f = _unit_field()
        for _ in range(round(1.0 / dt)):
            f = integ.step(LinearDecay(), f, dt)
        errs.append(abs(f.avgs[0, 0] - math.exp(-1.0)))
    return [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]


def test_rk3_third_order():
    orders = _ode_orders("ssp_rk3")
    assert all(abs(o - 3.0) <= 0.1 for o in orders), orders


def test_ms3_third_order():
    orders = _ode_orders("ssp_ms3")
    assert all(abs(o - 3.0) <= 0.1 for o in orders), orders


def test_ms3_restarts_on_dt_change():
    integ = make_integrator("ssp_ms3")
    f = _unit_field()
    for _ in range(6):
        f = integ.step(LinearDecay(), f, 0.05)
    assert len(integ._hist) == 3
    # a different dt forces an RK3 fallback with a fresh history
    f = integ.step(LinearDecay(), f, 0.03)
    assert len(integ._hist) == 1


@pytest.mark.parametrize("kind", ["forward_euler", "ssp_rk3"])
def test_one_step_methods_take_the_cfl_step(kind):
    integ = make_integrator(kind)
    for cfl_dt in (0.3, 1e-300, 0.1 / 7.0, math.inf, 0.5):
        assert integ.step_size(cfl_dt) == cfl_dt


def test_ms3_step_size_is_a_frozen_third():
    # a third of the CFL step, never growing: the smallest so far, where a
    # drop under 1e-12 relative does not count; inf passes through
    integ = make_integrator("ssp_ms3")
    third = 1.0 / 3.0
    sizes = [integ.step_size(c) for c in
             (0.3, 0.4, 0.27, math.inf, 0.5, 0.27 * (1.0 - 1e-13), 0.1)]
    assert sizes == [0.3 * third, 0.3 * third, 0.27 * third, math.inf,
                     0.27 * third, 0.27 * third, 0.1 * third]


def test_stage_observer_counts():
    calls = []

    def obs(t, step, stage, field, record):
        calls.append(stage)

    make_integrator("ssp_rk3").step(LinearDecay(), _unit_field(), 0.1,
                                    on_stage=obs)
    assert calls == [0, 1, 2]


def test_rk3_inherits_domain_membership():
    # if each Euler stage maps G-valid fields to G-valid fields, the convex
    # combinations do as well: check on random Euler fields with a
    # contraction-toward-rest rhs that keeps single stages in G
    sys = Euler(1.4)
    rng = np.random.Generator(np.random.Philox(77))
    rest = sys.from_primitive(np.array([1.0, 0.0, 1.0]))

    class Contract:
        def residual(self, field, dt, record=None, entry=None):
            return DofField(rest - field.avgs, rest - field.points)

        def finish_stage(self, field):
            return field

    integ = make_integrator("ssp_rk3")
    for _ in range(200):
        U = oracle.sample_states_moderate(sys, rng, 8)
        f = DofField(U.copy(), U.copy())
        out = integ.step(Contract(), f, 0.5)
        assert np.all(sys.in_domain(out.avgs))
        assert np.all(sys.in_domain(out.points))
