import re

import numpy as np
import pytest

from pampa import oracle, transform
from pampa.errors import DomainError
from pampa.systems import FINITE, POSITIVE, Euler, IdealMHD, advection, burgers, guard

SQRT_14 = 1.1832159566199232  # sqrt(1.4)
SQRT_53 = 1.2909944487358056  # sqrt(5/3)


def test_euler_flux_rest_state():
    sys = Euler(1.4)
    U = sys.from_primitive(np.array([1.0, 0.0, 1.0]))
    assert np.allclose(U, [1.0, 0.0, 2.5], rtol=0, atol=1e-15)
    assert np.allclose(sys.flux(U), [0.0, 1.0, 0.0], rtol=0, atol=1e-15)


def test_scalar_fluxes():
    assert burgers(-5, 5).flux(np.array([2.0]))[0] == 2.0
    assert advection(0, 1).flux(np.array([0.7]))[0] == 0.7


def test_euler_pressure():
    sys = Euler(1.4)
    assert sys.pressure(np.array([1.0, 0.0, 2.5])) == pytest.approx(1.0, rel=1e-14)
    # E = rho v^2 / 2 exactly: pressure sits on the boundary of G
    assert sys.pressure(np.array([1.0, 1.0, 0.5])) == 0.0
    with pytest.raises(DomainError):
        sys.pressure(np.array([-1.0, 0.0, 1.0]))


def test_mhd_pressure_all_magnetic():
    sys = IdealMHD(gamma=5.0 / 3.0, bx=2.0)
    U = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5 * 2.0 ** 2])
    assert sys.pressure(U) == 0.0


def test_max_wave_speeds():
    sys = Euler(1.4)
    U = sys.from_primitive(np.array([1.0, 0.0, 1.0]))
    assert sys.max_wave_speed(U) == pytest.approx(SQRT_14, rel=1e-14)
    adv = advection(0.0, 1.0)
    assert adv.max_wave_speed(np.array([[0.3], [0.9]])) == pytest.approx([1.0, 1.0])
    mhd = IdealMHD(gamma=5.0 / 3.0, bx=0.0)
    U = mhd.from_primitive(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]))
    assert mhd.max_wave_speed(U) == pytest.approx(SQRT_53, rel=1e-14)


def test_idp_pair_speed():
    sys = Euler(1.4)
    U = sys.from_primitive(np.array([1.0, 0.0, 1.0]))
    assert sys.pair_speed(U, U) == pytest.approx(SQRT_14, rel=1e-14)
    b = burgers(-5, 5)
    assert b.pair_speed(np.array([2.0]), np.array([-1.0])) == 2.0
    mhd = IdealMHD(gamma=5.0 / 3.0, bx=0.7)
    V = mhd.from_primitive(np.array([1.0, 0.4, 0.0, 0.0, 0.3, 0.1, 2.0]))
    # identical states with equal B: correction term vanishes
    assert mhd.pair_speed(V, V) == pytest.approx(mhd.max_wave_speed(V), rel=1e-14)


def test_in_domain():
    adv = advection(0.0, 1.0)
    assert adv.in_domain(np.array([0.5]))
    sys = Euler(1.4)
    bad = sys.from_primitive(np.array([1.0, 0.0, -0.1]))
    assert not sys.in_domain(bad)
    # near-vacuum background: E = 1e-12 so p = 0.4e-12 > 0
    U = np.array([1.0, 0.0, 1e-12])
    assert sys.in_domain(U)
    assert not sys.in_domain(np.array([1.0, np.nan, 1.0]))


def test_primitive_round_trip_pressure():
    sys = Euler(1.4)
    rng = np.random.Generator(np.random.Philox(3))
    rho = np.exp(rng.uniform(np.log(1e-6), np.log(1e3), 5000))
    p = np.exp(rng.uniform(np.log(1e-8), np.log(1e6), 5000))
    v = rng.uniform(-5.0, 5.0, 5000) * np.sqrt(sys.gamma * p / rho)
    prim = np.stack([rho, v, p], axis=-1)
    back = sys.primitive(sys.from_primitive(prim))
    assert np.max(np.abs(back[:, 2] - p) / p) < 1e-13


def test_mhd_reduces_to_euler_without_field():
    mhd = IdealMHD(gamma=1.4, bx=0.0)
    eul = Euler(gamma=1.4)
    rng = np.random.Generator(np.random.Philox(4))
    rho = rng.uniform(0.1, 10.0, 200)
    v = rng.uniform(-3.0, 3.0, 200)
    p = rng.uniform(0.1, 10.0, 200)
    zero = np.zeros_like(rho)
    Um = mhd.from_primitive(np.stack([rho, v, zero, zero, zero, zero, p], axis=-1))
    Ue = eul.from_primitive(np.stack([rho, v, p], axis=-1))
    Fm = mhd.flux(Um)
    Fe = eul.flux(Ue)
    assert np.allclose(Fm[:, [0, 1, 6]], Fe, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("sys", [Euler(1.4), IdealMHD(5.0 / 3.0, 0.75)],
                         ids=["euler", "mhd"])
def test_gas_state_rows_are_the_rows_derivation(sys):
    # the stage hands a consumer its rows of a derivation (`rows`) in place
    # of deriving those rows again: the two agree bit for bit, B^2 included
    rng = np.random.Generator(np.random.Philox(5))
    prim = rng.uniform(-2.0, 2.0, (40, sys.nvars))
    prim[:, 0] = rng.uniform(0.1, 3.0, 40)
    prim[:, -1] = rng.uniform(1e-3, 3.0, 40)
    U = sys.from_primitive(prim)
    for s in (slice(2, 33), slice(0, 40), slice(5, 5)):
        got, want = sys.derive(U).rows(s), sys.derive(U[s])
        assert got._fields == want._fields
        for a, b in zip(got, want):
            if b is None:                   # Euler's B^2
                assert a is None
                continue
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_lf_splitting_sampled():
    for sys, seed in [(Euler(1.4), 42), (IdealMHD(gamma=5.0 / 3.0, bx=0.0), 43),
                      (burgers(-1.0, 2.0), 44), (advection(0.0, 1.0), 45)]:
        rep = oracle.sample_lf_splitting(sys, 20_000, seed)
        assert rep.passed, rep.summary()


def test_lf_splitting_fails_with_halved_speed():
    rep = oracle.sample_lf_splitting(burgers(-1.0, 2.0), 20_000, 42, lam_scale=0.5)
    assert not rep.passed


def test_splitting_monotone_in_lambda():
    assert oracle.splitting_monotone_in_lambda(Euler(1.4), 1000, 21)


EULER, MHD = Euler(1.4), IdealMHD(5.0 / 3.0, 0.75)


def _planted(system, col, value):
    """Five states at rest with unit density and pressure; entry (3, col)
    set to value."""
    prim = np.zeros((5, system.nvars))
    prim[:, 0] = prim[:, -1] = 1.0
    U = system.from_primitive(prim)
    U[3, col] = value
    return U


@pytest.mark.parametrize("kind,check", [
    ("state", lambda: EULER.pressure(_planted(EULER, 0, -1.0))),
    ("state", lambda: MHD.pressure(_planted(MHD, 0, np.nan))),
    ("state", lambda: EULER.flux(_planted(EULER, 2, np.inf))),
    ("state", lambda: MHD.flux(_planted(MHD, 6, np.inf))),
    ("state", lambda: transform.to_transformed(EULER, _planted(EULER, 2, -1.0))),
    ("argument", lambda: transform.inv_softplus([1.0, 2.0, np.inf, 0.0, 5.0])),
], ids=["euler-pressure", "mhd-pressure", "euler-flux", "mhd-flux",
        "to_transformed", "inv_softplus"])
def test_every_admissibility_check_names_its_row(kind, check):
    # one planted bad row (3) is named in the one DomainError format
    with pytest.raises(DomainError, match=rf"^{kind} 3 needs "):
        check()


def test_guard_takes_single_and_empty_inputs():
    # the systems take single states, inv_softplus single numbers
    guard("state", np.zeros((0, 3)), np.zeros(0), FINITE)
    with pytest.raises(DomainError, match=r"^average 0 needs finite values, got nan$"):
        guard("average", np.array(np.nan), np.array(np.nan), FINITE)
    with pytest.raises(DomainError, match=r"^state 0 needs .*, got \[-1\.  0\.  1\.\]$"):
        EULER.pressure(np.array([-1.0, 0.0, 1.0]))
    # the fast check reduces over every entry and row: a nan in the last
    # row, an infinity of either sign and 0-d values fail it, with the text
    # the row search writes
    states = np.arange(12.0).reshape(4, 3)
    for bad, text in ((np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")):
        states[3, 2] = bad
        with pytest.raises(DomainError, match=rf"^point 3 needs finite values, "
                                              rf"got \[ +9\. +10\. +{text}\]$"):
            guard("point", states, states, FINITE)
        with pytest.raises(DomainError, match=rf"^average 1 needs finite values, got {text}$"):
            guard("average", states[:, 2], states[:, 2], FINITE, offset=2)
        with pytest.raises(DomainError, match=rf"^average 0 needs finite values, got {text}$"):
            guard("average", np.array(bad), np.array(bad), FINITE)
    guard("state", np.zeros((0, 3)), np.zeros((0, 3)), FINITE)
    guard("state", np.zeros((4, 0)), np.zeros((4, 0)), FINITE)
    # the rules' bounds are closed: values exactly at lo and hi pass
    rule = advection(1.0, 2.0).domain_rule
    guard("average", np.array([1.0, 2.0]), np.array([1.0, 2.0]), rule)
    guard("average", np.array(2.0), np.array(2.0), rule)
    big = np.finfo(float).max
    guard("point", np.array([-big, big]), np.array([-big, big]), FINITE)
    guard("state", np.array([5e-324, big]), np.array([5e-324, big]), POSITIVE)
    for just_out in (np.nextafter(1.0, 0.0), np.nextafter(2.0, 3.0)):
        with pytest.raises(DomainError, match=r"^average 1 needs values in \[1\.0, 2\.0\], "
                                              rf"got {re.escape(str(just_out))}$"):
            guard("average", np.array([1.5, just_out]), np.array([1.5, just_out]), rule)
    with pytest.raises(DomainError, match=r"^state 0 needs positive, finite density "
                                          r"and pressure, got 0\.0$"):
        guard("state", np.array([0.0, 1.0]), np.array([0.0, 1.0]), POSITIVE)


def test_guard_with_more_checks_values_then_more():
    # a second quantity is tested with the first in one min and one max and
    # reported as a second guard after the first would report it: the
    # first bad row of values wins, then the first of more
    states = np.arange(1.0, 13.0).reshape(4, 3)
    rho, p = states[:, 0].copy(), states[:, 2].copy()
    guard("average", states, rho, POSITIVE, more=p)
    for bad in (np.nan, np.inf, 0.0, -1.0):
        for where in [(None, 2), (3, None), (3, 1), (1, 3)]:
            r, q = rho.copy(), p.copy()
            if where[0] is not None:
                r[where[0]] = bad
            if where[1] is not None:
                q[where[1]] = bad
            for offset in (0, 1):
                def one_at_a_time():
                    guard("average", states, r, POSITIVE, offset)
                    guard("average", states, q, POSITIVE, offset)
                with pytest.raises(DomainError) as want:
                    one_at_a_time()
                with pytest.raises(DomainError) as got:
                    guard("average", states, r, POSITIVE, offset, more=q)
                assert str(got.value) == str(want.value)
    with pytest.raises(DomainError, match=r"^state 0 needs finite values, got 1\.0$"):
        guard("state", np.array(1.0), np.array(1.0), FINITE, more=np.array(np.inf))
