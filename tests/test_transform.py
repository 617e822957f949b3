import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pampa import oracle, transform
from pampa.errors import DomainError
from pampa.systems import Euler, IdealMHD, advection, burgers

LN_E_MINUS_1 = 0.5413248546129181  # ln(e - 1)
LN_2 = 0.6931471805599453


def test_euler_density_channel():
    sys = Euler(1.4)
    U = sys.from_primitive(np.array([1.0, 0.0, 1.0]))
    W = transform.to_transformed(sys, U)
    assert W[0] == pytest.approx(LN_E_MINUS_1, rel=1e-14)
    assert W[2] == pytest.approx(0.0, abs=1e-14)  # s = ln 1 - gamma ln 1
    rho_back = transform.from_transformed(sys, np.array([0.0, 0.0, 0.0]))[0]
    assert rho_back == pytest.approx(LN_2, rel=1e-14)


def test_scalar_map():
    sys = advection(0.0, 1.0)
    assert transform.to_transformed(sys, np.array([0.5]))[0] == 0.5
    assert transform.from_transformed(sys, np.array([-3.0]))[0] == 0.0
    assert transform.from_transformed(sys, np.array([2.0]))[0] == 1.0


@given(st.floats(min_value=-60.0, max_value=60.0, allow_nan=False))
def test_scalar_idempotence(w):
    sys = burgers(-1.0, 2.0)
    u = transform.from_transformed(sys, np.array([w]))
    w2 = transform.to_transformed(sys, u)[0]
    assert w2 == pytest.approx(min(max(w, 0.0), 1.0), abs=1e-12)


def test_transform_rejects_out_of_domain():
    sys = Euler(1.4)
    with pytest.raises(DomainError):
        transform.to_transformed(sys, np.array([-1.0, 0.0, 1.0]))
    with pytest.raises(DomainError):
        transform.to_transformed(sys, sys.from_primitive(np.array([1.0, 0.0, -0.5])))


def test_softplus_overflow_guard():
    # q ~ 1000 must not overflow and must round-trip the density exactly
    big = np.array([1000.0])
    rho = transform.softplus(big)
    assert np.isfinite(rho)
    assert rho[0] == pytest.approx(1000.0, rel=1e-15)
    assert transform.inv_softplus(rho)[0] == pytest.approx(1000.0, rel=1e-15)
    tiny = transform.softplus(np.array([-500.0]))
    assert tiny[0] > 0.0


def _softplus_two_branch(q):
    q = np.asarray(q, dtype=float)
    big = q > 30.0
    out = np.log1p(np.exp(np.where(big, 0.0, q)))
    return np.where(big, q + np.log1p(np.exp(-np.abs(q))), out)


def _inv_softplus_two_branch(x):
    x = np.asarray(x, dtype=float)
    big = x > 30.0
    out = np.log(np.expm1(np.where(big, 1.0, x)))
    return np.where(big, x + np.log1p(-np.exp(-x)), out)


def test_softplus_matches_two_branch_formula(rng):
    # the overflow branch runs only when some element needs it; every
    # value must equal the formula that evaluates both branches everywhere
    small = np.concatenate([rng.uniform(-40.0, 30.0, 300), [30.0, -745.0]])
    large = np.concatenate([small, rng.uniform(30.0, 800.0, 20), [1e300]])
    positive = np.concatenate([rng.uniform(1e-12, 30.0, 300), [30.0, 1e-15]])
    cases = [
        (transform.softplus, _softplus_two_branch,
         [small, large, np.float64(0.3), np.float64(31.0), np.array(-2.0)]),
        (transform.inv_softplus, _inv_softplus_two_branch,
         [positive, np.concatenate([positive, large[large > 30.0]]),
          np.float64(0.3), np.float64(31.0), np.array(4.0)]),
    ]
    for fn, ref, inputs in cases:
        for x in inputs:
            got, want = np.asarray(fn(x)), ref(x)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _softplus_any_branch(q):
    """softplus deciding its overflow branch by any(q > 30)."""
    q = np.asarray(q, dtype=float)
    out = np.log1p(np.exp(np.minimum(q, 30.0)))
    big = q > 30.0
    if np.logical_or.reduce(big, axis=None):
        out = np.where(big, q + np.log1p(np.exp(-np.abs(q))), out)
    return out


def _inv_softplus_any_branch(x):
    """The unguarded inv_softplus deciding its branch by any(x > 30)."""
    x = np.asarray(x, dtype=float)
    out = np.log(np.expm1(np.minimum(x, 30.0)))
    big = x > 30.0
    if np.logical_or.reduce(big, axis=None):
        out = np.where(big, x + np.log1p(-np.exp(-x)), out)
    return out


def test_softplus_branch_test_by_one_reduction():
    # the overflow branch is taken when the fmax of the input (which skips
    # nan) exceeds 30, that is when some element does: every output has
    # the bytes, nan and zero signs included, of the elementwise test's
    nan, inf, above = np.nan, np.inf, np.nextafter(30.0, 31.0)
    inputs = [np.array([nan, 1.0]), np.array([nan, 40.0]), np.array([nan, nan]),
              np.array([-nan, -0.0]), np.array([inf, 2.0]), np.array([-inf, 2.0]),
              np.array([-inf, nan]), np.array([30.0, 29.0]), np.array([30.0, above]),
              np.array([[above], [-0.0]]), np.array(nan), np.array(30.0),
              np.array(above), np.float64(-0.0), np.zeros(0), np.zeros((0, 3)),
              [1.0, 31.0]]
    with np.errstate(all="ignore"):
        for fn, ref in ((transform.softplus, _softplus_any_branch),
                        (transform._inv_softplus, _inv_softplus_any_branch)):
            for x in inputs:
                got, want = fn(np.asarray(x, dtype=float)), ref(x)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
    # the public inverse keeps its guard; an encode without a derivation
    # checks its states' densities first
    for bad in (nan, 0.0, -inf):
        with pytest.raises(DomainError, match=r"^argument 1 needs positive values"):
            transform.inv_softplus([1.0, bad, 40.0])
    assert transform.inv_softplus(np.zeros(0)).shape == (0,)
    gas = Euler(1.4)
    U = gas.from_primitive(np.array([[1.0, 0.0, 1.0]] * 3))
    for bad in (nan, 0.0, -1.0):
        U[1, 0] = bad
        with pytest.raises(DomainError, match=r"^state 1 needs positive"):
            transform.to_transformed(gas, U)


def test_unconditional_membership_bulk():
    for sys, seed in [(Euler(1.4), 7), (IdealMHD(gamma=5.0 / 3.0, bx=0.5), 8),
                      (burgers(-1.0, 2.0), 9)]:
        rep = oracle.check_transform_membership(sys, 100_000, seed)
        assert rep.passed, rep.summary()
        assert rep.worst > 0.0 or sys.nvars == 1


def test_round_trip_bulk():
    for sys, seed in [(Euler(1.4), 9), (IdealMHD(gamma=5.0 / 3.0, bx=0.5), 10),
                      (advection(1.0, 2.0), 11)]:
        rep = oracle.check_transform_roundtrip(sys, 20_000, seed)
        assert rep.passed, rep.summary()


def test_euler_jacobian_structure_at_rest():
    # v = 0: zero diagonal; entries (0,1), (1,0), (1,2) populated
    sys = Euler(1.4)
    U = sys.from_primitive(np.array([1.2, 0.0, 0.9]))
    J = transform.jacobian_transformed(sys, U)
    assert np.allclose(np.diag(J), 0.0, atol=0)
    x = 1.2
    expected_01 = x / -np.expm1(-x)  # e^{x-q} * rho
    assert J[0, 1] == pytest.approx(expected_01, rel=1e-13)
    assert J[1, 0] == pytest.approx(1.4 * 0.9 / (1.2 * expected_01), rel=1e-13)
    assert J[1, 2] == pytest.approx(0.9 / 1.2, rel=1e-14)
    assert J[2, 0] == 0.0 and J[2, 1] == 0.0 and J[0, 2] == 0.0


def test_advection_jacobian_constant():
    sys = advection(0.0, 1.0)
    for w in (-2.0, 0.3, 5.0):
        u = transform.from_transformed(sys, np.array([w]))
        assert transform.jacobian_transformed(sys, u)[0, 0] == 1.0


def test_euler_jacobian_eigenvalues():
    sys = Euler(1.4)
    rng = np.random.Generator(np.random.Philox(15))
    states = oracle.sample_states_moderate(sys, rng, 300)
    prim = sys.primitive(states)
    for U, (rho, v, p) in zip(states, prim):
        J = transform.jacobian_transformed(sys, U)
        c = np.sqrt(1.4 * p / rho)
        eig = np.sort(np.linalg.eigvals(J).real)
        assert np.allclose(eig, [v - c, v, v + c], rtol=1e-8, atol=1e-10)


def test_jacobian_similarity_fd():
    for sys, seed in [(Euler(1.4), 5), (IdealMHD(gamma=5.0 / 3.0, bx=0.6), 6),
                      (burgers(-1.0, 2.0), 7)]:
        rep = oracle.check_jacobian_similarity(sys, 300, seed)
        assert rep.passed, rep.summary()


def test_spectral_radius_bounds_jacobian():
    for sys, seed in [(Euler(1.4), 17), (IdealMHD(gamma=5.0 / 3.0, bx=0.9), 18)]:
        rng = np.random.Generator(np.random.Philox(seed))
        states = oracle.sample_states_moderate(sys, rng, 200)
        J = transform.jacobian_transformed(sys, states)
        radius = np.max(np.abs(np.linalg.eigvals(J)), axis=-1)
        bound = sys.max_wave_speed(states)
        assert np.all(radius <= bound * (1.0 + 1e-10))
