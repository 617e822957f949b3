"""Independent brute-force verifiers used by tests and the `verify` CLI.

These recompute everything from system primitives (flux, speeds, domain
predicate) rather than reusing the scheme's flux assembly, so they can act
as an oracle for it: exhaustive domain sweeps over a run's stages, random
sampling of the generalized Lax-Friedrichs splitting property, and the
single-cell counterexample showing that no constant CFL number keeps
continuous-flux cell averages inside the invariant domain once a midpoint
leaves it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import limiters, transform
from .errors import ConfigError
from .systems import Euler, IdealMHD, ScalarLaw

# fixed parameters of the property checks
W_RANGE = 50.0           # transform membership: W drawn from [-W_RANGE, W_RANGE]
JACOBIAN_TOL = 1e-5      # relative eigenvalue mismatch of similar Jacobians
ROUNDTRIP_TOL = 1e-11    # relative primitive error of Psi^{-1}(Psi(U))
CAD_TOL = 1e-12          # relative error of the limited 1/6-4/6-1/6 decomposition
N_LAMBDAS = 10           # speeds sampled by splitting_monotone_in_lambda
FD_REL_STEP = 1e-6       # relative central-difference step of the FD Jacobian


@dataclass
class Violation:
    step: int
    stage: int
    location: int
    kind: str  # average | point | midpoint
    state: np.ndarray
    margin: float


@dataclass
class ViolationReport:
    violations: list = field(default_factory=list)
    worst_margin: float = np.inf
    n_checked: int = 0

    @property
    def is_empty(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.is_empty:
            return (f"domain sweep clean: {self.n_checked} states checked, "
                    f"worst margin {self.worst_margin:.3e}")
        v = self.violations[0]
        return (f"{len(self.violations)} violations (first: step {v.step} stage "
                f"{v.stage} {v.kind} at {v.location}, margin {v.margin:.3e})")


class DomainSweep:
    """Streaming stage observer checking every average, node value, and
    limited midpoint against the invariant domain."""

    MAX_RECORDED = 50

    def __init__(self, system):
        self.system = system
        self.report = ViolationReport()

    def _check(self, states, kind, step, stage):
        rep = self.report
        ok, margin = self.system.domain_check(states)
        rep.n_checked += states.shape[0]
        rep.worst_margin = min(rep.worst_margin, float(np.min(margin)))
        if not np.all(ok):
            for loc in np.flatnonzero(~ok):
                if len(rep.violations) >= self.MAX_RECORDED:
                    break
                rep.violations.append(Violation(
                    step=step, stage=stage, location=int(loc), kind=kind,
                    state=states[loc].copy(), margin=float(margin[loc]),
                ))

    def check_field(self, fld, step=-1, stage=-1):
        self._check(fld.avgs, "average", step, stage)
        self._check(transform.from_transformed(self.system, fld.points),
                    "point", step, stage)

    def on_stage(self, t, step, stage, fld, record):
        self.check_field(fld, step, stage)
        if record and record.get("mid_hat") is not None:
            self._check(record["mid_hat"], "midpoint", step, stage)


# ---------------------------------------------------------------------------
# generalized Lax-Friedrichs splitting sampling


@dataclass
class SplittingReport:
    system: str
    n_samples: int
    n_violations: int
    worst_margin: float
    first_violation: Optional[tuple] = None

    @property
    def passed(self) -> bool:
        return self.n_violations == 0

    def summary(self) -> str:
        tag = "pass" if self.passed else "FAIL"
        return (f"splitting[{self.system}] {tag}: {self.n_samples} pairs, "
                f"{self.n_violations} violations, worst margin "
                f"{self.worst_margin:.6e}")


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


def _draw_states(system, rng, n, rho_range, p_range, v_max, b_max, scaled):
    """n states of G as an (n, d) array. A scalar law's are uniform on its
    interval, whatever the other arguments. Euler and MHD states have
    log-uniform density and pressure and uniform velocity in
    [-v_max, v_max] and transverse field in [-b_max, b_max], drawn in that
    order; scaled=True measures the velocity in sound speeds and the field
    in sqrt(p)."""
    if isinstance(system, ScalarLaw):
        return rng.uniform(system.u_min, system.u_max, n)[:, None]
    nv = 1 if isinstance(system, Euler) else 3
    rho = _log_uniform(rng, *rho_range, n)
    p = _log_uniform(rng, *p_range, n)
    v = rng.uniform(-v_max, v_max, (n, nv))
    b = rng.uniform(-b_max, b_max, (n, system.nvars - 2 - nv))  # Euler: (n, 0), no draw
    if scaled:
        v = v * np.sqrt(system.gamma * p / rho)[:, None]
        b = b * np.sqrt(p)[:, None]
    prim = np.concatenate([rho[:, None], v, b, p[:, None]], axis=-1)
    return system.from_primitive(prim)


def _sample_states(system, rng, n):
    """States from all of G: the whole interval of a scalar law; for the
    gases density over 9 and pressure over 14 decades, |v|, |B| <= 100."""
    return _draw_states(system, rng, n, (1e-6, 1e3), (1e-8, 1e6),
                        100.0, 100.0, scaled=False)


def _splitting_states(system, UL, UR, lam_scale=1.0):
    lam = lam_scale * system.pair_speed(UL, UR)
    mean = 0.5 * (UL + UR)
    dF = system.flux(UR) - system.flux(UL)
    safe = np.where(lam > 0, lam, 1.0)[..., None]
    return np.where((lam > 0)[..., None], mean - dF / (2.0 * safe), mean)


def sample_lf_splitting(system, n_samples: int, seed: int,
                        lam_scale: float = 1.0) -> SplittingReport:
    """Sample random state pairs from G and test membership of
    (UL+UR)/2 - (F(UR)-F(UL))/(2*lambda) with the pairwise IDP speed.

    For MHD the pairs are drawn in 32 batches sharing one sampled Bx each
    (Bx must match between the two states of a pair); any other system
    draws them in one batch. Deterministic for a given seed (counter-based
    Philox generator).
    """
    rng = np.random.Generator(np.random.Philox(seed))
    mhd = isinstance(system, IdealMHD)
    per = -(-n_samples // 32) if mhd else n_samples
    worst, n_bad, first, done = np.inf, 0, None, 0
    while done < n_samples:
        m = min(per, n_samples - done)
        bx, batch = None, system
        if mhd:
            bx = float(rng.uniform(-100.0, 100.0))
            batch = IdealMHD(gamma=system.gamma, bx=bx)
        UL = _sample_states(batch, rng, m)
        UR = _sample_states(batch, rng, m)
        states = _splitting_states(batch, UL, UR, lam_scale)
        ok, margin = batch.domain_check(states)
        worst = min(worst, float(np.min(margin)))
        n_bad += int(np.count_nonzero(~ok))
        if first is None and not np.all(ok):
            i = int(np.flatnonzero(~ok)[0])
            first = (UL[i].copy(), UR[i].copy(), bx)
        done += m

    return SplittingReport(system=system.name, n_samples=n_samples,
                           n_violations=n_bad, worst_margin=worst,
                           first_violation=first)


def splitting_monotone_in_lambda(system, n_pairs: int, seed: int) -> bool:
    """Once the splitting state enters G at some lambda*, it stays in G for
    every larger sampled lambda (the segment toward the arithmetic mean)."""
    rng = np.random.Generator(np.random.Philox(seed))
    UL = _sample_states(system, rng, n_pairs)
    UR = _sample_states(system, rng, n_pairs)
    scales = np.linspace(1.0, 20.0, N_LAMBDAS)
    prev_ok = None
    for s in scales:
        ok = system.in_domain(_splitting_states(system, UL, UR, s))
        if prev_ok is not None and np.any(prev_ok & ~ok):
            return False
        prev_ok = ok
    return True


# ---------------------------------------------------------------------------
# the no-constant-CFL counterexample


@dataclass
class Thm43Result:
    eps: float
    ratio: float
    continuous_avg: float
    idp_avg: float
    theta: float
    limited_mid: float

    def summary(self) -> str:
        return (f"eps={self.eps}: continuous-flux average {self.continuous_avg:.6f} "
                f"(outside [0,1]), IDP-flux average {self.idp_avg:.6f} (inside), "
                f"theta={self.theta:.6f}")


def check_thm43_eps(eps: float) -> None:
    """Raise ConfigError unless 0 < eps < 1/4 (nan included), the eps for
    which `thm43_counterexample`'s midpoint lies outside G = [0, 1]."""
    if not 0.0 < eps < 0.25:
        raise ConfigError("counterexample needs 0 < eps < 1/4")


def thm43_counterexample(eps: float, ratio: float = 1.0 / 6.0) -> Thm43Result:
    """Single advection cell with avg = 1 - 2*eps/3, endpoints (1, 0) and
    G = [0, 1]: the parabola midpoint is 5/4 - eps outside G. One step at
    dt/dx = ratio with the continuous flux leaves G; the same step with
    limited states and the LLF flux stays inside.

    The neighbour cells are the constants 1 (left) and 0 (right), so their
    one-sided interface values are those constants.
    """
    check_thm43_eps(eps)
    avg = 1.0 - 2.0 * eps / 3.0
    u_l, u_r = 1.0, 0.0
    mid = limiters.midpoint_value(avg, u_l, u_r)
    continuous = avg - ratio * (u_r - u_l)  # advection: f(u) = u

    hat_l, hat_m, hat_r, theta = limiters.scaling_limit_scalar(
        avg, u_l, mid, u_r, 0.0, 1.0
    )

    def llf(a, b):  # advection LLF with lambda = |f'| = 1
        return 0.5 * (a + b) - 0.5 * (b - a)

    flux_left = llf(1.0, hat_l)
    flux_right = llf(hat_r, 0.0)
    idp = avg - ratio * (flux_right - flux_left)
    return Thm43Result(eps=eps, ratio=ratio, continuous_avg=float(continuous),
                       idp_avg=float(idp), theta=float(theta),
                       limited_mid=float(hat_m))


# ---------------------------------------------------------------------------
# transform and limiter property checks (bulk random sampling)


@dataclass
class PropertyReport:
    name: str
    n_samples: int
    n_failures: int
    worst: float

    @property
    def passed(self) -> bool:
        return self.n_failures == 0

    def summary(self) -> str:
        tag = "pass" if self.passed else "FAIL"
        return (f"{self.name} {tag}: {self.n_samples} samples, "
                f"{self.n_failures} failures, worst {self.worst:.6e}")


def check_transform_membership(system, n_samples: int, seed: int) -> PropertyReport:
    """Random finite W must map into G: the decoded density and pressure
    are strictly positive (no tolerance) and the conservative vector is
    finite."""
    rng = np.random.Generator(np.random.Philox(seed))
    W = rng.uniform(-W_RANGE, W_RANGE, (n_samples, system.nvars))
    U, state = transform.from_transformed(system, W, with_state=True)
    finite = np.all(np.isfinite(U), axis=-1)
    if state is None:                # a scalar law
        ok, margin = system.domain_check(U)
        ok &= finite
        worst = float(np.min(margin))
    else:
        rho, p = U[..., 0], state.p
        ok = finite & (rho > 0.0) & (p > 0.0)
        worst = float(min(np.min(rho), np.min(p)))
    return PropertyReport(name=f"transform-membership[{system.name}]",
                          n_samples=n_samples,
                          n_failures=int(np.count_nonzero(~ok)), worst=worst)


def sample_states_representable(system, rng, n):
    """States from G whose conservative encoding retains the pressure:
    velocity scaled by the sound speed (Mach up to 50) and magnetic field
    by sqrt(p). With absolute |v| <= 100 and p down to 1e-8 the kinetic
    term's rounding noise alone would exceed any 1e-11 relative claim."""
    # the constant Bx of MHD adds Bx^2/2 to E unconditionally, so p below
    # that times machine epsilon is unrepresentable as well
    p_lo = max(1e-8, getattr(system, "bx", 0.0) ** 2 / 2000.0)
    return _draw_states(system, rng, n, (1e-6, 1e3), (p_lo, 1e6),
                        50.0, 25.0, scaled=True)


def sample_states_moderate(system, rng, n):
    """O(1) states for finite-difference comparisons (relative FD steps on
    near-vacuum states with large energies leave the domain)."""
    return _draw_states(system, rng, n, (0.1, 10.0), (0.1, 10.0), 3.0, 2.0,
                        scaled=False)


def check_jacobian_similarity(system, n_samples: int, seed: int) -> PropertyReport:
    """Eigenvalues of the transformed Jacobian must match those of the
    finite-difference conservative flux Jacobian (similar matrices)."""
    rng = np.random.Generator(np.random.Philox(seed))
    states = sample_states_moderate(system, rng, n_samples)
    worst = 0.0
    bad = 0
    for U in states:
        e1 = np.sort(np.linalg.eigvals(
            transform.jacobian_transformed(system, U)).real)
        e2 = np.sort(np.linalg.eigvals(
            conservative_flux_jacobian_fd(system, U)).real)
        scale = max(float(np.max(np.abs(e2))), 1e-30)
        err = float(np.max(np.abs(e1 - e2)) / scale)
        worst = max(worst, err)
        bad += err > JACOBIAN_TOL
    return PropertyReport(name=f"jacobian-similarity[{system.name}]",
                          n_samples=n_samples, n_failures=bad, worst=worst)


def check_transform_roundtrip(system, n_samples: int, seed: int) -> PropertyReport:
    """Psi^{-1}(Psi(U)) must reproduce U to ROUNDTRIP_TOL, relative, per
    primitive component."""
    rng = np.random.Generator(np.random.Philox(seed))
    U = sample_states_representable(system, rng, n_samples)
    U2 = transform.from_transformed(system, transform.to_transformed(system, U))
    p1 = system.primitive(U)
    p2 = system.primitive(U2)
    floor = 1e-300
    if isinstance(system, ScalarLaw):
        # the clipped-ReLU map is affine: its rounding is absolute at the
        # scale of the interval, so u ~ 0 needs an interval-scale floor
        floor = 1e-3 * (system.u_max - system.u_min)
    rel = np.abs(p2 - p1) / np.maximum(np.abs(p1), floor)
    worst = float(np.max(rel))
    bad = int(np.count_nonzero(np.any(rel > ROUNDTRIP_TOL, axis=-1)))
    return PropertyReport(name=f"transform-roundtrip[{system.name}]",
                          n_samples=n_samples, n_failures=bad, worst=worst)


def check_limiter_invariants(system, n_samples: int, seed: int) -> PropertyReport:
    """Random limiter invocations: inputs are admissible cell averages and
    endpoint values (the raw midpoint follows from them and may leave G);
    outputs must keep the 1/6-4/6-1/6 decomposition to CAD_TOL relative and
    pass the system's domain predicate."""
    rng = np.random.Generator(np.random.Philox(seed))
    avg = _sample_states(system, rng, n_samples)
    left = _sample_states(system, rng, n_samples)
    right = _sample_states(system, rng, n_samples)
    mid = limiters.midpoint_value(avg, left, right)
    hl, hm, hr, _, _ = system.scaling_limit(avg, left, mid, right)
    recomposed = (hl + 4.0 * hm + hr) / 6.0
    scale = np.maximum(np.max(np.abs(avg), axis=-1, keepdims=True), 1e-300)
    cad_err = np.max(np.abs(recomposed - avg) / scale, axis=-1)
    ok = (system.in_domain(hl) & system.in_domain(hm) & system.in_domain(hr)
          & (cad_err <= CAD_TOL))
    return PropertyReport(name=f"limiter-cad[{system.name}]",
                          n_samples=n_samples,
                          n_failures=int(np.count_nonzero(~ok)),
                          worst=float(np.max(cad_err)))


# ---------------------------------------------------------------------------
# finite-difference flux Jacobian (independent check of the transforms)


def conservative_flux_jacobian_fd(system, U):
    """Central-difference dF/dU, one state at a time: (d, d) array."""
    U = np.asarray(U, dtype=float)
    d = U.shape[-1]
    scale = max(float(np.max(np.abs(U))), 1.0)
    J = np.zeros((d, d))
    for k in range(d):
        h = FD_REL_STEP * max(abs(float(U[k])), 1e-3 * scale)
        Up = U.copy()
        Um = U.copy()
        Up[k] += h
        Um[k] -= h
        J[:, k] = (system.flux(Up) - system.flux(Um)) / (2.0 * h)
    return J
