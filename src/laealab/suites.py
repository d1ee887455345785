"""Verification suites: identities, elliptic, dynamics, material, poisson.

Each suite evaluates its residuals across a grid ladder, fits convergence
orders by least squares, and emits one manifest entry per analytic fact.
Test fields are band-limited trig samples from the configured seed, so runs
with identical configuration are bit-identical.  Within one run, blocks on
the same domain, grid and metric share one geometry and its factorizations
(see _geo); nothing is shared between runs.
"""

from __future__ import annotations

import os
import traceback

import numpy as np

from . import calculus as ca
from . import dynamics as dy
from . import material as mt
from . import poisson as po
from .config import ExperimentConfig
from .elliptic import (BcRegime, EllipticOperator, GradientRemover,
                       StokesProjector, helmholtz_apply, helmholtz_solve,
                       l_alpha, stokes_project)
from .fields import VectorField
from .geometry import DomainSpec, build_geometry
from .manifest import (RunManifest, bool_result, max_result, order_result,
                       stamp)
from .reference import leray_fft
from .samples import (eigenfield, make_phi_cosx_siny, make_phi_sinusoidal,
                      phi_flat, random_vector, taylor_green_like)

ORDER_LO, ORDER_HI = 1.5, 2.5

TORUS = DomainSpec("torus", 1.0, 1.0)
MIXED = DomainSpec("channel", 1.0, 1.0,
                   wall_roles={"y0": "dirichlet", "yL": "neumann"})
DIRICH = DomainSpec("channel", 1.0, 1.0,
                    wall_roles={"y0": "dirichlet", "yL": "dirichlet"})
NEUM = DomainSpec("channel", 1.0, 1.0,
                  wall_roles={"y0": "neumann", "yL": "neumann"})
PHI_T = make_phi_sinusoidal(0.15, 1, 1, 1.0, 1.0)
PHI_C = make_phi_cosx_siny(0.15, 1, 1.0, 1.0)


def _build(spec, n, phi):
    return build_geometry(spec, n, n if spec.kind == "torus" else n + 1, phi)


def _geo(geos: dict, spec, n, phi):
    """The geometry of (spec, n, phi) in geos, the geometries of one suite run.

    Blocks that ask for the same domain, grid and metric get the same
    Geometry object and so share its factorizations.  run_suite makes geos
    for one call; dropping it when the call returns frees them.
    """
    key = (spec, n, phi)
    if key not in geos:
        geos[key] = _build(spec, n, phi)
    return geos[key]


def _machinery(geo, alpha, spec):
    bc = BcRegime.from_domain(spec)
    op = EllipticOperator(geo, alpha)
    sp = StokesProjector(op, bc)
    return op, sp, bc


def _member(geo, op, sp, bc, seed, kmax=1, amp=0.5):
    raw = random_vector(geo.grid, seed=seed, kmax=kmax, amp=amp)
    if bc.has_boundary and op.alpha > 0:
        raw = l_alpha(op, raw, bc)
    return sp.project(raw)


def _traceback_tail(e: BaseException) -> str:
    """The innermost four frames of e's traceback as 'file:line func' entries."""
    tb = traceback.extract_tb(e.__traceback__)[-4:]
    return " <- ".join(f"{os.path.basename(f.filename)}:{f.lineno} {f.name}"
                       for f in reversed(tb))


def _guarded(results, name, identity, fn):
    """Run one suite block; record a failed entry instead of propagating.

    The entry's note keeps the error and the innermost frames of its
    traceback, innermost first.
    """
    try:
        fn()
    except Exception as e:                        # noqa: BLE001
        results.append(bool_result(
            name, identity, False, "completed without error",
            note=f"error: {type(e).__name__}: {e}; at {_traceback_tail(e)}"))


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def _boundary_integral(geo, u, v):
    m = geo.metric
    du = ca.covariant_derivative(m, u)
    total = 0.0
    for w in geo.boundary.walls:
        j = w.j
        emphi = np.exp(-m.phi[:, j])
        gnu1 = w.normal_sign * emphi * du[0, 1].data[:, j]
        s_term = w.s_weingarten * u.c1.data[:, j]
        total += float(np.sum(w.mu_weights * m.e2phi[:, j]
                              * (gnu1 + s_term) * v.c1.data[:, j]))
    return total


def run_identities(cfg: ExperimentConfig, ladder, geos: dict) -> list:
    seed = cfg.seed
    alpha = cfg.getfloat("solver", "alpha")
    results = []

    cases = (("torus", TORUS, PHI_T), ("channel", MIXED, PHI_C))
    series = {}

    def ladder_block():
      for label, spec, phi in cases:
        for n in ladder:
            # no other block uses these geometries: keeping them for the
            # suite's span would only hold their factorizations
            geo = _build(spec, n, phi)
            m = geo.metric
            grid = geo.grid
            op, sp, bc = _machinery(geo, alpha, spec)
            h = grid.h
            u = _member(geo, op, sp, bc, seed + 1)
            v = _member(geo, op, sp, bc, seed + 2)
            w_free = random_vector(grid, seed=seed + 3, kmax=1)
            scale = max(u.linf(), 1.0)

            from .reference import hodge_exterior
            weitz = (ca.hodge_laplacian(m, w_free) - hodge_exterior(m, w_free)).linf()

            lhs = ca.divergence(m, ca.nabla_along(m, v, w_free))
            duw = ca.covariant_derivative(m, w_free)
            dv = ca.covariant_derivative(m, v)
            divnab = (lhs - (duw.matmul(dv).trace() + ca.g_pair(m, w_free, v) * m.K
                             + ca.g_pair(m, ca.gradient(m, ca.divergence(m, w_free)), v))).linf()

            ibp = 0.0
            for s_off in (0, 1000):
                ut = random_vector(grid, seed=seed + 4 + s_off, kmax=1)
                vt = random_vector(grid, seed=seed + 5 + s_off, kmax=1)
                ibp_lhs = -2.0 * ca.inner0_tensor(m, ca.def_tensor(m, ut),
                                                  ca.def_tensor(m, vt))
                ibp_rhs = ca.inner0(m, ca.l_operator(m, ut), vt)
                if spec.kind == "channel":
                    ibp_rhs -= _boundary_integral(geo, ut, vt)
                ibp += abs(ibp_lhs - ibp_rhs)

            um = _member(geo, op, sp, bc, seed + 6)
            vm = _member(geo, op, sp, bc, seed + 7)
            useful = abs(ca.inner1(m, alpha, um, vm)
                         - ca.inner0(m, um - ca.l_operator(m, um) * alpha**2, vm))

            wv = random_vector(grid, seed=seed + 8, kmax=1)
            anti = abs(ca.inner0(m, vm, ca.nabla_along(m, um, wv))
                       + ca.inner0(m, ca.nabla_along(m, um, vm), wv))

            uf1 = random_vector(grid, seed=seed + 20, kmax=1)
            du = ca.covariant_derivative(m, uf1)
            dut = ca.transpose_metric(m, du)
            cc = ca.curvature_contractions(m, uf1, uf1)
            frob = ca.gbar_pair(m, du, du)
            falpha1 = (dut.apply(ca.ricci_laplacian(m, uf1))
                       - (ca.div_11(m, dut.matmul(du)) - cc.r_swap
                          + dut.apply(cc.ric_v)
                          - ca.gradient(m, frob) * 0.5)).linf()

            mom = vm - ca.ricci_laplacian(m, vm) * alpha**2
            tlhs = op.solve(ca.nabla_along(m, um, mom), bc)
            adv = ca.nabla_along(m, um, vm)
            if bc.uses_l_alpha_transport:
                adv = op.solve(op.apply(adv), bc)
            transport = (tlhs - (adv + dy.d_alpha(m, op, um, vm, bc))).linf()

            for name, val in (("weitzenboeck", weitz / scale),
                              ("div_of_transport", divnab / scale),
                              ("def_integration_by_parts", ibp),
                              ("h1_vs_helmholtz_pairing", useful),
                              ("l2_transport_antisymmetry", anti),
                              ("transported_laplacian_split", falpha1 / scale),
                              ("transport_correction_identity", transport / scale)):
                series.setdefault((label, name), ([], []))
                series[(label, name)][0].append(h)
                series[(label, name)][1].append(val)

    _guarded(results, "identity_ladder", "identity residual ladder", ladder_block)

    tags = {
        "weitzenboeck": "hodge laplacian equals rough laplacian minus ricci",
        "div_of_transport": "div(grad_v u) trace identity",
        "def_integration_by_parts": "deformation pairing integrates by parts with wall term",
        "h1_vs_helmholtz_pairing": "h1 product equals l2 against (1 - a^2 Lop)",
        "l2_transport_antisymmetry": "transport by divergence-free tangent fields is l2-skew",
        "transported_laplacian_split": "grad u^t Lap_r u splits into divergence and curvature terms",
        "transport_correction_identity": "smoothed transport of momentum equals transport plus Dop",
    }
    for (label, name), (hs, vals) in sorted(series.items()):
        results.append(order_result(f"{name}[{label}]", tags[name], hs, vals,
                                    ORDER_LO, ORDER_HI))

    # flat-metric curvature terms are exact zeros
    def flat_zero_block():
        geo = _geo(geos, TORUS, ladder[0], phi_flat)
        m = geo.metric
        uf = random_vector(geo.grid, seed=seed + 9, kmax=2)
        vf = random_vector(geo.grid, seed=seed + 10, kmax=2)
        cc = ca.curvature_contractions(m, uf, vf)
        worst = max(x.linf() for x in (cc.div_r, cc.r_grad, cc.r_swap,
                                       cc.ric_rate, cc.ric_v))
        worst = max(worst, float(np.max(np.abs(m.K))),
                    float(np.max(np.abs(m.gamma))))
        results.append(max_result("flat_curvature_exact_zero",
                                  "flat conformal factor kills every curvature term",
                                  worst, 0.0 if worst == 0.0 else 1e-300,
                                  note="exact zero arrays"))

    _guarded(results, "flat_curvature_exact_zero",
             "flat conformal factor kills every curvature term", flat_zero_block)
    return results


# ---------------------------------------------------------------------------
# elliptic
# ---------------------------------------------------------------------------

def run_elliptic(cfg: ExperimentConfig, ladder, geos: dict) -> list:
    seed = cfg.seed
    alpha = cfg.getfloat("solver", "alpha")
    results = []

    def roundtrip_block():
        # round trip at the solve tolerance
        geo = _geo(geos, MIXED, ladder[min(1, len(ladder) - 1)], PHI_C)
        op, sp, bc = _machinery(geo, alpha, MIXED)
        u = l_alpha(op, random_vector(geo.grid, seed=seed + 11, kmax=2), bc)
        rt = (helmholtz_solve(op, helmholtz_apply(op, u), bc) - u).linf() \
            / max(u.linf(), 1e-300)
        results.append(max_result("helmholtz_round_trip",
                                  "inverse composed with operator is the identity on the subspace",
                                  rt, 1e-10))

    _guarded(results, 'helmholtz_round_trip', 'inverse composed with operator is the identity on the subspace', roundtrip_block)

    def manufactured_block():
        # manufactured solution order on the curved mixed channel
        hs, errs = [], []
        for n in ladder:
            geo = _geo(geos, MIXED, n, PHI_C)
            g = geo.grid
            q = 3 * g.Y**2 - 2 * g.Y**3
            r = g.Y * (1 - g.Y) * (g.Y + 2) / 2
            ustar = VectorField.from_arrays(
                g, np.sin(2 * np.pi * g.X) * q, 0.7 * np.cos(2 * np.pi * g.X) * r)
            op, sp, bc = _machinery(geo, alpha, MIXED)
            sol = helmholtz_solve(op, helmholtz_apply(op, ustar), bc)
            hs.append(g.h)
            errs.append((sol - ustar).linf() / ustar.linf())
        results.append(order_result("manufactured_solution",
                                    "solve recovers a field with known image",
                                    hs, errs, ORDER_LO, ORDER_HI))

    _guarded(results, 'manufactured_solution', 'solve recovers a field with known image', manufactured_block)

    def projector_block():
        # projector contracts at the solver level (flat torus)
        geo = _geo(geos, TORUS, max(ladder), phi_flat)
        m = geo.metric
        op, sp, bc = _machinery(geo, alpha, TORUS)
        v = random_vector(geo.grid, seed=seed + 12, kmax=2)
        w = random_vector(geo.grid, seed=seed + 13, kmax=2)
        pv = stokes_project(sp, v, bc)
        pw = stokes_project(sp, w, bc)
        idem = (stokes_project(sp, pv, bc) - pv).linf() / max(pv.linf(), 1e-300)
        ortho = abs(ca.inner1(m, alpha, pv, v - pv)) / (
            np.sqrt(ca.inner1(m, alpha, pv, pv))
            * np.sqrt(ca.inner1(m, alpha, v - pv, v - pv)) + 1e-300)
        sa = abs(ca.inner1(m, alpha, pv, w) - ca.inner1(m, alpha, v, pw)) / (
            abs(ca.inner1(m, alpha, pv, w)) + 1e-300)
        results.append(max_result("projector_idempotent",
                                  "projection applied twice is itself", idem, 1e-8))
        results.append(max_result("projector_h1_orthogonality",
                                  "complement is h1-orthogonal to the range",
                                  ortho, 1e-8))
        results.append(max_result("projector_self_adjoint",
                                  "h1 self-adjointness of the projection", sa, 1e-8))

        # idempotence holds in every wall regime
        worst_idem = idem
        for spec in (MIXED, DIRICH, NEUM):
            geo_c = _geo(geos, spec, ladder[0], PHI_C)
            op_c, sp_c, bc_c = _machinery(geo_c, alpha, spec)
            vv = _member(geo_c, op_c, sp_c, bc_c, seed + 14)
            again = stokes_project(sp_c, vv, bc_c)
            worst_idem = max(worst_idem,
                             (again - vv).linf() / max(vv.linf(), 1e-300))
        results.append(max_result("projector_idempotent_all_regimes",
                                  "projection applied twice is itself, wall regimes",
                                  worst_idem, 1e-8))

    _guarded(results, 'projector_contracts', 'projection contracts at the solver level', projector_block)

    def leray_block():
        # alpha -> 0 limit against the FFT Leray oracle
        geo = _geo(geos, TORUS, max(ladder), phi_flat)
        v = random_vector(geo.grid, seed=seed + 15, kmax=2)
        oracle = leray_fft(geo.grid, v)
        worst = 0.0
        for a in (0.0, alpha):
            op_a, sp_a, bc_a = _machinery(geo, a, TORUS)
            worst = max(worst, (stokes_project(sp_a, v, bc_a) - oracle).linf()
                        / max(oracle.linf(), 1e-300))
        results.append(max_result("leray_limit",
                                  "projector reduces to the discrete leray projector on the flat torus",
                                  worst, 1e-8))

    _guarded(results, 'leray_limit', 'projector reduces to the discrete leray projector', leray_block)

    def curved_defect_block():
        # curved-metric orthogonality defect decays under refinement; the
        # per-level worst case over two fields steadies the trend
        hs, errs = [], []
        for n in ladder:
            geo = _geo(geos, MIXED, n, PHI_C)
            m = geo.metric
            op, sp, bc = _machinery(geo, alpha, MIXED)
            worst = 0.0
            for s_off in (0, 1000):
                vv = l_alpha(op, random_vector(geo.grid, seed=seed + 16 + s_off,
                                               kmax=1), bc)
                pv = stokes_project(sp, vv, bc)
                num = abs(ca.inner1(m, alpha, pv, vv - pv))
                den = (np.sqrt(ca.inner1(m, alpha, pv, pv))
                       * np.sqrt(max(ca.inner1(m, alpha, vv - pv, vv - pv), 1e-300))
                       + 1e-300)
                worst = max(worst, num / den)
            hs.append(geo.grid.h)
            errs.append(worst + 1e-16)
        results.append(order_result("orthogonality_defect_curved",
                                    "h1-orthogonality defect vanishes under refinement",
                                    hs, errs, 0.8, 3.5))

    _guarded(results, 'orthogonality_defect_curved', 'h1-orthogonality defect vanishes under refinement', curved_defect_block)

    return results


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def run_dynamics(cfg: ExperimentConfig, ladder, geos: dict) -> list:
    seed = cfg.seed
    alpha = cfg.getfloat("solver", "alpha")
    results = []

    def cross_validation_block():
        # quadratic-term cross-validation, both domains
        for label, spec, phi in (("torus", TORUS, PHI_T), ("channel", MIXED, PHI_C)):
            hs, errs = [], []
            for n in ladder:
                geo = _geo(geos, spec, n, phi)
                op, sp, bc = _machinery(geo, alpha, spec)
                u = _member(geo, op, sp, bc, seed + 21)
                a = dy.f_alpha(geo.metric, op, u, bc)
                b = dy.f_alpha_alt(geo.metric, op, u, bc)
                hs.append(geo.grid.h)
                errs.append((a - b).linf() / max(a.linf(), 1e-300))
            results.append(order_result(f"quadratic_term_two_routes[{label}]",
                                        "direct and transport-split evaluations agree",
                                        hs, errs, 1.4, 2.6))

    _guarded(results, 'quadratic_term_two_routes', 'direct and transport-split evaluations agree', cross_validation_block)

    def momentum_block():
        # transported-momentum residual of produced right-hand sides
        hs, errs = [], []
        for n in ladder:
            geo = _geo(geos, TORUS, n, PHI_T)
            m = geo.metric
            op, sp, bc = _machinery(geo, alpha, TORUS)
            gr = GradientRemover(geo)
            u = sp.project(random_vector(geo.grid, seed=seed + 22, kmax=1, amp=0.5))
            dudt = dy.rhs_dirichlet(m, op, sp, u)
            hs.append(geo.grid.h)
            errs.append(dy.eq2_residual(m, op, gr, u, dudt) / max(u.linf(), 1e-300))
        results.append(order_result("momentum_form_residual",
                                    "projected form solves the transported-momentum equation",
                                    hs, errs, 1.4, 2.6))

    _guarded(results, 'momentum_form_residual', 'projected form solves the transported-momentum equation', momentum_block)

    def energy_dt_block():
        # energy: integrator branch at fourth order.  This is a designed study:
        # the drift's dt^4 coefficient varies with the trajectory and can sit
        # below the spatial floor, so the study runs at a fixed seed and alpha
        # where the branch is resolvable, recorded in the note.
        study_seed, study_alpha = 50, 0.2
        geo = _geo(geos, TORUS, 24, PHI_T)
        m = geo.metric
        bc = BcRegime.from_domain(TORUS)
        op = EllipticOperator(geo, study_alpha)
        sp = StokesProjector(op, bc)
        u0 = sp.project(random_vector(geo.grid, seed=study_seed, kmax=2, amp=0.7))
        e0 = dy.energy(m, study_alpha, u0)
        T = 0.6

        def run_dt(dt, integ="rk4"):
            c = dy.SolverConfig(alpha=study_alpha, dt=dt, t_end=T, integrator=integ,
                                bc=bc, cfl_factor=5.0)
            prob = dy.LaeProblem(geo, c)
            return dy.integrate(prob, dy.State(u0.copy(), 0.0), T)

        ref = run_dt(T / 480)
        eref = dy.energy(m, study_alpha, ref.u)
        dts = [T / mm for mm in (13, 18, 25, 35)]
        errs, serrs = [], []
        for dt in dts:
            fin = run_dt(dt)
            errs.append(abs(dy.energy(m, study_alpha, fin.u) - eref) / e0)
            serrs.append((fin.u - ref.u).linf() / max(u0.linf(), 1e-300))
        results.append(order_result("energy_drift_dt_branch",
                                    "integrator part of the energy drift decays at fourth order",
                                    dts, errs, 3.5, 5.0,
                                    note="floor-subtracted; designed study at seed 50, alpha 0.2"))
        results.append(order_result("integrator_state_order",
                                    "trajectory self-convergence of the integrator",
                                    dts, serrs, 3.5, 4.5))
        floor = abs(dy.energy(m, study_alpha, ref.u) - e0) / e0
        results.append(max_result("energy_drift_floor_24",
                                  "spatial conservation floor at the working grid",
                                  floor, 5e-3,
                                  note="drift at dt = T/480 on the 24^2 grid"))

    _guarded(results, 'energy_drift_dt_branch', 'integrator part of the energy drift decays at fourth order', energy_dt_block)

    def floor_block():
        # spatial floor rate decreases at second order; the worst instantaneous
        # defect over several fields is immune to cancellation along trajectories
        hs, floors = [], []
        for n in (16, 24, 32):
            geo_f = _geo(geos, TORUS, n, PHI_T)
            bc_f = BcRegime.from_domain(TORUS)
            op_f = EllipticOperator(geo_f, alpha)
            sp_f = StokesProjector(op_f, bc_f)
            worst = 0.0
            for s_off in (0, 1, 2, 3):
                w0 = sp_f.project(taylor_green_like(geo_f.grid, amp=0.5)
                                  + random_vector(geo_f.grid, seed=seed + 23 + s_off,
                                                  kmax=2, amp=0.125))
                r = dy.rhs_dirichlet(geo_f.metric, op_f, sp_f, w0)
                rate = abs(ca.inner1(geo_f.metric, alpha, w0, r)) \
                    / dy.energy(geo_f.metric, alpha, w0)
                worst = max(worst, rate)
            hs.append(geo_f.grid.h)
            floors.append(worst)
        results.append(order_result("energy_floor_vs_h",
                                    "spatial conservation-defect rate decreases at second order",
                                    hs, floors, ORDER_LO, ORDER_HI,
                                    note="max |<u, rhs>_1|/h(u) over four seeded fields"))

    _guarded(results, 'energy_floor_vs_h', 'spatial conservation-defect rate decreases at second order', floor_block)

    def alpha_sweep_block():
        # alpha sweep toward the euler baseline
        geo = _geo(geos, TORUS, 24, PHI_T)
        m = geo.metric
        op0 = EllipticOperator(geo, 0.0)
        sp0 = StokesProjector(op0, BcRegime.from_domain(TORUS))
        u = sp0.project(random_vector(geo.grid, seed=seed + 24, kmax=1, amp=0.5))
        base = dy.rhs_euler(m, sp0, u)
        alphas = (0.02, 0.01, 0.005)
        errs = []
        for a in alphas:
            op_a = EllipticOperator(geo, a)
            sp_a = StokesProjector(op_a, BcRegime.from_domain(TORUS))
            errs.append((dy.rhs_dirichlet(m, op_a, sp_a, u) - base).linf())
        results.append(order_result("alpha_sweep_to_euler",
                                    "right-hand side approaches the euler baseline quadratically in alpha",
                                    alphas, errs, 1.7, 2.3,
                                    note="abscissa is alpha, not h"))

    _guarded(results, 'alpha_sweep_to_euler', 'right-hand side approaches the euler baseline', alpha_sweep_block)

    # configured run: integrate the configured domain/initial/run setup and
    # record its conservation behavior
    def configured_block():
        geo_u = cfg.build_geometry()
        prob = dy.LaeProblem(geo_u, cfg.solver_config())
        prob.newton_tol = cfg.getfloat("material", "newton_tol")
        u0 = prob.project(cfg.initial_field(geo_u))
        e0 = dy.energy(geo_u.metric, prob.cfg.alpha, u0)
        every = max(cfg.getint("diagnostics", "every_n_steps"), 1)
        divs, count = [], [0]

        def record(state):
            count[0] += 1
            if count[0] % every == 0:
                divs.append(ca.divergence(geo_u.metric, state.u).linf())

        fin = dy.integrate(prob, dy.State(u0, 0.0), prob.cfg.t_end, record=record)
        drift = abs(dy.energy(geo_u.metric, prob.cfg.alpha, fin.u) - e0) \
            / max(e0, 1e-300)
        scale = max(fin.u.linf(), 1e-300)
        results.append(max_result("configured_run_energy_drift",
                                  "configured trajectory conserves energy to the spatial floor",
                                  drift, 5e-2))
        results.append(max_result("configured_run_divergence",
                                  "configured trajectory stays divergence-free",
                                  (max(divs) if divs else 0.0) / scale, 1e-8))

    _guarded(results, "configured_run",
             "configured trajectory runs and conserves", configured_block)

    return results


# ---------------------------------------------------------------------------
# material
# ---------------------------------------------------------------------------

def run_material(cfg: ExperimentConfig, ladder, geos: dict) -> list:
    seed = cfg.seed
    alpha = cfg.getfloat("solver", "alpha")
    results = []

    def commute_block():
        # two-path commutative diagram under joint refinement
        t = 0.1
        hs, ds = [], []
        for n, steps in ((16, 8), (24, 12), (32, 16)):
            geo = _geo(geos, TORUS, n, PHI_T)
            c = dy.SolverConfig(alpha=alpha, dt=t / steps, t_end=t,
                                bc=BcRegime.from_domain(TORUS), cfl_factor=5.0)
            prob = dy.LaeProblem(geo, c)
            u0 = prob.sp.project(random_vector(geo.grid, seed=seed + 31, kmax=1, amp=0.5))
            rep = mt.commute_check(prob, u0, t)
            hs.append(geo.grid.h)
            ds.append(rep["discrepancy"])
        results.append(order_result("flow_map_commutes_with_right_translation",
                                    "material and spatial evolutions agree through the diagram",
                                    hs, ds, 1.5, 3.5))
        mono = all(ds[i + 1] < 1.5 * ds[i] for i in range(len(ds) - 1))
        results.append(bool_result("commute_discrepancy_monotone",
                                   "discrepancy decreases under joint refinement",
                                   mono and ds[-1] < ds[0],
                                   "monotone within noise factor 1.5"))

    _guarded(results, 'flow_map_commutes_with_right_translation', 'material and spatial evolutions agree', commute_block)

    def volume_block():
        # volume preservation along the steady-shear spray
        geo = _geo(geos, TORUS, 32, phi_flat)
        c = dy.SolverConfig(alpha=0.35, dt=1e-3, t_end=0.2,
                            bc=BcRegime.from_domain(TORUS), cfl_factor=5.0)
        prob = dy.LaeProblem(geo, c)
        ms = mt.MaterialState(mt.FlowMap.identity(geo.grid),
                              eigenfield(geo.grid, amp=0.8))
        for _ in range(200):
            ms = mt.spray_advance(prob, ms)
        vol = mt.volume_distortion(geo.metric, ms)
        results.append(max_result("volume_preservation_eigenfield",
                                  "spray preserves the riemannian volume",
                                  vol, 1e-6, note="32^2, dt = 1e-3, t in [0, 0.2]"))

    _guarded(results, 'volume_preservation_eigenfield', 'spray preserves the riemannian volume', volume_block)

    def generic_volume_block():
        # generic-field volume distortion, reported against a loose ceiling
        geo = _geo(geos, TORUS, 24, PHI_T)
        c = dy.SolverConfig(alpha=alpha, dt=5e-3, t_end=0.1,
                            bc=BcRegime.from_domain(TORUS), cfl_factor=5.0)
        prob = dy.LaeProblem(geo, c)
        u0 = prob.sp.project(random_vector(geo.grid, seed=seed + 32, kmax=1, amp=0.4))
        ms = mt.MaterialState(mt.FlowMap.identity(geo.grid), u0.copy())
        for _ in range(20):
            ms = mt.spray_advance(prob, ms)
        results.append(max_result("volume_distortion_generic",
                                  "interpolated transport keeps volume at the stencil level",
                                  mt.volume_distortion(geo.metric, ms), 5e-3))

        # energy of the right-invariant metric along the spray
        e0 = dy.energy(geo.metric, alpha, u0)
        e1 = dy.energy(geo.metric, alpha, mt.pi_r(ms))
        results.append(max_result("material_energy_conservation",
                                  "right-invariant kinetic energy conserved along the spray",
                                  abs(e1 - e0) / e0, 5e-3))

    _guarded(results, 'volume_distortion_generic', 'interpolated transport keeps volume at the stencil level', generic_volume_block)

    return results


# ---------------------------------------------------------------------------
# poisson
# ---------------------------------------------------------------------------

def _observable_triple(ctx, cfg):
    spec = cfg.get("poisson", "observables")
    obs = []
    for item in spec.split(","):
        item = item.strip()
        if item.startswith("linear:"):
            s = int(item.split(":")[1])
            obs.append(po.LinearObservable(
                ctx, random_vector(ctx.geo.grid, seed=s, kmax=1)))
        elif item.startswith("quadratic:"):
            obs.append(po.QuadraticObservable(ctx, item.split(":")[1]))
        elif item == "hamiltonian":
            obs.append(po.HamiltonianObservable(ctx))
        else:
            raise ValueError(f"unknown observable {item!r}")
    if len(obs) < 3:
        raise ValueError("need at least three observables")
    return obs[0], obs[1], obs[2]


def run_poisson(cfg: ExperimentConfig, ladder, geos: dict) -> list:
    seed = cfg.seed
    alpha = cfg.getfloat("solver", "alpha")
    results = []

    def axioms_block():
        # algebraic axioms at one working grid
        geo = _geo(geos, MIXED, 24, PHI_C)
        ctx = po.PoissonContext(geo, alpha, BcRegime.from_domain(MIXED))
        f, g, hq = _observable_triple(ctx, cfg)
        u = _member(geo, ctx.op, ctx.sp, ctx.bc, seed + 43)
        rep = po.bracket_report(ctx, f, g, hq, u)
        results.append(max_result("bracket_antisymmetry",
                                  "bracket changes sign under swapping its arguments",
                                  rep.antisymmetry_residual, 0.0,
                                  note="same evaluation path, bit-level"))
        scale = max(abs(rep.value), abs(f.value(u) * g.value(u)), 1.0)
        results.append(max_result("bracket_leibniz",
                                  "bracket is a derivation in each factor",
                                  rep.leibniz_residual, 1e-12 * scale))

    _guarded(results, 'bracket_axioms', 'bracket antisymmetry and the derivation property', axioms_block)

    def jacobi_block():
        # jacobi identity at second order, both wall regimes
        for label, spec in (("dirichlet", DIRICH), ("mixed", MIXED)):
            hs, errs = [], []
            for n in ladder:
                geo_j = _geo(geos, spec, n, PHI_C)
                ctx_j = po.PoissonContext(geo_j, alpha, BcRegime.from_domain(spec))
                fj = po.LinearObservable(ctx_j, random_vector(geo_j.grid, seed=seed + 44, kmax=1))
                gj = po.LinearObservable(ctx_j, random_vector(geo_j.grid, seed=seed + 45, kmax=1))
                hj = po.LinearObservable(ctx_j, random_vector(geo_j.grid, seed=seed + 46, kmax=1))
                uj = _member(geo_j, ctx_j.op, ctx_j.sp, ctx_j.bc, seed + 47)
                repj = po.bracket_report(ctx_j, fj, gj, hj, uj)
                hs.append(geo_j.grid.h)
                errs.append(repj.jacobi_residual / repj.jacobi_scale)
            results.append(order_result(f"jacobi_identity[{label}]",
                                        "double brackets cancel cyclically",
                                        hs, errs, ORDER_LO, ORDER_HI))

    _guarded(results, 'jacobi_identity', 'double brackets cancel cyclically', jacobi_block)

    def derivative_block():
        # derivative of the bracket against central differences
        hs, errs = [], []
        for n in ladder:
            geo_d = _geo(geos, MIXED, n, PHI_C)
            ctx_d = po.PoissonContext(geo_d, alpha, BcRegime.from_domain(MIXED))
            fd_ = po.LinearObservable(ctx_d, random_vector(geo_d.grid, seed=seed + 48, kmax=1))
            gd_ = po.QuadraticObservable(ctx_d, "smooth")
            ud = _member(geo_d, ctx_d.op, ctx_d.sp, ctx_d.bc, seed + 49)
            vd = _member(geo_d, ctx_d.op, ctx_d.sp, ctx_d.bc, seed + 50)
            got = ctx_d.inner1(po.delta_bracket(ctx_d, fd_, gd_, ud), vd)
            eps = 1e-4
            fd_val = (po.bracket(ctx_d, fd_, gd_, ud + vd * eps)
                      - po.bracket(ctx_d, fd_, gd_, ud - vd * eps)) / (2 * eps)
            hs.append(geo_d.grid.h)
            errs.append(abs(got - fd_val) / max(abs(fd_val), 1e-300))
        results.append(max_result("bracket_derivative_vs_central_difference",
                                  "closed-form derivative of the bracket matches finite differences",
                                  errs[-1], 2e-2, series_h=hs, series_res=errs,
                                  note="residual carries the h^2 discretization term"))
        results.append(bool_result("bracket_derivative_refines",
                                   "finite-difference agreement improves with the grid",
                                   errs[-1] < errs[0], "decreasing residual"))

    _guarded(results, 'bracket_derivative', 'closed-form derivative of the bracket matches finite differences', derivative_block)

    def hamilton_block():
        # hamilton's equations along the flow
        t = 0.04
        hs, errs = [], []
        for n, steps in ((16, 8), (24, 12), (32, 16)):
            geo_h = _geo(geos, TORUS, n, PHI_T)
            ctx_h = po.PoissonContext(geo_h, alpha, BcRegime.from_domain(TORUS))
            c = dy.SolverConfig(alpha=alpha, dt=t / steps, t_end=t,
                                bc=ctx_h.bc, cfl_factor=5.0)
            prob = dy.LaeProblem(geo_h, c)
            fh = po.LinearObservable(ctx_h, random_vector(geo_h.grid, seed=seed + 51, kmax=1))
            u0 = _member(geo_h, ctx_h.op, ctx_h.sp, ctx_h.bc, seed + 52)
            reph = po.hamilton_check(prob, ctx_h, fh, u0, t)
            hs.append(geo_h.grid.h)
            errs.append(reph["relative"] + 1e-16)
        results.append(order_result("hamilton_equations",
                                    "observables evolve by bracket with the hamiltonian",
                                    hs, errs, 1.5, 4.0))

    _guarded(results, 'hamilton_equations', 'observables evolve by bracket with the hamiltonian', hamilton_block)

    def translation_block():
        # right translation is a poisson map
        hs, devs = [], []
        t_map = 0.1
        for n, steps in ((16, 8), (24, 12), (32, 16)):
            geo_p = _geo(geos, TORUS, n, PHI_T)
            ctx_p = po.PoissonContext(geo_p, alpha, BcRegime.from_domain(TORUS))
            c = dy.SolverConfig(alpha=alpha, dt=t_map / steps, t_end=t_map,
                                bc=ctx_p.bc, cfl_factor=5.0)
            prob = dy.LaeProblem(geo_p, c)
            carrier = ctx_p.sp.project(random_vector(geo_p.grid, seed=seed + 53,
                                                     kmax=1, amp=0.4))
            ms = mt.MaterialState(mt.FlowMap.identity(geo_p.grid), carrier.copy())
            for _ in range(steps):
                ms = mt.spray_advance(prob, ms)
            V = mt.compose_with_map(_member(geo_p, ctx_p.op, ctx_p.sp, ctx_p.bc,
                                            seed + 54), ms.eta)
            state = mt.MaterialState(ms.eta, V)
            fp = po.LinearObservable(ctx_p, random_vector(geo_p.grid, seed=seed + 55, kmax=1))
            gp = po.LinearObservable(ctx_p, random_vector(geo_p.grid, seed=seed + 56, kmax=1))
            repp = po.pi_r_poisson_check(ctx_p, fp, gp, state)
            hs.append(geo_p.grid.h)
            devs.append(repp["deviation"] + 1e-16)
        results.append(bool_result("right_translation_poisson_map",
                                   "translation to the identity intertwines the brackets",
                                   devs[-1] < devs[0],
                                   f"deviation decreasing, last {devs[-1]:.3e}"))
        results.append(order_result("right_translation_poisson_refinement",
                                    "right-translation bracket deviation refines away",
                                    hs, devs, 0.8, 4.0))

    _guarded(results, 'right_translation_poisson_map', 'translation to the identity intertwines the brackets', translation_block)

    def flow_block():
        # the time-t flow is a poisson map (dense tangent basis)
        max_dim = cfg.getint("poisson", "flow_check_max_dim")
        devs, hs = [], []
        for n in (12, 16):
            geo_f = _geo(geos, TORUS, n, PHI_T)
            ctx_f = po.PoissonContext(geo_f, alpha, BcRegime.from_domain(TORUS))
            c = dy.SolverConfig(alpha=alpha, dt=5e-3, t_end=0.05,
                                bc=ctx_f.bc, cfl_factor=5.0)
            prob = dy.LaeProblem(geo_f, c)
            ff = po.LinearObservable(ctx_f, random_vector(geo_f.grid, seed=seed + 57, kmax=1))
            gf = po.LinearObservable(ctx_f, random_vector(geo_f.grid, seed=seed + 58, kmax=1))
            u0 = _member(geo_f, ctx_f.op, ctx_f.sp, ctx_f.bc, seed + 59, amp=0.4)
            repf = po.flow_poisson_check(prob, ctx_f, ff, gf, u0, 0.05,
                                         max_dim=max_dim)
            hs.append(geo_f.grid.h)
            devs.append(repf["deviation"])
        results.append(max_result("flow_poisson_map_16",
                                  "the time-t flow preserves the bracket",
                                  devs[-1], 5e-3,
                                  note=f"16^2, t = 0.05, tangent dim per grid"))
        results.append(bool_result("flow_poisson_map_trend",
                                   "flow bracket deviation decreases with refinement",
                                   devs[-1] < devs[0],
                                   f"deviations {devs[0]:.3e} -> {devs[-1]:.3e}"))

    _guarded(results, 'flow_poisson_map', 'the time-t flow preserves the bracket', flow_block)

    return results


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

SUITES = {
    "identities": run_identities,
    "elliptic": run_elliptic,
    "dynamics": run_dynamics,
    "material": run_material,
    "poisson": run_poisson,
}


def run_suite(cfg: ExperimentConfig, suite: str | None = None,
              ladder=None) -> RunManifest:
    name = suite or cfg.get("lab", "suite")
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    ladder = tuple(ladder) if ladder else cfg.grid_ladder()
    results = SUITES[name](cfg, ladder, {})      # a fresh geometry memo per run
    man = RunManifest(suite=name, config_echo=cfg.echo(), version=__import__(
        "laealab").__version__, seed=cfg.seed, grid_ladder=list(ladder),
        results=results)
    return stamp(man)
