"""Verification suites: identities, elliptic, dynamics, material, poisson.

A suite is the list of its blocks.  A block is a generator registered with
@block(suite): it takes the Run and yields manifest entries, one per
analytic fact.  The function's name is the block's name and its docstring's
first line the identity it checks.  run_suite walks each suite's blocks in
definition order and guards them in one place, _guarded.  A block runs
alone as list(leray_limit(Run(cfg, ladder))).

Blocks fit convergence orders across the grid ladder by least squares.
Test fields are band-limited trig samples from the configured seed (the
seeded states made admissible by _member), so runs with identical
configuration are bit-identical.  Blocks build their systems through the Run,
naming a domain of DOMAINS by label; within one run, blocks on one domain,
grid and metric share its geometry and factorizations, and no two runs share.
"""

from __future__ import annotations

import inspect
import os
import traceback
from functools import cached_property

import numpy as np

from . import calculus as ca
from . import dynamics as dy
from . import material as mt
from . import poisson as po
from . import samples as sa
from .config import ConfigError, ExperimentConfig
from .elliptic import BcRegime, l_alpha
from .fields import VectorField
from .geometry import DomainSpec, build_geometry
from .manifest import (RunManifest, bool_result, max_result, order_result,
                       stamp)
from .reference import hodge_exterior, leray_fft

ORDER_LO, ORDER_HI = 1.5, 2.5

# label -> (domain, metric); a channel's label is its BcRegime variant.  The
# metrics are memoized presets, the torus's the default config's phi.
DOMAINS = {
    "torus": (DomainSpec("torus", 1.0, 1.0), sa.make_phi_sinusoidal(0.15, 1, 1, 1.0, 1.0)),
    "flat": (DomainSpec("torus", 1.0, 1.0), sa.phi_flat),
    **{label: (DomainSpec("channel", 1.0, 1.0, {"y0": y0, "yL": yl}),
               sa.make_phi_cosx_siny(0.15, 1, 1.0, 1.0))
       for label, y0, yl in (("mixed", "dirichlet", "neumann"),
                             ("dirichlet", "dirichlet", "dirichlet"),
                             ("neumann", "neumann", "neumann"))},
}
TORUS_AND_CHANNEL = {"torus": "torus", "mixed": "channel"}    # label -> entry tag

SUITES: dict = {}        # suite name -> its blocks, in definition order


def block(suite: str):
    """Register the decorated generator as the next block of suite."""
    def register(fn):
        SUITES.setdefault(suite, []).append(fn)
        return fn
    return register


class Run:
    """One suite run as its blocks see it: config, seed, alpha, ladder, and
    the constructors of its systems over one geometry memo.

    A domain is a label of DOMAINS or "config", the config's own.  Systems
    take their domain's regime and, by default, the run's alpha.  run_suite
    makes one Run per call; dropping it frees its geometries and factorizations.
    """

    def __init__(self, cfg: ExperimentConfig, ladder):
        self.cfg, self.ladder, self.geos = cfg, tuple(ladder), {}
        self.seed, self.alpha = cfg.seed, cfg.getfloat("solver", "alpha")

    @cached_property
    def domains(self):
        """DOMAINS and the row "config", parsed on first use."""
        return {**DOMAINS, "config": (self.cfg.domain_spec(), self.cfg.phi_function())}

    def geo(self, label, n, ny=None):
        """The run's geometry of domain label at n by ny nodes, ny being n on
        the torus and n + 1 on the channel by default.  Equal domains, grids
        and metrics (phi presets are memoized callables) give one Geometry,
        under any label, and so share its factorizations."""
        spec, phi = self.domains[label]
        ny = ny if ny is not None else (n if spec.kind == "torus" else n + 1)
        key = (spec, n, ny, phi)
        if key not in self.geos:
            self.geos[key] = build_geometry(spec, n, ny, phi)
        return self.geos[key]

    def system(self, label, n, alpha=None) -> dy.System:
        """The System of the run's geometry (label, n) in its domain's regime."""
        alpha = self.alpha if alpha is None else alpha
        return dy.System(self.geo(label, n), alpha, BcRegime.from_domain(self.domains[label][0]))

    def problem(self, label, n, dt, t_end, alpha=None) -> dy.LaeProblem:
        """As system(), with an RK4 march to t_end in steps of dt and the
        blocks' one CFL factor, the loose 5.0 (SolverConfig's default is 0.5)."""
        alpha = self.alpha if alpha is None else alpha
        c = dy.SolverConfig(alpha=alpha, dt=dt, t_end=t_end, cfl_factor=5.0,
                            bc=BcRegime.from_domain(self.domains[label][0]))
        return dy.LaeProblem(self.geo(label, n), c)

    def series(self, label, value, ns=None, t=None):
        """(hs, values): h and value(system) on each level of ns (the ladder by
        default), built and evaluated one level at a time, in order.  With t,
        each level is instead the problem() that marches to t in n // 2 steps."""
        hs, values = [], []
        for n in ns or self.ladder:
            s = self.system(label, n) if t is None else self.problem(label, n, t / (n // 2), t)
            hs.append(s.geo.grid.h)
            values.append(value(s))
        return hs, values


def _member(s: dy.System, seed, kmax=1, amp=0.5):
    """The admissible field of a seeded band-limited sample."""
    return s.sp.project(sa.random_vector(s.geo.grid, seed=seed, kmax=kmax, amp=amp))


def _traceback_tail(e: BaseException) -> str:
    """The innermost four frames of e's traceback as 'file:line func' entries."""
    tb = traceback.extract_tb(e.__traceback__)[-4:]
    return " <- ".join(f"{os.path.basename(f.filename)}:{f.lineno} {f.name}"
                       for f in reversed(tb))


def _guarded(fn, run: Run):
    """The entries of block fn, then a failed entry if it raises.

    The entries fn yielded before it raised are kept.  The failed entry is
    named after fn, states its docstring's first line, and its note keeps
    the error and the innermost frames of its traceback, innermost first.
    """
    try:
        yield from fn(run)
    except Exception as e:                        # noqa: BLE001
        yield bool_result(
            fn.__name__, inspect.getdoc(fn).splitlines()[0], False,
            "completed without error",
            note=f"error: {type(e).__name__}: {e}; at {_traceback_tail(e)}")


_LADDER_TAGS = {
    "weitzenboeck": "hodge laplacian equals rough laplacian minus ricci",
    "div_of_transport": "div(grad_v u) trace identity",
    "def_integration_by_parts": "deformation pairing integrates by parts with wall term",
    "h1_vs_helmholtz_pairing": "h1 product equals l2 against (1 - a^2 Lop)",
    "l2_transport_antisymmetry": "transport by divergence-free tangent fields is l2-skew",
    "transported_laplacian_split": "grad u^t Lap_r u splits into divergence and curvature terms",
    "transport_correction_identity": "smoothed transport of momentum equals transport plus Dop",
}


@block("identities")
def identity_ladder(run):
    """identity residual ladder"""
    seed, alpha = run.seed, run.alpha
    series = {}
    for label, tag in TORUS_AND_CHANNEL.items():
        for n in run.ladder:
            # a Run of its own per level: no other block uses these
            # geometries, so keeping them would only hold their factorizations
            s = Run(run.cfg, run.ladder).system(label, n)
            m, grid = s.metric, s.geo.grid
            u = _member(s, seed + 1)
            v = _member(s, seed + 2)
            w_free = sa.random_vector(grid, seed=seed + 3, kmax=1)
            scale = max(u.linf(), 1.0)

            weitz = (ca.hodge_laplacian(m, w_free) - hodge_exterior(m, w_free)).linf()

            lhs = ca.divergence(m, ca.nabla_along(m, v, w_free))
            duw = ca.covariant_derivative(m, w_free)
            dv = ca.covariant_derivative(m, v)
            divnab = (lhs - (duw.matmul(dv).trace() + ca.g_pair(m, w_free, v) * m.K
                             + ca.g_pair(m, ca.gradient(m, ca.divergence(m, w_free)), v))).linf()

            ibp = 0.0
            for s_off in (0, 1000):
                ut = sa.random_vector(grid, seed=seed + 4 + s_off, kmax=1)
                vt = sa.random_vector(grid, seed=seed + 5 + s_off, kmax=1)
                ibp_lhs = -2.0 * ca.inner0_tensor(m, ca.def_tensor(m, ut),
                                                  ca.def_tensor(m, vt))
                ibp_rhs = (ca.inner0(m, ca.l_operator(m, ut), vt)
                           - ca.wall_integral(m, s.geo.walls, ut, vt))
                ibp += abs(ibp_lhs - ibp_rhs)

            um = _member(s, seed + 6)
            vm = _member(s, seed + 7)
            useful = abs(ca.inner1(m, alpha, um, vm)
                         - ca.inner0(m, um - ca.l_operator(m, um) * alpha**2, vm))

            wv = sa.random_vector(grid, seed=seed + 8, kmax=1)
            anti = abs(ca.inner0(m, vm, ca.nabla_along(m, um, wv))
                       + ca.inner0(m, ca.nabla_along(m, um, vm), wv))

            uf1 = sa.random_vector(grid, seed=seed + 20, kmax=1)
            du = ca.covariant_derivative(m, uf1)
            dut = du.transpose()
            cc = ca.curvature_contractions(m, uf1, uf1)
            frob = ca.gbar_pair(m, du, du)
            falpha1 = (dut.apply(ca.ricci_laplacian(m, uf1))
                       - (ca.div_11(m, dut.matmul(du)) - cc.r_swap
                          + dut.apply(cc.ric_v)
                          - ca.gradient(m, frob) * 0.5)).linf()

            mom = vm - ca.ricci_laplacian(m, vm) * alpha**2
            tlhs = s.op.solve(ca.nabla_along(m, um, mom), s.bc)
            # La(grad_u v) + Dop(u, v) as one solve, not projected
            trhs = s.op.solve(s.op.apply(ca.nabla_along(m, um, vm))
                              + dy.d_alpha_source(s, um, vm), s.bc)
            transport = (tlhs - trhs).linf()

            for name, val in (("weitzenboeck", weitz / scale),
                              ("div_of_transport", divnab / scale),
                              ("def_integration_by_parts", ibp),
                              ("h1_vs_helmholtz_pairing", useful),
                              ("l2_transport_antisymmetry", anti),
                              ("transported_laplacian_split", falpha1 / scale),
                              ("transport_correction_identity", transport / scale)):
                hs, vals = series.setdefault((tag, name), ([], []))
                hs.append(grid.h)
                vals.append(val)

    for (tag, name), (hs, vals) in sorted(series.items()):
        yield order_result(f"{name}[{tag}]", _LADDER_TAGS[name], hs, vals,
                           ORDER_LO, ORDER_HI)


@block("identities")
def flat_curvature_exact_zero(run):
    """flat conformal factor kills every curvature term"""
    geo = run.geo("flat", run.ladder[0])
    m = geo.metric
    uf = sa.random_vector(geo.grid, seed=run.seed + 9, kmax=2)
    vf = sa.random_vector(geo.grid, seed=run.seed + 10, kmax=2)
    cc = ca.curvature_contractions(m, uf, vf)
    worst = max(x.linf() for x in (cc.r_tensor, ca.div_11(m, cc.r_tensor), cc.r_grad,
                                   cc.r_swap, cc.ric_rate, cc.ric_v))
    worst = max(worst, float(np.max(np.abs(m.K))),
                float(np.max(np.abs(m.gamma))))
    yield max_result("flat_curvature_exact_zero",
                     "flat conformal factor kills every curvature term",
                     worst, 0.0 if worst == 0.0 else 1e-300,
                     note="exact zero arrays")


@block("elliptic")
def helmholtz_round_trip(run):
    """inverse composed with operator is the identity on the subspace"""
    s = run.system("mixed", run.ladder[min(1, len(run.ladder) - 1)])
    u = l_alpha(s.op, sa.random_vector(s.geo.grid, seed=run.seed + 11, kmax=2), s.bc)
    rt = (s.op.solve(s.op.apply(u), s.bc) - u).linf() / max(u.linf(), 1e-300)
    yield max_result("helmholtz_round_trip",
                     "inverse composed with operator is the identity on the subspace",
                     rt, 1e-10)


@block("elliptic")
def manufactured_solution(run):
    """solve recovers a field with known image"""
    def error(s):
        g = s.geo.grid
        q = 3 * g.Y**2 - 2 * g.Y**3
        r = g.Y * (1 - g.Y) * (g.Y + 2) / 2
        ustar = VectorField.from_arrays(
            g, np.sin(2 * np.pi * g.X) * q, 0.7 * np.cos(2 * np.pi * g.X) * r)
        return (s.op.solve(s.op.apply(ustar), s.bc) - ustar).linf() / ustar.linf()
    hs, errs = run.series("mixed", error)
    yield order_result("manufactured_solution",
                       "solve recovers a field with known image",
                       hs, errs, ORDER_LO, ORDER_HI)


@block("elliptic")
def projector_contracts(run):
    """projection contracts at the solver level"""
    seed = run.seed
    s = run.system("flat", max(run.ladder))
    v = sa.random_vector(s.geo.grid, seed=seed + 12, kmax=2)
    w = sa.random_vector(s.geo.grid, seed=seed + 13, kmax=2)
    pv = s.sp.project(v)
    pw = s.sp.project(w)
    idem = (s.sp.project(pv) - pv).linf() / max(pv.linf(), 1e-300)
    ortho = abs(s.inner1(pv, v - pv)) / (
        np.sqrt(s.inner1(pv, pv)) * np.sqrt(s.inner1(v - pv, v - pv)) + 1e-300)
    adj = abs(s.inner1(pv, w) - s.inner1(v, pw)) / (abs(s.inner1(pv, w)) + 1e-300)
    yield max_result("projector_idempotent",
                     "projection applied twice is itself", idem, 1e-8)
    yield max_result("projector_h1_orthogonality",
                     "complement is h1-orthogonal to the range",
                     ortho, 1e-8)
    yield max_result("projector_self_adjoint",
                     "h1 self-adjointness of the projection", adj, 1e-8)

    worst_idem = idem
    for label in ("mixed", "dirichlet", "neumann"):
        s_c = run.system(label, run.ladder[0])
        vv = _member(s_c, seed + 14)
        again = s_c.sp.project(vv)
        worst_idem = max(worst_idem,
                         (again - vv).linf() / max(vv.linf(), 1e-300))
    yield max_result("projector_idempotent_all_regimes",
                     "projection applied twice is itself, wall regimes",
                     worst_idem, 1e-8)


@block("elliptic")
def leray_limit(run):
    """projector reduces to the discrete leray projector"""
    grid = run.geo("flat", max(run.ladder)).grid
    v = sa.random_vector(grid, seed=run.seed + 15, kmax=2)
    oracle = leray_fft(grid, v)
    worst = 0.0
    for a in (0.0, run.alpha):
        s = run.system("flat", max(run.ladder), alpha=a)
        worst = max(worst, (s.sp.project(v) - oracle).linf()
                    / max(oracle.linf(), 1e-300))
    yield max_result("leray_limit",
                     "projector reduces to the discrete leray projector on the flat torus",
                     worst, 1e-8)


@block("elliptic")
def orthogonality_defect_curved(run):
    """h1-orthogonality defect vanishes under refinement

    The per-level worst case over two fields steadies the trend.
    """
    def defect(s):
        worst = 0.0
        for s_off in (0, 1000):
            vv = l_alpha(s.op, sa.random_vector(s.geo.grid, seed=run.seed + 16 + s_off,
                                                kmax=1), s.bc)
            pv = s.sp.project(vv)
            num = abs(s.inner1(pv, vv - pv))
            den = (np.sqrt(s.inner1(pv, pv))
                   * np.sqrt(max(s.inner1(vv - pv, vv - pv), 1e-300)) + 1e-300)
            worst = max(worst, num / den)
        return worst + 1e-16
    hs, errs = run.series("mixed", defect)
    yield order_result("orthogonality_defect_curved",
                       "h1-orthogonality defect vanishes under refinement",
                       hs, errs, 0.8, 3.5)


@block("dynamics")
def quadratic_term_two_routes(run):
    """direct and transport-split evaluations agree"""
    def gap(s):
        u = _member(s, run.seed + 21)
        a = dy.f_alpha(s, u)
        return (a - dy.f_alpha_alt(s, u)).linf() / max(a.linf(), 1e-300)
    for label, tag in TORUS_AND_CHANNEL.items():
        hs, errs = run.series(label, gap)
        yield order_result(f"quadratic_term_two_routes[{tag}]",
                           "direct and transport-split evaluations agree",
                           hs, errs, ORDER_LO, ORDER_HI)


@block("dynamics")
def momentum_form_residual(run):
    """projected form solves the transported-momentum equation"""
    def residual(s):
        u = _member(s, run.seed + 22)
        return dy.eq2_residual(s, u, dy.rhs(s, u)) / max(u.linf(), 1e-300)
    hs, errs = run.series("torus", residual)
    yield order_result("momentum_form_residual",
                       "projected form solves the transported-momentum equation",
                       hs, errs, ORDER_LO, ORDER_HI)


@block("dynamics")
def energy_drift_dt_branch(run):
    """integrator part of the energy drift decays at fourth order

    A designed study: the drift's dt^4 coefficient varies with the trajectory
    and can sit below the spatial floor, so the study runs at a fixed seed
    and alpha where the branch is resolvable, recorded in the note.
    """
    study_seed, study_alpha = 50, 0.2
    s = run.system("torus", 24, alpha=study_alpha)
    m = s.metric
    u0 = _member(s, study_seed, kmax=2, amp=0.7)
    e0 = dy.energy(m, study_alpha, u0)
    T = 0.6

    def run_dt(dt):
        prob = run.problem("torus", 24, dt, T, alpha=study_alpha)
        return dy.integrate(prob, dy.State(u0.copy(), 0.0), T)

    ref = run_dt(T / 480)
    eref = dy.energy(m, study_alpha, ref.u)
    dts = [T / mm for mm in (13, 18, 25, 35)]
    errs, serrs = [], []
    for dt in dts:
        fin = run_dt(dt)
        errs.append(abs(dy.energy(m, study_alpha, fin.u) - eref) / e0)
        serrs.append((fin.u - ref.u).linf() / max(u0.linf(), 1e-300))
    yield order_result("energy_drift_dt_branch",
                       "integrator part of the energy drift decays at fourth order",
                       dts, errs, 3.5, 4.5,
                       note="floor-subtracted; designed study at seed 50, alpha 0.2")
    yield order_result("integrator_state_order",
                       "trajectory self-convergence of the integrator",
                       dts, serrs, 3.5, 4.5)
    floor = abs(eref - e0) / e0
    yield max_result("energy_drift_floor_24",
                     "spatial conservation floor at the working grid",
                     floor, 5e-3,
                     note="drift at dt = T/480 on the 24^2 grid")


@block("dynamics")
def energy_floor_vs_h(run):
    """spatial conservation-defect rate decreases at second order

    The worst instantaneous defect over several fields is immune to
    cancellation along trajectories.
    """
    def worst_rate(s):
        grid = s.geo.grid
        worst = 0.0
        for s_off in (0, 1, 2, 3):
            w0 = s.sp.project(sa.taylor_green_like(grid, amp=0.5)
                              + sa.random_vector(grid, seed=run.seed + 23 + s_off,
                                                 kmax=2, amp=0.125))
            rate = abs(s.inner1(w0, dy.rhs(s, w0))) / dy.energy(s.metric, run.alpha, w0)
            worst = max(worst, rate)
        return worst
    hs, floors = run.series("torus", worst_rate, ns=(16, 24, 32))
    yield order_result("energy_floor_vs_h",
                       "spatial conservation-defect rate decreases at second order",
                       hs, floors, ORDER_LO, ORDER_HI,
                       note="max |<u, rhs>_1|/h(u) over four seeded fields")


@block("dynamics")
def alpha_sweep_to_euler(run):
    """right-hand side approaches the euler baseline"""
    s0 = run.system("torus", 24, alpha=0.0)
    u = _member(s0, run.seed + 24)
    base = dy.rhs(s0, u)
    alphas = (0.02, 0.01, 0.005)
    errs = [(dy.rhs(run.system("torus", 24, alpha=a), u) - base).linf()
            for a in alphas]
    yield order_result("alpha_sweep_to_euler",
                       "right-hand side approaches the euler baseline quadratically in alpha",
                       alphas, errs, 1.7, 2.3,
                       note="abscissa is alpha, not h")


@block("dynamics")
def configured_run(run):
    """configured trajectory runs and conserves"""
    cfg = run.cfg
    geo = run.geo("config", cfg.getint("domain", "nx"), cfg.getint("domain", "ny"))
    prob = dy.LaeProblem(geo, cfg.solver_config())
    u0 = prob.sp.project(cfg.initial_field(geo))
    e0 = dy.energy(geo.metric, prob.cfg.alpha, u0)
    every = cfg.getint("diagnostics", "every_n_steps")
    divs, count = [], [0]

    def record(state):
        count[0] += 1
        if count[0] % every == 0:
            divs.append(ca.divergence(geo.metric, state.u).linf())

    fin = dy.integrate(prob, dy.State(u0, 0.0), prob.cfg.t_end, record=record)
    drift = abs(dy.energy(geo.metric, prob.cfg.alpha, fin.u) - e0) \
        / max(e0, 1e-300)
    scale = max(fin.u.linf(), 1e-300)
    yield max_result("configured_run_energy_drift",
                     "configured trajectory conserves energy to the spatial floor",
                     drift, 5e-2)
    yield max_result("configured_run_divergence",
                     "configured trajectory stays divergence-free",
                     (max(divs) if divs else 0.0) / scale, dy.DIVERGENCE_WINDOW)


@block("material")
def flow_map_commutes_with_right_translation(run):
    """material and spatial evolutions agree"""
    t = 0.1
    hs, ds = run.series("torus", lambda prob: mt.commute_check(
        prob, _member(prob, run.seed + 31), t), t=t)
    yield order_result("flow_map_commutes_with_right_translation",
                       "material and spatial evolutions agree through the diagram",
                       hs, ds, 1.5, 3.5)
    mono = all(ds[i + 1] < 1.5 * ds[i] for i in range(len(ds) - 1))
    yield bool_result("commute_discrepancy_monotone",
                      "discrepancy decreases under joint refinement",
                      mono and ds[-1] < ds[0],
                      "monotone within noise factor 1.5")


@block("material")
def volume_preservation_eigenfield(run):
    """spray preserves the riemannian volume"""
    prob = run.problem("flat", 32, 1e-3, 0.2, alpha=0.35)
    grid = prob.geo.grid
    ms = mt.spray_to(prob, mt.MaterialState(mt.FlowMap.identity(grid),
                                            sa.eigenfield(grid, amp=0.8)), prob.cfg.t_end)
    vol = mt.volume_distortion(prob.metric, ms)
    yield max_result("volume_preservation_eigenfield",
                     "spray preserves the riemannian volume",
                     vol, 1e-6, note="32^2, dt = 1e-3, t in [0, 0.2]")


@block("material")
def volume_distortion_generic(run):
    """interpolated transport keeps volume at the stencil level"""
    alpha = run.alpha
    prob = run.problem("torus", 24, 5e-3, 0.1)
    m = prob.metric
    u0 = _member(prob, run.seed + 32, amp=0.4)
    ms = mt.spray_to(prob, mt.MaterialState(mt.FlowMap.identity(prob.geo.grid), u0.copy()),
                     prob.cfg.t_end)
    yield max_result("volume_distortion_generic",
                     "interpolated transport keeps volume at the stencil level",
                     mt.volume_distortion(m, ms), 5e-3)

    e0 = dy.energy(m, alpha, u0)
    e1 = dy.energy(m, alpha, mt.pi_r(ms))
    yield max_result("material_energy_conservation",
                     "right-invariant kinetic energy conserved along the spray",
                     abs(e1 - e0) / e0, 5e-3)


@block("poisson")
def bracket_axioms(run):
    """bracket antisymmetry and the derivation property"""
    ctx = run.system("mixed", 24)
    f, g, hq = (make(ctx) for make in run.cfg.observables())
    u = _member(ctx, run.seed + 43)
    value = po.bracket(ctx, f, g, u)
    yield max_result("bracket_antisymmetry",
                     "bracket changes sign under swapping its arguments",
                     abs(value + po.bracket(ctx, g, f, u)), 0.0,
                     note="same evaluation path, bit-level")
    leibniz = abs(po.bracket(ctx, po.ProductObservable(ctx, f, g), hq, u)
                  - po.bracket(ctx, f, hq, u) * g.value(u)
                  - f.value(u) * po.bracket(ctx, g, hq, u))
    scale = max(abs(value), abs(f.value(u) * g.value(u)), 1.0)
    yield max_result("bracket_leibniz",
                     "bracket is a derivation in each factor",
                     leibniz, 1e-12 * scale)


@block("poisson")
def jacobi_identity(run):
    """double brackets cancel cyclically"""
    def relative_residual(ctx):
        f, g, h = (po.LinearObservable.seeded(ctx, run.seed + k) for k in (44, 45, 46))
        residual, scale = po.jacobi_residual(ctx, f, g, h, _member(ctx, run.seed + 47))
        return residual / scale
    for label in ("dirichlet", "mixed"):
        hs, errs = run.series(label, relative_residual)
        yield order_result(f"jacobi_identity[{label}]",
                           "double brackets cancel cyclically",
                           hs, errs, ORDER_LO, ORDER_HI)


@block("poisson")
def bracket_derivative(run):
    """closed-form derivative of the bracket matches finite differences"""
    def relative_gap(ctx):
        f = po.LinearObservable.seeded(ctx, run.seed + 48)
        g = po.QuadraticObservable(ctx, "smooth")
        u = _member(ctx, run.seed + 49)
        v = _member(ctx, run.seed + 50)
        got = ctx.inner1(po.delta_bracket(ctx, f, g, u), v)
        eps = 1e-4
        fd_val = (po.bracket(ctx, f, g, u + v * eps)
                  - po.bracket(ctx, f, g, u - v * eps)) / (2 * eps)
        return abs(got - fd_val) / max(abs(fd_val), 1e-300)
    hs, errs = run.series("mixed", relative_gap)
    yield max_result("bracket_derivative_vs_central_difference",
                     "closed-form derivative of the bracket matches finite differences",
                     errs[-1], 2e-2, series_h=hs, series_res=errs,
                     note="residual carries the h^2 discretization term")
    yield bool_result("bracket_derivative_refines",
                      "finite-difference agreement improves with the grid",
                      errs[-1] < errs[0], "decreasing residual")


@block("poisson")
def hamilton_equations(run):
    """observables evolve by bracket with the hamiltonian"""
    t = 0.04

    def relative(prob):
        f = po.LinearObservable.seeded(prob, run.seed + 51)
        u0 = _member(prob, run.seed + 52)
        return po.hamilton_check(prob, prob, f, u0, t)["relative"] + 1e-16
    hs, errs = run.series("torus", relative, ns=(16, 24, 32), t=t)
    yield order_result("hamilton_equations",
                       "observables evolve by bracket with the hamiltonian",
                       hs, errs, 2.0, 4.0)


@block("poisson")
def right_translation_poisson_map(run):
    """translation to the identity intertwines the brackets"""
    seed, t = run.seed, 0.1

    def deviation(prob):
        carrier = _member(prob, seed + 53, amp=0.4)
        ms = mt.spray_to(prob, mt.MaterialState(mt.FlowMap.identity(prob.geo.grid),
                                                carrier.copy()), t)
        V = mt.compose_with_map(_member(prob, seed + 54), ms.eta)
        f, g = (po.LinearObservable.seeded(prob, seed + k) for k in (55, 56))
        return po.pi_r_poisson_check(prob, f, g, mt.MaterialState(ms.eta, V))["deviation"] + 1e-16
    hs, devs = run.series("torus", deviation, ns=(16, 24, 32), t=t)
    yield bool_result("right_translation_poisson_map",
                      "translation to the identity intertwines the brackets",
                      devs[-1] < devs[0],
                      f"deviation decreasing, last {devs[-1]:.3e}")
    yield order_result("right_translation_poisson_refinement",
                       "right-translation bracket deviation refines away",
                       hs, devs, 0.8, 4.0)


@block("poisson")
def flow_poisson_map(run):
    """the time-t flow preserves the bracket"""
    devs = []
    for n in (12, 16):
        prob = run.problem("torus", n, 5e-3, 0.05)
        f, g = (po.LinearObservable.seeded(prob, run.seed + k) for k in (57, 58))
        u0 = _member(prob, run.seed + 59, amp=0.4)
        devs.append(po.flow_poisson_check(prob, prob, f, g, u0, 0.05)["deviation"])
    yield max_result("flow_poisson_map_16",
                     "the time-t flow preserves the bracket",
                     devs[-1], 5e-3,
                     note="16^2, t = 0.05, ten RK4 steps, adjoint sweep")
    yield bool_result("flow_poisson_map_trend",
                      "flow bracket deviation decreases with refinement",
                      devs[-1] < devs[0],
                      f"deviations {devs[0]:.3e} -> {devs[-1]:.3e}")


def run_suite(cfg: ExperimentConfig, suite: str | None = None,
              ladder=None) -> RunManifest:
    name = suite or cfg.get("lab", "suite")
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    ladder = tuple(ladder) if ladder else cfg.grid_ladder()
    run = Run(cfg, ladder)                        # a fresh geometry memo per run
    results = [r for fn in SUITES[name] for r in _guarded(fn, run)]
    man = RunManifest(suite=name, config_echo=cfg.echo(), version=__import__(
        "laealab").__version__, seed=cfg.seed, grid_ladder=list(ladder),
        results=results)
    return stamp(man)
