"""Acceptance gate: every exit criterion at its stated tolerance.

Each criterion prints one pass/fail line, and each suite its results digest
(pytest -s shows them).  The suites run once per module scope on their
designated grid ladders with the fixed default seed; the asserted windows
are the stated tolerances, not recalibrated slack.
"""

import json
import time

import numpy as np
import pytest

from laealab import dynamics as dy
from laealab import snapshot
from laealab.config import ExperimentConfig
from laealab.elliptic import BcRegime
from laealab.geometry import DomainSpec, build_geometry
from laealab.samples import make_phi_sinusoidal, taylor_green_like
from laealab.suites import run_suite

RUNTIMES = {}


def _run(suite, ladder):
    cfg = ExperimentConfig.defaults()
    t0 = time.time()
    man = run_suite(cfg, suite, ladder)
    RUNTIMES[suite] = time.time() - t0
    print(f"{suite} results digest: {man.results_digest()}")
    return man


@pytest.fixture(scope="module")
def identities():
    return _run("identities", (16, 32, 64))


@pytest.fixture(scope="module")
def elliptic():
    return _run("elliptic", (16, 32, 64))


@pytest.fixture(scope="module")
def dynamics():
    return _run("dynamics", (16, 32, 64))


@pytest.fixture(scope="module")
def material():
    return _run("material", (16, 24, 32))


@pytest.fixture(scope="module")
def poisson():
    return _run("poisson", (16, 24, 32, 48))


def _entry(man, name):
    for r in man.results:
        if r.name == name:
            return r
    raise KeyError(name)


def _line(tag, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    return ok


# -- criterion 1: identity suite ---------------------------------------------

def test_criterion_1_identities(identities):
    ok = True
    for r in identities.results:
        if r.kind == "order":
            good = 1.5 <= r.value <= 2.5
            ok &= _line(f"identities/{r.name}", good,
                        f"fitted order {r.value:.3f} in [1.5, 2.5]")
        else:
            ok &= _line(f"identities/{r.name}", r.passed,
                        f"value {r.value:.3e} ({r.tolerance})")
    ok &= _line("identities/runtime", RUNTIMES["identities"] <= 120,
                f"{RUNTIMES['identities']:.1f}s <= 120s")
    assert ok


# -- criterion 2: elliptic suite ----------------------------------------------

def test_criterion_2_elliptic(elliptic):
    ok = True
    checks = [
        ("helmholtz_round_trip", 1e-10),
        ("projector_idempotent", 1e-8),
        ("projector_idempotent_all_regimes", 1e-8),
        ("projector_self_adjoint", 1e-8),
        ("projector_h1_orthogonality", 1e-8),
        ("leray_limit", 1e-8),
    ]
    for name, tol in checks:
        r = _entry(elliptic, name)
        ok &= _line(f"elliptic/{name}", r.value <= tol,
                    f"residual {r.value:.3e} <= {tol:g}")
    r = _entry(elliptic, "manufactured_solution")
    ok &= _line("elliptic/manufactured_solution", 1.5 <= r.value <= 2.5,
                f"fitted order {r.value:.3f} in [1.5, 2.5]")
    ok &= _line("elliptic/runtime", RUNTIMES["elliptic"] <= 180,
                f"{RUNTIMES['elliptic']:.1f}s <= 180s")
    assert ok


# -- criterion 3: dynamics suite ----------------------------------------------

def test_criterion_3_dynamics(dynamics):
    ok = True
    for name in ("quadratic_term_two_routes[torus]",
                 "quadratic_term_two_routes[channel]",
                 "momentum_form_residual"):
        r = _entry(dynamics, name)
        ok &= _line(f"dynamics/{name}", 1.5 <= r.value <= 2.5,
                    f"fitted order {r.value:.3f} in [1.5, 2.5]")
    r = _entry(dynamics, "energy_drift_dt_branch")
    ok &= _line("dynamics/energy_drift_dt_branch", 3.5 <= r.value <= 4.5,
                f"fitted dt-order {r.value:.3f} in [3.5, 4.5]")
    r = _entry(dynamics, "energy_floor_vs_h")
    ok &= _line("dynamics/energy_floor_vs_h", 1.5 <= r.value <= 2.5,
                f"fitted order {r.value:.3f} in [1.5, 2.5]")
    r = _entry(dynamics, "alpha_sweep_to_euler")
    ok &= _line("dynamics/alpha_sweep_to_euler", 1.7 <= r.value <= 2.3,
                f"fitted alpha-order {r.value:.3f} in [1.7, 2.3]")
    ok &= _line("dynamics/runtime", RUNTIMES["dynamics"] <= 300,
                f"{RUNTIMES['dynamics']:.1f}s <= 300s")
    assert ok


# -- criterion 4: material suite ------------------------------------------------

def test_criterion_4_material(material):
    ok = True
    r = _entry(material, "flow_map_commutes_with_right_translation")
    ok &= _line("material/commute_order", r.value >= 1.5,
                f"fitted order {r.value:.3f} >= 1.5")
    r = _entry(material, "commute_discrepancy_monotone")
    ok &= _line("material/commute_monotone", r.passed, r.tolerance)
    r = _entry(material, "volume_preservation_eigenfield")
    ok &= _line("material/volume_preservation", r.value <= 1e-6,
                f"distortion {r.value:.3e} <= 1e-6 (32^2, dt=1e-3, t in [0,0.2])")
    ok &= _line("material/runtime", RUNTIMES["material"] <= 300,
                f"{RUNTIMES['material']:.1f}s <= 300s")
    assert ok


# -- criterion 5: poisson suite --------------------------------------------------

def test_criterion_5_poisson(poisson):
    ok = True
    r = _entry(poisson, "bracket_antisymmetry")
    ok &= _line("poisson/antisymmetry", r.value == 0.0,
                f"bit-level residual {r.value}")
    r = _entry(poisson, "bracket_leibniz")
    ok &= _line("poisson/leibniz", r.passed,
                f"residual {r.value:.3e} ({r.tolerance})")
    for name in ("jacobi_identity[dirichlet]", "jacobi_identity[mixed]"):
        r = _entry(poisson, name)
        ok &= _line(f"poisson/{name}", 1.5 <= r.value <= 2.5,
                    f"fitted order {r.value:.3f} in [1.5, 2.5]")
    r = _entry(poisson, "bracket_derivative_vs_central_difference")
    ok &= _line("poisson/bracket_derivative", r.passed,
                f"finest-grid residual {r.value:.3e} ({r.tolerance})")
    r = _entry(poisson, "bracket_derivative_refines")
    ok &= _line("poisson/bracket_derivative_trend", r.passed, r.tolerance)
    r = _entry(poisson, "hamilton_equations")
    ok &= _line("poisson/hamilton_equations", r.value >= 2.0,
                f"fitted order {r.value:.3f} >= 2.0")
    r = _entry(poisson, "right_translation_poisson_map")
    ok &= _line("poisson/right_translation", r.passed, r.tolerance)
    r = _entry(poisson, "flow_poisson_map_16")
    ok &= _line("poisson/flow_map_16", r.value <= 5e-3,
                f"deviation {r.value:.3e} <= 5e-3 (16^2, t = 0.05)")
    r = _entry(poisson, "flow_poisson_map_trend")
    ok &= _line("poisson/flow_map_trend", r.passed, r.tolerance)
    ok &= _line("poisson/runtime", RUNTIMES["poisson"] <= 900,
                f"{RUNTIMES['poisson']:.1f}s <= 900s")
    assert ok


# -- criterion 6: determinism -----------------------------------------------------

def test_criterion_6_determinism(tmp_path):
    cfg = ExperimentConfig.from_text(
        "[lab]\nsuite = elliptic\nseed = 42\ngrid_ladder = 16,24\n")
    m1 = run_suite(cfg, "elliptic", (16, 24))
    m2 = run_suite(cfg, "elliptic", (16, 24))
    same = (json.dumps(m1.deterministic_payload(), sort_keys=True)
            == json.dumps(m2.deterministic_payload(), sort_keys=True))
    ok = _line("determinism/manifests", same,
               "identical config+seed gives bit-identical manifests")

    spec = DomainSpec("torus", 1.0, 1.0)
    geo = build_geometry(spec, 16, 16, make_phi_sinusoidal(0.1, 1, 1, 1, 1))
    c = dy.SolverConfig(alpha=0.3, dt=1e-2, t_end=1.0,
                        bc=BcRegime.from_domain(spec), cfl_factor=5.0)
    prob = dy.LaeProblem(geo, c)
    u0 = prob.sp.project(taylor_green_like(geo.grid, amp=0.3))
    single = dy.integrate(prob, dy.State(u0.copy(), 0.0), 1.0)
    half = dy.integrate(prob, dy.State(u0.copy(), 0.0), 0.5)
    snap = str(tmp_path / "mid.snap")
    snapshot.save(prob, half, snap)
    resumed = dy.integrate(prob, snapshot.resume(prob, snap), 1.0)
    bits = (np.array_equal(resumed.u.c1.data, single.u.c1.data)
            and np.array_equal(resumed.u.c2.data, single.u.c2.data))
    ok &= _line("determinism/snapshot_resume", bits,
                "resumed trajectory equals the single run bit for bit")
    assert ok


# -- entry names: each suite's entries, in order ------------------------------------

_IDENTITIES = ("def_integration_by_parts", "div_of_transport", "h1_vs_helmholtz_pairing",
               "l2_transport_antisymmetry", "transport_correction_identity",
               "transported_laplacian_split", "weitzenboeck")
ENTRY_NAMES = {
    "identities": [f"{name}[{tag}]" for tag in ("channel", "torus") for name in _IDENTITIES]
    + ["flat_curvature_exact_zero"],
    "elliptic": ["helmholtz_round_trip", "manufactured_solution", "projector_idempotent",
                 "projector_h1_orthogonality", "projector_self_adjoint",
                 "projector_idempotent_all_regimes", "leray_limit",
                 "orthogonality_defect_curved"],
    "dynamics": ["quadratic_term_two_routes[torus]", "quadratic_term_two_routes[channel]",
                 "momentum_form_residual", "energy_drift_dt_branch", "integrator_state_order",
                 "energy_drift_floor_24", "energy_floor_vs_h", "alpha_sweep_to_euler",
                 "configured_run_energy_drift", "configured_run_divergence"],
    "material": ["flow_map_commutes_with_right_translation", "commute_discrepancy_monotone",
                 "volume_preservation_eigenfield", "volume_distortion_generic",
                 "material_energy_conservation"],
    "poisson": ["bracket_antisymmetry", "bracket_leibniz", "jacobi_identity[dirichlet]",
                "jacobi_identity[mixed]", "bracket_derivative_vs_central_difference",
                "bracket_derivative_refines", "hamilton_equations",
                "right_translation_poisson_map", "right_translation_poisson_refinement",
                "flow_poisson_map_16", "flow_poisson_map_trend"],
}


def test_each_suite_gives_its_pinned_entries_in_order(identities, elliptic, dynamics,
                                                       material, poisson):
    runs = {"identities": identities, "elliptic": elliptic, "dynamics": dynamics,
            "material": material, "poisson": poisson}
    for suite, man in runs.items():
        assert [r.name for r in man.results] == ENTRY_NAMES[suite], suite


# SHA-256 of each suite's results on its acceptance ladder, as CHANGES.md
# records them; a change that moves one explains why there
RESULTS_DIGESTS = {
    "identities": "fc8aeecc96cfe40839060d0a3f650bbd73186d6f7717e4c8308379b682a23794",
    "elliptic": "f9b67df341ab6f75a268dd1eb34104e2682c56ea915766a2df9544d07f6aad09",
    "dynamics": "91441dce450e24c37b43045afd3be06b90ddd95e91fdb3a7107a9da57114d7ef",
    "material": "e702c5473239335af3a765bb6baccc3f42b9038ad84131e38a85e742594d86ad",
    "poisson": "a0fe23a51fd425cd4e07d92745df470e831b0e5aa24e41d54150d70dc904cdc0",
}


def test_each_suite_keeps_its_pinned_results_digest(identities, elliptic, dynamics,
                                                    material, poisson):
    runs = (identities, elliptic, dynamics, material, poisson)
    assert {man.suite: man.results_digest() for man in runs} == RESULTS_DIGESTS
