"""Acceptance gate: every suite entry passes its own window.

The suites run once per module scope on their designated grid ladders with
the fixed default seed.  An entry's window is the one it states in its
manifest (suites.py is its only home), so the gate asserts each entry's
verdict, as `laealab run` exits on it, plus each suite's runtime bound.
Each entry prints one pass/fail line, and each suite its results digest
(pytest -s shows them).
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


def _line(tag, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    return ok


# -- verdicts: every entry of every suite within its own window -----------------

RUNTIME_BOUNDS = {"identities": 120, "elliptic": 180, "dynamics": 300, "material": 300,
                  "poisson": 900}


@pytest.mark.parametrize("suite", RUNTIME_BOUNDS)
def test_every_entry_passes_within_the_runtime_bound(suite, request):
    ok = True
    for r in request.getfixturevalue(suite).results:
        ok &= _line(f"{suite}/{r.name}", r.passed, f"value {r.value:.6g} ({r.tolerance})")
    ok &= _line(f"{suite}/runtime", RUNTIMES[suite] <= RUNTIME_BOUNDS[suite],
                f"{RUNTIMES[suite]:.1f}s <= {RUNTIME_BOUNDS[suite]}s")
    assert ok


# -- determinism -------------------------------------------------------------------

def test_suites_are_deterministic(tmp_path):
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
    "identities": "76b15dd80ef02b26241862a9c51cda9e89bd64c8fa03805e84351d075e9f5ef9",
    "elliptic": "e88f0ee46be7257acfd84423b5e5a0b11c138ed5b9e04eb461c1d5f38ffd992c",
    "dynamics": "1d383162bc62ec275aef09c094b0f33be780ac5e0c85b80a0e6fcd70e4f52583",
    "material": "f1ebd8fe850edcc0a4aa2a330c3005a0a473ae7c7c63fb2975b675d9e357492a",
    "poisson": "ba7b46a002a37033b35ed50123c45dc294d6419319701107e136b1c29b0df704",
}


def test_each_suite_keeps_its_pinned_results_digest(identities, elliptic, dynamics,
                                                    material, poisson):
    runs = (identities, elliptic, dynamics, material, poisson)
    assert {man.suite: man.results_digest() for man in runs} == RESULTS_DIGESTS
