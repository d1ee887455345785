import inspect
import json
import os

import numpy as np
import pytest

from laealab import dynamics as dy
from laealab.cli import main as cli_main
from laealab.config import ConfigError, ExperimentConfig
from laealab.elliptic import BcRegime, EllipticOperator
from laealab.fields import VectorField
from laealab.geometry import DomainSpec, build_geometry
from laealab.manifest import bool_result
from laealab.orders import fit_order
from laealab.samples import make_phi_cosx, make_phi_sinusoidal
from laealab.snapshot import SnapshotError, read_snapshot, write_snapshot
from laealab import suites
from laealab.suites import Run, run_suite

CFG_TEXT = """
[lab]
suite = identities
seed = 77
grid_ladder = 16,24

[domain]
kind = channel
nx = 16
ny = 17
phi = cosx_siny:0.15,1
wall_roles = y0:dirichlet,yL:neumann

[solver]
alpha = 0.25

[run]
dt = 0.01
t_end = 0.1
"""


def test_config_parses_sections_and_types():
    cfg = ExperimentConfig.from_text(CFG_TEXT)
    assert cfg.seed == 77
    assert cfg.grid_ladder() == (16, 24)
    spec = cfg.domain_spec()
    assert spec.kind == "channel"
    assert spec.wall_roles == {"y0": "dirichlet", "yL": "neumann"}
    sc = cfg.solver_config()
    assert sc.bc.variant == "mixed"
    assert sc.alpha == 0.25 and sc.dt == 0.01


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("[lab]\nsuite = identities\nbogus = 1\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("[nosuchsection]\nx = 1\n")


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("[domain]\nkind = sphere\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("[domain]\nphi = nonsense\n")


@pytest.mark.parametrize("phi", ["sinusoidal:0.1,1", "cosx:abc,1", "cosx_siny:0.1,1.5"])
def test_a_malformed_phi_preset_is_a_config_error(phi, tmp_path, capsys):
    text = f"[domain]\nphi = {phi}\n"
    with pytest.raises(ConfigError, match=f"phi preset '{phi}'"):
        ExperimentConfig.from_text(text)
    cfgfile = tmp_path / "lab.cfg"
    cfgfile.write_text(text)
    err = _cli_usage_error(["run", "--config", str(cfgfile), "--out", str(tmp_path)], capsys)
    assert phi in err and "Traceback" not in err


@pytest.mark.parametrize("alpha", ["-0.1", "nan", "inf"])
def test_a_negative_or_non_finite_alpha_is_refused_at_load(alpha):
    with pytest.raises(ConfigError, match="alpha must be nonnegative and finite"):
        ExperimentConfig.from_text(f"[solver]\nalpha = {alpha}\n")
    spec = DomainSpec("torus", 1.0, 1.0)
    geo = build_geometry(spec, 8, 8, make_phi_sinusoidal(0.1, 1, 1, 1, 1))
    with pytest.raises(ValueError, match="alpha must be nonnegative and finite"):
        EllipticOperator(geo, float(alpha))


@pytest.mark.parametrize("key,value", [("dt", "nan"), ("dt", "-inf"), ("t_end", "inf"),
                                       ("cfl_factor", "nan"), ("cfl_factor", "-1")])
def test_a_non_finite_run_setting_is_refused_at_load(key, value, tmp_path, capsys):
    # refused before any suite runs, not inside dynamics.step_count or the CFL guard
    text, match = f"[run]\n{key} = {value}\n", f"{key} must be"
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_text(text).validate()
    cfgfile = tmp_path / "lab.cfg"
    cfgfile.write_text(text)
    err = _cli_usage_error(["run", "--config", str(cfgfile), "--out", str(tmp_path)], capsys)
    assert match in err and "Traceback" not in err


def test_config_rejects_a_bogus_wall_role():
    # the domain is built while validating, not first inside a suite
    with pytest.raises(ConfigError, match="bogus"):
        ExperimentConfig.from_text(
            CFG_TEXT.replace("yL:neumann", "yL:bogus"))


def test_config_rejects_a_bogus_initial_preset():
    for preset in ("bogus", "random_bandlimited:x"):
        with pytest.raises(ConfigError, match="initial preset"):
            ExperimentConfig.from_text(f"[initial]\npreset = {preset}\n")


def test_config_rejects_a_non_integer_diagnostics_interval():
    with pytest.raises(ConfigError, match="every_n_steps"):
        ExperimentConfig.from_text("[diagnostics]\nevery_n_steps = 2.5\n")


@pytest.mark.parametrize("text,match", [
    ("[domain]\nnx = 4\n", "nx = 4: need at least 8"),
    ("[domain]\nnx = 0\n", "nx = 0: need at least 8"),
    ("[domain]\nny = -3\n", "ny = -3: need at least 8"),
    ("[run]\nt_end = -0.1\n", "not reachable"),
    ("[run]\ndt = 0.003\nt_end = 0.1\n", "does not divide"),
    ("[diagnostics]\nevery_n_steps = 0\n", "every_n_steps = 0: need at least 1"),
    ("[diagnostics]\nevery_n_steps = -2\n", "every_n_steps = -2: need at least 1"),
    ("[lab]\noutput_dir =\n", "output_dir is empty"),
    # each loaded before: a seeded block then failed inside numpy, a NaN or
    # infinite length in a singular saddle, and each wall_roles value below
    # ran as pure Neumann, was dropped, or failed to unpack
    ("[lab]\nseed = -100\n", "seed = -100: need a nonnegative seed"),
    ("[domain]\nlx = nan\n", "lengths must be positive and finite, got Lx = nan"),
    ("[domain]\nlx = inf\n", "lengths must be positive and finite, got Lx = inf"),
    ("[domain]\nly = nan\n", "lengths must be positive and finite, got Lx = 1.0, Ly = nan"),
    ("[domain]\nkind = channel\nwall_roles = y0:dirichlet,yL:neumann,y0:neumann\n",
     "wall_roles names wall 'y0' twice"),
    ("[domain]\nwall_roles = y0:dirichlet,yL:neumann\n", "a torus has no walls"),
    ("[domain]\nkind = channel\nwall_roles = y0dirichlet,yL:neumann\n",
     "wall_roles item 'y0dirichlet': need wall:role"),
])
def test_a_value_a_run_cannot_use_is_refused_at_load(text, match, tmp_path, capsys):
    # each loaded before, and failed only inside configured_run or after the suite
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_text(text)
    cfgfile = tmp_path / "lab.cfg"
    cfgfile.write_text(text)
    err = _cli_usage_error(["run", "--config", str(cfgfile)], capsys)
    assert match in err and "Traceback" not in err


def test_an_unknown_suite_in_the_config_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # refused before any block runs, not as a ValueError traceback from run_suite
    ran = []
    monkeypatch.setattr(suites, "_guarded", lambda fn, run: ran.append(fn) or iter(()))
    cfgfile = tmp_path / "lab.cfg"
    cfgfile.write_text("[lab]\nsuite = bogus\n")
    err = _cli_usage_error(["run", "--config", str(cfgfile), "--out", str(tmp_path)], capsys)
    assert "unknown suite 'bogus'" in err and "Traceback" not in err
    assert not ran and not any(tmp_path.glob("manifest_*"))
    with pytest.raises(ConfigError, match="unknown suite"):
        run_suite(ExperimentConfig.defaults(), "bogus")


def test_config_parses_exactly_three_observables():
    for spec, match in (("linear:1,linear:2,bogus", "unknown observable"),
                        ("linear:1,quadratic:sharp,hamiltonian", "unknown observable"),
                        ("linear:1,linear:2", "exactly three"),
                        ("linear:1,linear:2,linear:3,hamiltonian", "exactly three")):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_text(f"[poisson]\nobservables = {spec}\n")
    cfg = ExperimentConfig.from_text(
        "[poisson]\nobservables = hamiltonian, quadratic:cutoff, linear:7\n")
    assert len(cfg.observables()) == 3


def test_config_rejects_the_removed_keys():
    # parsed and then ignored before; now unknown like any other key
    for sec, key, val in (("lab", "parallel", "false"),
                          ("solver", "method", "direct"),
                          ("solver", "linear_tol", "1e-12"),
                          ("material", "interp", "bicubic"),
                          ("material", "newton_tol", "1e-12"),
                          ("poisson", "flow_check_max_dim", "600")):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_text(f"[{sec}]\n{key} = {val}\n")


def test_phi_presets_are_shared_callables():
    cfg = ExperimentConfig.defaults()
    assert cfg.get("domain", "phi") == "sinusoidal:0.15,1,1"
    assert cfg.phi_function() is suites.DOMAINS["torus"][1]
    assert Run(cfg, (12,)).domains["config"] == suites.DOMAINS["torus"]
    assert cfg.phi_function() is ExperimentConfig.defaults().phi_function()


def test_env_override(monkeypatch):
    monkeypatch.setenv("LAEALAB_SOLVER__ALPHA", "0.125")
    cfg = ExperimentConfig.defaults()
    assert cfg.getfloat("solver", "alpha") == 0.125


def test_env_override_rejects_unknown(monkeypatch):
    monkeypatch.setenv("LAEALAB_SOLVER__BOGUS", "1")
    with pytest.raises(ConfigError):
        ExperimentConfig.defaults()


def test_env_override_rejects_a_name_without_section_and_key(monkeypatch):
    # one underscore is not <SECTION>__<KEY>: refused, not skipped
    monkeypatch.setenv("LAEALAB_SOLVER_ALPHA", "0.1")
    with pytest.raises(ConfigError, match="LAEALAB_SOLVER_ALPHA"):
        ExperimentConfig.defaults()


def test_initial_presets():
    from laealab.geometry import build_geometry
    cfg = ExperimentConfig.defaults()
    geo = build_geometry(cfg.domain_spec(), 16, 16, cfg.phi_function())
    for preset in ("eigenfield", "taylor_green_like", "random_bandlimited:5"):
        cfg.sections["initial"]["preset"] = preset
        u = cfg.initial_field(geo)
        assert np.isfinite(u.c1.data).all()


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def test_snapshot_round_trip_byte_exact(tmp_path):
    rng = np.random.default_rng(0)
    fields = {"u1": rng.normal(size=(12, 10)), "u2": rng.normal(size=(12, 10))}
    p1 = tmp_path / "a.snap"
    p2 = tmp_path / "b.snap"
    dom = {"kind": "torus", "Lx": 1.0, "Ly": 1.0}
    write_snapshot(p1, dom, 12, 10, 0.3, 0.5, fields)
    header, back = read_snapshot(p1)
    assert header["alpha"] == 0.3 and header["t"] == 0.5
    assert np.array_equal(back["u1"], fields["u1"])
    write_snapshot(p2, dom, 12, 10, 0.3, 0.5, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.snap"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(SnapshotError):
        read_snapshot(p)


def test_snapshot_rejects_truncation(tmp_path):
    p = tmp_path / "t.snap"
    fields = {"u1": np.zeros((8, 8))}
    write_snapshot(p, {"kind": "torus"}, 8, 8, 0.1, 0.0, fields)
    blob = p.read_bytes()
    p.write_bytes(blob[:-16])
    with pytest.raises(SnapshotError):
        read_snapshot(p)


def test_snapshot_rejects_trailing_bytes(tmp_path):
    p = tmp_path / "x.snap"
    write_snapshot(p, {"kind": "torus"}, 8, 8, 0.1, 0.0, {"u1": np.zeros((8, 8))})
    read_snapshot(p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(SnapshotError, match="trailing"):
        read_snapshot(p)


def _header_blob(**kw):
    return json.dumps({"domain": {}, "nx": 8, "ny": 8, "alpha": 0.1, "t": 0.0,
                       "fields": ["u1"], **kw}).encode()


@pytest.mark.parametrize(
    "blob", [b"{not json", b'{"nx": 8}', _header_blob(nx=-1)]
    + [_header_blob(t=t) for t in ("abc", float("nan"), True, None, [1])],
    ids=["not-json", "missing-keys", "negative-nx",
         "t-string", "t-nan", "t-bool", "t-null", "t-list"])
def test_snapshot_rejects_a_corrupt_header(tmp_path, blob):
    p = tmp_path / "h.snap"
    p.write_bytes(b"LAEALAB1" + len(blob).to_bytes(4, "little") + blob)
    with pytest.raises(SnapshotError, match="header"):
        read_snapshot(p)


def test_snapshot_dimension_mismatch(tmp_path):
    p = tmp_path / "d.snap"
    with pytest.raises(SnapshotError):
        write_snapshot(p, {"kind": "torus"}, 8, 8, 0.1, 0.0,
                       {"u1": np.zeros((4, 4))})


def test_resume_is_bit_exact(tmp_path):
    spec = DomainSpec("torus", 1.0, 1.0)
    bc = BcRegime.from_domain(spec)
    from laealab.geometry import build_geometry
    from laealab.samples import taylor_green_like
    geo = build_geometry(spec, 16, 16, make_phi_sinusoidal(0.1, 1, 1, 1, 1))
    cfg = dy.SolverConfig(alpha=0.3, dt=1e-2, t_end=1.0, bc=bc, cfl_factor=5.0)
    prob = dy.LaeProblem(geo, cfg)
    op0 = prob.sp
    u0 = op0.project(taylor_green_like(geo.grid, amp=0.3))

    single = dy.integrate(prob, dy.State(u0.copy(), 0.0), 1.0)

    half = dy.integrate(prob, dy.State(u0.copy(), 0.0), 0.5)
    snap = tmp_path / "mid.snap"
    write_snapshot(snap, {"kind": "torus", "Lx": 1.0, "Ly": 1.0}, 16, 16,
                   0.3, half.t, {"u1": half.u.c1.data, "u2": half.u.c2.data})
    header, fields = read_snapshot(snap)
    from laealab.fields import VectorField
    resumed_state = dy.State(
        VectorField.from_arrays(geo.grid, fields["u1"], fields["u2"]),
        header["t"])
    resumed = dy.integrate(prob, resumed_state, 1.0)
    assert np.array_equal(resumed.u.c1.data, single.u.c1.data)
    assert np.array_equal(resumed.u.c2.data, single.u.c2.data)


# ---------------------------------------------------------------------------
# manifests, determinism, CLI
# ---------------------------------------------------------------------------

def small_cfg():
    return ExperimentConfig.from_text("""
[lab]
suite = elliptic
seed = 42
grid_ladder = 16,24
""")


def test_manifest_deterministic_across_runs(tmp_path):
    cfg = small_cfg()
    m1 = run_suite(cfg, "elliptic", (16, 24))
    m2 = run_suite(cfg, "elliptic", (16, 24))
    p1 = json.dumps(m1.deterministic_payload(), sort_keys=True)
    p2 = json.dumps(m2.deterministic_payload(), sort_keys=True)
    assert p1 == p2


def test_failed_block_keeps_a_traceback_tail(monkeypatch):
    def inner():
        raise ValueError("boom")

    def block(run):
        """a block that raises"""
        inner()
        yield

    monkeypatch.setitem(suites.SUITES, "broken", [block])
    (entry,) = run_suite(small_cfg(), "broken", (8,)).results
    assert not entry.passed
    assert (entry.name, entry.identity) == ("block", "a block that raises")
    assert entry.note.startswith("error: ValueError: boom; at ")
    assert "test_lab.py:" in entry.note
    assert entry.note.index(" inner") < entry.note.index(" block")


def test_failed_block_keeps_the_entries_it_yielded(monkeypatch):
    def half_done(run):
        """a block that raises after one entry"""
        yield bool_result("first_fact", "the first fact", True, "true")
        raise ValueError("boom")

    monkeypatch.setitem(suites.SUITES, "broken", [half_done])
    first, failed = run_suite(small_cfg(), "broken", (8,)).results
    assert first.name == "first_fact" and first.passed
    assert failed.name == "half_done" and not failed.passed


def test_a_one_level_identities_ladder_fails_its_block_instead_of_raising():
    man = run_suite(ExperimentConfig.defaults(), "identities", (8,))
    failed = [r for r in man.results if not r.passed]
    assert [r.name for r in failed] == ["identity_ladder"]
    assert "need at least two ladder levels" in failed[0].note
    assert [r.name for r in man.results] == ["identity_ladder", "flat_curvature_exact_zero"]


def test_block_names_are_unique_and_no_suite_is_empty():
    blocks = [fn for fns in suites.SUITES.values() for fn in fns]
    names = [fn.__name__ for fn in blocks]
    assert len(names) == len(set(names))
    assert set(suites.SUITES) == {"identities", "elliptic", "dynamics", "material", "poisson"}
    assert all(suites.SUITES.values())
    assert all(inspect.getdoc(fn) for fn in blocks)       # the identity line


def test_cli_suite_choices_are_the_registry():
    from laealab.cli import build_parser
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    (suite,) = [a for a in sub.choices["run"]._actions if a.dest == "suite"]
    assert sorted(suite.choices) == sorted(suites.SUITES)


def test_a_block_run_alone_gives_its_suite_entries():
    cfg = small_cfg()
    whole = run_suite(cfg, "elliptic", (16, 24)).results
    for fn in suites.SUITES["elliptic"]:
        alone = list(fn(Run(cfg, (16, 24))))
        assert alone and all(r.passed for r in alone)
        assert [r for r in whole if r.name in {a.name for a in alone}] == alone


def test_run_builds_its_systems_at_the_run_alpha_with_the_blocks_cfl_factor():
    cfg = small_cfg()
    run = Run(cfg, (12,))
    prob = run.problem("mixed", 12, 5e-3, 0.05)
    assert prob.alpha == prob.cfg.alpha == run.alpha == cfg.getfloat("solver", "alpha")
    assert prob.bc == BcRegime.from_domain(suites.DOMAINS["mixed"][0])
    assert (prob.cfg.dt, prob.cfg.t_end) == (5e-3, 0.05)
    assert (prob.cfg.integrator, prob.cfg.cfl_factor) == ("rk4", 5.0)
    assert run.system("mixed", 12, alpha=0.0).alpha == 0.0


def test_each_domain_label_names_its_regime():
    for label, (spec, _) in suites.DOMAINS.items():
        variant = BcRegime.from_domain(spec).variant
        assert variant == ("noboundary" if label in ("torus", "flat") else label)
    # the torus is the regime with no walls
    assert BcRegime() == BcRegime.from_domain(suites.DOMAINS["torus"][0])
    assert not BcRegime().has_boundary
    assert BcRegime.from_domain(suites.DOMAINS["dirichlet"][0]).has_boundary
    assert set(suites.DOMAINS) == {"torus", "flat", "mixed", "dirichlet", "neumann"}
    assert suites.DOMAINS["mixed"][0].wall_roles == {"y0": "dirichlet", "yL": "neumann"}


def test_run_series_evaluates_each_level_in_ladder_order():
    run, seen = Run(small_cfg(), (8, 12)), []
    hs, values = run.series("dirichlet", lambda s: seen.append(s.geo) or s.geo.grid.ny)
    assert values == [9, 13] and hs == [g.grid.h for g in seen]
    assert seen[0] is run.geo("dirichlet", 8) and seen[1] is run.geo("dirichlet", 12)
    assert run.series("flat", lambda s: s.bc.variant, ns=(8,)) == ([1 / 8], ["noboundary"])


def test_the_commute_block_follows_the_run_ladder():
    run = Run(small_cfg(), (16, 24))
    first = next(suites.flow_map_commutes_with_right_translation(run))
    assert first.series_h == [run.geo("torus", n).grid.h for n in (16, 24)]


CHANNEL_RUN = """
[lab]
suite = dynamics

[domain]
kind = channel
nx = 16
ny = 17
phi = cosx_siny:0.15,1
wall_roles = y0:dirichlet,yL:neumann

[run]
t_end = 0.05
"""


def test_configured_run_starts_a_channel_march_on_the_walls(monkeypatch):
    # the state handed to the march satisfies the wall rows R of the regime,
    # not only the divergence that the step's guard checks
    handed = []
    real = dy.integrate

    def integrate(prob, state, *args, **kwargs):
        handed.append((prob, state.u.copy()))
        return real(prob, state, *args, **kwargs)

    monkeypatch.setattr(dy, "integrate", integrate)
    cfg = ExperimentConfig.from_text(CHANNEL_RUN)
    entries = list(suites.configured_run(Run(cfg, (16,))))
    assert entries and all(r.passed for r in entries)
    ((prob, u0),) = handed
    assert prob.bc == BcRegime.from_domain(suites.DOMAINS["mixed"][0])
    A, idx = prob.op.matrix(prob.bc)
    assert np.max(np.abs(A[idx] @ u0.flat())) <= 1e-12 * u0.linf()


def test_configured_run_passes_at_alpha_zero_on_a_channel():
    # alpha = 0 is only a coefficient: the projected state and every rhs
    # land in null([D; R]), so the march keeps the step's guard
    cfg = ExperimentConfig.from_text(CHANNEL_RUN + "\n[solver]\nalpha = 0\n")
    assert cfg.solver_config().alpha == 0.0
    entries = list(suites.configured_run(Run(cfg, (16,))))
    assert [r.name for r in entries] == ["configured_run_energy_drift",
                                         "configured_run_divergence"]
    assert all(r.passed for r in entries), entries


def test_manifest_written_with_series(tmp_path):
    cfg = small_cfg()
    man = run_suite(cfg, "elliptic", (16, 24))
    path = man.write(tmp_path)
    data = json.loads(open(path).read())
    assert data["suite"] == "elliptic"
    assert data["seed"] == 42
    assert any(r["series_h"] for r in data["results"])
    assert all(r["identity"] for r in data["results"])
    assert os.path.exists(os.path.join(tmp_path, "series_elliptic.csv"))


def test_cli_runs_and_exits_clean(tmp_path, capsys):
    cfgfile = tmp_path / "lab.cfg"
    cfgfile.write_text("[lab]\nsuite = elliptic\nseed = 42\ngrid_ladder = 16,24\n")
    rc = cli_main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all tests passed" in out
    assert (tmp_path / "out" / "manifest_elliptic.json").exists()


def test_cli_exits_1_when_an_entry_fails(tmp_path, capsys):
    # one ladder level fails every order fit
    rc = cli_main(["run", "--suite", "identities", "--grid-ladder", "8", "--out", str(tmp_path)])
    assert rc == 1
    assert "FAILURES present" in capsys.readouterr().out


def _cli_usage_error(argv, capsys):
    """The stderr of a CLI run that must stop with a usage error (exit 2)."""
    with pytest.raises(SystemExit) as stop:
        cli_main(argv)
    assert stop.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("phi, make", [
    ("sinusoidal:nan,1,1", lambda: make_phi_sinusoidal(np.nan, 1, 1, 1.0, 1.0)),
    ("sinusoidal:inf,1,1", lambda: make_phi_sinusoidal(np.inf, 1, 1, 1.0, 1.0)),
    ("cosx:1e400,1", lambda: make_phi_cosx(float("1e400"), 1, 1.0))],
    ids=["sinusoidal-nan", "sinusoidal-inf", "cosx-1e400"])
def test_a_non_finite_metric_is_refused_where_it_enters(phi, make):
    # refused at load, not late in the saddle factorization
    with pytest.raises(ConfigError, match=f"phi preset '{phi}'.*not finite"):
        ExperimentConfig.from_text(f"[domain]\nphi = {phi}\n")
    with pytest.raises(ValueError, match="phi samples are not finite"), \
            np.errstate(invalid="ignore"):
        build_geometry(DomainSpec("torus", 1.0, 1.0), 16, 16, make())


def test_a_repeated_ladder_size_is_refused(tmp_path, capsys):
    # one grid twice would fit an order from a rank-deficient lstsq
    with pytest.raises(ConfigError, match="repeats a size"):
        ExperimentConfig.from_text("[lab]\ngrid_ladder = 16,32,16\n")
    err = _cli_usage_error(["run", "--grid-ladder", "16,16", "--out", str(tmp_path)], capsys)
    assert "repeats a size" in err
    assert not any(tmp_path.iterdir())
    with pytest.raises(ValueError, match="distinct h"):
        fit_order([0.1, 0.1], [1e-3, 2e-3])


def test_cli_reports_a_malformed_ladder_as_a_usage_error(tmp_path, capsys):
    err = _cli_usage_error(["run", "--grid-ladder", "16,x", "--out", str(tmp_path)], capsys)
    assert "bad grid ladder '16,x'" in err and "Traceback" not in err


def test_a_ladder_below_the_grid_minimum_is_refused(tmp_path, capsys):
    with pytest.raises(ConfigError, match="at least 8"):
        ExperimentConfig.from_text("[lab]\ngrid_ladder = 16,4\n")
    err = _cli_usage_error(["run", "--grid-ladder", "0", "--out", str(tmp_path)], capsys)
    assert "at least 8" in err
    assert not any(tmp_path.iterdir())


def test_cli_reports_a_bad_config_as_a_usage_error(tmp_path, capsys):
    unknown, headless = tmp_path / "unknown.cfg", tmp_path / "headless.cfg"
    unknown.write_text("[lab]\nbogus = 1\n")
    headless.write_text("seed = 1\n")
    for path, what in ((unknown, "unknown key"), (headless, "malformed config"),
                       (tmp_path / "missing.cfg", "cannot read")):
        assert what in _cli_usage_error(["run", "--config", str(path)], capsys)


def test_cli_parses_a_ladder_as_the_config_does(tmp_path, monkeypatch):
    from laealab import cli
    from laealab.manifest import RunManifest
    seen = []

    def fake_run(cfg, suite, ladder):
        seen.append(ladder)
        return RunManifest("identities", {}, "0", 1, list(ladder))

    monkeypatch.setattr(cli, "run_suite", fake_run)
    assert cli_main(["run", "--grid-ladder", "16,,32", "--out", str(tmp_path)]) == 0
    assert seen == [(16, 32)]
    assert ExperimentConfig.from_text("[lab]\ngrid_ladder = 16,,32\n").grid_ladder() == (16, 32)


def test_cli_prints_the_results_digest_of_the_written_manifest(tmp_path, capsys):
    import hashlib
    cli_main(["run", "--suite", "identities", "--grid-ladder", "8", "--out", str(tmp_path)])
    printed = [line.split(": ")[1] for line in capsys.readouterr().out.splitlines()
               if line.startswith("results digest: ")]
    data = json.loads((tmp_path / "manifest_identities.json").read_text())
    results = json.dumps(data["results"], sort_keys=True).encode()
    assert printed == [hashlib.sha256(results).hexdigest()]
    assert set(data) == {"suite", "config_echo", "version", "seed", "grid_ladder",
                         "results", "timestamps", "threads"}


# ---------------------------------------------------------------------------
# resuming a snapshot into a problem
# ---------------------------------------------------------------------------

def _snap_problem(spec, nx=12, ny=12, alpha=0.3):
    from laealab.geometry import build_geometry
    geo = build_geometry(spec, nx, ny, make_phi_sinusoidal(0.1, 1, 1, 1, 1)
                         if spec.kind == "torus" else lambda x, y: 0.0 * x)
    cfg = dy.SolverConfig(alpha=alpha, dt=1e-2, t_end=1.0,
                          bc=BcRegime.from_domain(spec), cfl_factor=5.0)
    return dy.LaeProblem(geo, cfg)


def test_resume_returns_the_saved_state(tmp_path):
    from laealab import snapshot
    from laealab.samples import random_vector
    prob = _snap_problem(DomainSpec("channel", 1.0, 1.0,
                                    {"y0": "dirichlet", "yL": "neumann"}), ny=13)
    state = dy.State(random_vector(prob.geo.grid, seed=3), 0.25)
    snapshot.save(prob, state, tmp_path / "s.snap")
    back = snapshot.resume(prob, tmp_path / "s.snap")
    assert back.t == 0.25
    assert np.array_equal(back.u.c1.data, state.u.c1.data)
    assert np.array_equal(back.u.c2.data, state.u.c2.data)


TORUS_SPEC = DomainSpec("torus", 1.0, 1.0)


@pytest.mark.parametrize("other,what", [
    (lambda: _snap_problem(TORUS_SPEC, nx=16), "nx"),
    (lambda: _snap_problem(TORUS_SPEC, ny=16), "ny"),
    (lambda: _snap_problem(TORUS_SPEC, alpha=0.25), "alpha"),
    (lambda: _snap_problem(DomainSpec("torus", 2.0, 1.0)), "domain"),
    (lambda: _snap_problem(DomainSpec("channel", 1.0, 1.0,
                                      {"y0": "dirichlet", "yL": "dirichlet"})), "domain"),
])
def test_resume_rejects_a_snapshot_of_another_problem(tmp_path, other, what):
    from laealab import snapshot
    src = other()
    snapshot.save(src, dy.State(VectorField.zeros(src.geo.grid), 0.0), tmp_path / "s.snap")
    with pytest.raises(SnapshotError, match=f"snapshot {what} "):
        snapshot.resume(_snap_problem(TORUS_SPEC), tmp_path / "s.snap")


def test_resume_rejects_a_snapshot_of_another_metric(tmp_path):
    from laealab import snapshot
    from laealab.geometry import build_geometry
    curved = _snap_problem(TORUS_SPEC)
    snapshot.save(curved, dy.State(VectorField.zeros(curved.geo.grid), 0.0),
                  tmp_path / "s.snap")
    flat = dy.LaeProblem(build_geometry(TORUS_SPEC, 12, 12, lambda x, y: 0.0 * x),
                         curved.cfg)
    with pytest.raises(SnapshotError, match="snapshot domain "):
        snapshot.resume(flat, tmp_path / "s.snap")
    assert snapshot.resume(curved, tmp_path / "s.snap").t == 0.0


def test_resume_rejects_mismatched_wall_roles(tmp_path):
    from laealab import snapshot
    mixed = {"y0": "dirichlet", "yL": "neumann"}
    src = _snap_problem(DomainSpec("channel", 1.0, 1.0, mixed))
    snapshot.save(src, dy.State(VectorField.zeros(src.geo.grid), 0.0), tmp_path / "s.snap")
    flipped = _snap_problem(DomainSpec("channel", 1.0, 1.0,
                                       {"y0": "neumann", "yL": "dirichlet"}))
    with pytest.raises(SnapshotError, match="snapshot domain "):
        snapshot.resume(flipped, tmp_path / "s.snap")


def test_manifest_records_the_thread_settings_outside_the_payload(monkeypatch):
    from laealab.manifest import RunManifest, stamp
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    man = stamp(RunManifest("elliptic", {}, "0", 1, [16]))
    data = json.loads(man.to_json())
    assert data["threads"] == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": None,
                               "cpu_count": os.cpu_count()}
    assert "threads" not in man.deterministic_payload()
