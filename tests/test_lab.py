import json
import os

import numpy as np
import pytest

from laealab import dynamics as dy
from laealab.cli import main as cli_main
from laealab.config import ConfigError, ExperimentConfig
from laealab.elliptic import BcRegime
from laealab.geometry import DomainSpec
from laealab.samples import make_phi_sinusoidal
from laealab.snapshot import SnapshotError, read_snapshot, write_snapshot
from laealab.suites import run_suite

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
    assert cfg.bc_regime().variant == "mixed"
    sc = cfg.solver_config()
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


def test_env_override(monkeypatch):
    monkeypatch.setenv("LAEALAB_SOLVER__ALPHA", "0.125")
    cfg = ExperimentConfig.defaults()
    assert cfg.getfloat("solver", "alpha") == 0.125


def test_env_override_rejects_unknown(monkeypatch):
    monkeypatch.setenv("LAEALAB_SOLVER__BOGUS", "1")
    with pytest.raises(ConfigError):
        ExperimentConfig.defaults()


def test_initial_presets():
    cfg = ExperimentConfig.defaults()
    geo = cfg.build_geometry(16, 16)
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


def test_failed_block_keeps_a_traceback_tail():
    from laealab.suites import _guarded

    def inner():
        raise ValueError("boom")

    def block():
        inner()

    results = []
    _guarded(results, "broken", "a block that raises", block)
    (entry,) = results
    assert not entry.passed
    assert entry.note.startswith("error: ValueError: boom; at ")
    assert "test_lab.py:" in entry.note
    assert entry.note.index(" inner") < entry.note.index(" block")


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
