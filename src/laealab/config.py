"""Experiment configuration: flat-key sectioned text files.

The format is INI-like (section headers, key = value), diffable and free of
schema machinery.  Unknown sections or keys are rejected.  Any key can be
overridden from the environment as LAEALAB_<SECTION>__<KEY> (case
insensitive), e.g. LAEALAB_SOLVER__ALPHA=0.1; any other LAEALAB_ variable
is a ConfigError.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field
from functools import partial

from . import poisson as po
from .dynamics import SolverConfig, step_count
from .elliptic import BcRegime
from .geometry import DomainSpec, Geometry
from .grid import MIN_NODES
from .samples import (eigenfield, make_phi_cosx, make_phi_cosx_siny,
                      make_phi_sinusoidal, phi_flat, random_vector,
                      taylor_green_like)

ENV_PREFIX = "LAEALAB_"

# every known section and key, with its default; no other parses
_DEFAULTS = {
    "lab": {"suite": "identities", "output_dir": "lab_out", "seed": "1234",
            "grid_ladder": "16,32,64"},
    "domain": {"kind": "torus", "lx": "1.0", "ly": "1.0", "nx": "32",
               "ny": "32", "phi": "sinusoidal:0.15,1,1", "wall_roles": ""},
    "solver": {"alpha": "0.3"},
    "run": {"dt": "0.005", "t_end": "0.1", "integrator": "rk4",
            "cfl_factor": "0.5"},
    "diagnostics": {"every_n_steps": "1"},
    "initial": {"preset": "taylor_green_like"},
    "poisson": {"observables": "linear:101,linear:102,quadratic:smooth"},
}


class ConfigError(ValueError):
    pass


def parse_grid_ladder(raw: str) -> tuple:
    """The sizes of a comma-separated ladder, empty items skipped; ConfigError
    unless there is one or more, each is at least the grid's minimum and none
    repeats."""
    try:
        ladder = tuple(int(x) for x in raw.split(",") if x.strip())
    except ValueError:
        raise ConfigError(f"bad grid ladder {raw!r}") from None
    if not ladder or min(ladder) < MIN_NODES:
        raise ConfigError(f"grid ladder {raw!r}: need sizes of at least {MIN_NODES}")
    if len(set(ladder)) != len(ladder):
        raise ConfigError(f"grid ladder {raw!r} repeats a size")
    return ladder


@dataclass
class ExperimentConfig:
    sections: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                return cls.from_text(fh.read())
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from None

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as e:
            raise ConfigError(f"malformed config: {e}") from None
        return cls._build(parser)

    @classmethod
    def defaults(cls) -> "ExperimentConfig":
        return cls._build(configparser.ConfigParser())

    @classmethod
    def _build(cls, parser) -> "ExperimentConfig":
        sections = {name: dict(values) for name, values in _DEFAULTS.items()}
        for sec in parser.sections():
            key = sec.lower()
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown config section [{sec}]")
            for k, v in parser.items(sec):
                if k.lower() not in _DEFAULTS[key]:
                    raise ConfigError(f"unknown key {k!r} in section [{sec}]")
                sections[key][k.lower()] = v
        cfg = cls(sections)
        cfg._apply_env()
        cfg.validate()
        return cfg

    def _apply_env(self):
        for name, value in os.environ.items():
            if not name.startswith(ENV_PREFIX):
                continue
            sec, _, key = name[len(ENV_PREFIX):].lower().partition("__")
            if sec not in _DEFAULTS or key not in _DEFAULTS[sec]:
                raise ConfigError(f"unknown env override {name}")
            self.sections[sec][key] = value

    # -- typed access ---------------------------------------------------------

    def get(self, sec: str, key: str) -> str:
        return self.sections[sec][key]

    def getfloat(self, sec: str, key: str) -> float:
        return self._typed(float, sec, key)

    def getint(self, sec: str, key: str) -> int:
        return self._typed(int, sec, key)

    def _typed(self, kind, sec: str, key: str):
        raw = self.get(sec, key)
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError(f"[{sec}] {key} = {raw!r} is not a valid {kind.__name__}") from None

    def validate(self):
        """Parse every key a run reads, check the values a run needs and
        build what the config describes."""
        self.phi_function()
        self.grid_ladder()
        self.initial_maker()
        self.observables()
        if self.seed < 0:
            raise ConfigError(f"[lab] seed = {self.seed}: need a nonnegative seed")
        if not self.get("lab", "output_dir"):
            raise ConfigError("[lab] output_dir is empty")
        for key in ("nx", "ny"):
            if self.getint("domain", key) < MIN_NODES:
                raise ConfigError(f"[domain] {key} = {self.get('domain', key)}: "
                                  f"need at least {MIN_NODES}")
        if self.getint("diagnostics", "every_n_steps") < 1:
            raise ConfigError("[diagnostics] every_n_steps = "
                              f"{self.get('diagnostics', 'every_n_steps')}: need at least 1")
        try:
            sc = self.solver_config()
            step_count(0.0, sc.t_end, sc.dt)
        except ValueError as e:
            raise ConfigError(str(e)) from e

    # -- derived objects ------------------------------------------------------

    @property
    def seed(self) -> int:
        return self.getint("lab", "seed")

    def grid_ladder(self):
        return parse_grid_ladder(self.get("lab", "grid_ladder"))

    def domain_spec(self) -> DomainSpec:
        kind, raw = self.get("domain", "kind"), self.get("domain", "wall_roles")
        roles = None
        if kind == "channel":
            roles = {}
            for item in (raw or "y0:dirichlet,yL:neumann").split(","):
                w, sep, r = (x.strip() for x in item.partition(":"))
                if not sep:
                    raise ConfigError(f"[domain] wall_roles item {item.strip()!r}: need wall:role")
                if w in roles:
                    raise ConfigError(f"[domain] wall_roles names wall {w!r} twice")
                roles[w] = r
        elif raw:
            raise ConfigError(f"[domain] wall_roles = {raw!r}: a torus has no walls")
        return DomainSpec(kind, self.getfloat("domain", "lx"),
                          self.getfloat("domain", "ly"), roles)

    def phi_function(self):
        spec = self.get("domain", "phi")
        Lx = self.getfloat("domain", "lx")
        Ly = self.getfloat("domain", "ly")
        if spec == "flat":
            return phi_flat
        kind, _, args = spec.partition(":")

        def amplitude(raw):
            amp = float(raw)
            if not math.isfinite(amp):
                raise ValueError(f"amplitude {amp} is not finite")
            return amp
        try:
            if kind == "sinusoidal":
                amp, kx, ky = args.split(",")
                return make_phi_sinusoidal(amplitude(amp), int(kx), int(ky), Lx, Ly)
            if kind == "cosx":
                amp, k = args.split(",")
                return make_phi_cosx(amplitude(amp), int(k), Lx)
            if kind == "cosx_siny":
                amp, k = args.split(",")
                return make_phi_cosx_siny(amplitude(amp), int(k), Lx, Ly)
        except ValueError as e:
            raise ConfigError(f"malformed phi preset {spec!r}: {e}") from None
        raise ConfigError(f"unknown phi preset {spec!r}")

    def solver_config(self) -> SolverConfig:
        return SolverConfig(alpha=self.getfloat("solver", "alpha"),
                            dt=self.getfloat("run", "dt"),
                            t_end=self.getfloat("run", "t_end"),
                            integrator=self.get("run", "integrator"),
                            bc=BcRegime.from_domain(self.domain_spec()),
                            cfl_factor=self.getfloat("run", "cfl_factor"))

    def initial_maker(self):
        """The maker grid -> VectorField that initial.preset names."""
        spec = self.get("initial", "preset")
        kind, _, arg = spec.partition(":")
        if spec == "eigenfield":
            return partial(eigenfield, amp=0.8)
        if spec == "taylor_green_like":
            return partial(taylor_green_like, amp=0.5)
        if kind == "random_bandlimited" and arg.strip().isdigit():
            return partial(random_vector, seed=int(arg), kmax=2, amp=0.5)
        raise ConfigError(f"unknown initial preset {spec!r}")

    def initial_field(self, geo: Geometry):
        return self.initial_maker()(geo.grid)

    def observables(self):
        """Three makers System -> Observable that poisson.observables names.

        Items: linear:<seed>, quadratic:<kind> (poisson.QUADRATIC_KINDS) and
        hamiltonian, comma-separated.
        """
        makers = []
        for item in self.get("poisson", "observables").split(","):
            kind, _, arg = item.strip().partition(":")
            if kind == "linear" and arg.strip().isdigit():
                makers.append(partial(po.LinearObservable.seeded, seed=int(arg)))
            elif kind == "quadratic" and arg.strip() in po.QUADRATIC_KINDS:
                makers.append(partial(po.QuadraticObservable, kind=arg.strip()))
            elif item.strip() == "hamiltonian":
                makers.append(po.HamiltonianObservable)
            else:
                raise ConfigError(f"unknown observable {item.strip()!r}")
        if len(makers) != 3:
            raise ConfigError(f"poisson observables: need exactly three, got {len(makers)}")
        return makers

    def echo(self) -> dict:
        return {sec: dict(sorted(vals.items()))
                for sec, vals in sorted(self.sections.items())}
