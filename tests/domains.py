"""The lab's domain table, suites.DOMAINS, as the tests' domains and geometries.

The specs and phi callables are DOMAINS' own (the phi presets are memoized),
so the tests build their geometries on the suites' domains and metrics.
"""

from laealab.geometry import build_geometry
from laealab.suites import DOMAINS

TORUS, PHI_T = DOMAINS["torus"]
MIXED, PHI_C = DOMAINS["mixed"]
DIRICH, NEUMANN = DOMAINS["dirichlet"][0], DOMAINS["neumann"][0]
REGIMES = {"mixed": MIXED, "dirichlet": DIRICH, "neumann": NEUMANN}   # the channel regimes


def torus(n, phi=PHI_T):
    """The n x n torus."""
    return build_geometry(TORUS, n, n, phi)


def channel(n, spec=MIXED, phi=PHI_C):
    """The n x (n + 1) channel of spec, mixed walls by default."""
    return build_geometry(spec, n, n + 1, phi)
