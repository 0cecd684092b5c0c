"""Shared fixtures; the expensive oracle runs are computed once per session."""

import time

import pytest
from hypothesis import settings

from sl2spectra import families, oracle, spectrum

# Property tests draw the same examples on every run and keep no example
# database in the working tree.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def scarf96_box15():
    """Scarf II (v1=9.75, v2=6) verified on the pinned box [-15, 15], N=3000.

    Returns the full pipeline pieces plus the wall-clock time of the oracle
    run, so the acceptance suite can assert on runtime without recomputing.
    """
    spec = families.ScarfSpec(9.75, 6.0)
    grid = oracle.Grid(-15.0, 15.0, 3000)
    t0 = time.perf_counter()
    branches = families.solve(spec)
    closed = [lv for sol in branches for lv in spectrum.enumerate_levels(sol)]
    # the eigenvalues within 5e-3 of each level: the window the split tests
    # read, which holds the E = -0.25 split pair (1.07e-3 from -0.25)
    ab = oracle.banded_form(spec.potential, grid)
    eigendata = oracle.Eigendata.from_bands(ab, [lv.energy for lv in closed], 5e-3)
    report = oracle.match_levels(closed, eigendata)
    elapsed = time.perf_counter() - t0
    return {
        "spec": spec,
        "grid": grid,
        "closed": closed,
        "eigendata": eigendata,
        "report": report,
        "elapsed": elapsed,
    }
