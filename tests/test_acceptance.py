"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 1 checks closed-form levels that share their energy with no
other level one by one, and the E = -0.25 branch crossing of Scarf(9.75, 6)
as one defective pair: a Jordan block (exceptional point) at which Dirichlet
truncation splits the level, so that only the mean of the split eigenvalues
is a well-conditioned quantity (Kato, Perturbation Theory for Linear
Operators, II.1-2).  The README carries the analysis of the split.
"""

import functools
import math

import numpy as np

from sl2spectra import (
    Classification,
    Eigendata,
    Grid,
    MorseABSpec,
    PoschlTellerSpec,
    PotentialClass,
    RealizationParams,
    ScarfSpec,
    analyze,
    apply_ladder,
    energy_level,
    ground_state,
    residual,
    solve,
    verify_spectrum,
)
from sl2spectra.oracle import (
    DEFAULT_DECAY_GATE,
    DEFAULT_MATCH_TOL,
    MAX_DECAY_PROBES,
    banded_form,
    boundary_decay,
    match_levels,
)
from sl2spectra.spectrum import EigenLevel, enumerate_levels, scan_threshold


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                print(f"\n[acceptance] criterion {num}: FAIL ({desc}): {exc}")
                raise
            print(f"\n[acceptance] criterion {num}: PASS ({desc})")

        return wrapper

    return deco


def closed_energies_by_eps(spec):
    return {sol.epsilon: [lv.energy for lv in enumerate_levels(sol)] for sol in solve(spec)}


def decaying_group_error(eigendata, energy, k):
    """Mean of the k nearest decaying numeric eigenvalues, and its distance to energy.

    Probes the MAX_DECAY_PROBES eigenvalues nearest to energy in order of
    distance, as match_levels does for one level, and keeps the first k whose
    eigenvectors pass DEFAULT_DECAY_GATE; the k indices are distinct.  The
    distance is infinite when fewer than k probes pass.
    """
    order = np.argsort(np.abs(eigendata.values - energy))
    picked = []
    for idx in order[:MAX_DECAY_PROBES]:
        if boundary_decay(eigendata.vector(int(idx))) <= DEFAULT_DECAY_GATE:
            picked.append(int(idx))
            if len(picked) == k:
                break
    values = eigendata.values[picked]
    if len(picked) < k:
        return values, math.inf
    return values, abs(values.mean() - energy)


@criterion(1, "Scarf II real branch, levels + pinned oracle box [-15,15]x3000 + runtime")
def test_criterion_1_scarf_real_branch(scarf96_box15):
    levels = closed_energies_by_eps(scarf96_box15["spec"])
    assert np.allclose(levels[1], [-6.25, -2.25, -0.25], atol=1e-12)
    assert np.allclose(levels[-1], [-0.25], atol=1e-12)

    assert scarf96_box15["elapsed"] < 60.0, (
        f"oracle run took {scarf96_box15['elapsed']:.1f} s"
    )

    # closed rows with coincident energies form one group; at the E = -0.25
    # branch crossing the level is defective and the box splits it, so the
    # group is checked through the mean of its k split eigenvalues
    groups = []
    for row in scarf96_box15["report"].rows:
        for group in groups:
            if abs(group[0].e_closed - row.e_closed) <= 1e-12:
                group.append(row)
                break
        else:
            groups.append([row])
    assert sorted(len(g) for g in groups) == [1, 1, 2]

    eigendata = scarf96_box15["eigendata"]
    for group in groups:
        energy = group[0].e_closed
        if len(group) == 1:
            row = group[0]
            assert row.matched and row.abs_error <= 1e-3, (
                f"level {energy.real:g} (eps={row.epsilon}, n={row.n}): nearest "
                f"decaying eigenvalue {row.e_numeric.real:.8f}, abs_error "
                f"{row.abs_error:.3e} > 1e-3"
            )
            continue
        values, err = decaying_group_error(eigendata, energy, len(group))
        assert err <= 1e-3, (
            f"level {energy.real:g} shared by {len(group)} closed rows "
            f"{[(r.epsilon, r.n) for r in group]}: mean of the nearest decaying "
            f"eigenvalues {np.round(values, 8).tolist()} lies {err:.3e} from it, "
            "> 1e-3.  The branch series cross there and the level is defective; "
            "Dirichlet truncation moves each half ~2 exp(-L/2) from it, and only "
            "the mean of the split eigenvalues approximates the closed level."
        )

    # negative controls: the group check rejects a displaced crossing energy,
    # a pair offered as a triple, and the pair offered as a single row
    for energy, k in [(-0.248, 2), (-0.252, 2), (-0.25, 3), (-0.25, 1)]:
        values, err = decaying_group_error(eigendata, energy, k)
        assert err > 1e-3, f"control E={energy}, k={k} accepted: {values}, {err:.3e}"


@criterion(2, "Scarf II broken phase: conjugate pair, oracle match, edge decay")
def test_criterion_2_scarf_broken_phase():
    spec = ScarfSpec(0.0, 5.0)
    sq_p, sq_m = math.sqrt(5.25), math.sqrt(4.75)
    expected = {
        eps: -((0.5 * sq_p - 0.5 + 0.5j * eps * sq_m) ** 2) for eps in (1, -1)
    }
    levels = closed_energies_by_eps(spec)
    assert set(levels) == {1, -1}
    for eps in (1, -1):
        assert len(levels[eps]) == 1
        assert abs(levels[eps][0] - expected[eps]) < 1e-12
    assert abs(levels[1][0] - np.conj(levels[-1][0])) < 1e-12

    report = verify_spectrum(spec, tol=1e-3)
    assert report.all_matched
    for row in report.rows:
        assert row.abs_error <= 1e-3
        assert row.boundary_decay < 1e-4, (
            f"edge decay {row.boundary_decay:.2e} at {row.e_closed:.6g}"
        )


@criterion(3, "threshold scan at v1=1: flip brackets v2=1.25, series merge exactly")
def test_criterion_3_threshold_scan():
    rows = scan_threshold(ScarfSpec(1.0, 0.1), 0.1, 2.5, 0.05)
    flips = [
        (a, b) for a, b in zip(rows, rows[1:]) if a.classification is not b.classification
    ]
    assert len(flips) == 1
    below, above = flips[0]
    assert abs(below.swept_value - 1.25) < 1e-12
    assert abs(above.swept_value - 1.30) < 1e-12
    assert below.classification is Classification.ALL_REAL
    assert above.classification is Classification.BROKEN_CONJUGATE_PAIRS

    # at the threshold sample the two real series coincide level by level
    v2 = below.swept_value
    s = 1.0 + 0.25
    sq_p = math.sqrt(s + abs(v2))
    sq_m = math.sqrt(max(s - abs(v2), 0.0))
    for n in range(2):
        e_plus = -((0.5 * (sq_p + sq_m) - n - 0.5) ** 2)
        e_minus = -((0.5 * (sq_p - sq_m) - n - 0.5) ** 2)
        assert abs(e_plus - e_minus) <= 1e-12
    merged = solve(ScarfSpec(1.0, v2))
    assert len(merged) == 1


@criterion(4, "generalized Poschl-Teller: Scarf level multiset, contour independence")
def test_criterion_4_poschl_teller():
    scarf_levels = sorted(
        lv.energy.real for sol in solve(ScarfSpec(9.75, 6.0)) for lv in enumerate_levels(sol)
    )
    numeric = {}
    for gamma in (math.pi / 16, math.pi / 8):
        spec = PoschlTellerSpec(9.75, 6.0, c=0.0, contour_gamma=gamma)
        pt_levels = sorted(
            lv.energy.real for sol in solve(spec) for lv in enumerate_levels(sol)
        )
        assert np.allclose(pt_levels, scarf_levels, atol=1e-12)
        report = verify_spectrum(spec, tol=2e-3)
        assert report.all_matched, [r for r in report.rows if not r.matched]
        assert all(r.abs_error <= 2e-3 for r in report.rows)
        numeric[gamma] = [r.e_numeric for r in report.rows]
    for a, b in zip(numeric[math.pi / 16], numeric[math.pi / 8]):
        assert abs(a - b) <= 2e-3


@criterion(5, "Morse: pseudo-Hermitian lattice all real; generic case unpaired + oracle")
def test_criterion_5_morse():
    report = analyze(MorseABSpec(1.0, 1.0, 3.0, 3.0))
    all_levels = [lv.energy for _, levels in report.branches for lv in levels]
    assert len(all_levels) == 1
    assert abs(all_levels[0] - (-1.0)) < 1e-12
    assert report.classification is Classification.ALL_REAL

    for a in (0.5, 1.0, 2.0):
        for b in (0.5, 1.0, 2.0):
            for g in (2.0, 3.0, 5.0):
                rep = analyze(MorseABSpec(a, b, g, g))
                assert rep.classification is Classification.ALL_REAL, (a, b, g)

    generic = MorseABSpec(1.0, 1.0, 3.0, 5.0)
    rep = analyze(generic)
    assert rep.classification is Classification.COMPLEX_UNPAIRED
    levels = [lv.energy for _, ls in rep.branches for lv in ls]
    assert abs(levels[0] - (-2 - 1.5j)) < 1e-12
    assert abs(levels[1] - (-0.5j)) < 1e-12

    match = verify_spectrum(generic, tol=1e-3)
    assert match.all_matched
    for row in match.rows:
        assert row.abs_error <= 1e-3
        assert row.boundary_decay < DEFAULT_DECAY_GATE


@criterion(6, "property suites: ODE identities, round-trip, ladder, closure, order, control")
def test_criterion_6_property_suites(scarf96_box15):
    # coupled-equation identities, fourth-order numeric derivative, < 1e-6
    rng = np.random.default_rng(3)
    xs = np.linspace(-3.0, 3.0, 1201)

    def numdiff(f, x, h=1e-3):
        return (8 * (f(x + h) - f(x - h)) - (f(x + 2 * h) - f(x - 2 * h))) / (12 * h)

    for cls in (PotentialClass.I, PotentialClass.II, PotentialClass.III_UPPER):
        for _ in range(2):
            gamma = math.pi / 8 if cls is PotentialClass.II else 0.0
            r = RealizationParams(
                cls, c=0.0, gamma=gamma,
                b_re=rng.uniform(-2, 2), b_im=rng.uniform(-2, 2),
            )
            assert np.max(np.abs(numdiff(r.f, xs) - (1 - r.f(xs) ** 2))) < 1e-6, "ODE f"
            assert np.max(np.abs(numdiff(r.g, xs) + r.f(xs) * r.g(xs))) < 1e-6, "ODE g"

    # solver round trip reproduces the closed-form potential, < 1e-10
    for spec, xs_rt in [
        (ScarfSpec(9.75, 6.0), np.linspace(-10, 10, 401)),
        (PoschlTellerSpec(9.75, 6.0, 0.0, math.pi / 8), np.linspace(-10, 10, 401)),
        (MorseABSpec(1.0, 1.0, 3.0, 5.0), np.linspace(-3, 30, 401)),
    ]:
        for sol in solve(spec):
            dev = np.abs(sol.realization.potential(sol.m, xs_rt) - spec.potential(xs_rt))
            assert np.max(dev) < 1e-10, f"round trip {spec}"

    # ladder intertwining residual < 1e-5 in all three classes
    for cls, gamma, b, m, dom, n in [
        (PotentialClass.I, 0.0, 1j, 3.0, (-12, 12), 2401),
        (PotentialClass.II, math.pi / 8, 1 + 0j, 3.0, (-12, 12), 9601),
        (PotentialClass.III_UPPER, 0.0, 1 + 1j, 1.5, (-4, 30), 6801),
    ]:
        r = RealizationParams(cls, c=0.0, gamma=gamma, b_re=b.real, b_im=b.imag)
        xs_l = np.linspace(dom[0], dom[1], n)
        raised = apply_ladder(ground_state(r, m, xs_l), m, r)
        res = residual(raised, lambda x: r.potential(m + 1, x), energy_level(m, 0))
        assert res < 1e-5, f"intertwining {cls}"

    # conjugate-pair closure of the broken-phase multiset, < 1e-12
    energies = [lv.energy for _, levels in analyze(ScarfSpec(0.0, 5.0)).branches for lv in levels]
    assert max(min(abs(e - f.conjugate()) for f in energies) for e in energies) < 1e-12

    # fourth-order convergence: halving h shrinks level error by >= 8
    spec = ScarfSpec(9.75, 6.0)
    errors = {}
    for n_points in (751, 1501):  # h = 0.04 then h = 0.02 on [-15, 15]
        ab = banded_form(spec.potential, Grid(-15.0, 15.0, n_points))
        w = Eigendata.from_bands(ab, (-6.25, -2.25), DEFAULT_MATCH_TOL).values
        errors[n_points] = [
            abs(w[np.argmin(np.abs(w - e))] - e) for e in (-6.25, -2.25)
        ]
    for coarse, fine in zip(errors[751], errors[1501]):
        assert coarse / fine >= 8.0, f"convergence ratio {coarse / fine:.2f}"

    # negative control: an injected wrong level stays unmatched
    fake = [EigenLevel(n=0, energy=1.0 + 0j, epsilon=1)]
    control = match_levels(fake, scarf96_box15["eigendata"])
    assert not control.rows[0].matched
