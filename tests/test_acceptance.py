"""Acceptance gate: every criterion of the verification matrix must hold at
its stated tolerance.  The canonical sweep runs once per session; each test
asserts one criterion and prints its PASS/FAIL line."""

import json
import math
import os
from types import SimpleNamespace

import pytest

from neckflow.acceptance import (FULL_SPACE_CASE, canonical_spec,
                                 criterion_symmetry, run_acceptance)


@pytest.fixture(scope="session")
def acceptance(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("acceptance"))
    results = run_acceptance(out, workers=1, seed=0)
    return {r.index: r for r in results}, out


def _check(acceptance, index):
    results, _ = acceptance
    r = results[index]
    print(r.line())
    assert r.passed, r.line()


def test_criterion_01_manufactured_solution(acceptance):
    _check(acceptance, 1)


def test_criterion_02_kkt_zero_flux(acceptance):
    _check(acceptance, 2)


def test_criterion_03_potential_bounds(acceptance):
    _check(acceptance, 3)


def test_criterion_04_symmetry_and_positive_flux(acceptance):
    _check(acceptance, 4)


def test_criterion_04_fails_on_a_corrupted_row(acceptance):
    # the sweep's rows are odd by construction; the full-space solve of
    # FULL_SPACE_CASE still catches a row whose U1 is off
    _, out = acceptance
    data = json.loads(open(os.path.join(out, "sweep", "report.json")).read())
    report = SimpleNamespace(rows=data["rows"], spec=data["spec"],
                             fits={float(p): f
                                   for p, f in data["fits"].items()})
    geom = canonical_spec().resolved_geometry()
    assert criterion_symmetry(report, geom).passed
    row = next(r for r in report.rows
               if (r["p"], r["eps"]) == FULL_SPACE_CASE)
    row["U1"], row["U2"] = row["U1"] + 1e-4, row["U2"] - 1e-4
    result = criterion_symmetry(report, geom)
    assert not result.passed
    assert "max |U1+U2| = 0.00e+00" in result.detail
    assert "|U1 - row U1| = 1.00e-04" in result.detail


def test_criterion_05_blowup_slopes(acceptance):
    _check(acceptance, 5)


def test_criterion_06_ugap_limit(acceptance):
    _check(acceptance, 6)


def test_criterion_07_sub_branch(acceptance):
    _check(acceptance, 7)


def test_criterion_08_neck_integral_oracle(acceptance):
    _check(acceptance, 8)


def test_criterion_09_exponential_decay(acceptance):
    _check(acceptance, 9)


def test_criterion_10_expansion_pointwise(acceptance):
    _check(acceptance, 10)


def test_criterion_11_holder_boundedness(acceptance):
    _check(acceptance, 11)


def test_criterion_12_property_suite(acceptance):
    _check(acceptance, 12)


def test_canonical_sweep_bookkeeping(acceptance):
    _, out = acceptance
    report = json.loads(open(os.path.join(out, "sweep", "report.json")).read())
    assert len(report["rows"]) == 15
    fits = report["fits"]
    assert len(fits) == 3
    for p in ("1.3", "2.0", "3.0"):
        assert fits[p]["slope_fit"]["status"] == "ok"
        assert not math.isnan(fits[p]["slope_fit"]["slope"])
        assert not fits[p]["flux_extrapolation"]["fallback"]
    # the gap-implied flux of the odd symmetric fixture is positive on the
    # flux-carrying branches
    for p in ("2.0", "3.0"):
        assert fits[p]["ugap_fit"]["flux_implied"] > 0
        assert fits[p]["ugap_fit"]["extrapolated"]
    assert report["failures"] == []
    # odd data on a mirror-symmetric mesh: every case is odd-reduced
    assert all(r["odd_reduced"] for r in report["rows"])
    assert len({(r["eps"], r["n_dofs"]) for r in report["rows"]}) == 5


def test_transverse_component_small_in_expansion_region(acceptance):
    # at the neck center the leading order is purely vertical: for every
    # solved case with eps <= 1e-3 the transverse/vertical ratio is <= 0.1
    _, out = acceptance
    report = json.loads(open(os.path.join(out, "sweep", "report.json")).read())
    checked = 0
    for row in report["rows"]:
        if row["eps"] > 1e-3:
            continue
        probe = next(pr for pr in row["probes"] if pr["xprime"] == 0.0)
        assert abs(probe["grad_x"] / probe["grad_n"]) <= 0.1
        checked += 1
    assert checked == 9  # 3 exponents x 3 separations


def test_acceptance_artifacts_written(acceptance):
    _, out = acceptance
    assert os.path.exists(os.path.join(out, "acceptance.json"))
    lines = open(os.path.join(out, "acceptance.txt")).read().splitlines()
    assert len(lines) == 12
    assert all(ln.startswith("[") for ln in lines)
