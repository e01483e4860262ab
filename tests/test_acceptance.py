"""Acceptance gate: every criterion of the verification matrix must hold at
its stated tolerance.  The canonical sweep runs once per session; each test
asserts one criterion and prints its PASS/FAIL line."""

import json
import logging
import math
import os
from types import SimpleNamespace

import pytest

from neckflow import acceptance as acc
from neckflow import harness, meshing
from neckflow.acceptance import (FULL_SPACE_CASE, SENSES, Check,
                                 CriterionResult, canonical_spec,
                                 criterion_symmetry, run_acceptance)


@pytest.fixture(scope="session")
def acceptance(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("acceptance"))
    results = run_acceptance(out, seed=0)
    return {r.index: r for r in results}, out


def _report(out):
    """The session sweep's report, read back from report.json, with the
    spec that ran it."""
    data = json.loads(open(os.path.join(out, "sweep", "report.json")).read())
    spec = canonical_spec(out_dir=os.path.join(out, "sweep"))
    assert json.loads(json.dumps(spec.meta())) == data["spec"]
    return SimpleNamespace(rows=data["rows"], spec=spec,
                           predictions=data["predictions"],
                           runtime_s=data["runtime_s"],
                           fits={float(p): f for p, f in data["fits"].items()})


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
    report = _report(out)
    geom = canonical_spec().resolved_geometry()
    assert criterion_symmetry(report, geom).passed
    row = next(r for r in report.rows
               if (r["p"], r["eps"]) == FULL_SPACE_CASE)
    row["U1"], row["U2"] = row["U1"] + 1e-4, row["U2"] - 1e-4
    result = criterion_symmetry(report, geom)
    assert not result.passed
    failed = [c for c in result.checks if not c.passed]
    assert len(failed) == 1 and failed[0].name.endswith("|U1 - row U1|")
    assert failed[0].value == pytest.approx(1e-4, rel=1e-9)
    lo, hi = geom.phi_range()
    assert failed[0].gate == 1e-6 * (hi - lo)
    assert result.checks[0].name == "max |U1+U2|"
    assert result.checks[0].value == 0.0 and result.checks[0].passed


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


def test_criterion_10_shows_the_sub_branch_against_the_gap_limit(
        acceptance):
    # ungated: the p = 1.3 probe against the extrapolated gap limit is off
    # by about 0.1 at eps = 1e-4, where the same-separation prediction is
    # exact to 1e-4
    results, _ = acceptance
    checks = {c.name: c for c in results[10].checks}
    shown = checks["p=1.3 rel vs gap limit"]
    assert (shown.gate, shown.sense) == (None, None)
    assert shown.text() in results[10].line()
    assert checks["p=1.3 rel"].value < 1e-4 < 0.05 < shown.value < 0.2


def test_leave_one_out_fallbacks_are_shown(acceptance):
    # ungated, next to the range: at seed 0 the p=2 refits without r=0.25
    # and without r=0.2 fall back, so the p=2 range comes from 2 of its 4
    # refits
    results, out = acceptance
    fits = _report(out).fits
    shown = []
    for index, p in ((6, 2.0), (7, 1.3)):
        (check,) = [c for c in results[index].checks
                    if c.name == f"p={p:g} F_inf leave-one-out fallbacks"]
        assert (check.gate, check.sense) == (None, None)
        assert check.value == fits[p]["flux_extrapolation"]["loo_fallbacks"]
        shown.append(check.value)
    assert shown == [2, 0]


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


def test_meshes_below_the_quality_gate_are_warned(acceptance, monkeypatch,
                                                  caplog):
    # the canonical meshes pass the gate, so the report has no warning; with
    # the gate above their angles every separation is named and logged
    _, out = acceptance
    report = json.loads(open(os.path.join(out, "sweep", "report.json")).read())
    assert report["warnings"] == []
    angles = {r["eps"]: r["min_angle_deg"] for r in report["rows"]}
    assert min(angles.values()) >= meshing.MIN_ANGLE_DEG
    monkeypatch.setattr(meshing, "MIN_ANGLE_DEG", max(angles.values()) + 1.0)
    with caplog.at_level(logging.WARNING, logger="neckflow"):
        warned = harness.mesh_warnings(report["rows"])
    assert [(w["eps"], w["min_angle_deg"]) for w in warned] == \
        sorted(angles.items(), reverse=True)
    assert [r.getMessage() for r in caplog.records] == \
        [w["message"] for w in warned]


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
    results, out = acceptance
    lines = open(os.path.join(out, "acceptance.txt")).read().splitlines()
    assert lines == [results[i].line() for i in range(1, 13)]
    data = json.loads(open(os.path.join(out, "acceptance.json")).read())
    assert [d["index"] for d in data] == list(range(1, 13))
    for d in data:
        r = results[d["index"]]
        assert (d["name"], d["passed"], d["error"]) == (r.name, r.passed, None)
        assert len(d["checks"]) == len(r.checks)
        for c, check in zip(d["checks"], r.checks):
            assert set(c) == {"name", "value", "gate", "sense", "fmt",
                              "passed"}
            assert (c["name"], c["value"], c["gate"], c["sense"]) == (
                check.name, check.value, check.gate, check.sense)
            assert c["passed"] is check.passed
            assert (c["gate"] is None) == (c["sense"] is None)
        # every gated value is printed next to its gate
        for check in r.checks:
            assert check.text() in r.line()
            if check.gate is not None:
                assert f"{check.sense} {check.gate:{check.fmt}}" in \
                    check.text()


@pytest.mark.parametrize("sense", sorted(SENSES))
def test_nan_fails_under_every_sense(sense):
    assert not Check("x", math.nan, sense, 1.0).passed
    assert not Check("x", math.nan, sense, math.nan).passed
    assert Check("x", 1.0, sense, 1.0).passed == (sense in ("<=", ">=", "=="))
    result = CriterionResult(1, "a", [Check("y", 0.0, "<=", 1.0),
                                      Check("x", math.nan, sense, 1.0)])
    assert not result.passed
    assert result.line().endswith("x nan " + sense + " 1.000 FAILED")


def test_ungated_values_are_shown_not_gated():
    shown = Check("slope", -0.508)
    assert shown.passed and shown.text() == "slope -0.508"
    assert CriterionResult(5, "a", [shown, Check("t", 4, "<", 9, "d")]
                           ).line() == "[PASS]  5. a: slope -0.508; t 4 < 9"


def test_a_criterion_that_raises_fails_on_its_own(acceptance, tmp_path,
                                                   monkeypatch):
    # a failed case leaves no row, fit, prediction or solution file: every
    # criterion reading one fails, naming the exception, and the matrix is
    # still run and written
    _, out = acceptance
    report = _report(out)
    report.rows = [r for r in report.rows if r["p"] != 1.3]
    report.fits.pop(1.3)
    monkeypatch.setattr(acc, "run_sweep", lambda spec: report)
    cheap = {"criterion_manufactured": 1, "criterion_oracle": 8,
             "criterion_decay": 9}
    for name, index in cheap.items():
        monkeypatch.setattr(acc, name, lambda index=index:
                            CriterionResult(index, "stub", [Check("x", 0, "<=",
                                                                  1, "d")]))
    results = run_acceptance(str(tmp_path), seed=0)
    by_index = {r.index: r for r in results}
    assert len(results) == 12
    assert by_index[4].error == "StopIteration: "
    assert by_index[5].error == by_index[7].error == "KeyError: 1.3"
    assert by_index[11].error.startswith("FileNotFoundError: ")
    for index in (4, 5, 7, 11):
        assert not by_index[index].passed and not by_index[index].checks
        assert by_index[index].line().endswith(": " + by_index[index].error)
    assert by_index[2].passed and by_index[6].passed
    lines = open(tmp_path / "acceptance.txt").read().splitlines()
    assert lines == [r.line() for r in results]
    data = json.loads(open(tmp_path / "acceptance.json").read())
    assert data[3]["error"] == "StopIteration: " and not data[3]["passed"]


def test_later_separations_start_from_the_previous_one(acceptance):
    # with every p != 2 solve started from the p = 2 solution, the canonical
    # sweep took 168 Newton steps and 40 factorizations at seed 0
    rows = _report(acceptance[1]).rows
    first = max(r["eps"] for r in rows)
    assert [r["start"] for r in rows] == [
        "previous separation" if r["p"] != 2.0 and r["eps"] != first
        else "p2" for r in rows]
    assert sum(r["newton_iters"] for r in rows) <= 115
    assert sum(r["factorizations"] for r in rows) < 40
