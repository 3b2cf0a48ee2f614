"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in captured
output) and asserts the criterion verdict.  The area-feasibility chain
is checked in its repaired form, disc <= repaired <= exact, where the
comparison half-ellipse is clipped to D(1-h).  The printed middle
inequality is false for 1-h < t^2; its counterexample (t=0.9, h=0.95)
stays pinned by test_area_feasibility_middle_inequality_fails_in_corner
in test_bounds.py.
"""

import pytest

from symcap import verify


def _report(item):
    status = "PASS" if item["passed"] else "FAIL"
    print(f"[{status}] criterion {item['name']}: measured={item['measured']} "
          f"tolerance={item['tolerance']} {item['detail']}")
    return item


def test_criterion_01_ball_normalization():
    item = _report(verify.criterion_1_normalization(seed=0))
    assert item["passed"], item
    assert item["seconds"] < 30.0


def test_criterion_02_ellipsoid_oracle():
    item = _report(verify.criterion_2_ellipsoid_oracle(seed=0))
    assert item["passed"], item
    assert item["seconds"] < 90.0


def test_criterion_03_intersection_capacity():
    item = _report(verify.criterion_3_intersection_capacity(seed=0))
    assert item["passed"], item
    assert item["seconds"] < 600.0
    # no estimate rises more than 1e-6 relative over the direct N=256 descent
    direct = {0.25: 0.25001707254071254, 0.5: 0.5000284384194983, 0.75: 0.7500400884342917}
    for t, value in direct.items():
        assert item["measured"][t] <= value * (1.0 + 1e-6)


def test_criterion_04_orbit_census():
    item = _report(verify.criterion_4_orbit_census(seed=0))
    assert item["passed"], item


def test_criterion_05_alternating_orbit_bound():
    item = _report(verify.criterion_5_alternating_bound(seed=0))
    assert item["passed"], item


def test_criterion_06_s2_transit_invariant():
    item = _report(verify.criterion_6_s2_transit(seed=0))
    assert item["passed"], item


def test_criterion_07_limit_experiment():
    item = _report(verify.criterion_7_limit_experiment(seed=0))
    assert item["passed"], item


def test_criterion_08_bound_table():
    item = _report(verify.criterion_8_bound_table(seed=0))
    assert item["passed"], item
    assert item["measured"]["f_check_seconds"] < 1.0
    assert item["measured"]["worst_grid_excess"] <= 1e-7
    assert item["measured"]["worst_embedding_gap"] <= 1e-10


def test_criterion_09_linear_search_remark():
    item = _report(verify.criterion_9_linear_search(seed=0, budget=10_000))
    assert item["passed"], item
    assert item["seconds"] < 120.0


@pytest.fixture(scope="module")
def criterion_10():
    # one run over the 50x50 (t, h) grid serves the chain test and its companion
    return verify.criterion_10_area_feasibility(seed=0)


def test_criterion_10_area_feasibility_chain(criterion_10):
    # The printed middle inequality (1-h)/2 + (t/2) sqrt(1-h) <= area(S_h)
    # fails whenever 1-h < t^2 (t=0.9, h=0.95: bound 0.12562 > area 0.05000;
    # pinned in test_bounds.test_area_feasibility_middle_inequality_fails_in_corner).
    # The criterion checks the repaired chain on the full 50x50 grid: the
    # half-ellipse's x-semi-axis is clipped to sqrt((1-h)/pi), giving
    # (1-h)/2 + sqrt(1-h) min(t, sqrt(1-h)) / 2, and every printed failure
    # must lie in the corner 1-h < t^2.
    item = _report(criterion_10)
    assert item["passed"], item
    assert item["measured"] == {"chain_failures": 0, "printed_failures_in_corner": 612,
                                "printed_failures_outside_corner": 0,
                                "disc_le_exact_failures": 0}


def test_criterion_10_companion_end_to_end_feasibility(criterion_10):
    item = criterion_10
    ok = item["measured"]["disc_le_exact_failures"] == 0
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 10-companion "
          f"disc area <= exact area on the full grid: "
          f"{item['measured']['disc_le_exact_failures']} failures")
    assert ok


def test_criterion_11_property_suites():
    item = _report(verify.criterion_11_property_suites(seed=0))
    assert item["passed"], item


def test_verdicts_stable_under_seed_change():
    # tolerance-buffered criteria: a different seed flips no verdict
    for fn in (verify.criterion_1_normalization, verify.criterion_4_orbit_census,
               verify.criterion_6_s2_transit):
        assert fn(seed=0)["passed"] == fn(seed=1)["passed"]
