"""One test per acceptance criterion, each with its own time budget.

Run with -v for the one-line-per-criterion view, or -s to also see the
timing lines.  The checks live in isoschub.cli.SUITES so the installed
`isoschub verify` command runs exactly the same code.
"""

import time

from isoschub import cli

_BUDGETS = {
    "intro-giambelli": 1,
    "pieri-example": 1,
    "giambelli-sweep": 120,
    "forest-example": 1,
    "claims": 600,
    "modified-remark": 60,
    "theta-identity": 1,
    "theta-hat": 10,
    "bh-example": 5,
    "routes": 300,
    "count-bases": 1,
    "stanley-corollary": 120,
    "thcor": 10,
    "presentation": 60,
}

_SUITES = dict(cli.SUITES)


def _criterion(number, name):
    t0 = time.monotonic()
    detail = _SUITES[name](6)
    dt = time.monotonic() - t0
    budget = _BUDGETS[name]
    status = "pass" if detail is None and dt < budget else "FAIL"
    print("criterion %2d %-18s %s in %.2fs (budget %ds)"
          % (number, name, status, dt, budget))
    # a suite returns None when it holds, or the failing case
    assert detail is None, detail
    assert dt < budget, "%s took %.1fs, budget %ds" % (name, dt, budget)


def test_c01_intro_giambelli():
    _criterion(1, "intro-giambelli")


def test_c02_pieri_example():
    _criterion(2, "pieri-example")


def test_c03_giambelli_sweep():
    _criterion(3, "giambelli-sweep")


def test_c04_forest_example():
    _criterion(4, "forest-example")


def test_c05_claims_sweep():
    _criterion(5, "claims")


def test_c06_modified_remark():
    _criterion(6, "modified-remark")


def test_c07_theta_identity():
    _criterion(7, "theta-identity")


def test_c08_theta_hat():
    _criterion(8, "theta-hat")


def test_c09_bh_example():
    _criterion(9, "bh-example")


def test_c10_cross_route_products():
    _criterion(10, "routes")


def test_c11_count_bases():
    _criterion(11, "count-bases")


def test_c12_stanley_corollary():
    _criterion(12, "stanley-corollary")


def test_c13_closed_forms():
    _criterion(13, "thcor")


def test_c14_presentation():
    _criterion(14, "presentation")
