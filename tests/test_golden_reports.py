"""Every golden case reproduces its checked-in outcome: the exit code and
stderr exactly, integers, strings and labels exactly, and floats to 1e-10
relative with an absolute floor of 1e-12 for roundoff-level residuals."""

import copy
import json
import math

import pytest

from golden_reports import GOLDEN, case_id, cases, run_case

REL_TOL = 1e-10
ABS_TOL = 1e-12

_EXPECTED = json.loads(GOLDEN.read_text())


def mismatches(expected, actual, path: str = "") -> list[str]:
    """Paths at which ``actual`` differs from ``expected`` beyond the
    tolerances (an empty list when it agrees)."""
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {expected!r} -> {actual!r}"]
    if type(expected) is not type(actual):
        return [f"{path}: {expected!r} -> {actual!r}"]
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} -> {sorted(actual)}"]
        return [m for key in expected for m in mismatches(expected[key], actual[key], f"{path}.{key}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} -> {len(actual)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in mismatches(e, a, f"{path}[{i}]")]
    return [] if expected == actual else [f"{path}: {expected!r} -> {actual!r}"]


def test_case_list_matches_the_file():
    assert sorted(_EXPECTED) == sorted(case_id(argv) for argv in cases())


@pytest.mark.parametrize("argv", cases(), ids=case_id)
def test_report_matches_golden(argv):
    assert mismatches(_EXPECTED[case_id(argv)], run_case(argv)) == []


@pytest.mark.parametrize("path, mutate", [
    (("report", "quantum", "hhl_success_probability"), lambda v: v * (1 + 1e-9)),
    (("report", "quantum", "retained_eigenvalues", 0), lambda v: v + 1 / 256),
    (("report", "classification", "quantum_labels", 0), lambda v: -v),
    (("report", "dataset", "edges"), lambda v: v + 1),
    (("report", "classical", "residual_retained"), lambda v: v + 1e-11),
    (("exit_code",), lambda v: 3),
])
def test_one_mutated_number_is_caught(path, mutate):
    expected = _EXPECTED["simulate two_cluster_8.csv --knn 2"]
    actual = copy.deepcopy(expected)
    node = actual
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = mutate(node[path[-1]])
    assert len(mismatches(expected, actual)) == 1
    assert mismatches(expected, copy.deepcopy(expected)) == []
