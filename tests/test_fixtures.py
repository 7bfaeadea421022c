"""Golden artifacts: rerun committed configs and compare with committed outputs.

Each directory under ``tests/fixtures`` holds a ``config.yaml`` and the
artifacts an earlier version of hsmc wrote for it: CSV files, or for
``predict`` a ``report.json`` whose ``predictions`` are compared.  Unlike the rerun
determinism tests, which compare two runs of the same code, these pin the
values across versions: a change to the sample streams, the amplitude layout
or a weight reduction shows up here.
"""

import json
from numbers import Number
from pathlib import Path

import pytest

from hsmc.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
# Numeric cells may differ in the last bits from summation order; no more.
CELL_TOLERANCE = 1e-12

CASES = {
    "lubkin_sample": "sample",
    "bartlett_sample": "sample",
    "canonical_sample": "sample",
    "micro_evolve": "evolve",
    "canonical_evolve": "evolve",
}
PREDICT_CASES = ("geometric_predict", "micro_predict")


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _compare(expected: Path, actual: Path) -> list[str]:
    """Comment lines and non-numeric cells must match exactly, numbers within tolerance."""
    want = expected.read_text().splitlines()
    got = actual.read_text().splitlines()
    if len(want) != len(got):
        return [f"{expected.name}: {len(got)} lines, expected {len(want)}"]
    problems = []
    for number, (line_want, line_got) in enumerate(zip(want, got), start=1):
        cells_want = line_want.split(",")
        cells_got = line_got.split(",")
        if line_want.startswith("#") or len(cells_want) != len(cells_got):
            if line_want != line_got:
                problems.append(f"{expected.name}:{number}: {line_got!r} != {line_want!r}")
            continue
        for cell_want, cell_got in zip(cells_want, cells_got):
            a, b = _as_float(cell_want), _as_float(cell_got)
            same = cell_want == cell_got if a is None or b is None \
                else abs(a - b) <= CELL_TOLERANCE
            if not same:
                problems.append(f"{expected.name}:{number}: {cell_got} != {cell_want}")
    return problems


@pytest.mark.parametrize("name", sorted(CASES))
def test_rerun_matches_golden_artifacts(name, tmp_path):
    fixture = FIXTURES / name
    out = tmp_path / "out"
    assert main([CASES[name], "--config", str(fixture / "config.yaml"),
                 "--out", str(out), "--quiet"]) == 0
    artifacts = sorted(p.relative_to(fixture) for p in fixture.rglob("*.csv"))
    assert artifacts
    problems = []
    for artifact in artifacts:
        problems += _compare(fixture / artifact, out / artifact)
    assert not problems, problems[:10]


def _compare_json(want, got, where: str = "predictions") -> list[str]:
    """Keys, strings and nulls must match exactly, numbers within tolerance."""
    if isinstance(want, dict) and isinstance(got, dict):
        if list(want) != list(got):
            return [f"{where}: keys {list(got)} != {list(want)}"]
        return [p for key in want for p in _compare_json(want[key], got[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: {len(got)} entries, expected {len(want)}"]
        return [p for i, (a, b) in enumerate(zip(want, got))
                for p in _compare_json(a, b, f"{where}[{i}]")]
    if isinstance(want, Number) and isinstance(got, Number):
        same = abs(want - got) <= CELL_TOLERANCE
    else:
        same = type(want) is type(got) and want == got
    return [] if same else [f"{where}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", PREDICT_CASES)
def test_predict_matches_golden_report(name, tmp_path):
    # the report's config holds the --out dir, so only the predictions are compared
    fixture = FIXTURES / name
    out = tmp_path / "out"
    assert main(["predict", "--config", str(fixture / "config.yaml"),
                 "--out", str(out), "--quiet"]) == 0
    want = json.loads((fixture / "report.json").read_text())["predictions"]
    got = json.loads((out / "report.json").read_text())["predictions"]
    problems = _compare_json(want, got)
    assert not problems, problems[:10]
