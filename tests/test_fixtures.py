"""Golden artifacts: rerun committed configs and compare with committed outputs.

Each directory under ``tests/fixtures`` holds a ``config.yaml`` and the
artifacts an earlier version of hsmc wrote for it.  Unlike the rerun
determinism tests, which compare two runs of the same code, these pin the
values across versions: a change to the sample streams, the amplitude layout
or a weight reduction shows up here.
"""

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
