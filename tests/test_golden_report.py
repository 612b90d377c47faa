"""The values of three full ``verify all`` reports, pinned against committed goldens.

``tests/test_report_shape.py`` pins the layout of a report; this file pins its
numbers.  The reports use ``--p 0.3 --q 0.5 --seed 42`` and the benchmark's
small batch sizes, at l = 2, 3 and 5.  Timing fields (``elapsed_ms``,
``wall_clock_ms``) are stripped.  Ids, pass flags, integers and strings must
match exactly; floats must agree within 1e-12 absolute plus 1e-12 relative.

A change that moves a reported value on purpose regenerates the goldens with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_golden_report.py --write

and says in its change notes which values moved and why.
"""
import json
import sys
from pathlib import Path

import pytest

from qchan.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ABS_TOL = 1e-12
REL_TOL = 1e-12
TIMING_KEYS = ("elapsed_ms", "wall_clock_ms")
LEVELS = (2, 3, 5)

SMALL_SIZES = [
    "--samples", "10", "--pairs", "40", "--eq13-samples", "4", "--search-count", "10",
    "--restarts", "1", "--max-iter", "20000",
]


def _argv(l: int, out: Path) -> list[str]:
    return ["verify", "all", "--l", str(l), "--p", "0.3", "--q", "0.5", "--seed", "42",
            *SMALL_SIZES, "--output", str(out)]


def _strip_timing(node):
    if isinstance(node, dict):
        return {k: _strip_timing(v) for k, v in node.items() if k not in TIMING_KEYS}
    if isinstance(node, list):
        return [_strip_timing(v) for v in node]
    return node


def _report(l: int, out: Path) -> tuple[int, dict]:
    code = main(_argv(l, out))
    return code, _strip_timing(json.loads(out.read_text()))


def _differences(got, want, path="$"):
    """Every place where ``got`` departs from ``want`` beyond the stated tolerances."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [f"{path}: keys {list(got) if isinstance(got, dict) else got!r} != {list(want)}"]
        return [d for k in want for d in _differences(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in _differences(g, w, f"{path}[{i}]")]
    numbers = (int, float)
    if (isinstance(want, numbers) and isinstance(got, numbers)
            and not isinstance(want, bool) and not isinstance(got, bool)
            and (isinstance(want, float) or isinstance(got, float))):
        # A float that happens to be integral is written without a point, so
        # two numbers compare as floats unless both were written as integers.
        if abs(got - want) <= ABS_TOL + REL_TOL * abs(want):
            return []
        return [f"{path}: {got!r} != {want!r} (diff {got - want:.3e})"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


@pytest.mark.parametrize("l", LEVELS)
def test_verify_all_matches_golden(l, tmp_path):
    code, got = _report(l, tmp_path / "report.json")
    want = json.loads((GOLDEN_DIR / f"verify_all_l{l}.json").read_text())
    assert code == 0
    assert [c["id"] for c in got["checks"]] == [c["id"] for c in want["checks"]]
    assert _differences(got, want) == []


def test_differences_apply_the_stated_tolerances():
    assert _differences({"a": 1.0, "n": 3, "s": "x"}, {"a": 1.0 + 5e-13, "n": 3, "s": "x"}) == []
    assert _differences({"a": 0}, {"a": 1e-13}) == []
    assert _differences({"a": 1.0 + 1e-11}, {"a": 1.0}) != []
    assert _differences({"n": 4}, {"n": 3}) != []
    assert _differences({"p": True}, {"p": 1}) != []
    assert _differences({"s": "inf"}, {"s": "-inf"}) != []
    assert _differences({"a": 1, "b": 2}, {"b": 2, "a": 1}) != []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_report.py --write")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for level in LEVELS:
        target = GOLDEN_DIR / f"verify_all_l{level}.json"
        exit_code, doc = _report(level, target)
        if exit_code != 0:
            sys.exit(f"verify all --l {level} exited {exit_code}; goldens not written")
        target.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {target}")
