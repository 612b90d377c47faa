import math

import numpy as np
import pytest

from qchan.reporting import Check, to_json, verdict

TREE = {
    "ints": [1, np.int64(-3), (np.int32(7),)],
    "floats": [2.5, np.float64(0.1), math.inf, -math.inf],
    "nested": {"empty_dict": {}, "empty_list": [], "flags": [True, False, None]},
    "text": 'say "hi" \\ tab\there\nnext\x01',
}

COMPACT = (
    '{"ints":[1,-3,[7]],"floats":[2.5,0.10000000000000001,"inf","-inf"],'
    '"nested":{"empty_dict":{},"empty_list":[],"flags":[true,false,null]},'
    '"text":"say \\"hi\\" \\\\ tab\\u0009here\\u000anext\\u0001"}'
)

INDENTED = """\
{
  "ints": [
    1,
    -3,
    [
      7
    ]
  ],
  "floats": [
    2.5,
    0.10000000000000001,
    "inf",
    "-inf"
  ],
  "nested": {
    "empty_dict": {},
    "empty_list": [],
    "flags": [
      true,
      false,
      null
    ]
  },
  "text": "say \\"hi\\" \\\\ tab\\u0009here\\u000anext\\u0001"
}
"""


def test_to_json_compact_exact():
    assert to_json(TREE, indent=None) == COMPACT


def test_to_json_indented_exact():
    assert to_json(TREE) == INDENTED


@pytest.mark.parametrize("indent", [None, 2])
def test_to_json_rejects_nan(indent):
    with pytest.raises(ValueError, match="NaN"):
        to_json({"x": [1.0, math.nan]}, indent=indent)


@pytest.mark.parametrize("indent", [None, 2])
def test_to_json_rejects_non_string_key(indent):
    with pytest.raises(TypeError, match="report keys must be strings"):
        to_json({"outer": {1: "one"}}, indent=indent)


def test_check_equality_ignores_elapsed_time():
    a = Check("c", 0.0, 0.0, 0.0, 1.0, True, elapsed_ms=1.0)
    b = Check("c", 0.0, 0.0, 0.0, 1.0, True, elapsed_ms=2.0)
    assert a == b


def test_as_dict_converts_nats_to_bits():
    check = verdict("c", lhs=math.log(2.0), rhs=0.0, tolerance=math.inf,
                    witness={"s_min": math.log(4.0), "samples": 3}, units="nats")
    bits = check.as_dict("2")
    assert bits["units"] == "bits"
    assert bits["lhs"] == pytest.approx(1.0, rel=1e-15)
    assert bits["tolerance"] == math.inf
    assert bits["witness"] == {"s_min": pytest.approx(2.0, rel=1e-15), "samples": 3}
    assert check.as_dict("e")["lhs"] == math.log(2.0)
    assert "status" not in bits
