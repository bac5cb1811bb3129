import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from noarb import fileio
from noarb.errors import StructureError
from noarb.rationals import format_rational, parse_rational

DATA = Path(__file__).parent / "data"


def read(name):
    return (DATA / name).read_text()


def test_rational_strings_round_trip():
    for text in ["0", "-3", "7/2", "-12/5"]:
        assert format_rational(parse_rational(text)) == text


def test_decimal_floats_rejected():
    for bad in ["0.5", "1e-3", "1/0", "1/-2", ""]:
        with pytest.raises(StructureError):
            parse_rational(bad)


def test_market_round_trip():
    model = fileio.load_market(read("binomial.json"))
    assert model.space.outcomes == ("u", "d")
    assert model.assets[0].path[1].values == (F(2), F(1, 2))
    dumped = fileio.dump_market(model)
    again = fileio.load_market(json.dumps(dumped))
    assert again == model
    assert fileio.dump_market(again) == dumped


def test_market_errors_carry_positions():
    with pytest.raises(StructureError, match=r"line 3"):
        fileio.load_market(read("truncated.json"))
    doc = json.loads(read("binomial.json"))
    doc["assets"][0]["path"]["u"] = ["1"]
    with pytest.raises(StructureError, match=r"\$\.assets\[0\]\.path\.u"):
        fileio.load_market(json.dumps(doc))
    doc = json.loads(read("binomial.json"))
    doc["outcomes"][0]["prob"] = "0.5"
    with pytest.raises(StructureError, match=r"\$\.outcomes\[0\]\.prob"):
        fileio.load_market(json.dumps(doc))
    doc = json.loads(read("binomial.json"))
    del doc["assets"][0]["path"]["d"]
    with pytest.raises(StructureError, match=r"missing outcome 'd'"):
        fileio.load_market(json.dumps(doc))


def test_repeated_key_named_by_json_path():
    # nested objects are covered by test_cli's exit-code cases
    with pytest.raises(StructureError, match=r"^\$: repeated key 'payoff'"):
        fileio.load_payoff('{"payoff": {"u": "1", "d": "0"}, "payoff": {}}',
                           fileio.load_market(read("binomial.json")))
    with pytest.raises(StructureError, match=r"^\$: repeated key 'outcomes'"):
        fileio.load_cone(read("cone_with_gen.json").replace("{", '{"outcomes": [], ', 1))
    # where an object is the wrong type, the type error is what is reported
    text = read("binomial.json").replace('"prob": "1/2"', '"prob": {"a": "1", "a": "2"}', 1)
    with pytest.raises(StructureError,
                       match=r"\$\.outcomes\[0\]\.prob: expected string, got dict"):
        fileio.load_market(text)


def test_model_invariants_rechecked_on_load():
    doc = json.loads(read("binomial.json"))
    doc["assets"][0]["path"]["u"] = ["1", "-2"]  # negative price
    with pytest.raises(StructureError, match="negative"):
        fileio.load_market(json.dumps(doc))
    doc = json.loads(read("binomial.json"))
    doc["filtration"] = [[["u", "d"]], [["u", "d"]]]  # final partition too coarse
    with pytest.raises(StructureError, match="separate"):
        fileio.load_market(json.dumps(doc))


def test_payoff_loading():
    model = fileio.load_market(read("binomial.json"))
    payoff = fileio.load_payoff(read("call_payoff.json"), model)
    assert payoff.values == (F(1), F(0))
    with pytest.raises(StructureError, match="missing outcome"):
        fileio.load_payoff('{"payoff": {"u": "1"}}', model)
    with pytest.raises(StructureError, match="unknown outcome"):
        fileio.load_payoff('{"payoff": {"u": "1", "d": "0", "x": "2"}}', model)


def test_cone_loading():
    cone = fileio.load_cone(read("cone_with_gen.json"))
    assert cone.includes_neg_orthant
    assert cone.generators[0].values == (F(1), F(-1))
    with pytest.raises(StructureError, match=r"\$\.generators\[0\]"):
        fileio.load_cone('{"outcomes": [{"id": "a", "prob": "1"}], "generators": [["1", "2"]]}')
