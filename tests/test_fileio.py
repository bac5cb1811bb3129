import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from noarb import fileio, lab
from noarb.errors import StructureError
from noarb.lattice import SampleSpace
from noarb.market import Asset, Filtration, MarketModel, payoff_cone
from noarb.rationals import format_rational, parse_rational
from noarb.separation import strict_separator

from conftest import MARKET_FILES

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


def round_trips(model):
    dumped = fileio.dump_market(model)
    again = fileio.load_market(json.dumps(dumped))
    return again == model and fileio.dump_market(again) == dumped


def test_market_round_trip_on_every_data_market():
    for name in MARKET_FILES:
        assert round_trips(fileio.load_market(read(name))), name


def test_market_round_trip_on_random_markets():
    rng = random.Random(0)
    assert all(round_trips(lab.random_market(rng)) for _ in range(200))


@pytest.mark.parametrize("outcomes, name, where", [
    (["a+b", "c"], "S", r"^\$\.outcomes\[0\]\.id: 'a\+b'"),
    (["a", "b/c"], "S", r"^\$\.outcomes\[1\]\.id: 'b/c'"),
    (["a", "b"], "S/1", r"^\$\.assets\[0\]\.name: 'S/1'"),
], ids=["plus-in-id", "slash-in-id", "slash-in-name"])
def test_dump_market_rejects_what_load_market_rejects(outcomes, name, where):
    space = SampleSpace(outcomes, [F(1, 2), F(1, 2)])
    path = (space.constant(1), space.variable([2, F(1, 2)]))
    model = MarketModel(Filtration.single_period(space), [Asset(name, path)])
    doc = {"outcomes": [{"id": o, "prob": "1/2"} for o in outcomes],
           "filtration": [[outcomes], [[o] for o in outcomes]],
           "assets": [{"name": name, "path": {o: ["1", p] for o, p in zip(outcomes, ["2", "1/2"])}}]}
    with pytest.raises(StructureError, match=where):
        fileio.load_market(json.dumps(doc))
    with pytest.raises(StructureError, match=where):
        fileio.dump_market(model)


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


@pytest.mark.parametrize("name", ["cone_with_e2.json", "cone_with_gen.json", "orthant_cone.json"])
def test_cone_round_trip(name):
    cone = fileio.load_cone(read(name))
    dumped = fileio.dump_cone(cone)
    again = fileio.load_cone(json.dumps(dumped))
    assert again == cone
    assert fileio.dump_cone(again) == dumped


def test_a_dumped_payoff_cone_poses_the_same_separation():
    """A cone file has no span, so ``dump_cone`` writes each gain of a payoff
    cone as the generator pair ±h, in order: the loaded cone is the same
    set, its separation LPs are the payoff cone's row for row, and so
    ``strict_separator`` returns the same measure or violating direction."""
    rng = random.Random(8)
    found = 0
    for _ in range(40):
        cone = payoff_cone(lab.random_market(rng, max_outcomes=5, max_periods=2))
        loaded = fileio.load_cone(json.dumps(fileio.dump_cone(cone)))
        assert loaded.span == ()
        assert [g.values for g in loaded.generators] == [
            v.values for h in cone.span for v in (h, -h)]
        separation = strict_separator(cone)
        assert strict_separator(loaded) == separation
        found += separation.measure is not None
    assert 0 < found < 40  # both answers are pinned


def test_cone_loading():
    cone = fileio.load_cone(read("cone_with_gen.json"))
    assert cone.generators[0].values == (F(1), F(-1))
    with pytest.raises(StructureError, match=r"\$\.generators\[0\]"):
        fileio.load_cone('{"outcomes": [{"id": "a", "prob": "1"}], "generators": [["1", "2"]]}')
