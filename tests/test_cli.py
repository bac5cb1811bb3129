import dataclasses
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import noarb
from noarb.cli import main
from noarb.fileio import load_market

from conftest import MARKET_FILES

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

CASES = [
    ("check_all_binomial", 0, ["check", "all", str(DATA / "binomial.json")]),
    ("check_na_dominance", 1, ["check", "na", str(DATA / "dominance.json")]),
    ("emm_binomial", 0, ["emm", str(DATA / "binomial.json")]),
    ("emm_trinomial", 0, ["emm", str(DATA / "trinomial.json")]),
    ("emm_dominance", 1, ["emm", str(DATA / "dominance.json")]),
    # node by node: four nodes, two assets; the arbitrage market's Farkas
    # vector comes from a t = 2 node after two optimal nodes
    ("emm_two_period", 0, ["emm", str(DATA / "two_period.json")]),
    ("emm_two_period_arbitrage", 1, ["emm", str(DATA / "two_period_arbitrage.json")]),
    # CRR T = 3: all seven nodes share one representative's weights
    ("emm_crr3", 0, ["emm", str(DATA / "crr3.json")]),
    ("price_binomial_call", 0, ["price", str(DATA / "binomial.json"), str(DATA / "call_payoff.json")]),
    ("price_binomial_zero", 0, ["price", str(DATA / "binomial.json"), str(DATA / "zero_payoff.json")]),
    ("counterexample_3", 0, ["counterexample", "--n", "3"]),
    ("verify_seed0", 0, ["verify", "--seed", "0", "--instances", "5"]),
    ("separate_orthant", 0, ["separate", str(DATA / "orthant_cone.json")]),
    ("separate_gen", 0, ["separate", str(DATA / "cone_with_gen.json")]),
    ("separate_e2", 1, ["separate", str(DATA / "cone_with_e2.json")]),
    ("separate_target", 0, ["separate", str(DATA / "cone_with_gen.json"), "--target", "1,1"]),
    # two periods, two assets: strategies with entries at several (t, asset, cell)
    ("price_two_period_basket", 0,
     ["price", str(DATA / "two_period.json"), str(DATA / "basket_payoff.json")]),
    ("check_na_two_period", 1, ["check", "na", str(DATA / "two_period_arbitrage.json")]),
    ("check_na1_two_period", 0, ["check", "na1", str(DATA / "two_period.json")]),
    ("check_na1_two_period_arbitrage", 1,
     ["check", "na1", str(DATA / "two_period_arbitrage.json")]),
    ("check_nupbr_two_period", 0, ["check", "nupbr", str(DATA / "two_period.json")]),
    ("check_nupbr_two_period_arbitrage", 1,
     ["check", "nupbr", str(DATA / "two_period_arbitrage.json")]),
    ("check_all_two_period", 0, ["check", "all", str(DATA / "two_period.json")]),
    ("check_all_two_period_arbitrage", 1,
     ["check", "all", str(DATA / "two_period_arbitrage.json")]),
    # CRR T = 3: nodes whose child prices differ only by cash and scale
    ("price_crr3_call", 0, ["price", str(DATA / "crr3.json"), str(DATA / "crr3_call_payoff.json")]),
    # a node arbitrage at t = 2 prices the root at -inf: no hedge
    ("price_two_period_arbitrage", 0,
     ["price", str(DATA / "two_period_arbitrage.json"), str(DATA / "basket_payoff.json")]),
    # a finite root above an unbounded node: the hedge there follows its LP's ray
    ("price_ray_hedge", 0, ["price", str(DATA / "ray_hedge.json"), str(DATA / "ray_hedge_payoff.json")]),
]


@pytest.mark.parametrize("name,expected_exit,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_reports_byte_stable(name, expected_exit, argv, capsys):
    code = main(["--json", *argv])
    out = capsys.readouterr().out
    assert code == expected_exit
    golden = (GOLDEN / f"{name}.json").read_text()
    assert out == golden
    report = json.loads(out)  # the report is well-formed JSON
    assert code == (0 if all(report["verdicts"].values()) else 1)


@pytest.mark.parametrize("name,expected_exit,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_text_byte_stable(name, expected_exit, argv, capsys):
    """The human-readable output of every golden case, pinned byte for byte."""
    assert main(argv) == expected_exit
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


def test_usage_error_returns_2_and_the_parser_is_reused(capsys):
    """argparse's exits come back as return values, and an error leaves the
    one parser of the process fit for the next call."""
    assert main(["check", "bogus", str(DATA / "binomial.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: noarb check")
    assert "invalid choice: 'bogus'" in captured.err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: noarb")
    name, expected_exit, argv = CASES[0]
    assert main(["--json", *argv]) == expected_exit
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name,expected_exit,argv", CASES[:3], ids=[c[0] for c in CASES[:3]])
def test_repeated_in_process_calls_are_identical(name, expected_exit, argv, capsys):
    runs = []
    for _ in range(3):
        code = main(["--json", *argv])
        runs.append((code, capsys.readouterr().out))
    assert runs == [(expected_exit, (GOLDEN / f"{name}.json").read_text())] * 3


def test_patching_a_command_after_a_first_call_takes_effect(monkeypatch, capsys):
    """The parser is built once per process but holds no command function, so
    a command patched after the parser exists still runs."""
    from noarb import cli

    argv = ["--json", "check", "na", str(DATA / "binomial.json")]
    assert main(argv) == 0  # the parser exists from here on
    capsys.readouterr()

    def broken(args):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "cmd_check", broken)
    assert main(argv) == 3
    assert capsys.readouterr().err == "noarb: internal error: ValueError: boom\n"


def test_golden_semantics():
    check = json.loads((GOLDEN / "check_all_binomial.json").read_text())
    assert check["verdicts"] == {k: True for k in check["verdicts"]}
    assert check["exact"] is True

    dom = json.loads((GOLDEN / "check_na_dominance.json").read_text())
    assert dom["verdicts"]["na"] is False
    assert dom["witnesses"]["arbitrage"]["strategy"] == [
        {"t": 1, "asset": "S", "cell": ["u", "d"], "units": "1"}]

    emm = json.loads((GOLDEN / "emm_binomial.json").read_text())
    assert emm["witnesses"]["measure"] == {"u": "1/3", "d": "2/3"}

    tri = json.loads((GOLDEN / "emm_trinomial.json").read_text())
    assert all(v == "0" for v in tri["martingale_residuals"].values())

    price = json.loads((GOLDEN / "price_binomial_call.json").read_text())
    assert price["price"] == "1/3"
    assert price["witnesses"]["hedge"] == [
        {"t": 1, "asset": "S", "cell": ["u", "d"], "units": "2/3"}]
    zero = json.loads((GOLDEN / "price_binomial_zero.json").read_text())
    assert zero["price"] == "0"

    ce = json.loads((GOLDEN / "counterexample_3.json").read_text())
    assert (ce["sup_squared_l2"], ce["min_indicator_gauge"]) == ("9", "1/3")
    assert ce["zero_set_trivial"] is True

    sep = json.loads((GOLDEN / "separate_orthant.json").read_text())
    assert all(v != "0" for v in sep["witnesses"]["functional"].values())
    bad = json.loads((GOLDEN / "separate_e2.json").read_text())
    assert bad["witnesses"]["violating_direction"] == {"a": "0", "b": "1"}


def test_first_kind_concept_routes(capsys):
    for concept in ("na1", "nupbr"):
        assert main(["--json", "check", concept, str(DATA / "binomial.json")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdicts"] == {concept: True}
        assert main(["--json", "check", concept, str(DATA / "dominance.json")]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["verdicts"] == {concept: False}
        assert out["witnesses"]["arbitrage"]["payoff"] == {"u": "1", "d": "1/2"}


def test_exit_code_taxonomy(tmp_path, capsys):
    assert main(["check", "na", str(DATA / "binomial.json")]) == 0
    assert main(["check", "na", str(DATA / "dominance.json")]) == 1
    assert main(["check", "na", str(DATA / "truncated.json")]) == 2
    assert main(["check", "na", str(DATA / "no_such_file.json")]) == 2
    assert main(["counterexample", "--n", "0"]) == 2
    assert main(["verify", "--seed", "0", "--instances", "0"]) == 2
    assert main(["price", str(DATA / "binomial.json"), str(DATA / "negative_payoff.json")]) == 2
    capsys.readouterr()
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"outcomes": "\xff"}')
    assert main(["check", "na", str(latin1)]) == 2
    assert f"{latin1}: not UTF-8" in capsys.readouterr().err
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["check", "na", str(deep)]) == 2
    assert f"{deep}: JSON nested too deeply" in capsys.readouterr().err
    huge = "1" * 5000
    market = json.loads((DATA / "binomial.json").read_text())
    market["assets"][0]["path"]["u"][1] = huge
    huge_market = tmp_path / "huge_market.json"
    huge_market.write_text(json.dumps(market))
    assert main(["check", "na", str(huge_market)]) == 2
    assert "rational too large at $.assets[0].path.u[1]" in capsys.readouterr().err
    assert main(["separate", str(DATA / "cone_with_gen.json"), "--target", f"{huge},0"]) == 2
    assert "rational too large at --target" in capsys.readouterr().err
    # each --target part follows parse_rational's rule: ASCII whitespace only
    assert main(["separate", str(DATA / "cone_with_gen.json"), "--target", "1, 1"]) == 0
    assert main(["separate", str(DATA / "cone_with_gen.json"), "--target", "1,\u00a01"]) == 2
    assert "not an exact rational at --target" in capsys.readouterr().err
    # --target gives one rational per outcome of the cone's space
    assert main(["separate", str(DATA / "cone_with_gen.json"), "--target", "1,1,1"]) == 2
    assert "--target needs 2 comma-separated rationals" in capsys.readouterr().err
    huge_number = tmp_path / "huge_number.json"
    huge_number.write_text(f'{{"outcomes": {huge}}}')
    assert main(["check", "na", str(huge_number)]) == 2
    assert f"{huge_number}: a JSON number has more than" in capsys.readouterr().err
    # every document has a strict key set; an unknown key is named by its JSON path
    typos = [
        ("market_top.json", "binomial.json", lambda d: d.update(horizon="1"),
         ["check", "na"], "$.horizon: unknown key"),
        ("market_outcome.json", "binomial.json", lambda d: d["outcomes"][1].update(p="1/2"),
         ["check", "na"], "$.outcomes[1].p: unknown key"),
        ("market_asset.json", "binomial.json", lambda d: d["assets"][0].update(paths={}),
         ["emm"], "$.assets[0].paths: unknown key"),
        ("cone.json", "cone_with_gen.json",
         lambda d: d.update(include_neg_orthant=False), ["separate"],
         "$.include_neg_orthant: unknown key"),
        # JSON alone would keep the last "u" and decide the market on it; a
        # repeated key is named under its object's JSON path
        ("market_repeated_key.json", "binomial.json",
         lambda d: json.dumps(d).replace('"u": ["1", "2"]', '"u": ["1", "2"], "u": ["1", "1/2"]'),
         ["check", "na"], "$.assets[0].path: repeated key 'u' in a JSON object"),
        ("market_repeated_prob.json", "binomial.json",
         lambda d: json.dumps(d).replace('"prob": "1/2"', '"prob": "1/2", "prob": "1/3"', 1),
         ["check", "na"], "$.outcomes[0]: repeated key 'prob' in a JSON object"),
        ("payoff_repeated_key.json", "call_payoff.json",
         lambda d: json.dumps(d).replace('"u": ', '"u": "0", "u": '),
         ["price", str(DATA / "binomial.json")], "$.payoff: repeated key 'u' in a JSON object"),
    ]
    for name, source, edit, command, message in typos:
        doc = json.loads((DATA / source).read_text())
        text = edit(doc)  # None for an edit in place, else the edited text
        typo = tmp_path / name
        typo.write_text(json.dumps(doc) if text is None else text)
        assert main([*command, str(typo)]) == 2, name
        assert message in capsys.readouterr().err, name
    # a cell that lists an outcome twice: the t=0 cell counted u twice
    market = json.loads((DATA / "binomial.json").read_text())
    market["filtration"][0] = [["u", "u", "d"]]
    repeated_cell = tmp_path / "repeated_cell.json"
    repeated_cell.write_text(json.dumps(market))
    for command in (["check", "all"], ["emm"], ["price"]):
        extra = [str(DATA / "call_payoff.json")] if command == ["price"] else []
        assert main([*command, str(repeated_cell), *extra]) == 2, command
        assert "$.filtration: a cell lists an outcome twice" in capsys.readouterr().err
    # rationals are ASCII: a fullwidth "２" is not read as 2
    market = json.loads((DATA / "binomial.json").read_text())
    market["assets"][0]["path"]["u"][1] = "\uff12"
    fullwidth = tmp_path / "fullwidth.json"
    fullwidth.write_text(json.dumps(market, ensure_ascii=False), encoding="utf-8")
    assert main(["check", "na", str(fullwidth)]) == 2
    assert "not an exact rational at $.assets[0].path.u[1]" in capsys.readouterr().err
    payoff = tmp_path / "payoff.json"
    payoff.write_text('{"payoff": {"u": "1", "d": "0"}, "strike": "1"}')
    assert main(["price", str(DATA / "binomial.json"), str(payoff)]) == 2
    assert "$.strike: unknown key" in capsys.readouterr().err


def test_a_market_that_is_not_adapted_exits_2(tmp_path, capsys):
    market = json.loads((DATA / "two_period.json").read_text())
    market["assets"][1]["path"]["md"][1] = "3"  # B's t=1 cell {mu, md} priced 2 and 3
    path = tmp_path / "not_adapted.json"
    path.write_text(json.dumps(market))
    for command in (["check", "all"], ["emm"], ["price"]):
        extra = [str(DATA / "basket_payoff.json")] if command == ["price"] else []
        assert main(["--json", *command, str(path), *extra]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "noarb: input error: $.assets: asset 'B' is not adapted at t=1\n"


def test_internal_disagreement_exits_3(monkeypatch, capsys):
    from noarb import cli
    from noarb.errors import InternalInconsistency

    def boom(model):
        raise InternalInconsistency("routes disagree")

    monkeypatch.setattr(cli, "full_verdict", boom)
    assert main(["check", "all", str(DATA / "binomial.json")]) == 3
    assert "internal inconsistency" in capsys.readouterr().err


@pytest.mark.parametrize("concept", ["na1", "all"])
def test_exit_3_prints_the_market(concept, monkeypatch, capsys):
    """The market an inconsistency arose on goes to stderr as a market file."""
    from noarb import lp

    solve = lp.solve

    def corrupted(problem):
        outcome = solve(problem)
        return dataclasses.replace(outcome, dual=outcome.dual[::-1])

    monkeypatch.setattr(lp, "solve", corrupted)
    path = DATA / "binomial.json"
    assert main(["--json", "check", concept, str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    message, header, dumped = captured.err.split("\n", 2)
    assert message == ("noarb: internal inconsistency: "
                       "one-step superhedging price failed re-verification")
    assert header == "noarb: the market it arose on, as a market file:"
    assert load_market(dumped) == load_market(path.read_text())


@pytest.mark.parametrize("extra", [[], ["--target", "1,1"]], ids=["strict", "target"])
def test_exit_3_prints_the_cone(extra, monkeypatch, capsys):
    """The cone a separation inconsistency arose on goes to stderr as a cone file."""
    from noarb import lp
    from noarb.fileio import load_cone

    solve = lp.solve
    monkeypatch.setattr(lp, "solve",
                        lambda problem: dataclasses.replace(solve(problem), status=lp.UNBOUNDED))
    path = DATA / "cone_with_gen.json"
    assert main(["--json", "separate", str(path), *extra]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    message, header, dumped = captured.err.split("\n", 2)
    assert message == "noarb: internal inconsistency: separation LP must have optimum 0 or 1"
    assert header == "noarb: the cone it arose on, as a cone file:"
    assert load_cone(dumped) == load_cone(path.read_text())


def assert_counterexample_dumped(captured, message):
    """Exit 3's stderr: the message, then ``build_counterexample(3)`` as a
    cone file that loads again with the set's generators."""
    from noarb.fileio import load_cone
    from noarb.lab import build_counterexample

    assert captured.out == ""
    first, header, dumped = captured.err.split("\n", 2)
    assert first == f"noarb: internal inconsistency: {message}"
    assert header == "noarb: the semi-solid set it arose on, as a cone file:"
    bset, cone = build_counterexample(3), load_cone(dumped)
    assert (cone.space, cone.generators) == (bset.space, bset.generators)


def test_exit_3_prints_the_semisolid_set(monkeypatch, capsys):
    """An infeasible gauge LP (its y = 0 is feasible) raises in
    ``cones.minkowski`` with the semi-solid set, which goes to stderr as a
    cone file."""
    from noarb import lp

    monkeypatch.setattr(lp, "solve", lambda problem: lp.LpOutcome(status=lp.INFEASIBLE))
    assert main(["counterexample", "--n", "3"]) == 3
    assert_counterexample_dumped(capsys.readouterr(), "gauge LP cannot be infeasible")


def test_counterexample_at_the_truncation_cap(capsys):
    """``counterexample --n 200``, the largest truncation the CLI takes,
    answers with the exact least indicator gauge 1/200."""
    assert main(["--json", "counterexample", "--n", "200"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["min_indicator_gauge"] == "1/200" and report["zero_set_trivial"] is True


def test_emm_weights_off_mass_1_exit_3(monkeypatch, capsys):
    """Node weights that do not make a probability measure are the program's
    fault, not the input's: exit 3 with the market, not exit 2."""
    from noarb import lp

    solve = lp.solve

    def corrupted(problem):
        outcome = solve(problem)
        return dataclasses.replace(outcome, primal=(outcome.primal[0] + 1, *outcome.primal[1:]))

    monkeypatch.setattr(lp, "solve", corrupted)
    path = DATA / "binomial.json"
    assert main(["--json", "emm", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    message, header, dumped = captured.err.split("\n", 2)
    assert message == ("noarb: internal inconsistency: martingale measure failed "
                       "re-verification: weights sum to 2, not 1")
    assert header == "noarb: the market it arose on, as a market file:"
    assert load_market(dumped) == load_market(path.read_text())


@pytest.mark.parametrize("concept", ["na1", "nupbr"])
def test_failing_route_without_arbitrage_exits_3(concept, monkeypatch, capsys):
    """On a finite market NA, NA1 and NUPBR coincide, so a failing route on a
    market where NA holds is two routes disagreeing: exit 3 with the market,
    never exit 1 without a witness."""
    from noarb import cli

    monkeypatch.setattr(cli, f"check_{concept}", lambda model: False)
    path = DATA / "binomial.json"
    assert main(["--json", "check", concept, str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    message, header, dumped = captured.err.split("\n", 2)
    assert message == f"noarb: internal inconsistency: {concept} fails but NA holds"
    assert header == "noarb: the market it arose on, as a market file:"
    assert load_market(dumped) == load_market(path.read_text())


def test_infinite_counterexample_gauge_exits_3(monkeypatch, capsys):
    """--n is validated before any work, so an infinite gauge is an internal
    fault (exit 3), not malformed input (exit 2)."""
    from noarb import lab

    monkeypatch.setattr(lab, "minkowski", lambda bset, x: math.inf)
    assert main(["--json", "counterexample", "--n", "3"]) == 3
    assert_counterexample_dumped(capsys.readouterr(), "counterexample gauges must be finite")


@pytest.mark.parametrize("concept", ["na", "all"])
def test_check_solves_na_once(concept, monkeypatch, capsys):
    from noarb import cli, concepts, market

    check_na, calls = market.check_na, []

    def counted(model):
        calls.append(model)
        return check_na(model)

    for module in (cli, concepts, market):
        monkeypatch.setattr(module, "check_na", counted)
    assert main(["--json", "check", concept, str(DATA / "dominance.json")]) == 1
    assert len(calls) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["witnesses"]["arbitrage"]["payoff"] == {"u": "1", "d": "1/2"}


def test_unexpected_error_exits_3(monkeypatch, capsys):
    from noarb import cli

    def broken(args):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "cmd_check", broken)
    assert main(["--json", "check", "na", str(DATA / "binomial.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "noarb: internal error: ValueError: boom\n"


@pytest.mark.parametrize("command", [["check", "na"], ["emm"]])
def test_corrupted_arbitrage_exits_3(command, monkeypatch, capsys):
    """The library's own witness check stops a bad arbitrage reaching a report."""
    from noarb import market

    build = market._strategy_from_coefficients
    monkeypatch.setattr(market, "_strategy_from_coefficients",
                        lambda *args: build(*args).scale(-1))
    assert main(["--json", *command, str(DATA / "dominance.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "arbitrage witness failed re-verification" in captured.err


def test_price_prints_answers_beyond_the_int_str_limit(tmp_path, capsys):
    """An exact answer longer than Python's int-to-str limit still prints."""
    E = 10 ** 2200
    u, d = Fraction(E + 7, E + 3), Fraction(E - 11, E + 13)
    market = json.loads((DATA / "binomial.json").read_text())
    market["assets"][0]["path"] = {"u": ["1", f"{u.numerator}/{u.denominator}"],
                                   "d": ["1", f"{d.numerator}/{d.denominator}"]}
    path = tmp_path / "long_digits.json"
    path.write_text(json.dumps(market))
    assert main(["--json", "price", str(path), str(DATA / "call_payoff.json")]) == 0
    report = json.loads(capsys.readouterr().out)

    def exact(text):  # int(Decimal(...)) is not bound by the int-to-str limit
        return Fraction(*(int(Decimal(part)) for part in text.split("/")))

    assert exact(report["price"]) == (1 - d) / (u - d)  # the call's risk-neutral price
    (hedge,) = report["witnesses"]["hedge"]
    assert exact(hedge["units"]) == 1 / (u - d)  # more than 4300 digits on top
    assert len(hedge["units"].split("/")[0]) > 4300


def test_size_caps_exit_2_before_any_work(monkeypatch, capsys):
    from noarb import cli, lab

    def no_work(*args, **kwargs):
        raise AssertionError("a capped size argument reached the library")

    monkeypatch.setattr(lab, "counterexample_report", no_work)
    monkeypatch.setattr(lab, "verify_lemma_suite", no_work)
    assert main(["counterexample", "--n", str(cli.MAX_TRUNCATION + 1)]) == 2
    assert capsys.readouterr().err == (
        f"noarb: input error: --n must be at most {cli.MAX_TRUNCATION}, its declared cap\n")
    argv = ["verify", "--seed", "0", "--instances", str(cli.MAX_INSTANCES + 1)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"noarb: input error: --instances must be at most {cli.MAX_INSTANCES}, "
        "its declared cap\n")


def test_counterexample_n1(capsys):
    assert main(["--json", "counterexample", "--n", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sup_squared_l2"] == "1" and out["min_indicator_gauge"] == "1"


def test_verify_self_test_detects_injection(capsys):
    code = main(["--json", "verify", "--seed", "1", "--instances", "2", "--self-test"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["violations"]


def test_human_output_mentions_verdict(capsys):
    main(["check", "na", str(DATA / "binomial.json")])
    assert "na: holds" in capsys.readouterr().out
    main(["emm", str(DATA / "dominance.json")])
    out = capsys.readouterr().out
    assert "none" in out and "arbitrage" in out


def test_console_entry_point_via_module():
    # the child imports the same package as this process, installed or not
    src = str(Path(noarb.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "noarb", "--json", "check", "all", str(DATA / "binomial.json")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "check_all_binomial.json").read_text()


def test_an_orthant_flag_is_an_unknown_key(tmp_path, capsys):
    # every cone contains −V₊, so a cone file has no flag to set
    for flag in (True, "yes"):
        cone = json.loads((DATA / "cone_with_gen.json").read_text())
        cone["includes_neg_orthant"] = flag
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(cone))
        assert main(["--json", "separate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "$.includes_neg_orthant: unknown key" in captured.err


def _colliding_market(ids=("a+b", "a", "b"), name="S"):
    """Outcomes ``a+b``, ``a`` and ``b`` with the t=1 cells {a+b} and {a, b}:
    both t=2 residuals would be keyed ``S/t=2/a+b``."""
    x, y, z = ids
    return {
        "outcomes": [{"id": o, "prob": "1/3"} for o in ids],
        "filtration": [[[x, y, z]], [[x], [y, z]], [[x], [y], [z]]],
        "assets": [{"name": name, "path": {x: ["2", "1", "1"], y: ["2", "4", "5"],
                                            z: ["2", "4", "3"]}}],
    }


@pytest.mark.parametrize("market, where", [
    (_colliding_market(), "$.outcomes[0].id"),
    (_colliding_market(ids=("a", "b/c", "d")), "$.outcomes[1].id"),
    (_colliding_market(ids=("a", "b", "c"), name="S/t=1"), "$.assets[0].name"),
], ids=["plus-in-id", "slash-in-id", "slash-in-name"])
def test_ids_that_would_collide_in_residual_keys_exit_2(market, where, tmp_path, capsys):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(market))
    assert main(["--json", "emm", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"noarb: input error: {where}: ")


def test_emm_reports_one_residual_per_step_asset_and_cell(capsys):
    reported = 0
    for name, has_emm in MARKET_FILES.items():
        path = DATA / name
        model = load_market(path.read_text())
        main(["--json", "emm", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert report["verdicts"]["emm_exists"] == has_emm, name
        if not has_emm:
            continue
        parts = model.filtration.partitions
        expected = len(model.assets) * sum(len(parts[t - 1]) for t in range(1, len(parts)))
        assert len(report["martingale_residuals"]) == expected, path.name
        reported += 1
    assert reported == 4
