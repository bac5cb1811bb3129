"""Command-line front door.

Every command loads exact-rational JSON inputs, drives the library, and
emits a report.  The library verifies every witness once, by direct
substitution, before it reaches the CLI, so witnesses print as returned.  Exit
codes are a stable contract: 0 the queried property holds (or the requested
artifact was produced), 1 it fails (a witness is in the report), 2 the
input was malformed, 3 two internal decision routes disagreed, a witness
failed its check, or anything else went wrong inside the program.  When an
exit 3 arises on a market, that market follows the message on standard
error as a market file, so the failure can be replayed.

``--json`` prints the machine-readable report document; the default output
is a short human-readable table.  JSON output is byte-stable for fixed
inputs: keys are sorted and all numbers are exact rational strings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import lab
from .concepts import full_verdict
from .errors import ContractViolation, InternalInconsistency, StructureError
from .fileio import dump_market, load_cone, load_market, load_payoff, values_by_outcome
from .lattice import RandomVariable
from .market import (
    MarketModel,
    Strategy,
    check_na,
    check_na1,
    check_nupbr,
    find_emm,
    martingale_residuals,
    superreplication_price,
    terminal_gain,
)
from .rationals import format_rational, parse_rational
from .separation import separate_at, strict_separator

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _format_map(mapping: dict) -> str:
    return "  ".join(f"{k}={v}" for k, v in mapping.items())


def _format_price(value) -> str:
    if value == math.inf:
        return "+inf"
    if value == -math.inf:
        return "-inf"
    return format_rational(value)


def _strategy_json(model: MarketModel, strategy: Strategy) -> list:
    """Sparse, self-describing holdings: period, asset name, cell outcomes."""
    space = model.space
    entries = []
    for t in range(1, model.horizon + 1):
        cells = model.filtration.partitions[t - 1]
        for a, asset in enumerate(model.assets):
            for ci, cell in enumerate(cells):
                units = strategy.holdings[t - 1][a][ci]
                if units:
                    entries.append({
                        "t": t,
                        "asset": asset.name,
                        "cell": [space.outcomes[i] for i in cell],
                        "units": format_rational(units),
                    })
    return entries


def _arbitrage_json(model: MarketModel, strategy: Strategy) -> dict:
    return {"strategy": _strategy_json(model, strategy),
            "payoff": values_by_outcome(terminal_gain(model, strategy))}


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise StructureError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise StructureError(f"{path}: not UTF-8 text (byte {exc.start})") from None


# --- commands ----------------------------------------------------------------

def cmd_check(args) -> tuple[int, dict, list[str]]:
    model = load_market(_read(args.market), args.market)
    witnesses: dict = {}
    if args.concept == "all":
        result = full_verdict(model)  # raises on disagreement
        verdicts, arbitrage = result.as_dict(), result.arbitrage
    elif args.concept == "na":
        na = check_na(model)
        verdicts, arbitrage = {"na": na.holds}, na.arbitrage
    else:
        route = {"na1": check_na1, "nupbr": check_nupbr}[args.concept]
        verdicts = {args.concept: route(model)}
        arbitrage = None if verdicts[args.concept] else check_na(model).arbitrage
    holds = all(verdicts.values())
    if arbitrage is not None:
        witnesses["arbitrage"] = _arbitrage_json(model, arbitrage)
    report = {
        "command": f"check {args.concept}",
        "market": os.path.basename(args.market),
        "verdicts": verdicts,
        "witnesses": witnesses,
        "exact": True,
    }
    lines = [f"{name}: {'holds' if value else 'FAILS'}"
             for name, value in sorted(verdicts.items())]
    if "arbitrage" in witnesses:
        lines.append(f"arbitrage payoff: {_format_map(witnesses['arbitrage']['payoff'])}")
    return (EXIT_HOLDS if holds else EXIT_FAILS), report, lines


def cmd_emm(args) -> tuple[int, dict, list[str]]:
    model = load_market(_read(args.market), args.market)
    result = find_emm(model)
    witnesses: dict = {}
    if result.measure is not None:
        q = result.measure
        residuals = {}
        for (t, a, ci), residual in martingale_residuals(model, q).items():
            ids = "+".join(model.space.outcomes[i] for i in model.filtration.partitions[t - 1][ci])
            residuals[f"{model.assets[a].name}/t={t}/{ids}"] = format_rational(residual)
        witnesses["measure"] = values_by_outcome(
            RandomVariable(model.space, q.weights))
        witnesses["density"] = {
            o: format_rational(d)
            for o, d in zip(model.space.outcomes, q.density())
        }
        report = {
            "command": "emm",
            "market": os.path.basename(args.market),
            "verdicts": {"emm_exists": True},
            "witnesses": witnesses,
            "martingale_residuals": residuals,
            "exact": True,
        }
        lines = [f"emm: {_format_map(witnesses['measure'])}",
                 f"density dQ/dP: {_format_map(witnesses['density'])}"]
        return EXIT_HOLDS, report, lines
    witnesses["arbitrage"] = _arbitrage_json(model, result.arbitrage)
    report = {
        "command": "emm",
        "market": os.path.basename(args.market),
        "verdicts": {"emm_exists": False},
        "witnesses": witnesses,
        "exact": True,
    }
    return EXIT_FAILS, report, ["emm: none (market admits arbitrage)",
                                f"arbitrage payoff: {_format_map(witnesses['arbitrage']['payoff'])}"]


def cmd_price(args) -> tuple[int, dict, list[str]]:
    model = load_market(_read(args.market), args.market)
    payoff = load_payoff(_read(args.payoff), model, args.payoff)
    if not payoff.is_nonneg:
        raise StructureError("$.payoff: entries must be nonnegative")
    result = superreplication_price(model, payoff)
    na_holds = check_na(model).holds
    witnesses: dict = {}
    if result.hedge is not None:
        witnesses["hedge"] = _strategy_json(model, result.hedge)
    report = {
        "command": "price",
        "market": os.path.basename(args.market),
        "payoff": values_by_outcome(payoff),
        "price": _format_price(result.price),
        "na_holds": na_holds,
        "verdicts": {"priced": True},
        "witnesses": witnesses,
        "exact": True,
    }
    lines = [f"superreplication price: {report['price']}"]
    if not na_holds:
        lines.append("warning: market admits arbitrage; the price is degenerate")
    return EXIT_HOLDS, report, lines


def cmd_counterexample(args) -> tuple[int, dict, list[str]]:
    if args.n < 1:
        raise StructureError("--n must be a positive integer")
    data = lab.counterexample_report(args.n).as_dict()
    report = {
        "command": "counterexample",
        "verdicts": {"zero_set_trivial": data["zero_set_trivial"]},
        "witnesses": {},
        "exact": True,
        **data,
    }
    lines = [
        f"truncation N = {args.n}",
        f"sup of squared l2 norm over B: {data['sup_squared_l2']}",
        f"sup norm (l-infinity) bound:   {data['sup_norm_linf']}",
        f"min indicator gauge:           {data['min_indicator_gauge']}",
        f"intersection of scaled copies trivial: {data['zero_set_trivial']}",
    ]
    return EXIT_HOLDS, report, lines


def cmd_verify(args) -> tuple[int, dict, list[str]]:
    if args.instances < 1:
        raise StructureError("--instances must be a positive integer")
    result = lab.verify_lemma_suite(args.seed, args.instances, self_test=args.self_test)
    report = {
        "command": "verify",
        "verdicts": {"zero_violations": result.passed},
        "witnesses": {},
        "exact": True,
        **result.as_dict(),
    }
    return (EXIT_HOLDS if result.passed else EXIT_FAILS), report, result.summary().splitlines()


def cmd_separate(args) -> tuple[int, dict, list[str]]:
    cone = load_cone(_read(args.cone), args.cone)
    witnesses: dict = {}
    if args.target is not None:
        parts = [p.strip() for p in args.target.split(",")]
        if len(parts) != len(cone.space):
            raise StructureError(
                f"--target needs {len(cone.space)} comma-separated rationals")
        target = RandomVariable(cone.space, [parse_rational(p, "--target") for p in parts])
        functional = separate_at(cone, target)
        found = functional is not None
        if found:
            witnesses["functional"] = values_by_outcome(
                RandomVariable(cone.space, functional.coefficients))
        report = {
            "command": "separate",
            "cone": os.path.basename(args.cone),
            "target": values_by_outcome(target),
            "verdicts": {"separator_exists": found},
            "witnesses": witnesses,
            "exact": True,
        }
        lines = ([f"separating functional: {_format_map(witnesses['functional'])}"] if found
                 else ["no separator: target lies inside the cone"])
        return (EXIT_HOLDS if found else EXIT_FAILS), report, lines
    result = strict_separator(cone)
    found = result.functional is not None
    if found:
        witnesses["functional"] = values_by_outcome(
            RandomVariable(cone.space, result.functional.coefficients))
        extra = {
            "verified_on": result.report.verified_on,
            "normalization": format_rational(result.report.normalization),
        }
        lines = [f"strictly positive separating functional: "
                 f"{_format_map(witnesses['functional'])}"]
    else:
        witnesses["violating_direction"] = values_by_outcome(result.violating)
        extra = {}
        lines = [f"no strict separator; violating direction: "
                 f"{_format_map(witnesses['violating_direction'])}"]
    report = {
        "command": "separate",
        "cone": os.path.basename(args.cone),
        "verdicts": {"separator_exists": found},
        "witnesses": witnesses,
        "exact": True,
        **extra,
    }
    return (EXIT_HOLDS if found else EXIT_FAILS), report, lines


# --- entry point ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noarb",
        description="Exact no-arbitrage analysis of finite-state markets.")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable report document")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a no-arbitrage property")
    p.add_argument("concept", choices=["na", "na1", "nupbr", "all"])
    p.add_argument("market", help="market JSON file")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("emm", help="compute an equivalent martingale measure")
    p.add_argument("market")
    p.set_defaults(handler=cmd_emm)

    p = sub.add_parser("price", help="superreplication price of a payoff")
    p.add_argument("market")
    p.add_argument("payoff", help="payoff JSON file")
    p.set_defaults(handler=cmd_price)

    p = sub.add_parser("counterexample",
                       help="norm-growth vs gauge report for the scaled unit-vector family")
    p.add_argument("--n", type=int, required=True, help="truncation dimension")
    p.set_defaults(handler=cmd_counterexample)

    p = sub.add_parser("verify", help="run the randomized lemma suite")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--instances", type=int, required=True)
    p.add_argument("--self-test", action="store_true",
                   help="inject one violation to confirm the harness detects it")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("separate", help="separating functionals for a cone file")
    p.add_argument("cone", help="cone JSON file")
    p.add_argument("--target", help="comma-separated rational vector to separate")
    p.set_defaults(handler=cmd_separate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, report, lines = args.handler(args)
    except (StructureError, ContractViolation) as exc:
        print(f"noarb: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInconsistency as exc:
        print(f"noarb: internal inconsistency: {exc}", file=sys.stderr)
        model = exc.data.get("model")
        if isinstance(model, MarketModel):
            print("noarb: the market it arose on, as a market file:", file=sys.stderr)
            print(json.dumps(dump_market(model), indent=2, sort_keys=True), file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # never a traceback with exit 1, which means "fails"
        print(f"noarb: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
