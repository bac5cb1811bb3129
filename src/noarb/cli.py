"""Command-line front door.

Every command loads exact-rational JSON inputs, drives the library, and
emits a report: its ``verdicts``, the ``witnesses`` behind them, and the
command's own keys.  The library verifies every witness once, by direct
substitution, before it reaches the CLI, so witnesses print as returned.  Exit
codes are a stable contract: 0 every verdict in the report holds (``price``
reports ``priced``, which holds whenever a price was produced), 1 some
verdict fails (a witness is in the report), 2 the input was malformed or a
size argument exceeds its declared cap, 3 two internal decision routes
disagreed, a witness failed its check, or anything else went wrong inside
the program.  When an exit 3 arises on a market or a cone, it follows the
message on standard error as a market or cone file, so the failure can be
replayed.
``main(argv)`` returns the exit code for every input, usage errors (2) and
``--help`` (0) included, so it can be called in-process.

``--json`` prints the machine-readable report document; the default output
is a short human-readable table.  JSON output is byte-stable for fixed
inputs: keys are sorted and all numbers are exact rational strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import lab
from .concepts import full_verdict
from .cones import PolyhedralCone, SemiSolidSet
from .errors import InternalInconsistency, StructureError
from .fileio import dump_cone, dump_market, load_cone, load_market, load_payoff, values_by_outcome
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

#: Declared caps on the size arguments; larger values exit 2 before any work.
MAX_TRUNCATION = 200  # counterexample --n
MAX_INSTANCES = 2000  # verify --instances


def _format_map(mapping: dict) -> str:
    return "  ".join(f"{k}={v}" for k, v in mapping.items())


def _format_price(value) -> str:
    if value == -math.inf:
        return "-inf"
    return format_rational(value)


def _strategy_json(model: MarketModel, strategy: Strategy) -> list:
    """Sparse, self-describing holdings: period, asset name, cell outcomes."""
    outcomes, parts = model.space.outcomes, model.filtration.partitions
    return [{"t": t, "asset": model.assets[a].name,
             "cell": [outcomes[i] for i in parts[t - 1][c]], "units": format_rational(units)}
            for (t, a, c), units in strategy.holdings]


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

def _report(command: str, verdicts: dict, witnesses: dict, **fields) -> dict:
    """The envelope every report shares, plus the command's own keys."""
    return {"command": command, "verdicts": verdicts, "witnesses": witnesses,
            "exact": True, **fields}


def _count(value: int, option: str, cap: int) -> int:
    """A size argument, checked against its declared cap before any work."""
    if value < 1:
        raise StructureError(f"{option} must be a positive integer")
    if value > cap:
        raise StructureError(f"{option} must be at most {cap}, its declared cap")
    return value


def cmd_check(args) -> tuple[dict, list[str]]:
    model = load_market(_read(args.market), args.market)
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
        if not verdicts[args.concept] and arbitrage is None:
            # on a finite market NA, NA1 and NUPBR coincide
            raise InternalInconsistency(f"{args.concept} fails but NA holds", model=model)
    witnesses: dict = {}
    lines = [f"{name}: {'holds' if value else 'FAILS'}"
             for name, value in sorted(verdicts.items())]
    if arbitrage is not None:
        witnesses["arbitrage"] = _arbitrage_json(model, arbitrage)
        lines.append(f"arbitrage payoff: {_format_map(witnesses['arbitrage']['payoff'])}")
    return _report(f"check {args.concept}", verdicts, witnesses,
                   market=os.path.basename(args.market)), lines


def cmd_emm(args) -> tuple[dict, list[str]]:
    model = load_market(_read(args.market), args.market)
    result = find_emm(model)
    q = result.measure
    fields: dict = {"market": os.path.basename(args.market)}
    if q is None:
        witnesses = {"arbitrage": _arbitrage_json(model, result.arbitrage)}
        lines = ["emm: none (market admits arbitrage)",
                 f"arbitrage payoff: {_format_map(witnesses['arbitrage']['payoff'])}"]
    else:
        witnesses = {
            "measure": values_by_outcome(RandomVariable(model.space, q.weights)),
            "density": {o: format_rational(d)
                        for o, d in zip(model.space.outcomes, q.density())},
        }
        residuals = fields["martingale_residuals"] = {}
        for (t, a, ci), residual in martingale_residuals(model, q).items():
            ids = "+".join(model.space.outcomes[i] for i in model.filtration.partitions[t - 1][ci])
            residuals[f"{model.assets[a].name}/t={t}/{ids}"] = format_rational(residual)
        lines = [f"emm: {_format_map(witnesses['measure'])}",
                 f"density dQ/dP: {_format_map(witnesses['density'])}"]
    return _report("emm", {"emm_exists": q is not None}, witnesses, **fields), lines


def cmd_price(args) -> tuple[dict, list[str]]:
    model = load_market(_read(args.market), args.market)
    payoff = load_payoff(_read(args.payoff), model, args.payoff)
    if not payoff.is_nonneg:
        raise StructureError("$.payoff: entries must be nonnegative")
    result = superreplication_price(model, payoff)
    na_holds = check_na(model).holds  # a finite price does not prove NA
    witnesses = {} if result.hedge is None else {"hedge": _strategy_json(model, result.hedge)}
    price = _format_price(result.price)
    lines = [f"superreplication price: {price}"]
    if not na_holds:
        lines.append("warning: market admits arbitrage; the price is degenerate")
    return _report("price", {"priced": True}, witnesses, market=os.path.basename(args.market),
                   payoff=values_by_outcome(payoff), price=price, na_holds=na_holds), lines


def cmd_counterexample(args) -> tuple[dict, list[str]]:
    n = _count(args.n, "--n", MAX_TRUNCATION)
    data = lab.counterexample_report(n).as_dict()
    lines = [
        f"truncation N = {n}",
        f"sup of squared l2 norm over B: {data['sup_squared_l2']}",
        f"sup norm (l-infinity) bound:   {data['sup_norm_linf']}",
        f"min indicator gauge:           {data['min_indicator_gauge']}",
        f"intersection of scaled copies trivial: {data['zero_set_trivial']}",
    ]
    return _report("counterexample", {"zero_set_trivial": data["zero_set_trivial"]}, {},
                   **data), lines


def cmd_verify(args) -> tuple[dict, list[str]]:
    instances = _count(args.instances, "--instances", MAX_INSTANCES)
    result = lab.verify_lemma_suite(args.seed, instances, self_test=args.self_test)
    return (_report("verify", {"zero_violations": result.passed}, {}, **result.as_dict()),
            result.summary().splitlines())


def cmd_separate(args) -> tuple[dict, list[str]]:
    cone = load_cone(_read(args.cone), args.cone)
    fields: dict = {"cone": os.path.basename(args.cone)}
    witnesses: dict = {}
    if args.target is None:
        result = strict_separator(cone)
        separator, label = None, "strictly positive separating functional"
        if result.measure is None:
            witnesses["violating_direction"] = values_by_outcome(result.violating)
            miss = ("no strict separator; violating direction: "
                    f"{_format_map(witnesses['violating_direction'])}")
        else:
            separator = RandomVariable(cone.space, result.measure.weights)
            fields["verified_on"] = len(cone.generators)
            fields["normalization"] = "1"  # a measure has mass 1
    else:
        parts = args.target.split(",")
        if len(parts) != len(cone.space):
            raise StructureError(
                f"--target needs {len(cone.space)} comma-separated rationals")
        target = RandomVariable(cone.space, [parse_rational(p, "--target") for p in parts])
        fields["target"] = values_by_outcome(target)
        separator, label = separate_at(cone, target), "separating functional"
        miss = "no separator: target lies inside the cone"
    if separator is None:
        lines = [miss]
    else:
        witnesses["functional"] = values_by_outcome(separator)
        lines = [f"{label}: {_format_map(witnesses['functional'])}"]
    return _report("separate", {"separator_exists": separator is not None}, witnesses,
                   **fields), lines


# --- entry point ---------------------------------------------------------------

@functools.cache  # one parser per process, built by the first call of main
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

    p = sub.add_parser("emm", help="compute an equivalent martingale measure")
    p.add_argument("market")

    p = sub.add_parser("price", help="superreplication price of a payoff")
    p.add_argument("market")
    p.add_argument("payoff", help="payoff JSON file")

    p = sub.add_parser("counterexample",
                       help="norm-growth vs gauge report for the scaled unit-vector family")
    p.add_argument("--n", type=int, required=True, help="truncation dimension")

    p = sub.add_parser("verify", help="run the randomized lemma suite")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--instances", type=int, required=True)
    p.add_argument("--self-test", action="store_true",
                   help="inject one violation to confirm the harness detects it")

    p = sub.add_parser("separate", help="separating functionals for a cone file")
    p.add_argument("cone", help="cone JSON file")
    p.add_argument("--target", help="comma-separated rational vector to separate")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or --help (0)
        return exc.code
    try:  # the command function is looked up per call, not held by the parser
        report, lines = globals()[f"cmd_{args.command}"](args)
    except StructureError as exc:
        print(f"noarb: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInconsistency as exc:
        print(f"noarb: internal inconsistency: {exc}", file=sys.stderr)
        # a semi-solid set goes out as its generators, in the cone file's shape
        for key, kind, noun, file, dump in (
                ("model", MarketModel, "market", "market", dump_market),
                ("cone", PolyhedralCone, "cone", "cone", dump_cone),
                ("bset", SemiSolidSet, "semi-solid set", "cone",
                 lambda bset: dump_cone(PolyhedralCone(bset.space, bset.generators)))):
            value = exc.data.get(key)
            if isinstance(value, kind):
                print(f"noarb: the {noun} it arose on, as a {file} file:", file=sys.stderr)
                print(json.dumps(dump(value), indent=2, sort_keys=True), file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # never a traceback with exit 1, which means "fails"
        print(f"noarb: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return EXIT_HOLDS if all(report["verdicts"].values()) else EXIT_FAILS


if __name__ == "__main__":
    sys.exit(main())
