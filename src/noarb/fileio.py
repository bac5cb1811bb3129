"""JSON input formats and their exact round-trips.

Rationals travel as strings ("p" or "p/q"); decimal floats are rejected
everywhere because exactness is the product.  Market files key asset paths
by outcome identifier rather than by position, so a reshuffled outcome list
cannot silently misalign a filtration cell with a price.

All loaders re-check every model invariant and raise ``StructureError``
with a JSON-path (and, for syntax errors, line/column) pointing at the
offending element.  Every object has a fixed key set: an unknown key, such
as a misspelt optional flag, is an error rather than silently ignored, and
so is a key repeated in one object, which JSON would resolve last-wins.
Every object a loader reads passes through ``_expect(..., dict, ...)``,
which rejects a repeated key there, under the object's path.

In market files an outcome id may not contain ``+`` or ``/`` and an asset
name may not contain ``/``: ``noarb emm`` keys each martingale residual as
``name/t=T/id+id+...``, and these rules keep the keys one-to-one.
``_outcome_id`` and ``_asset_name`` state the rule once; ``load_market``
and ``dump_market`` both apply it, so every market ``dump_market`` writes
loads again.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Any

from .cones import PolyhedralCone
from .errors import StructureError
from .lattice import RandomVariable, SampleSpace
from .market import Asset, Filtration, MarketModel
from .rationals import format_rational, parse_rational


def _fail(path: str, message: str):
    raise StructureError(f"{path}: {message}")


def _expect(value, kind, path: str):
    names = {dict: "object", list: "array", str: "string"}
    if not isinstance(value, kind):
        got = "dict" if isinstance(value, dict) else type(value).__name__
        _fail(path, f"expected {names.get(kind, kind.__name__)}, got {got}")
    if type(value) is _Repeated:
        _fail(path, f"repeated key {value.key!r} in a JSON object")
    return value


def _get(obj: dict, key: str, kind, path: str):
    if key not in obj:
        _fail(path, f"missing key {key!r}")
    return _expect(obj[key], kind, f"{path}.{key}")


def _keys(obj: dict, allowed: tuple[str, ...], path: str) -> None:
    for key in obj:
        if key not in allowed:
            _fail(f"{path}.{key}", f"unknown key (expected one of {', '.join(allowed)})")


class _Repeated(dict):
    """A JSON object that repeats its ``key``; ``_expect`` rejects it with
    its JSON path, which the parser does not know."""

    key: str


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) == len(pairs):
        return obj
    marked, seen = _Repeated(obj), set()
    for key, _ in pairs:
        if key in seen:
            marked.key = key
            return marked
        seen.add(key)


def parse_json(text: str, path: str = "<input>") -> Any:
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise StructureError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise StructureError(f"{path}: JSON nested too deeply") from None
    except ValueError:  # Python's int/str conversion limit
        raise StructureError(
            f"{path}: a JSON number has more than {sys.get_int_max_str_digits()} digits"
        ) from None


def load_market(text: str, name: str = "<input>") -> MarketModel:
    doc = _expect(parse_json(text, name), dict, "$")
    _keys(doc, ("outcomes", "filtration", "assets"), "$")
    space = _load_space(doc)
    for i, o in enumerate(space.outcomes):
        _outcome_id(i, o)
    cells = []
    for t, level in enumerate(_get(doc, "filtration", list, "$")):
        level = _expect(level, list, f"$.filtration[{t}]")
        parsed = []
        for c, cell in enumerate(level):
            cell = _expect(cell, list, f"$.filtration[{t}][{c}]")
            parsed.append([_expect(o, str, f"$.filtration[{t}][{c}]") for o in cell])
        cells.append(parsed)
    try:
        filtration = Filtration(space, cells)
    except StructureError as exc:
        _fail("$.filtration", str(exc))
    horizon = filtration.horizon
    assets = []
    for a, entry in enumerate(_get(doc, "assets", list, "$")):
        entry = _expect(entry, dict, f"$.assets[{a}]")
        _keys(entry, ("name", "path"), f"$.assets[{a}]")
        name = _asset_name(a, _get(entry, "name", str, f"$.assets[{a}]"))
        path_obj = _get(entry, "path", dict, f"$.assets[{a}]")
        per_time: list[list[Fraction]] = [[] for _ in range(horizon + 1)]
        for o, series in _by_outcome(path_obj, space, f"$.assets[{a}].path"):
            series = _expect(series, list, f"$.assets[{a}].path.{o}")
            if len(series) != horizon + 1:
                _fail(f"$.assets[{a}].path.{o}",
                      f"expected {horizon + 1} prices, got {len(series)}")
            for t, raw in enumerate(series):
                try:  # the price's JSON path is written out only when it fails
                    value = parse_rational(raw)
                except StructureError:
                    where = f"$.assets[{a}].path.{o}[{t}]"
                    value = parse_rational(_expect(raw, str, where), where)
                per_time[t].append(value)
        path = tuple([RandomVariable(space, vals) for vals in per_time])
        assets.append(Asset(name, path))
    try:
        return MarketModel(filtration, assets)
    except StructureError as exc:
        _fail("$.assets", str(exc))


def _outcome_id(i: int, o: str) -> str:
    """A market file's outcome id ``o`` at ``$.outcomes[i]``, checked."""
    if "+" in o or "/" in o:
        _fail(f"$.outcomes[{i}].id", f"{o!r}: an outcome id may not contain '+' or '/'")
    return o


def _asset_name(a: int, name: str) -> str:
    """A market file's asset name at ``$.assets[a]``, checked."""
    if "/" in name:
        _fail(f"$.assets[{a}].name", f"{name!r}: an asset name may not contain '/'")
    return name


def _by_outcome(obj: dict, space: SampleSpace, path: str) -> list[tuple[str, Any]]:
    """An object keyed by outcome id, as (id, value) pairs in the space's
    order; every outcome must appear, and no other key."""
    unknown = set(obj) - set(space.outcomes)
    if unknown:
        _fail(path, f"unknown outcome ids {sorted(unknown)}")
    for o in space.outcomes:
        if o not in obj:
            _fail(path, f"missing outcome {o!r}")
    return [(o, obj[o]) for o in space.outcomes]


def _load_space(doc: dict) -> SampleSpace:
    ids, probs = [], []
    for i, entry in enumerate(_get(doc, "outcomes", list, "$")):
        entry = _expect(entry, dict, f"$.outcomes[{i}]")
        _keys(entry, ("id", "prob"), f"$.outcomes[{i}]")
        ids.append(_get(entry, "id", str, f"$.outcomes[{i}]"))
        raw = _get(entry, "prob", str, f"$.outcomes[{i}]")
        probs.append(parse_rational(raw, f"$.outcomes[{i}].prob"))
    try:
        return SampleSpace(ids, probs)
    except StructureError as exc:
        _fail("$.outcomes", str(exc))


def dump_market(model: MarketModel) -> dict:
    """Schema-shaped dict; parse(dump(model)) reproduces the model exactly.

    A model whose outcome ids or asset names break the market-file rule
    raises ``StructureError`` at the JSON path the loader would name.
    """
    space = model.space
    return {
        "outcomes": [
            {"id": _outcome_id(i, o), "prob": format_rational(p)}
            for i, (o, p) in enumerate(zip(space.outcomes, space.probabilities))
        ],
        "filtration": [
            [[space.outcomes[i] for i in cell] for cell in level]
            for level in model.filtration.partitions
        ],
        "assets": [
            {
                "name": _asset_name(a, asset.name),
                "path": {
                    o: [format_rational(x.values[i]) for x in asset.path]
                    for i, o in enumerate(space.outcomes)
                },
            }
            for a, asset in enumerate(model.assets)
        ],
    }


def load_payoff(text: str, model: MarketModel, name: str = "<input>") -> RandomVariable:
    doc = _expect(parse_json(text, name), dict, "$")
    _keys(doc, ("payoff",), "$")
    payoff = _get(doc, "payoff", dict, "$")
    values = [parse_rational(_expect(raw, str, f"$.payoff.{o}"), f"$.payoff.{o}")
              for o, raw in _by_outcome(payoff, model.space, "$.payoff")]
    return RandomVariable(model.space, values)


def load_cone(text: str, name: str = "<input>") -> PolyhedralCone:
    doc = _expect(parse_json(text, name), dict, "$")
    _keys(doc, ("outcomes", "generators"), "$")
    space = _load_space(doc)
    generators = []
    for g, vec in enumerate(_get(doc, "generators", list, "$")):
        vec = _expect(vec, list, f"$.generators[{g}]")
        if len(vec) != len(space):
            _fail(f"$.generators[{g}]",
                  f"expected {len(space)} entries, got {len(vec)}")
        values = [parse_rational(_expect(raw, str, f"$.generators[{g}][{i}]"),
                                 f"$.generators[{g}][{i}]")
                  for i, raw in enumerate(vec)]
        generators.append(RandomVariable(space, values))
    return PolyhedralCone(space, generators)


def dump_cone(cone: PolyhedralCone) -> dict:
    """Schema-shaped dict; ``load_cone`` of its JSON reproduces the same set.
    A cone file has no span: each span element h is written, after the
    generators and in order, as the generator pair h, −h, which poses the
    same separation LP row for row."""
    space = cone.space
    vectors = [g.values for g in cone.generators]
    for h in cone.span:
        vectors += [h.values, [-v for v in h.values]]
    return {
        "outcomes": [{"id": o, "prob": format_rational(p)}
                     for o, p in zip(space.outcomes, space.probabilities)],
        "generators": [[format_rational(v) for v in g] for g in vectors],
    }


def values_by_outcome(x: RandomVariable) -> dict:
    return {o: format_rational(v) for o, v in zip(x.space.outcomes, x.values)}
