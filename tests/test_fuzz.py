"""Fuzz the CLI's exit-code contract with mutated copies of the input files.

Each mutant is a market, payoff or cone file from ``tests/data`` with one to
three edits: a key dropped, renamed or repeated, a value of the wrong JSON
type, a malformed or extreme rational, or a renamed outcome id.  Whatever the
mutant, ``noarb`` must answer it (exit 0 or 1) or reject it as input (exit 2);
exit 3 or a traceback on such a file is a bug.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from noarb.cli import main

DATA = Path(__file__).parent / "data"
MARKETS = ["binomial.json", "trinomial.json", "dominance.json"]
PAYOFFS = ["call_payoff.json", "zero_payoff.json"]
CONES = ["orthant_cone.json", "cone_with_gen.json", "cone_with_e2.json"]

WRONG_TYPES = [1, -2, 1.5, None, True, [], {}, "x", ["1"], {"id": "u"}]
BAD_RATIONALS = ["0.5", "1e3", "-1", "-3/4", "0", "0/1", "1/0", "1/-2", " 1 ", "",
                 "3" * 4400, "1/" + "7" * 4400, "2" * 300 + "/" + "3" * 299, "+2"]


def _again(key):
    """A key to write a second time into its object (a repeated JSON key)."""
    return ("again", _name(key))


def _name(key):
    return key[1] if isinstance(key, tuple) else key


def _encode(node) -> str:
    if isinstance(node, dict):
        return "{" + ", ".join(f"{json.dumps(_name(k))}: {_encode(v)}"
                               for k, v in node.items()) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_encode(v) for v in node) + "]"
    return json.dumps(node)


def _paths(node, prefix=()):
    """The path of every node in the document, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _rename_outcome(node, old, new, everywhere):
    """Rename outcome id ``old`` as a string and as a key; only the first
    occurrence unless ``everywhere``."""
    done = False

    def walk(x):
        nonlocal done
        if isinstance(x, str):
            if x == old and (everywhere or not done):
                done = True
                return new
            return x
        if isinstance(x, list):
            return [walk(v) for v in x]
        if isinstance(x, dict):
            out = {}
            for k, v in x.items():
                if k == old and (everywhere or not done):
                    done = True
                    k = new
                out[k] = walk(v)
            return out
        return x

    return walk(node)


@st.composite
def mutants(draw, names):
    name = draw(st.sampled_from(names))
    doc = json.loads((DATA / name).read_text())
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "rename", "repeat", "type", "rational", "outcome"]))
        paths = [p for p in _paths(doc) if p]
        keyed = [p for p in paths if isinstance(_parent(doc, p), dict)]
        if kind in ("drop", "rename", "repeat") and keyed:
            path = draw(st.sampled_from(keyed))
            parent, key = _parent(doc, path), path[-1]
            if kind == "drop":
                del parent[key]
            elif kind == "rename":
                new = draw(st.sampled_from(["id", "prob", "path", "name", "u", "d", "a",
                                            "payoff", "generators", _name(key) + "_"]))
                if new not in parent:
                    parent[new] = parent.pop(key)
            else:
                value = draw(st.sampled_from([parent[key], "1", []]))
                parent[_again(key)] = copy.deepcopy(value)
        elif kind == "type" and paths:
            path = draw(st.sampled_from(paths))
            _parent(doc, path)[path[-1]] = copy.deepcopy(draw(st.sampled_from(WRONG_TYPES)))
        elif kind == "rational":
            strings = [p for p in paths if isinstance(_parent(doc, p)[p[-1]], str)]
            if strings:
                path = draw(st.sampled_from(strings))
                _parent(doc, path)[path[-1]] = draw(st.sampled_from(BAD_RATIONALS))
        elif kind == "outcome":
            old = draw(st.sampled_from(["u", "m", "d", "a", "b", "c"]))
            new = draw(st.sampled_from(["u", "d", "a", "z", "", "u d"]))
            doc = _rename_outcome(doc, old, new, everywhere=draw(st.booleans()))
    return name, _encode(doc)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_contract(argv):
    code, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "internal error" not in err and "Traceback" not in err, (argv, err)


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(mutant=mutants(MARKETS))
def test_fuzzed_market_files_keep_the_exit_contract(mutant, tmp_path):
    name, text = mutant
    path = tmp_path / name
    path.write_text(text)
    for command in (["check", "all"], ["emm"]):
        _assert_contract([*command, str(path)])
    _assert_contract(["price", str(path), str(DATA / "call_payoff.json")])


@FUZZ
@given(mutant=mutants(PAYOFFS), market=st.sampled_from(MARKETS))
def test_fuzzed_payoff_files_keep_the_exit_contract(mutant, market, tmp_path):
    name, text = mutant
    path = tmp_path / name
    path.write_text(text)
    _assert_contract(["price", str(DATA / market), str(path)])


@FUZZ
@given(mutant=mutants(CONES), target=st.sampled_from(["1,0", "0,1", "1,0,1", "2,1,0"]))
def test_fuzzed_cone_files_keep_the_exit_contract(mutant, target, tmp_path):
    name, text = mutant
    path = tmp_path / name
    path.write_text(text)
    _assert_contract(["separate", str(path)])
    _assert_contract(["separate", str(path), "--target", target])
