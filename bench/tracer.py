"""Outside-in span tracer: wraps noarb's public functions from the outside.

Nothing under ``src/`` knows about it.  ``concepts``, ``cli``, ``lab`` and
the package ``__init__`` import route functions by name, and modules call
their own functions through module globals, so wrapping one attribute is not
enough: ``begin`` replaces *every* binding of each traced function in every
loaded ``noarb`` module, and ``end`` puts the originals back.  Untraced runs
never construct a ``Tracer``, so they run the library untouched.

Spans stay in memory, each with its operation id and parent span, until the
run writes them out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: Traced functions, as ``<module>.<function>`` under the ``noarb`` package.
SPAN_NAMES = (
    "lp.solve",
    "lp.feasible",
    "market.check_na",
    "market.check_na1",
    "market.check_nupbr",
    "market.find_emm",
    "market.superreplication_price",
    "market.in_budget_set",
    "separation.strict_separator",
    "separation.separate_at",
    "cones.minkowski",
    "cones.semisolid_member",
    "cones.cone_member",
    "concepts.full_verdict",
    "fileio.load_market",
    "fileio.load_payoff",
    "cli.main",
    "lab.verify_lemma_suite",
    "lab.counterexample_report",
)


class Span:
    __slots__ = ("op", "id", "parent", "name", "start", "end", "args", "result")

    def __init__(self, op, span_id, parent, name, args):
        self.op = op
        self.id = span_id
        self.parent = parent
        self.name = name
        self.args = args
        self.result = None
        self.start = self.end = 0

    @property
    def duration(self) -> int:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"op": self.op, "id": self.id, "parent": self.parent,
                "name": self.name, "start_ns": self.start, "end_ns": self.end}


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []      # every finished span of the run
        self._op_spans: list[Span] = []  # finished spans of the current op
        self._stack: list[Span] = []
        self._op = -1
        self._next_id = 0
        self._patches = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "noarb" or name.startswith("noarb.")]
        for span_name in SPAN_NAMES:
            home = sys.modules.get(f"noarb.{span_name.split('.')[0]}")
            if home is None:
                continue  # module not loaded, so nothing can call it
            original = getattr(home, span_name.split(".")[1])
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def _wrap(self, name, fn):
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(self._op, self._next_id, stack[-1].id if stack else None, name, args)
            self._next_id += 1
            stack.append(span)
            span.start = clock()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = clock()
                stack.pop()
                self._op_spans.append(span)

        return wrapper

    def begin(self, op: int) -> None:
        """Start recording operation ``op`` with the wrappers in place."""
        self._op = op
        self._op_spans = []
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def end(self) -> list[Span]:
        """Restore the originals and return the operation's spans in call order."""
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        spans = sorted(self._op_spans, key=lambda s: s.id)
        self.spans.extend(spans)
        return spans

    def release(self, spans: list[Span]) -> None:
        """Drop the arguments and results kept for per-operation analysis."""
        for span in spans:
            span.args = span.result = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def _result_bits(result) -> int:
    """Largest numerator or denominator bit length in an LP's returned vectors."""
    values = []
    for field in ("primal", "dual", "upper_duals", "ray",
                  "witness", "certificate", "upper_certificate"):
        values.extend(getattr(result, field, None) or ())
    value = getattr(result, "objective_value", None)
    if value is not None:
        values.append(value)
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values), default=0)


class LayerStats:
    """Per-layer totals over the operations of a traced run."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.busy_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.status = {"optimal": 0, "unbounded": 0, "infeasible": 0}
        self.lp_count = self.lp_cells = self.rows_max = self.cols_max = self.bits_max = 0
        self.solves = self.repeats = 0
        self.ops = self.op_ns = 0
        self.markets = self.na_decided = self.na_holds = 0
        self.outcomes = []
        self.periods = []
        self.assets = []

    def add(self, spans: list[Span], op_ns: int) -> None:
        """Fold in one operation's spans, given in call order."""
        self.ops += 1
        self.op_ns += op_ns
        covered = {}
        for s in spans:
            if s.parent is not None:
                covered[s.parent] = covered.get(s.parent, 0) + s.duration
        seen_problems = set()
        models = {}
        for s in spans:
            self.calls[s.name] += 1
            self.busy_ns[s.name] += s.duration
            self.self_ns[s.name] += s.duration - covered.get(s.id, 0)
            layer = s.name.split(".")[0]
            if layer == "lp":
                problem = s.args[0]
                self.lp_count += 1
                self.lp_cells += problem.num_rows * problem.num_vars
                self.rows_max = max(self.rows_max, problem.num_rows)
                self.cols_max = max(self.cols_max, problem.num_vars)
                self.bits_max = max(self.bits_max, _result_bits(s.result))
            if s.name == "lp.solve":
                self.solves += 1
                if problem in seen_problems:
                    self.repeats += 1
                seen_problems.add(problem)
                if s.result is not None:
                    self.status[s.result.status] += 1
            if layer in ("market", "concepts"):
                model = models.setdefault(id(s.args[0]), [s.args[0], None])
                if s.name == "market.check_na" and model[1] is None and s.result is not None:
                    model[1] = s.result.holds
        for model, holds in models.values():
            self.markets += 1
            self.outcomes.append(len(model.space))
            self.periods.append(model.horizon)
            self.assets.append(len(model.assets))
            if holds is not None:
                self.na_decided += 1
                self.na_holds += holds

    def metrics(self) -> dict:
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.busy_s"] = (self.busy_ns[name] / 1e9, "s")
            out[f"{name}.self_s"] = (self.self_ns[name] / 1e9, "s")
        for status, count in self.status.items():
            out[f"lp.status.{status}"] = (count, "count")
        lp_ns = self.busy_ns["lp.solve"] + self.busy_ns["lp.feasible"]
        out["lp.rows_max"] = (self.rows_max, "count")
        out["lp.cols_max"] = (self.cols_max, "count")
        out["lp.cells_mean"] = (self.lp_cells / self.lp_count if self.lp_count else 0, "count")
        out["lp.result_bits_max"] = (self.bits_max, "bits")
        out["lp.solve.repeat_ratio"] = (self.repeats / self.solves if self.solves else 0, "ratio")
        out["lp.busy_share"] = (lp_ns / self.op_ns if self.op_ns else 0, "ratio")
        out["traffic.ops"] = (self.ops, "count")
        out["traffic.markets"] = (self.markets, "count")
        out["traffic.na_decided"] = (self.na_decided, "count")
        out["traffic.arbitrage_free_share"] = (
            self.na_holds / self.na_decided if self.na_decided else 0, "ratio")
        for key, values in (("outcomes", self.outcomes), ("periods", self.periods),
                            ("assets", self.assets)):
            out[f"traffic.{key}_mean"] = (sum(values) / len(values) if values else 0, "count")
            out[f"traffic.{key}_max"] = (max(values, default=0), "count")
        return out
