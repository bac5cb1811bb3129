"""The benchmark's workloads.

Each one makes its inputs from the seed in ``setup``, runs one operation per
call of ``run`` (the only timed code), and checks that operation's answer in
``check`` against something the library did not produce the same way.  The
library only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
from fractions import Fraction


class Workload:
    name = ""
    #: The reported tail percentile.  Fixed per workload, so every run reports
    #: the same one; a run goes on until enough samples lie beyond it.
    tail_pct = 90
    #: Operations after which the mix of inputs repeats; a run ends on a
    #: whole cycle, so every run holds the same mix.
    cycle = 1
    #: Operations in a traced run: a fixed count of whole cycles, so traced
    #: counts repeat exactly for a seed.
    trace_ops = 100

    def setup(self, nb, seed: int, workdir) -> None:
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> str | None:
        """None when the answer is right, else what is wrong with it."""
        raise NotImplementedError


#: The (outcomes, periods, assets) shapes ``lab.random_market`` draws, each
#: uniformly, with its default limits.
SHAPES = [(n, t, a) for n in range(2, 9) for t in range(1, 4) for a in range(1, 3)]


def stratified_markets(lab, seed: int, per_shape: int, draws: int = 0) -> list:
    """Markets of the ``lab.random_market(Random(seed))`` stream, reordered so
    each run of ``len(SHAPES)`` consecutive markets holds one of every shape.

    The cost of a market grows steeply with its shape, so a plain stream
    prefix varies from seed to seed in its mix of cheap and dear markets
    more than the host varies in speed; fixing the mix removes that part.
    At least ``draws`` markets are drawn, so that set-up does the same work
    for every seed whose stream fills every shape within that many.
    """
    rng = random.Random(seed)
    buckets = {shape: [] for shape in SHAPES}
    for drawn in range(1, max(draws, 100 * per_shape * len(SHAPES)) + 1):
        model = lab.random_market(rng)
        bucket = buckets[(len(model.space), model.horizon, len(model.assets))]
        if len(bucket) < per_shape:
            bucket.append(model)
        if drawn >= draws and all(len(b) == per_shape for b in buckets.values()):
            return [buckets[shape][k] for k in range(per_shape) for shape in SHAPES]
    raise RuntimeError("lab.random_market no longer draws every shape")


class Corpus(Workload):
    name = "corpus"
    tail_pct = 95
    cycle = len(SHAPES)
    trace_ops = 7 * len(SHAPES)
    per_shape = 24
    #: 1.7 times the draws a seed needs on average to fill every shape; about
    #: one seed in 10^5 needs more.
    draws = 2400

    def setup(self, nb, seed, workdir):
        self.nb = nb
        self.markets = stratified_markets(nb.lab, seed, self.per_shape, self.draws)

    def run(self, i):
        return self.nb.concepts.full_verdict(self.markets[i % len(self.markets)])

    def check(self, i, verdicts):
        market = self.nb.market
        model = self.markets[i % len(self.markets)]
        if not verdicts.agree:
            return f"verdicts disagree: {verdicts.as_dict()}"
        na = market.check_na(model)
        if na.holds != verdicts.na:
            return f"check_na says {na.holds}, full_verdict says {verdicts.na}"
        if not na.holds:
            gain = market.terminal_gain(model, na.arbitrage)
            if not gain.is_nonneg or gain.is_zero:
                return "arbitrage witness fails re-verification"
            return None
        measure = market.find_emm(model).measure
        if measure is None or not measure.is_equivalent \
                or not market.is_martingale_measure(model, measure):
            return "EMM witness fails re-verification"
        return None


class Crr(Workload):
    """Cox-Ross-Rubinstein trees with u = 2, d = 1/2 and zero rate, so the
    unique EMM moves up with q = 1/3 and a call has a closed-form price."""

    name = "crr"
    tail_pct = 75
    cycle = 3
    trace_ops = 18
    pool = 40
    periods = 5
    questions = ("check_na", "find_emm", "price")

    def setup(self, nb, seed, workdir):
        self.nb = nb
        rng = random.Random(seed)
        self.trees = []
        for _ in range(self.pool):
            s0 = Fraction(rng.randint(1, 20), rng.randint(1, 4))
            strike = s0 * Fraction(rng.randint(2, 6), 4)
            weights = [rng.randint(1, 20) for _ in range(2 ** self.periods)]
            model = self._tree(s0, weights)
            call = nb.lattice.RandomVariable(
                model.space, [max(v - strike, 0) for v in model.assets[0].path[-1].values])
            self.trees.append((model, call, s0, strike))

    def _ups(self, k: int, t: int) -> int:
        """Up moves in the first t steps of outcome k (a 1 bit is a down move)."""
        return t - bin(k >> (self.periods - t)).count("1")

    def _tree(self, s0, weights):
        nb, T = self.nb, self.periods
        n = 2 ** T
        total = sum(weights)
        space = nb.lattice.SampleSpace([f"w{k}" for k in range(n)],
                                       [Fraction(w, total) for w in weights])
        partitions = [[tuple(range(c * 2 ** (T - t), (c + 1) * 2 ** (T - t)))
                       for c in range(2 ** t)] for t in range(T + 1)]
        path = tuple(
            nb.lattice.RandomVariable(space, [s0 * Fraction(2) ** (2 * self._ups(k, t) - t)
                                              for k in range(n)])
            for t in range(T + 1))
        return nb.market.MarketModel(nb.market.Filtration(space, partitions),
                                     [nb.market.Asset("S", path)])

    def run(self, i):
        model, call, _, _ = self.trees[(i // 3) % self.pool]
        question = self.questions[i % 3]
        if question == "check_na":
            return self.nb.market.check_na(model)
        if question == "find_emm":
            return self.nb.market.find_emm(model)
        return self.nb.market.superreplication_price(model, call)

    def check(self, i, result):
        _, _, s0, strike = self.trees[(i // 3) % self.pool]
        question = self.questions[i % 3]
        T, q = self.periods, Fraction(1, 3)
        if question == "check_na":
            return None if result.holds else "a CRR tree is judged to have arbitrage"
        if question == "find_emm":
            want = tuple(q ** self._ups(k, T) * (1 - q) ** (T - self._ups(k, T))
                         for k in range(2 ** T))
            if result.measure is None or result.measure.weights != want:
                return "EMM is not q = 1/3 per up move"
            return None
        price = sum(math.comb(T, j) * q ** j * (1 - q) ** (T - j)
                    * max(s0 * Fraction(2) ** (2 * j - T) - strike, 0)
                    for j in range(T + 1))
        if result.price != price or result.hedge is None:
            return f"call price {result.price} differs from the closed form {price}"
        return None


class Geometry(Workload):
    name = "geometry"
    tail_pct = 95
    cycle = 36  # every fourth operation is a counterexample, N = 2..10 once each
    trace_ops = 8 * 36
    pool = 50 * 36

    def setup(self, nb, seed, workdir):
        self.nb = nb
        rng = random.Random(seed)
        self.cases = []
        for _ in range(self.pool // self.cycle):
            sizes = list(range(2, 11))
            rng.shuffle(sizes)
            for n in sizes:
                self.cases += [("lemma", rng.randrange(2 ** 31)) for _ in range(3)]
                self.cases.append(("counterexample", n))

    def run(self, i):
        kind, arg = self.cases[i % self.pool]
        if kind == "lemma":
            return self.nb.lab.verify_lemma_suite(arg, 1)
        return self.nb.lab.counterexample_report(arg)

    def check(self, i, report):
        kind, n = self.cases[i % self.pool]
        if kind == "lemma":
            if report.instances != 1 or not report.passed:
                return f"lemma suite seed {n}: {len(report.violations)} violation(s)"
            return None
        if (report.sup_squared_l2 != n * n or report.min_indicator_gauge != Fraction(1, n)
                or report.sup_norm_linf != n or not report.zero_set_trivial):
            return f"counterexample N={n}: {report.as_dict()}"
        return None


class Cli(Workload):
    """The CLI over a fixed file set: the markets and payoffs always come from
    the seed-0 stream, so every run sees the same files, and the seed only
    shuffles the order in which each (file, command) pair is run."""

    name = "cli"
    tail_pct = 95
    commands = ("check", "emm", "price")
    per_shape = 2
    cycle = len(commands) * per_shape * len(SHAPES)  # every pair once
    trace_ops = cycle

    def setup(self, nb, seed, workdir):
        importlib.import_module("noarb.cli")  # the package does not load it
        self.nb = nb
        workdir.mkdir(parents=True, exist_ok=True)
        self.models = stratified_markets(nb.lab, 0, self.per_shape)
        self.payoffs, self.paths = [], []
        rng = random.Random(0)
        for k, model in enumerate(self.models):
            payoff = nb.lattice.RandomVariable(
                model.space, [Fraction(rng.randint(0, 20), rng.randint(1, 4))
                              for _ in model.space.outcomes])
            market_path = workdir / f"market{k}.json"
            payoff_path = workdir / f"payoff{k}.json"
            market_path.write_text(json.dumps(nb.fileio.dump_market(model)), encoding="utf-8")
            payoff_path.write_text(json.dumps({"payoff": nb.fileio.values_by_outcome(payoff)}),
                                   encoding="utf-8")
            self.payoffs.append(payoff)
            self.paths.append((str(market_path), str(payoff_path)))
        self.schedule = [(k, c) for k in range(len(self.models)) for c in self.commands]
        random.Random(seed).shuffle(self.schedule)
        self.answers = {}

    def run(self, i):
        k, command = self.schedule[i % self.cycle]
        market_path, payoff_path = self.paths[k]
        argv = {"check": ["--json", "check", "all", market_path],
                "emm": ["--json", "emm", market_path],
                "price": ["--json", "price", market_path, payoff_path]}[command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.nb.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def _answers(self, k: int) -> dict:
        """The library's own answers on market k, computed once, untimed.

        ``check all`` must report the ``check_na`` verdict for all six
        concepts: ``full_verdict`` raises (exit 3) when any route disagrees.
        """
        if k not in self.answers:
            nb, model = self.nb, self.models[k]
            na = nb.market.check_na(model).holds
            emm = nb.market.find_emm(model)
            price = nb.market.superreplication_price(model, self.payoffs[k]).price
            self.answers[k] = {
                "verdicts": dict.fromkeys(
                    ("na", "na1", "nupbr", "nfl_equiv", "emm_exists", "separator_exists"), na),
                "measure": None if emm.measure is None else nb.fileio.values_by_outcome(
                    nb.lattice.RandomVariable(model.space, emm.measure.weights)),
                "price": "-inf" if price == -math.inf else nb.rationals.format_rational(price),
            }
        return self.answers[k]

    def check(self, i, result):
        code, out, err = result
        k, command = self.schedule[i % self.cycle]
        try:
            report = json.loads(out)
        except ValueError:
            return f"{command}: output is not JSON (exit {code}, stderr {err!r})"
        want = self._answers(k)
        if command == "check":
            want_code = 0 if all(want["verdicts"].values()) else 1
            if code != want_code or report.get("verdicts") != want["verdicts"]:
                return f"check all: exit {code}, verdicts {report.get('verdicts')}"
        elif command == "emm":
            want_code = 1 if want["measure"] is None else 0
            measure = report.get("witnesses", {}).get("measure")
            if code != want_code or measure != want["measure"]:
                return f"emm: exit {code}, measure {measure}"
        elif code != 0 or report.get("price") != want["price"] \
                or report.get("na_holds") != want["verdicts"]["na"]:
            return f"price: exit {code}, price {report.get('price')}"
        return None


WORKLOADS = {w.name: w for w in (Corpus, Crr, Geometry, Cli)}
