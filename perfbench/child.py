"""Child-process side of the benchmark: the layer tracer and the library worker.

Run by ``run.py`` with ``src`` on PYTHONPATH, never imported by the solver.

    python child.py cli TRACE_OUT -- ARGS...      spe-reach ARGS, traced
    python child.py queries OUT TRACE GAME...

The tracer measures from outside the program: it replaces the module
attributes through which ``cli.main`` and ``decide_constrained_existence``
call each layer's public functions with wrappers that record a span per
call (name, start, end, parent) and count the work done. Nothing under
``src`` changes, and the wrapped functions return what they always did.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from collections import defaultdict
from functools import cached_property

from gen import all_words
from spe_reach import cli, fixpoint, jsonio
from spe_reach.game import ConstraintProfile, FiniteGame


class Tracer:
    """Spans kept in memory as [name, start, end, parent index] and written out at exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def install(t: Tracer) -> None:
    """Wrap each layer entry point at every module attribute the solve path calls it through."""

    def loader(fn):
        def wrapped(source):
            t.counts["jsonio.input_bytes"] += os.path.getsize(source)
            return t.call("jsonio.load", fn, source)

        return wrapped

    def region_build(fn):
        def wrapped(a, **kwargs):
            rg = t.call("timed.region_build", fn, a, **kwargs)
            t.counts["timed.region_vertices"] += rg.game.n_vertices
            t.counts["timed.region_edges"] += len(rg.game.edges)
            return rg

        return wrapped

    def extended_build(fn):
        def wrapped(g, **kwargs):
            xg = t.call("extended.build", fn, g, **kwargs)
            t.counts["extended.vertices"] += xg.game.n_vertices
            t.counts["extended.edges"] += len(xg.game.edges)
            t.counts["extended.masks"] += len(set(xg.satisfied))
            return xg

        return wrapped

    def lambda_star(fn):
        cache_info = getattr(fn, "cache_info", None)

        def wrapped(xg):
            hits = cache_info().hits if cache_info else 0
            lam, k = t.call("fixpoint.lambda", fn, xg)
            t.counts["fixpoint.cache_calls"] += 1
            t.counts["fixpoint.cache_hits"] += (cache_info().hits if cache_info else 0) - hits
            t.counts["fixpoint.k_star"] += k
            return lam, k

        return wrapped

    def lambda_step(fn):
        def wrapped(*args):
            t.counts["fixpoint.lambda_steps"] += 1
            return fn(*args)

        return wrapped

    def witness(fn):
        def wrapped(*args):
            found = t.call("fixpoint.witness", fn, *args)
            t.counts["fixpoint.profiles_tried"] += 1
            t.counts["fixpoint.profiles_found"] += found is not None
            return found

        return wrapped

    def spanned(name, fn):
        return lambda *args, **kwargs: t.call(name, fn, *args, **kwargs)

    # The derived adjacency views of a game are built on first access,
    # wherever that happens; a span around each build keeps their cost out
    # of the layer that happened to touch them first (layer times are self
    # times). Wrapping every cached property of FiniteGame, rather than a
    # fixed list, follows the views through refactors of the game model.
    for name, prop in list(vars(FiniteGame).items()):
        if isinstance(prop, cached_property):
            view = cached_property(lambda g, build=prop.func: t.call("game.views", build, g))
            view.__set_name__(FiniteGame, name)
            setattr(FiniteGame, name, view)

    # an entry point that a refactor removed is skipped: its layer then
    # reads 0 instead of breaking the traced run
    for module, name, wrap in (
        (cli, "load_finite_game", loader),
        (jsonio, "load_finite_game", loader),
        (cli, "load_ppta", loader),
        (cli, "build_region_game", region_build),
        (cli, "decide_constrained_existence", lambda fn: spanned("fixpoint.decide", fn)),
        (fixpoint, "decide_constrained_existence", lambda fn: spanned("fixpoint.decide", fn)),
        (fixpoint, "validate_game", lambda fn: spanned("game.validate", fn)),
        (fixpoint, "build_extended_game", extended_build),
        (fixpoint, "compute_lambda_star", lambda_star),
        (fixpoint, "lambda_step", lambda_step),
        (fixpoint, "exists_consistent_play", witness),
    ):
        if hasattr(module, name):
            setattr(module, name, wrap(getattr(module, name)))


def run_cli(trace_out: str, argv: list[str]) -> int:
    t = Tracer()
    install(t)
    try:
        return t.call("cli.main", cli.main, argv)
    finally:
        sys.stdout.flush()
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(t.dump(), handle)


def describe(g: FiniteGame, d: fixpoint.Decision) -> str:
    """One line per decision: the answer, k*, and the witness by vertex name."""
    if not d.answer:
        return f"NO k*={d.k_star}"
    names = g.vertex_names
    w = d.witness
    prefix = ",".join(names[v] for v in w.base.prefix)
    cycle = ",".join(names[v] for v in w.base.cycle)
    return f"YES k*={d.k_star} gain={w.gain} prefix={prefix} cycle={cycle}"


def run_queries(out: str, traced: bool, paths: list[str]) -> int:
    """Decide every game under all 3^P constraints, game by game.

    Writes the per-query latencies, the answer lines per game, the loop's
    wall time and this process's peak RSS to OUT as JSON.
    """
    t = Tracer()
    if traced:
        install(t)
    start = time.perf_counter()
    latencies: list[float] = []
    games: list[list[str]] = []
    for path in paths:
        g = jsonio.load_finite_game(path)
        lines = []
        for words in all_words(g.n_players):
            c = ConstraintProfile.from_words(words)
            t0 = time.perf_counter()
            d = fixpoint.decide_constrained_existence(g, c)
            latencies.append(time.perf_counter() - t0)
            lines.append(describe(g, d))
        games.append(lines)
    loop_s = time.perf_counter() - start
    result = {
        "latencies": latencies,
        "games": games,
        "loop_s": loop_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": t.dump() if traced else None,
    }
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "cli":
        if sys.argv[3] != "--":
            sys.exit("usage: child.py cli TRACE_OUT -- ARGS...")
        sys.exit(run_cli(sys.argv[2], sys.argv[4:]))
    if mode == "queries":
        sys.exit(run_queries(sys.argv[2], sys.argv[3] == "1", sys.argv[4:]))
    sys.exit(f"unknown mode {mode!r}")
