"""Seeded input generators for the benchmark workloads.

Each generator writes the documented JSON file formats directly from a
``random.Random`` seeded with a string, and imports nothing from the solver
or its tests, so a refactor of either cannot change the inputs. The same
(seed, index) always gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from itertools import product

WORDS = ("win", "lose", "any")
COMPARATORS = ("le", "lt", "eq", "gt", "ge")


def _rng(kind: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{kind}:{seed}:{index}")


def finite_game(
    rng: random.Random, n_vertices: int, n_players: int, degree: tuple[int, int], n_targets: int
) -> dict:
    """A non-blocking random game in the finite-game file format.

    Out-degrees are drawn from ``degree`` (inclusive) and successors are
    sampled without replacement; owners are uniform; each player gets
    ``n_targets`` distinct uniform target vertices; the initial vertex is v0.
    """
    names = [f"v{i}" for i in range(n_vertices)]
    owners = [rng.randrange(n_players) for _ in range(n_vertices)]
    edges = []
    for v in range(n_vertices):
        k = rng.randint(*degree)
        for w in sorted(rng.sample(range(n_vertices), k)):
            edges.append({"from": names[v], "letter": "a", "to": names[w]})
    targets = [sorted(names[v] for v in rng.sample(range(n_vertices), n_targets)) for _ in range(n_players)]
    return {
        "players": n_players,
        "alphabet": ["a"],
        "vertices": [{"name": names[v], "owner": owners[v]} for v in range(n_vertices)],
        "edges": edges,
        "targets": targets,
        "initial": names[0],
    }


def timed_automaton(
    rng: random.Random, n_locations: int, n_clocks: int, max_const: int, n_players: int
) -> dict:
    """A random timed automaton in the documented file format.

    Every location has an unguarded self-loop, so no region deadlocks, plus
    three random transitions with 0-2 guard atoms (uniform clock and
    comparator, constant in 0..max_const) that reset each clock with
    probability 0.3. Each player owns uniform locations and has one goal.
    """
    clocks = ["x", "y", "z", "w"][:n_clocks]
    names = [f"l{i}" for i in range(n_locations)]
    transitions = []
    for loc in range(n_locations):
        transitions.append({"from": names[loc], "letter": "a", "guard": [], "reset": [], "to": names[loc]})
        for _ in range(3):
            guard = [
                {"clock": rng.choice(clocks), "op": rng.choice(COMPARATORS), "const": rng.randint(0, max_const)}
                for _ in range(rng.randint(0, 2))
            ]
            reset = [c for c in clocks if rng.random() < 0.3]
            target = names[rng.randrange(n_locations)]
            transitions.append({"from": names[loc], "letter": "a", "guard": guard, "reset": reset, "to": target})
    return {
        "players": n_players,
        "alphabet": ["a"],
        "clocks": clocks,
        "locations": [{"name": name, "owner": rng.randrange(n_players)} for name in names],
        "transitions": transitions,
        "goals": [[names[rng.randrange(n_locations)]] for _ in range(n_players)],
        "initial": names[0],
    }


# Sizes follow a fixed schedule over the instance index, so every seed runs
# the same mix of sizes and only the structure is random; that keeps the
# per-run medians of different seeds close together.


def finite_cli_instance(seed: int, index: int) -> tuple[dict, list[str]]:
    """F1 game (V=100-130, P=5, out-degree 2, 2 targets each) and a random word per player."""
    rng = _rng("finite-cli", seed, index)
    game = finite_game(rng, 100 + index * 7 % 31, 5, (2, 2), 2)
    return game, [rng.choice(WORDS) for _ in range(5)]


def timed_cli_instance(seed: int, index: int) -> tuple[dict, list[str]]:
    """F2 automaton (L=10, C=2, K=4-5, P=1) and a random word for its player."""
    rng = _rng("timed-cli", seed, index)
    automaton = timed_automaton(rng, 10, 2, 4 + index % 2, 1)
    return automaton, [rng.choice(WORDS)]


def query_game(seed: int, index: int) -> dict:
    """P=4, V=280-320, out-degree 1-3, one target each: a mix of YES and NO.

    Games are redrawn until the extended game has 1700-2100 vertices. Its
    size falls into a few far-apart clusters (by how many satisfied sets
    are reachable), and a run covers only some 20 games, so without the
    band the per-query cost of a run would depend on the seed's luck.
    """
    rng = _rng("finite-queries", seed, index)
    while True:
        game = finite_game(rng, 280 + index * 13 % 41, 4, (1, 3), 1)
        if 1700 <= extended_size(game) <= 2100:
            return game


def extended_size(game: dict) -> int:
    """Vertices of the reachable extended game (vertex, satisfied players) of a finite game file."""
    succ: dict[str, list[str]] = {}
    for e in game["edges"]:
        succ.setdefault(e["from"], []).append(e["to"])
    mask: dict[str, int] = {}
    for i, targets in enumerate(game["targets"]):
        for v in targets:
            mask[v] = mask.get(v, 0) | 1 << i
    start = (game["initial"], mask.get(game["initial"], 0))
    seen = {start}
    stack = [start]
    while stack:
        v, sat = stack.pop()
        for w in succ[v]:
            nxt = (w, sat | mask.get(w, 0))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen)


def one_vertex_game() -> dict:
    """The smallest game: one vertex with a self-loop; the solve answers YES."""
    return {
        "players": 1,
        "alphabet": ["a"],
        "vertices": [{"name": "v0", "owner": 0}],
        "edges": [{"from": "v0", "letter": "a", "to": "v0"}],
        "targets": [["v0"]],
        "initial": "v0",
    }


def all_words(n_players: int) -> list[list[str]]:
    """Every constraint, player 0 varying slowest."""
    return [list(w) for w in product(WORDS, repeat=n_players)]


def dumps(obj: dict) -> str:
    """Canonical file text: the same object always gives the same bytes."""
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"
