"""Game generators shared by the module tests and the acceptance suite."""

from __future__ import annotations

import random
from itertools import product
from typing import Iterable, Iterator, Sequence

from spe_reach.errors import DeadlockedRegionError
from spe_reach.extended import build_extended_game
from spe_reach.game import ConstraintProfile, FiniteGame
from spe_reach.timed import COMPARATORS, GuardAtom, PPTA, Transition, build_region_game

from quotient import EquivalenceMap


def game_from_successors(
    succ_sets: Sequence[Iterable[int]],
    owners: Sequence[int],
    target_sets: Sequence[Iterable[int]],
    n_players: int,
    initial: int = 0,
) -> FiniteGame:
    n = len(succ_sets)
    return FiniteGame(
        n_players=n_players,
        alphabet=("a",),
        vertex_names=tuple(f"v{i}" for i in range(n)),
        out_edges=tuple(tuple(("a", j) for j in sorted(succ)) for succ in succ_sets),
        owner=tuple(owners),
        targets=tuple(frozenset(ts) for ts in target_sets),
        initial=initial,
    )


def all_constraints(n_players: int) -> list[ConstraintProfile]:
    return [
        ConstraintProfile.from_words(words)
        for words in product(("win", "lose", "any"), repeat=n_players)
    ]


def _nonempty_subsets(n: int) -> list[frozenset[int]]:
    return [
        frozenset(i for i in range(n) if (mask >> i) & 1)
        for mask in range(1, 1 << n)
    ]


def _all_subsets(n: int) -> list[frozenset[int]]:
    return [
        frozenset(i for i in range(n) if (mask >> i) & 1)
        for mask in range(1 << n)
    ]


def grid_successor_specs() -> list[tuple[int, tuple[frozenset[int], ...]]]:
    """Non-blocking edge structures: exhaustive for 1-2 vertices, out-degree-1
    for 3 vertices, and two branching shapes on 4 vertices."""
    specs: list[tuple[int, tuple[frozenset[int], ...]]] = []
    for n in (1, 2):
        for succ in product(_nonempty_subsets(n), repeat=n):
            specs.append((n, succ))
    for succ in product(range(3), repeat=3):
        specs.append((3, tuple(frozenset({s}) for s in succ)))
    specs.append((4, (frozenset({1, 2}), frozenset({1, 3}), frozenset({3}), frozenset({0}))))
    specs.append((4, (frozenset({0, 1}), frozenset({2}), frozenset({0, 3}), frozenset({3}))))
    return specs


def exhaustive_grid() -> Iterator[FiniteGame]:
    """All owner and target assignments over the grid edge structures.

    Player counts: up to 2 on the tiny structures, exactly 2 on the larger
    ones (where the product over assignments is already in the thousands).
    """
    for n_vertices, succ in grid_successor_specs():
        subsets = _all_subsets(n_vertices)
        player_counts = (1, 2) if n_vertices <= 2 else (2,)
        for n_players in player_counts:
            for owners in product(range(n_players), repeat=n_vertices):
                for targets in product(subsets, repeat=n_players):
                    yield game_from_successors(succ, owners, targets, n_players)


def random_game(
    rng: random.Random,
    max_vertices: int = 8,
    max_players: int = 3,
    max_ext_vertices: int | None = 64,
) -> FiniteGame:
    """A random non-blocking game, re-rolled until its extended game is small."""
    while True:
        n = rng.randint(2, max_vertices)
        n_players = rng.randint(1, max_players)
        succ_sets = []
        for _ in range(n):
            degree = rng.choice((1, 1, 1, 2, 2, 2, 2, 3))
            succ_sets.append(frozenset(rng.sample(range(n), min(degree, n))))
        owners = [rng.randrange(n_players) for _ in range(n)]
        targets = [
            frozenset(v for v in range(n) if rng.random() < 0.3)
            for _ in range(n_players)
        ]
        g = game_from_successors(succ_sets, owners, targets, n_players, initial=rng.randrange(n))
        if max_ext_vertices is None:
            return g
        if build_extended_game(g).n_vertices <= max_ext_vertices:
            return g


def random_games(count: int, seed: int, **kwargs) -> list[FiniteGame]:
    rng = random.Random(seed)
    return [random_game(rng, **kwargs) for _ in range(count)]


def random_ppta(rng: random.Random, max_locations: int = 4, max_const: int = 3) -> PPTA:
    """A random timed automaton with 1-3 clocks and constants up to max_const.

    Every location has an unguarded self-loop, so no region deadlocks; the
    other transitions carry 0-2 guard atoms and reset each clock with
    probability 0.3.
    """
    n_locations = rng.randint(2, max_locations)
    n_clocks = rng.randint(1, 3)
    n_players = rng.randint(1, 2)
    alphabet = ("a", "b")
    transitions = [Transition(loc, "a", (), frozenset(), loc) for loc in range(n_locations)]
    for _ in range(rng.randint(n_locations, 3 * n_locations)):
        guard = tuple(
            GuardAtom(rng.randrange(n_clocks), rng.choice(COMPARATORS), rng.randint(0, max_const))
            for _ in range(rng.randint(0, 2))
        )
        resets = frozenset(c for c in range(n_clocks) if rng.random() < 0.3)
        transitions.append(
            Transition(
                rng.randrange(n_locations),
                rng.choice(alphabet),
                guard,
                resets,
                rng.randrange(n_locations),
            )
        )
    rng.shuffle(transitions)
    return PPTA(
        n_players=n_players,
        alphabet=alphabet,
        clock_names=tuple(f"x{c}" for c in range(n_clocks)),
        location_names=tuple(f"l{loc}" for loc in range(n_locations)),
        owners=tuple(rng.randrange(n_players) for _ in range(n_locations)),
        transitions=tuple(transitions),
        goals=tuple(
            frozenset(loc for loc in range(n_locations) if rng.random() < 0.3)
            for _ in range(n_players)
        ),
        initial=rng.randrange(n_locations),
    )


def looping_ppta(
    rng: random.Random, n_locations: int = 10, n_clocks: int = 2, max_const: int = 4
) -> PPTA:
    """A one-player automaton in the shape of the benchmark's timed automata.

    Every location has an unguarded self-loop and three more transitions to
    uniform targets, each with 0-2 guard atoms (uniform comparator, constant
    in 0..max_const) and each clock reset with probability 0.3; one location
    is the goal. Its region games have long delay chains, and every position
    on them is a vertex.
    """
    transitions = []
    for loc in range(n_locations):
        transitions.append(Transition(loc, "a", (), frozenset(), loc))
        for _ in range(3):
            guard = tuple(
                GuardAtom(rng.randrange(n_clocks), rng.choice(COMPARATORS), rng.randint(0, max_const))
                for _ in range(rng.randint(0, 2))
            )
            resets = frozenset(c for c in range(n_clocks) if rng.random() < 0.3)
            transitions.append(Transition(loc, "a", guard, resets, rng.randrange(n_locations)))
    return PPTA(
        n_players=1,
        alphabet=("a",),
        clock_names=tuple(f"x{c}" for c in range(n_clocks)),
        location_names=tuple(f"l{loc}" for loc in range(n_locations)),
        owners=(0,) * n_locations,
        transitions=tuple(transitions),
        goals=(frozenset({rng.randrange(n_locations)}),),
        initial=0,
    )


def guarded_ppta(rng: random.Random, max_locations: int = 5, max_const: int = 6) -> PPTA:
    """A random two-player timed automaton whose guards decide more than random_ppta's.

    Each location has two or three outgoing transitions, and every
    transition carries one or two guard atoms with constants up to
    max_const: there is no unguarded self-loop to fall back on, and
    constants above 3 are common. Clocks are few (one or two) and rarely
    reset (probability 0.2), so a bound set early still holds later. An
    automaton with a deadlocked region is redrawn.
    """
    while True:
        n_locations = rng.randint(3, max_locations)
        n_clocks = rng.randint(1, 2)
        transitions = tuple(
            Transition(
                src,
                rng.choice(("a", "b")),
                tuple(
                    GuardAtom(rng.randrange(n_clocks), rng.choice(COMPARATORS), rng.randint(0, max_const))
                    for _ in range(rng.randint(1, 2))
                ),
                frozenset(c for c in range(n_clocks) if rng.random() < 0.2),
                rng.randrange(n_locations),
            )
            for src in range(n_locations)
            for _ in range(rng.randint(2, 3))
        )
        a = PPTA(
            n_players=2,
            alphabet=("a", "b"),
            clock_names=tuple(f"x{c}" for c in range(n_clocks)),
            location_names=tuple(f"l{loc}" for loc in range(n_locations)),
            owners=tuple(rng.randrange(2) for _ in range(n_locations)),
            transitions=transitions,
            goals=tuple(
                frozenset(loc for loc in range(n_locations) if rng.random() < 0.3)
                for _ in range(2)
            ),
            initial=rng.randrange(n_locations),
        )
        try:
            build_region_game(a)
        except DeadlockedRegionError:
            continue
        return a


def dense_small_games() -> list[FiniteGame]:
    """Complete graphs on up to 4 vertices; the enumeration oracle can still
    exhaust these, and they exercise high-branching corners the random
    generator avoids."""
    games = []
    for n in (2, 3, 4):
        succ = [frozenset(range(n))] * n
        for n_players in (1, 2, 3):
            owners = [v % n_players for v in range(n)]
            singleton = [frozenset({min(i + 1, n - 1)}) for i in range(n_players)]
            games.append(game_from_successors(succ, owners, singleton, n_players))
            mixed = [
                frozenset(range(n)) if i == 0 else frozenset()
                for i in range(n_players)
            ]
            games.append(game_from_successors(succ, owners, mixed, n_players))
    return games


def clone_game(g: FiniteGame) -> tuple[FiniteGame, EquivalenceMap]:
    """Duplicate every vertex along a 2-element dummy factor.

    The two copies are disjoint (copy b keeps its edges inside copy b), so
    mapping both copies of a vertex to one class is a bisimulation that
    respects owners and targets; quotienting it back yields a game
    isomorphic to g.
    """
    n = g.n_vertices
    names = tuple(f"{name}#{b}" for b in (0, 1) for name in g.vertex_names)
    out_edges = tuple(
        tuple((letter, dst + b * n) for letter, dst in row)
        for b in (0, 1)
        for row in g.out_edges
    )
    owners = g.owner + g.owner
    targets = tuple(frozenset(v + b * n for b in (0, 1) for v in ts) for ts in g.targets)
    clone = FiniteGame(
        n_players=g.n_players,
        alphabet=g.alphabet,
        vertex_names=names,
        out_edges=out_edges,
        owner=owners,
        targets=targets,
        initial=g.initial,
    )
    eq = EquivalenceMap(tuple(v % n for v in range(2 * n)))
    return clone, eq
