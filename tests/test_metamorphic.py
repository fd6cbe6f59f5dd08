"""Metamorphic relations on the solver's outcome set, past the oracle's bound.

The oracle cross-checks the solver only on extended games of at most
``ORACLE_MAX_EXT_VERTICES`` vertices. Past that bound the solver is checked
against itself: each transformation below has a known effect on the set of
gain profiles of SPE outcomes, so a mismatch is a fault on one side
(metamorphic testing; Chen, Cheung & Yiu 1998).

- R1: permuting the players permutes the bits of each outcome mask.
- R2: shuffling the vertex and edge lists of a dumped document leaves the
  set unchanged.
- R3: adding a component that the initial vertex cannot reach leaves it
  unchanged.
- R4: doubling every guard constant of a timed automaton leaves it
  unchanged; time scaling maps runs to runs, and the region game is exact
  for both (Alur & Dill 1994).
- R5: ``clone_game`` leaves it unchanged.

The outcome set is read one profile at a time: the satisfied sets of the
extended game for which the constraint "exactly this profile" has a yes
answer.
"""

import random

import pytest

from spe_reach.extended import build_extended_game
from spe_reach.fixpoint import analyze
from spe_reach.game import ConstraintProfile, FiniteGame, GainProfile
from spe_reach.jsonio import dump_finite_game, load_finite_game
from spe_reach.oracle import ORACLE_MAX_EXT_VERTICES
from spe_reach.timed import PPTA, build_region_game

from generators import clone_game, game_from_successors, guarded_ppta, random_ppta


def outcome_set(g: FiniteGame) -> frozenset[int]:
    a = analyze(g)
    n = g.n_players
    return frozenset(
        m for m in a.extended_game.layers
        if a.decide(ConstraintProfile(GainProfile(m, n), GainProfile(m, n))).answer
    )


@pytest.fixture(scope="module")
def large_games() -> list[FiniteGame]:
    """150 random games whose extended games have 65 to 400 vertices.

    Each vertex v leads to v + 1 and to up to two random vertices, so the
    initial vertex 0 reaches the whole game.
    """
    rng = random.Random(7)
    games = []
    while len(games) < 150:
        n, n_players = rng.randint(10, 60), rng.randint(1, 3)
        succ = [set(rng.sample(range(n), rng.randint(0, 2))) for _ in range(n)]
        for v in range(n - 1):
            succ[v].add(v + 1)
        succ[-1].add(rng.randrange(n))
        owners = [rng.randrange(n_players) for _ in range(n)]
        targets = [{v for v in range(n) if rng.random() < 0.15} for _ in range(n_players)]
        g = game_from_successors(succ, owners, targets, n_players)
        if ORACLE_MAX_EXT_VERTICES < build_extended_game(g).n_vertices <= 400:
            games.append(g)
    return games


def test_r1_permuting_players_permutes_the_masks(large_games):
    rng = random.Random(11)
    for g in large_games:
        n = g.n_players
        perm = rng.sample(range(n), n)  # player i becomes player perm[i]
        targets = [frozenset()] * n
        for i, ts in enumerate(g.targets):
            targets[perm[i]] = ts
        h = g._replace(owner=tuple(perm[p] for p in g.owner), targets=tuple(targets))
        moved = {sum(1 << perm[i] for i in range(n) if m >> i & 1) for m in outcome_set(g)}
        assert outcome_set(h) == moved


def test_r2_shuffled_documents_keep_the_outcomes(large_games):
    rng = random.Random(13)
    for g in large_games:
        doc = dump_finite_game(g)
        rng.shuffle(doc["vertices"])
        rng.shuffle(doc["edges"])
        assert outcome_set(load_finite_game(doc)) == outcome_set(g)


def test_r3_an_unreachable_component_keeps_the_outcomes(large_games):
    rng = random.Random(17)
    for g in large_games:
        doc = dump_finite_game(g)
        names = [f"u{k}" for k in range(rng.randint(1, 5))]
        doc["vertices"] += [{"name": u, "owner": rng.randrange(g.n_players)} for u in names]
        # the new vertices lead anywhere, but nothing reached leads to them
        doc["edges"] += [
            {"from": u, "letter": "a", "to": rng.choice(names + list(g.vertex_names))}
            for u in names for _ in range(rng.randint(1, 2))
        ]
        for ts in doc["targets"]:
            ts += [u for u in names if rng.random() < 0.5]
        h = load_finite_game(doc)
        assert h.n_vertices == g.n_vertices + len(names)
        assert outcome_set(h) == outcome_set(g)


def test_r5_a_cloned_game_keeps_the_outcomes(large_games):
    for g in large_games:
        assert outcome_set(clone_game(g)[0]) == outcome_set(g)


def _map_guards(a: PPTA, f) -> PPTA:
    return a._replace(transitions=tuple(t._replace(guard=f(t.guard)) for t in a.transitions))


def test_r4_doubled_guard_constants_keep_the_outcomes():
    rng = random.Random(19)
    _check_r4(lambda: random_ppta(rng, max_locations=6), 30)


def test_r4_on_guarded_automata():
    # constants up to 6, doubled up to 12, each guard deciding where a
    # transition may go
    rng = random.Random(23)
    _check_r4(lambda: guarded_ppta(rng), 20)


def _check_r4(draw, count: int) -> None:
    # most random automata answer the same with every guard dropped, which
    # leaves nothing for this relation to check; only the others count
    checked = 0
    while checked < count:
        a = draw()
        outcomes = outcome_set(build_region_game(a).game)
        if outcome_set(build_region_game(_map_guards(a, lambda guard: ())).game) == outcomes:
            continue
        doubled = _map_guards(a, lambda guard: tuple(atom._replace(const=2 * atom.const) for atom in guard))
        assert outcome_set(build_region_game(doubled).game) == outcomes
        checked += 1
