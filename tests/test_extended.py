import random

import pytest

from spe_reach.errors import InputError, SizeCapError
from spe_reach.extended import build_extended_game
from spe_reach.game import FiniteGame, LassoPlay
from spe_reach.jsonio import load_finite_game

from documents import CHAIN_GAME, LOOP_GAME
from generators import random_games
from lassos import gain_of_lasso, lift_lasso
from reference_extended import adjacency_matches, reference_build_extended_game


def test_chain_game_structure(chain_game):
    xg = build_extended_game(chain_game)
    assert xg.origin == ((0, 0), (1, 1))
    assert xg.game.vertex_names == ("A|{}", "B|{0}")
    assert set(xg.game.edges) == {(0, "a", 1), (1, "a", 1)}
    assert xg.game.targets == (frozenset({1}),)
    assert xg.x0 == 0


def test_initial_vertex_in_target():
    g = load_finite_game({**LOOP_GAME, "targets": [["A"]]})
    xg = build_extended_game(g)
    assert xg.origin[xg.x0] == (0, 1)


def test_fork_game_reachable_fragment(fork_game):
    xg = build_extended_game(fork_game)
    assert xg.game.n_vertices == 3
    assert set(xg.origin) == {(0, 0), (1, 1), (2, 0)}


def test_owner_and_alphabet_carried_over(fork_game):
    xg = build_extended_game(fork_game)
    for x, (v, _) in enumerate(xg.origin):
        assert xg.game.owner[x] == fork_game.owner[v]
    assert xg.game.alphabet == fork_game.alphabet


def test_satisfied_sets_grow_along_edges():
    for g in random_games(30, seed=23):
        xg = build_extended_game(g)
        sat = xg.satisfied
        for src, _, dst in xg.game.edges:
            assert sat[src] | sat[dst] == sat[dst]


def test_layers_partition_the_vertices():
    for g in random_games(30, seed=31, max_players=4):
        xg = build_extended_game(g)
        layers = xg.layers
        assert set(layers) == set(xg.satisfied)
        assert sorted(v for layer in layers.values() for v in layer) == list(range(xg.n_vertices))
        for m, layer in layers.items():
            assert list(layer) == sorted(layer)
            assert all(xg.satisfied[v] == m for v in layer)


def test_size_bound():
    for g in random_games(30, seed=29, max_ext_vertices=None):
        xg = build_extended_game(g)
        assert xg.game.n_vertices <= g.n_vertices * (1 << g.n_players)


def test_size_cap_enforced(fork_game):
    with pytest.raises(SizeCapError):
        build_extended_game(fork_game, max_vertices=2)


def test_ill_formed_game_rejected(chain_game):
    # the game checks itself, so the builder never sees an edge to nowhere
    with pytest.raises(ValueError) as excinfo:
        FiniteGame(
            n_players=1,
            alphabet=chain_game.alphabet,
            vertex_names=chain_game.vertex_names,
            out_edges=((("a", 1),), (("a", 2),)),  # B leads to no vertex
            owner=chain_game.owner,
            targets=chain_game.targets,
            initial=0,
        )
    assert str(excinfo.value) == "edge row 1 references unknown vertex id 2"


def assert_matches_reference(g: FiniteGame, max_vertices: int | None = None) -> None:
    try:
        ref, origin, triples = reference_build_extended_game(g, max_vertices)
    except SizeCapError:
        with pytest.raises(SizeCapError):
            build_extended_game(g, max_vertices)
        return
    xg = build_extended_game(g, max_vertices)
    assert xg.origin == origin
    assert xg.owner == ref.owner
    assert adjacency_matches(xg, triples)
    assert "game" not in xg.__dict__
    assert xg.game == ref
    assert xg.game.edges == triples


def lettered_game(rng: random.Random) -> FiniteGame:
    """A random game whose edges are declared out of order, some under two
    letters and some twice, so discovery order is not ascending order."""
    n = rng.randint(1, 9)
    players = rng.randint(1, 4)
    names = [f"v{i}" for i in range(n)]
    edges = [
        (names[v], letter, names[w])
        for v in range(n)
        for w in rng.sample(range(n), rng.randint(1, min(3, n)))
        for letter in rng.sample("ab", rng.randint(1, 2))
    ]
    rng.shuffle(edges)
    edges += rng.sample(edges, min(2, len(edges)))
    return load_finite_game({
        "players": players,
        "alphabet": ["a", "b"],
        "vertices": [{"name": name, "owner": rng.randrange(players)} for name in names],
        "edges": [{"from": src, "letter": letter, "to": dst} for src, letter, dst in edges],
        "targets": [[name for name in names if rng.random() < 0.3] for _ in range(players)],
        "initial": names[rng.randrange(n)],
    })


class TestMatchesReference:
    def test_random_lettered_games(self):
        rng = random.Random(43)
        for _ in range(150):
            g = lettered_game(rng)
            assert_matches_reference(g)
            assert_matches_reference(g, max_vertices=rng.randint(1, 12))

    def test_random_games(self):
        for g in random_games(150, seed=47, max_players=4, max_ext_vertices=None):
            assert_matches_reference(g)

    def test_fixtures(self, chain_game, fork_game):
        assert_matches_reference(chain_game)
        assert_matches_reference(fork_game)


class TestLiftLasso:
    def test_chain_lift(self, chain_game):
        xg = build_extended_game(chain_game)
        lifted = lift_lasso(xg, LassoPlay((0,), (1,)))
        assert lifted == LassoPlay((0,), (1,))
        assert xg.origin[lifted.cycle[0]] == (1, 1)

    def test_wrong_start_rejected(self, chain_game):
        xg = build_extended_game(chain_game)
        with pytest.raises(InputError, match="initial"):
            lift_lasso(xg, LassoPlay((), (1,)))

    def test_untouched_targets_keep_initial_set(self, fork_game):
        xg = build_extended_game(fork_game)
        lifted = lift_lasso(xg, LassoPlay((0,), (2,)))
        sats = {xg.origin[x][1] for x in lifted.prefix + lifted.cycle}
        assert sats == {0}

    def test_cycle_unrolls_until_satisfied_set_stabilizes(self):
        # the target sits mid-cycle, so the first pass differs from later ones
        g = load_finite_game({
            **CHAIN_GAME,
            "edges": [{"from": "A", "letter": "a", "to": "B"}, {"from": "B", "letter": "a", "to": "A"}],
        })
        xg = build_extended_game(g)
        lifted = lift_lasso(xg, LassoPlay((), (0, 1)))
        assert [xg.origin[x] for x in lifted.prefix] == [(0, 0)]
        assert [xg.origin[x] for x in lifted.cycle] == [(1, 1), (0, 1)]

    def test_gain_preserved_on_random_lassos(self):
        for g in random_games(40, seed=31):
            rng = random.Random(g.n_vertices * 7 + 1)
            rho = _lasso_from_initial(g, rng)
            xg = build_extended_game(g)
            lifted = lift_lasso(xg, rho)
            assert gain_of_lasso(g, rho) == gain_of_lasso(xg.game, lifted)

    def test_suffix_gain_stability(self):
        # dropping any prefix step of an extended lasso never changes its gain
        for g in random_games(25, seed=37):
            rng = random.Random(g.n_vertices)
            xg = build_extended_game(g)
            lifted = lift_lasso(xg, _lasso_from_initial(g, rng))
            full = gain_of_lasso(xg.game, lifted)
            for n in range(1, len(lifted.prefix) + 1):
                assert gain_of_lasso(xg.game, LassoPlay(lifted.prefix[n:], lifted.cycle)) == full


def _lasso_from_initial(g, rng, steps: int = 6) -> LassoPlay:
    path = [g.initial]
    for _ in range(steps):
        path.append(rng.choice(g.out_edges[path[-1]])[1])
    while True:
        seen = {}
        for pos, v in enumerate(path):
            if v in seen:
                return LassoPlay(tuple(path[: seen[v]]), tuple(path[seen[v] : pos]))
            seen[v] = pos
        path.append(rng.choice(g.out_edges[path[-1]])[1])
