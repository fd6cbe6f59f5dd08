import pytest

from spe_reach.extended import build_extended_game
from spe_reach.fixpoint import (
    analyze,
    compute_lambda_star,
    decide_constrained_existence,
    exists_consistent_play,
)
from spe_reach.game import ConstraintProfile, FiniteGame, GainProfile, LassoPlay
from spe_reach.oracle import (
    ORACLE_MAX_EXT_VERTICES,
    OracleLimitError,
    enumerate_lassos,
    oracle_lambda_star,
    oracle_outcomes,
)

from generators import all_constraints, random_games
from lassos import gain_of_lasso, is_consistent


class TestEnumerateLassos:
    def test_chain_contains_canonical_lasso(self, chain_game):
        lassos = list(enumerate_lassos(chain_game, 0, 2, 2))
        assert LassoPlay((0,), (1,)) in lassos

    def test_self_loop_exact(self):
        g = FiniteGame.build(
            vertices=["A"],
            edges=[("A", "a", "A")],
            owner={"A": 0},
            targets=[[]],
            initial="A",
        )
        assert list(enumerate_lassos(g, 0, 1, 1)) == [LassoPlay((), (0,)), LassoPlay((0,), (0,))]

    def test_fork_shapes(self, fork_game):
        lassos = set(enumerate_lassos(fork_game, 0, 3, 3))
        # every lasso from A settles into the B or the C self-loop
        assert all(set(rho.cycle) in ({1}, {2}) for rho in lassos)
        assert LassoPlay((0,), (1,)) in lassos
        assert LassoPlay((0,), (2,)) in lassos
        assert LassoPlay((0, 1), (1,)) in lassos

    def test_all_results_are_valid_lassos(self):
        for g in random_games(10, seed=73, max_vertices=4):
            for rho in enumerate_lassos(g, g.initial, 3, 3):
                assert not _violations(g, rho)

    def test_cycles_are_simple(self, fork_game):
        for rho in enumerate_lassos(fork_game, 0, 3, 3):
            assert len(set(rho.cycle)) == len(rho.cycle)

    def test_simple_prefix_subset_of_full(self, chain_game):
        full = set(enumerate_lassos(chain_game, 0, 3, 2))
        simple = set(enumerate_lassos(chain_game, 0, 3, 2, simple_prefix=True))
        assert simple <= full
        assert all(len(set(rho.prefix)) == len(rho.prefix) for rho in simple)

    def test_bad_bounds_rejected(self, chain_game):
        with pytest.raises(ValueError):
            list(enumerate_lassos(chain_game, 0, 1, 0))


def _violations(g, rho):
    from lassos import lasso_violations

    return lasso_violations(g, rho)


class TestOracleLambdaStar:
    def test_chain(self, chain_game):
        xg = build_extended_game(chain_game)
        assert oracle_lambda_star(xg) == (1, 1)

    def test_fork_matches_solver(self, fork_game):
        xg = build_extended_game(fork_game)
        lam, _ = compute_lambda_star(xg)
        assert oracle_lambda_star(xg) == lam

    def test_empty_targets(self):
        g = FiniteGame.build(
            vertices=["A"],
            edges=[("A", "a", "A")],
            owner={"A": 0},
            targets=[[]],
            initial="A",
        )
        assert oracle_lambda_star(build_extended_game(g)) == (0,)

    def test_matches_solver_on_random_games(self):
        for g in random_games(40, seed=79):
            xg = build_extended_game(g)
            lam, _ = compute_lambda_star(xg)
            assert oracle_lambda_star(xg) == lam

    def test_size_guard(self):
        # complete graph on 10 vertices, 3 players: 68 reachable extended vertices
        n = 10
        g = FiniteGame(
            n_players=3,
            alphabet=("a",),
            vertex_names=tuple(f"v{i}" for i in range(n)),
            out_edges=tuple(tuple(("a", j) for j in range(n)) for _ in range(n)),
            owner=(0,) * n,
            targets=(frozenset({1}), frozenset({2}), frozenset({3})),
            initial=0,
        )
        xg = build_extended_game(g)
        assert xg.game.n_vertices > ORACLE_MAX_EXT_VERTICES
        for oracle in (oracle_lambda_star, oracle_outcomes):
            with pytest.raises(OracleLimitError, match="refuses"):
                oracle(xg)


def _oracle_answer(g, c):
    return any(map(c.admits, oracle_outcomes(build_extended_game(g))))


class TestOracleDecide:
    def test_fork_win(self, fork_game):
        assert _oracle_answer(fork_game, ConstraintProfile.from_words(["win"]))

    def test_fork_lose(self, fork_game):
        assert not _oracle_answer(fork_game, ConstraintProfile.from_words(["lose"]))

    def test_unconstrained_always_yes(self):
        for g in random_games(25, seed=89):
            assert _oracle_answer(g, ConstraintProfile.from_words(["any"] * g.n_players))

    def test_agrees_with_solver(self):
        for g in random_games(30, seed=97):
            outcomes = oracle_outcomes(build_extended_game(g))
            for c in all_constraints(g.n_players):
                assert any(map(c.admits, outcomes)) == decide_constrained_existence(g, c).answer

    def test_outcomes_are_the_solver_profiles(self):
        # the whole set, not only its answer to each constraint: exactly the
        # profiles for which the solver finds a consistent play from x0
        for g in random_games(30, seed=103):
            a = analyze(g)
            xg = a.extended_game
            found = {
                GainProfile(m, g.n_players)
                for m in xg.layers
                if exists_consistent_play(xg, a.lambda_star, xg.x0, GainProfile(m, g.n_players))
                is not None
            }
            assert oracle_outcomes(xg) == found

    def test_leaves_the_game_view_unbuilt(self):
        # the oracle reads the extended adjacency, as the solver does
        for g in random_games(20, seed=67):
            xg = build_extended_game(g)
            oracle_outcomes(xg)
            oracle_lambda_star(xg)
            assert "game" not in xg.__dict__


class TestOracleSelfConsistency:
    def test_enlarging_bounds_is_stable(self):
        # the (N, N) bounds with simple prefixes decide exactly what larger,
        # unrestricted enumerations decide
        for g in random_games(12, seed=101, max_vertices=3, max_players=2):
            xg = build_extended_game(g)
            lam = oracle_lambda_star(xg)
            outcomes = oracle_outcomes(xg)
            n = xg.game.n_vertices
            for c in all_constraints(g.n_players):
                assert any(map(c.admits, outcomes)) == _decide_by_full_enumeration(
                    xg, lam, c, n + 2, n + 1
                )


def _decide_by_full_enumeration(xg, lam, c, max_prefix, max_cycle):
    for rho in enumerate_lassos(xg.game, xg.x0, max_prefix, max_cycle):
        p = gain_of_lasso(xg.game, rho)
        if c.admits(p) and is_consistent(xg, lam, rho):
            return True
    return False
