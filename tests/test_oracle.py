from itertools import chain

import pytest

from spe_reach import oracle
from spe_reach.extended import build_extended_game
from spe_reach.fixpoint import (
    analyze,
    compute_lambda_star,
    decide_constrained_existence,
    exists_consistent_play,
)
from spe_reach.game import ConstraintProfile, FiniteGame, GainProfile, LassoPlay
from spe_reach.jsonio import load_finite_game
from spe_reach.oracle import (
    ORACLE_MAX_EXT_VERTICES,
    OracleLimitError,
    oracle_outcomes,
)

from documents import LOOP_GAME
from generators import all_constraints, dense_small_games, exhaustive_grid, random_games
from lassos import enumerate_lassos, gain_of_lasso, is_consistent, lasso_violations


def oracle_lambda_star(xg) -> tuple[int, ...]:
    """The oracle's fixpoint labeling, read off its enumerated lassos; it
    must agree with the solver's."""
    lam_mask = oracle._solve(xg)[1]
    return tuple((lam_mask >> v) & 1 for v in range(xg.n_vertices))


class TestEnumerateLassos:
    # the extended games of these fixtures keep the base vertex ids
    def test_chain_contains_canonical_lasso(self, chain_game):
        lassos = list(enumerate_lassos(build_extended_game(chain_game), 0, 2, 2))
        assert LassoPlay((0,), (1,)) in lassos

    def test_self_loop_exact(self):
        g = load_finite_game(LOOP_GAME)
        xg = build_extended_game(g)
        assert list(enumerate_lassos(xg, 0, 1, 1)) == [LassoPlay((), (0,)), LassoPlay((0,), (0,))]

    def test_fork_shapes(self, fork_game):
        lassos = set(enumerate_lassos(build_extended_game(fork_game), 0, 3, 3))
        # every lasso from A settles into the B or the C self-loop
        assert all(set(rho.cycle) in ({1}, {2}) for rho in lassos)
        assert LassoPlay((0,), (1,)) in lassos
        assert LassoPlay((0,), (2,)) in lassos
        assert LassoPlay((0, 1), (1,)) in lassos

    def test_all_results_are_valid_lassos(self):
        for g in random_games(10, seed=73, max_vertices=4):
            xg = build_extended_game(g)
            for rho in enumerate_lassos(xg, xg.x0, 3, 3):
                assert not lasso_violations(xg.game, rho)

    def test_cycles_are_simple(self, fork_game):
        for rho in enumerate_lassos(build_extended_game(fork_game), 0, 3, 3):
            assert len(set(rho.cycle)) == len(rho.cycle)

    def test_simple_prefix_subset_of_full(self, chain_game):
        xg = build_extended_game(chain_game)
        full = set(enumerate_lassos(xg, 0, 3, 2))
        simple = set(enumerate_lassos(xg, 0, 3, 2, simple_prefix=True))
        assert simple <= full
        assert all(len(set(rho.prefix)) == len(rho.prefix) for rho in simple)

    def test_bad_bounds_rejected(self, chain_game):
        with pytest.raises(ValueError):
            list(enumerate_lassos(build_extended_game(chain_game), 0, 1, 0))


class TestOracleLambdaStar:
    def test_chain(self, chain_game):
        xg = build_extended_game(chain_game)
        assert oracle_lambda_star(xg) == (1, 1)

    def test_fork_matches_solver(self, fork_game):
        xg = build_extended_game(fork_game)
        lam, _ = compute_lambda_star(xg)
        assert oracle_lambda_star(xg) == lam

    def test_empty_targets(self):
        g = load_finite_game(LOOP_GAME)
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
                if exists_consistent_play(xg, a.lambda_star, xg.x0, GainProfile(m, g.n_players), a.core)
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
    for rho in enumerate_lassos(xg, xg.x0, max_prefix, max_cycle):
        p = gain_of_lasso(xg.game, rho)
        if c.admits(p) and is_consistent(xg, lam, rho):
            return True
    return False


def _reference_summaries(xgs):
    """Per game and vertex, the (gain, binding) pairs folded from the
    reference enumeration, and the number of lassos per game. The games
    share one adjacency, so one enumeration serves them all."""
    n = xgs[0].n_vertices
    out = [[set() for _ in range(n)] for _ in xgs]
    count = 0
    for v in range(n):
        for rho in enumerate_lassos(xgs[0], v, n, n, simple_prefix=True):
            count += 1
            for xg, summaries in zip(xgs, out):
                sat, owner = xg.satisfied, xg.owner
                gain = 0
                for u in rho.cycle:
                    gain |= sat[u]
                binding = 0
                for u in rho.cycle:
                    if not (gain >> owner[u]) & 1:
                        binding |= 1 << u
                for u in reversed(rho.prefix):
                    gain |= sat[u]
                    if not (gain >> owner[u]) & 1:
                        binding |= 1 << u
                summaries[v].add((gain, binding))
    return [tuple(map(frozenset, summaries)) for summaries in out], count


class TestWalkMatchesReference:
    def test_summaries_and_lasso_count(self, monkeypatch):
        # the oracle walks exactly the lassos the reference enumerator yields
        # with simple prefixes, and its cap counts those lassos one by one.
        # The summaries depend only on the adjacency, satisfied sets and
        # owners, and the lasso count on the adjacency alone, so games are
        # grouped by adjacency and repeats are checked once.
        groups = {}
        for g in chain(
            exhaustive_grid(),
            random_games(200, seed=107, max_players=4),
            dense_small_games(),
        ):
            xg = build_extended_game(g)
            groups.setdefault(xg.successors, {}).setdefault((xg.satisfied, xg.owner), xg)
        for same_adjacency in groups.values():
            xgs = list(same_adjacency.values())
            expected, count = _reference_summaries(xgs)
            monkeypatch.setattr(oracle, "ORACLE_MAX_LASSOS", count)
            for xg, summaries in zip(xgs, expected):
                assert oracle._lasso_summaries(xg) == summaries
            monkeypatch.setattr(oracle, "ORACLE_MAX_LASSOS", count - 1)
            with pytest.raises(OracleLimitError, match=f"more than {count - 1} lassos"):
                oracle._lasso_summaries(xgs[0])
