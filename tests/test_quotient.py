import pytest

from spe_reach.errors import InputError
from spe_reach.fixpoint import decide_constrained_existence
from spe_reach.jsonio import load_finite_game

from documents import FORK_GAME
from generators import all_constraints, clone_game, random_games
from quotient import (
    EquivalenceMap,
    check_bisimulation,
    check_respects_partition,
    check_respects_targets,
    quotient_game,
)


class TestEquivalenceMap:
    def test_identity(self):
        eq = EquivalenceMap.identity(3)
        assert eq.n_classes == 3
        assert eq.members == ((0,), (1,), (2,))

    def test_sparse_ids_rejected(self):
        with pytest.raises(ValueError, match="dense"):
            EquivalenceMap((0, 2))


class TestCheckers:
    def test_identity_passes_all(self, fork_game):
        eq = EquivalenceMap.identity(fork_game.n_vertices)
        assert check_respects_partition(fork_game, eq)
        assert check_respects_targets(fork_game, eq)
        assert check_bisimulation(fork_game, eq)

    def test_mixed_owners_fail_partition(self):
        g = load_finite_game({
            "players": 2,
            "alphabet": ["a"],
            "vertices": [{"name": "A", "owner": 0}, {"name": "B", "owner": 1}],
            "edges": [{"from": "A", "letter": "a", "to": "B"}, {"from": "B", "letter": "a", "to": "A"}],
            "targets": [[], []],
            "initial": "A",
        })
        eq = EquivalenceMap((0, 0))
        assert not check_respects_partition(g, eq)

    def test_mixed_targets_fail(self, fork_game):
        # B is a target, C is not
        eq = EquivalenceMap((0, 1, 1))
        assert not check_respects_targets(fork_game, eq)

    def test_clone_passes_all(self):
        for g in random_games(15, seed=67):
            clone, eq = clone_game(g)
            assert check_respects_partition(clone, eq)
            assert check_respects_targets(clone, eq)
            assert check_bisimulation(clone, eq)

    def test_missing_letter_fails_bisimulation(self):
        edges = [("A", "a", "C"), ("A", "b", "C"), ("B", "a", "C"), ("C", "a", "C")]
        g = load_finite_game({
            **FORK_GAME,
            "alphabet": ["a", "b"],
            "edges": [{"from": src, "letter": letter, "to": dst} for src, letter, dst in edges],
            "targets": [[]],
        })
        eq = EquivalenceMap((0, 0, 1))  # A has a b-edge, B does not
        assert not check_bisimulation(g, eq)

    def test_partial_map_rejected(self, fork_game):
        with pytest.raises(ValueError, match="covers"):
            check_respects_partition(fork_game, EquivalenceMap((0, 1)))


class TestQuotientGame:
    def test_identity_isomorphic(self, fork_game):
        q, members = quotient_game(fork_game, EquivalenceMap.identity(3))
        assert q.n_vertices == 3
        assert members == ((0,), (1,), (2,))
        assert set(q.edges) == {(0, "a", 1), (0, "a", 2), (1, "a", 1), (2, "a", 2)}
        assert q.targets == (frozenset({1}),)
        assert q.initial == 0

    def test_clone_round_trip(self, fork_game):
        clone, eq = clone_game(fork_game)
        q, members = quotient_game(clone, eq)
        assert q.n_vertices == fork_game.n_vertices
        assert set(q.edges) == set(fork_game.edges)
        assert q.owner == fork_game.owner
        assert q.targets == fork_game.targets
        assert q.initial == fork_game.initial
        assert all(len(group) == 2 for group in members)

    def test_precondition_rejection_names_condition(self, fork_game):
        with pytest.raises(InputError, match="respects-targets"):
            quotient_game(fork_game, EquivalenceMap((0, 1, 1)))

    def test_decision_preserved_under_clone_quotient(self):
        for g in random_games(12, seed=71, max_vertices=5, max_players=2):
            clone, eq = clone_game(g)
            q, _ = quotient_game(clone, eq)
            for c in all_constraints(g.n_players):
                expected = decide_constrained_existence(g, c).answer
                assert decide_constrained_existence(q, c).answer == expected
                assert decide_constrained_existence(clone, c).answer == expected

    def test_identity_quotient_preserves_decisions(self):
        for g in random_games(15, seed=73, max_vertices=4, max_players=2):
            q, _ = quotient_game(g, EquivalenceMap.identity(g.n_vertices))
            for c in all_constraints(g.n_players):
                assert (
                    decide_constrained_existence(q, c).answer
                    == decide_constrained_existence(g, c).answer
                )
