import importlib
import pkgutil

import pytest
from hypothesis import given, settings, strategies as st

import spe_reach
from spe_reach import fixpoint
from spe_reach.errors import InputError, SizeCapError
from spe_reach.extended import build_extended_game
from spe_reach.fixpoint import (
    _analysis,
    _core,
    analyze,
    compute_lambda_star,
    cores,
    decide_constrained_existence,
    exists_consistent_play,
    initial_labeling,
    lambda_step,
)
from spe_reach.game import ConstraintProfile, FiniteGame, GainProfile, LassoPlay
from spe_reach.jsonio import load_finite_game

from documents import FORK_GAME, LOOP_GAME
from generators import all_constraints, game_from_successors, random_games
from lassos import gain_of_lasso, is_consistent
from reference_fixpoint import (
    reference_consistent_play,
    reference_lambda_step,
    reference_sources,
    reference_surviving,
)


@pytest.fixture
def fork_ext(fork_game):
    return build_extended_game(fork_game)


def _ext_index(xg, base_vertex, mask):
    return xg.origin.index((base_vertex, mask))


def _play(xg, lam, start, mask):
    """exists_consistent_play as the (prefix, cycle) pair the reference returns."""
    rho = exists_consistent_play(xg, lam, start, GainProfile(mask, xg.n_players), cores(xg, lam))
    return None if rho is None else (rho.prefix, rho.cycle)


class TestIsConsistent:
    def test_zero_labeling_accepts_everything(self, fork_ext):
        lam = initial_labeling(fork_ext)
        a, b, c = (_ext_index(fork_ext, v, m) for v, m in ((0, 0), (1, 1), (2, 0)))
        for rho in (LassoPlay((a,), (b,)), LassoPlay((a,), (c,)), LassoPlay((), (b,))):
            assert is_consistent(fork_ext, lam, rho)

    def test_losing_lasso_violates_raised_label(self, fork_ext):
        lam, _ = compute_lambda_star(fork_ext)
        a = _ext_index(fork_ext, 0, 0)
        c = _ext_index(fork_ext, 2, 0)
        assert lam[a] == 1
        assert not is_consistent(fork_ext, lam, LassoPlay((a,), (c,)))

    def test_winning_lasso_is_consistent(self, fork_ext):
        lam, _ = compute_lambda_star(fork_ext)
        a = _ext_index(fork_ext, 0, 0)
        b = _ext_index(fork_ext, 1, 1)
        assert is_consistent(fork_ext, lam, LassoPlay((a,), (b,)))

    def test_partial_labeling_rejected(self, fork_ext):
        with pytest.raises(ValueError, match="total"):
            is_consistent(fork_ext, (0,), LassoPlay((), (0,)))


class TestExistsConsistentPlay:
    def test_pruned_start_means_absent(self, fork_ext):
        lam, _ = compute_lambda_star(fork_ext)
        assert (
            exists_consistent_play(fork_ext, lam, fork_ext.x0, GainProfile(0, 1), cores(fork_ext, lam))
            is None
        )

    def test_winning_profile_found(self, fork_ext):
        lam, _ = compute_lambda_star(fork_ext)
        rho = exists_consistent_play(fork_ext, lam, fork_ext.x0, GainProfile(1, 1), cores(fork_ext, lam))
        assert rho == LassoPlay(
            (_ext_index(fork_ext, 0, 0),), (_ext_index(fork_ext, 1, 1),)
        )

    def test_loser_already_satisfied_absent(self, chain_game):
        xg = build_extended_game(chain_game)
        lam = initial_labeling(xg)
        b = _ext_index(xg, 1, 1)
        assert exists_consistent_play(xg, lam, b, GainProfile(0, 1), cores(xg, lam)) is None

    def test_bad_start_rejected(self, fork_ext):
        lam = initial_labeling(fork_ext)
        with pytest.raises(ValueError, match="start"):
            exists_consistent_play(fork_ext, lam, 99, GainProfile(1, 1), cores(fork_ext, lam))

    @pytest.mark.parametrize("lam, profile, core, message", [
        ((0,), GainProfile(1, 1), b"\0\0", "labeling must be total over the extended vertices"),
        ((0, 0), GainProfile(1, 2), b"\0\0", "gain profile does not match the player count"),
        ((0, 0), GainProfile(1, 1), b"\0", "core must be total over the extended vertices"),
        ((0, 0), GainProfile(1, 1), b"\0" * 4, "core must be total over the extended vertices"),
    ], ids=["short labeling", "two-player profile", "short core", "long core"])
    def test_arguments_of_the_wrong_size_rejected(self, chain_game, lam, profile, core, message):
        xg = build_extended_game(chain_game)
        assert xg.n_vertices == 2
        with pytest.raises(ValueError) as excinfo:
            exists_consistent_play(xg, lam, xg.x0, profile, core)
        assert str(excinfo.value) == message

    def test_witness_properties_on_random_games(self):
        for g in random_games(40, seed=41):
            xg = build_extended_game(g)
            lam, _ = compute_lambda_star(xg)
            core = cores(xg, lam)
            for mask in range(1 << g.n_players):
                p = GainProfile(mask, g.n_players)
                rho = exists_consistent_play(xg, lam, xg.x0, p, core)
                if rho is not None:
                    assert gain_of_lasso(xg.game, rho) == p
                    assert is_consistent(xg, lam, rho)


class TestLambdaStep:
    def test_chain_first_step(self, chain_game):
        xg = build_extended_game(chain_game)
        assert lambda_step(xg, initial_labeling(xg)) == (1, 1)

    def test_fork_first_step(self, fork_ext):
        # vertex order: (A,{}), then its successors
        values = lambda_step(fork_ext, initial_labeling(fork_ext))
        by_origin = {fork_ext.origin[x]: v for x, v in enumerate(values)}
        assert by_origin == {(0, 0): 1, (1, 1): 1, (2, 0): 0}

    def test_fixpoint_is_stable(self, fork_ext):
        lam, _ = compute_lambda_star(fork_ext)
        assert lambda_step(fork_ext, lam) == lam

    @pytest.mark.parametrize("size", [2, 5])
    def test_partial_or_overlong_labeling_rejected(self, fork_ext, size):
        assert fork_ext.n_vertices == 3
        with pytest.raises(ValueError, match="labeling must be total over the extended vertices"):
            lambda_step(fork_ext, (0,) * size)

    def test_monotone_on_random_games(self):
        for g in random_games(40, seed=43):
            xg = build_extended_game(g)
            lam = initial_labeling(xg)
            for _ in range(xg.game.n_vertices + 1):
                nxt = lambda_step(xg, lam)
                assert all(a <= b for a, b in zip(lam, nxt))
                if nxt == lam:
                    break
                lam = nxt

    def test_consistent_play_exists_at_every_iteration(self):
        # the minimum in the recurrence never ranges over an empty set
        for g in random_games(25, seed=47):
            xg = build_extended_game(g)
            lam = initial_labeling(xg)
            while True:
                core = cores(xg, lam)
                for v in range(xg.game.n_vertices):
                    assert any(
                        exists_consistent_play(xg, lam, v, GainProfile(m, g.n_players), core)
                        is not None
                        for m in range(1 << g.n_players)
                    )
                nxt = lambda_step(xg, lam)
                if nxt == lam:
                    break
                lam = nxt


@st.composite
def labeled_games(draw):
    """A small game and an arbitrary labeling of its extended game."""
    n = draw(st.integers(1, 5))
    n_players = draw(st.integers(1, 3))
    vertex = st.integers(0, n - 1)
    g = game_from_successors(
        [draw(st.frozensets(vertex, min_size=1, max_size=3)) for _ in range(n)],
        [draw(st.integers(0, n_players - 1)) for _ in range(n)],
        [draw(st.frozensets(vertex, max_size=2)) for _ in range(n_players)],
        n_players,
        initial=draw(vertex),
    )
    xg = build_extended_game(g)
    size = xg.game.n_vertices
    return xg, tuple(draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))


class TestLayeredStepMatchesReference:
    def test_every_step_of_the_chain_on_random_games(self):
        for g in random_games(150, seed=67, max_vertices=12, max_players=4, max_ext_vertices=400):
            xg = build_extended_game(g)
            lam = initial_labeling(xg)
            while True:
                nxt = lambda_step(xg, lam)
                assert nxt == reference_lambda_step(xg, lam)
                if nxt == lam:
                    break
                lam = nxt

    @settings(max_examples=300, deadline=None)
    @given(labeled_games())
    def test_any_labeling_of_small_games(self, case):
        xg, lam = case
        assert lambda_step(xg, lam) == reference_lambda_step(xg, lam)

    def test_lower_layer_loop_is_no_source_of_a_higher_layer(self):
        # layers {} = I, A, W, U; {1} = B; {0,1} = C. W and U loop in the
        # bottom layer and cannot leave it. With U labeled 1, player 1 must
        # win through U, so the loop is consistent only for gains with
        # player 1 winning, and it never reaches a vertex of such a gain.
        owner = {"I": 0, "A": 0, "W": 1, "U": 1, "B": 0, "C": 0}
        edges = [("I", "A"), ("I", "B"), ("A", "W"), ("W", "U"), ("U", "W"), ("B", "C"), ("C", "C")]
        g = load_finite_game({
            "players": 2,
            "alphabet": ["a"],
            "vertices": [{"name": v, "owner": p} for v, p in owner.items()],
            "edges": [{"from": src, "letter": "a", "to": dst} for src, dst in edges],
            "targets": [["C"], ["B"]],
            "initial": "I",
        })
        xg = build_extended_game(g)
        assert sorted(set(xg.satisfied)) == [0b00, 0b10, 0b11]
        a, w, u = (_ext_index(xg, v, 0) for v in (1, 2, 3))
        lam = tuple(int(x == u) for x in range(xg.game.n_vertices))
        m = 0b10
        assert reference_surviving(xg, lam, m)[w]
        assert not reference_sources(xg, lam, m)[w]
        assert exists_consistent_play(xg, lam, w, GainProfile(m, 2), cores(xg, lam)) is None
        # counting W as a start of gain {1} would let player 0 lose from A's
        # only successor and keep A at 0
        new = lambda_step(xg, lam)
        assert new[a] == 1
        assert new == reference_lambda_step(xg, lam)


    def test_full_layer_on_a_hand_built_game(self):
        # layers {} = I, A; {0} = B; {0,1} = C, D. The full layer {0,1} has
        # no loser, so the step skips its search; labels of its vertices
        # and of their predecessors must still match the reference.
        owner = {"I": 0, "A": 1, "B": 1, "C": 0, "D": 1}
        edges = [
            ("I", "A"), ("I", "B"), ("A", "A"), ("A", "C"), ("B", "C"), ("B", "B"), ("C", "D"), ("D", "C"),
        ]
        g = load_finite_game({
            "players": 2,
            "alphabet": ["a"],
            "vertices": [{"name": v, "owner": p} for v, p in owner.items()],
            "edges": [{"from": src, "letter": "a", "to": dst} for src, dst in edges],
            "targets": [["B", "C"], ["C"]],
            "initial": "I",
        })
        xg = build_extended_game(g)
        assert 0b11 in xg.layers
        lam = initial_labeling(xg)
        while True:
            nxt = lambda_step(xg, lam)
            assert nxt == reference_lambda_step(xg, lam)
            for m in range(4):
                for v in range(xg.n_vertices):
                    assert _play(xg, lam, v, m) == reference_consistent_play(
                        xg, lam, v, GainProfile(m, 2)
                    )
            if nxt == lam:
                break
            lam = nxt


def _assert_plays_match_reference(xg, lam):
    for m in range(1 << xg.n_players):
        p = GainProfile(m, xg.n_players)
        for v in range(xg.n_vertices):
            assert _play(xg, lam, v, m) == reference_consistent_play(xg, lam, v, p)


class TestConsistentPlayMatchesReference:
    def test_every_mask_of_the_chain_on_random_games(self):
        for g in random_games(150, seed=79, max_vertices=12, max_players=4, max_ext_vertices=400):
            xg = build_extended_game(g)
            lam = initial_labeling(xg)
            while True:
                _assert_plays_match_reference(xg, lam)
                nxt = lambda_step(xg, lam)
                if nxt == lam:
                    break
                lam = nxt

    @settings(max_examples=300, deadline=None)
    @given(labeled_games())
    def test_any_labeling_of_small_games(self, case):
        _assert_plays_match_reference(*case)


class TestCores:
    @settings(max_examples=300, deadline=None)
    @given(labeled_games())
    def test_given_cores_change_no_play(self, case):
        xg, lam = case
        core = cores(xg, lam)
        for m in range(1 << xg.n_players):
            p = GainProfile(m, xg.n_players)
            for v in range(xg.n_vertices):
                rho = exists_consistent_play(xg, lam, v, p, core)
                pair = None if rho is None else (rho.prefix, rho.cycle)
                assert pair == reference_consistent_play(xg, lam, v, p)

    def test_analysis_keeps_the_core_of_every_layer(self):
        for g in random_games(40, seed=83, max_vertices=10, max_players=4, max_ext_vertices=400):
            a = analyze(g)
            xg, lam, n = a.extended_game, a.lambda_star, a.extended_game.n_vertices
            assert a.core == cores(xg, lam) and len(a.core) == n
            for m, layer in xg.layers.items():
                expected = _core(xg, lam, m, [-1] * n, [0] * n)
                assert [v for v in layer if a.core[v]] == expected
            assert set(a.core) <= {0, 1}

    def test_decisions_prune_nothing(self, monkeypatch):
        g = _four_player_game()
        a = analyze(g)

        def pruned(*args):
            raise AssertionError("a decision pruned a layer")

        monkeypatch.setattr(fixpoint, "_core", pruned)
        answers = {a.decide(c).answer for c in all_constraints(4)}
        assert answers == {True, False}


class TestComputeLambdaStar:
    def test_chain(self, chain_game):
        xg = build_extended_game(chain_game)
        lam, k = compute_lambda_star(xg)
        assert lam == (1, 1)
        # all labels settle after one changing step
        assert k == 1

    def test_fork(self, fork_ext):
        lam, _ = compute_lambda_star(fork_ext)
        by_origin = {fork_ext.origin[x]: v for x, v in enumerate(lam)}
        assert by_origin == {(0, 0): 1, (1, 1): 1, (2, 0): 0}

    def test_unreachable_target_all_zero(self):
        g = load_finite_game(LOOP_GAME)
        xg = build_extended_game(g)
        lam, k = compute_lambda_star(xg)
        assert lam == (0,)
        assert k == 0

    def test_iteration_bound(self):
        for g in random_games(40, seed=53):
            xg = build_extended_game(g)
            _, k = compute_lambda_star(xg)
            assert k <= xg.game.n_vertices


class TestDecide:
    def test_fork_win(self, fork_game):
        d = decide_constrained_existence(fork_game, ConstraintProfile.from_words(["win"]))
        assert d.answer
        assert d.witness is not None
        assert d.witness.gain.bits == (1,)
        assert d.witness.base == LassoPlay((0,), (1,))

    def test_fork_lose(self, fork_game):
        d = decide_constrained_existence(fork_game, ConstraintProfile.from_words(["lose"]))
        assert not d.answer
        assert d.witness is None

    def test_unconstrained_always_yes(self):
        for g in random_games(40, seed=59):
            c = ConstraintProfile.from_words(["any"] * g.n_players)
            assert decide_constrained_existence(g, c).answer

    def test_witness_invariants(self):
        for g in random_games(30, seed=61):
            for c in all_constraints(g.n_players):
                d = decide_constrained_existence(g, c)
                if d.answer:
                    w = d.witness
                    assert c.admits(w.gain)
                    assert is_consistent(d.extended_game, d.lambda_star, w.extended)
                    assert gain_of_lasso(d.extended_game.game, w.extended) == w.gain
                    assert gain_of_lasso(g, w.base) == w.gain
                    assert d.extended_game.project(w.extended) == w.base

    def test_invalid_game_rejected(self, chain_game):
        # a blocking game cannot be built, so the decision never starts
        with pytest.raises(ValueError, match="blocking"):
            decide_constrained_existence(
                chain_game._replace(out_edges=((("a", 1),), ())),
                ConstraintProfile.from_words(["any"]),
            )

    def test_player_count_mismatch_rejected(self, chain_game):
        with pytest.raises(InputError, match="players"):
            decide_constrained_existence(
                chain_game, ConstraintProfile.from_words(["any", "any"])
            )

    def test_profile_scan_order_prefers_small_masks(self):
        # both sinks are reachable and permitted: the all-lose profile wins the tie
        g = load_finite_game({
            **FORK_GAME,
            "players": 2,
            "vertices": [{"name": v, "owner": 1} for v in "ABC"],
            "targets": [["B"], []],
        })
        d = decide_constrained_existence(g, ConstraintProfile.from_words(["any", "any"]))
        assert d.answer
        assert d.witness.gain.mask == 0

    def test_leaves_the_game_view_unbuilt(self):
        for g in random_games(20, seed=67):
            d = decide_constrained_existence(g, ConstraintProfile.from_words(["any"] * g.n_players))
            assert "game" not in d.extended_game.__dict__


def _four_player_game() -> FiniteGame:
    # a ring of six vertices with a shortcut at every other one; each player
    # owns some vertices and has one target, so the 81 constraints differ
    succ = [{1, 3}, {2}, {3, 5}, {4}, {5, 1}, {0}]
    return game_from_successors(succ, [0, 1, 2, 3, 0, 1], [{1}, {2}, {4}, {5}], 4)


class TestAnalyze:
    def test_one_analysis_serves_every_constraint(self, monkeypatch):
        g = _four_player_game()
        calls = {"build": 0, "lambda": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(fixpoint, "build_extended_game", counted("build", fixpoint.build_extended_game))
        monkeypatch.setattr(fixpoint, "compute_lambda_star", counted("lambda", fixpoint.compute_lambda_star))
        constraints = all_constraints(4)
        assert len(constraints) == 81
        answers = {decide_constrained_existence(g, c).answer for c in constraints}
        assert answers == {True, False}
        assert calls == {"build": 1, "lambda": 1}

    def test_cached_decisions_equal_fresh_ones(self):
        for g in random_games(25, seed=71):
            for c in all_constraints(g.n_players):
                cached = decide_constrained_existence(g, c)
                _analysis.cache_clear()
                fresh = decide_constrained_existence(g, c)
                # answer, witness, lambda_star, k_star and the extended game
                assert cached == fresh

    def test_decide_matches_the_one_call_form(self, fork_game):
        a = analyze(fork_game)
        for c in all_constraints(1):
            assert a.decide(c) == decide_constrained_existence(fork_game, c)
        assert (a.lambda_star, a.k_star) == compute_lambda_star(a.extended_game)

    def test_size_cap_error_is_not_cached(self, fork_game):
        for _ in range(2):
            with pytest.raises(SizeCapError):
                analyze(fork_game, max_ext_vertices=2)
        info = _analysis.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    def test_each_cap_is_its_own_entry(self, fork_game):
        small = analyze(fork_game, max_ext_vertices=3)
        default = analyze(fork_game)
        assert _analysis.cache_info().currsize == 2
        assert small is not default and small == default
        assert analyze(fork_game, max_ext_vertices=3) is small
        assert _analysis.cache_info().hits == 1

    def test_ill_formed_game_rejected_before_analysis(self, chain_game):
        with pytest.raises(ValueError) as excinfo:
            analyze(chain_game._replace(out_edges=((("a", 1),), ())))
        assert str(excinfo.value) == "vertex 'B' has no outgoing edge (blocking)"
        assert _analysis.cache_info().currsize == 0

    def test_decide_leaves_the_views_unbuilt(self):
        g = _four_player_game()
        a = analyze(g)
        for c in all_constraints(4):
            a.decide(c)
        assert "game" not in a.extended_game.__dict__
        assert "edges" not in g.__dict__

    def test_the_analysis_is_the_only_cache(self):
        # a module-level cache holds whole games across calls; walk every
        # module, the oracle and timed ones that the package import skips too
        names = [f"spe_reach.{m.name}" for m in pkgutil.iter_modules(spe_reach.__path__)]
        assert {"spe_reach.oracle", "spe_reach.timed"} <= set(names)
        cached = []
        for module in map(importlib.import_module, names):
            for obj in vars(module).values():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                for member in vars(obj).values() if isinstance(obj, type) else [obj]:
                    member = getattr(member, "__func__", member)
                    if hasattr(member, "cache_info"):
                        cached.append(f"{module.__name__}.{member.__qualname__}")
        assert cached == ["spe_reach.fixpoint._analysis"]
