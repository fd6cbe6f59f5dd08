import operator
import pickle
import random
import time

import pytest

from spe_reach import fixpoint
from spe_reach.errors import InputError
from spe_reach.extended import ExtendedGame, build_extended_game, set_name
from spe_reach.game import ConstraintProfile, FiniteGame, GainProfile, LassoPlay
from spe_reach.jsonio import load_finite_game

from documents import CHAIN_GAME, FORK_GAME, LOOP_GAME
from generators import random_games
from lassos import InvalidLassoError, gain_of_lasso, lasso_violations


class TestGainProfile:
    def test_bits_round_trip(self):
        p = GainProfile(0b101, 3)
        assert p.bits == (1, 0, 1)
        assert p.mask == 0b101
        assert str(p) == "(1,0,1)"

    def test_pointwise_order(self):
        low = GainProfile(0b10, 2)
        high = GainProfile(0b11, 2)
        assert low <= high
        assert not high <= low
        assert low <= low

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            GainProfile(1, 1) <= GainProfile(1, 2)


class TestConstraintProfile:
    def test_from_words(self):
        c = ConstraintProfile.from_words(["win", "lose", "any"])
        assert c.lower.bits == (1, 0, 0)
        assert c.upper.bits == (1, 0, 1)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            ConstraintProfile(GainProfile(1, 1), GainProfile(0, 1))

    def test_admissible_masks_ascending(self, monkeypatch):
        # the decision scans the admissible satisfied sets that occur, ascending
        tried = []

        def record(xg, lam, start, p, core=None):
            tried.append(p.mask)
            return None

        monkeypatch.setattr(fixpoint, "exists_consistent_play", record)

        def scanned(edges, words):
            tried.clear()
            g = load_finite_game({
                "players": 2,
                "alphabet": ["a"],
                "vertices": [{"name": "I", "owner": 0}, {"name": "A", "owner": 0}, {"name": "B", "owner": 1}],
                "edges": [{"from": src, "letter": "a", "to": dst} for src, dst in edges],
                "targets": [["A"], ["B"]],
                "initial": "I",
            })
            assert not fixpoint.decide_constrained_existence(g, ConstraintProfile.from_words(words)).answer
            return list(tried)

        every_set = [("I", "A"), ("I", "B"), ("A", "B"), ("B", "B")]  # sets 0, {0}, {1}, {0,1}
        assert scanned(every_set, ["any", "win"]) == [0b10, 0b11]
        assert scanned(every_set, ["win", "any"]) == [0b01, 0b11]
        assert scanned(every_set, ["lose", "lose"]) == [0b00]
        assert scanned([("I", "A"), ("A", "B"), ("B", "B")], ["any", "win"]) == [0b11]

    def test_admits(self):
        c = ConstraintProfile.from_words(["win", "any"])
        assert c.admits(GainProfile(0b01, 2))
        assert not c.admits(GainProfile(0b10, 2))


class TestPlayerMasks:
    """The helpers that build or read a mask with one bit per player."""

    def test_agree_with_one_bit_at_a_time(self):
        rng = random.Random(5)
        for n in range(8):
            for mask in range(1 << n):
                bits = tuple((mask >> i) & 1 for i in range(n))
                assert GainProfile(mask, n).bits == bits
                assert set_name(mask) == "{" + ",".join(str(i) for i in range(n) if bits[i]) + "}"
            words = [rng.choice(("win", "lose", "any")) for _ in range(n)]
            c = ConstraintProfile.from_words(words)
            assert c.lower.mask == sum(1 << i for i, w in enumerate(words) if w == "win")
            assert c.upper.mask == sum(1 << i for i, w in enumerate(words) if w != "lose")
        for g in random_games(40, seed=5):
            assert g.target_mask == tuple(
                sum(1 << i for i, ts in enumerate(g.targets) if v in ts) for v in range(g.n_vertices)
            )

    def test_a_million_players_take_linear_time(self):
        # built one shifted bit at a time, these take more than 10 s of CPU
        # in all; read and written as binary text, about 1 s (2 vCPU)
        n = 10**6
        words = ["win", "lose", "any", "win"] * (n // 4)
        bits = tuple(int(w == "win") for w in words)
        start = time.process_time()
        c = ConstraintProfile.from_words(words)
        read = c.lower.bits
        name = set_name(c.upper.mask)
        g = FiniteGame(
            n_players=n, alphabet=("a",), vertex_names=("A",), out_edges=((("a", 0),),),
            owner=(0,), targets=(frozenset({0}),) * n, initial=0,
        )
        masks = g.target_mask
        elapsed = time.process_time() - start
        assert read == bits
        assert name.count(",") == 3 * n // 4 - 1
        assert masks == ((1 << n) - 1,)
        assert elapsed < 10


class TestValidateGame:
    """Construction checks every fault, a blocking vertex (one without an
    outgoing edge) last."""

    def test_well_formed(self, chain_game):
        assert FiniteGame._make(chain_game) == chain_game
        assert all(chain_game.out_edges)

    def test_blocking_vertex_named(self):
        with pytest.raises(ValueError) as excinfo:
            FiniteGame(
                n_players=1,
                alphabet=("a",),
                vertex_names=("A", "B", "C"),
                out_edges=((("a", 1),), (("a", 0),), ()),
                owner=(0, 0, 0),
                targets=(frozenset(),),
                initial=0,
            )
        assert str(excinfo.value) == "vertex 'C' has no outgoing edge (blocking)"

    def test_blocking_names_every_vertex(self, chain_game):
        with pytest.raises(ValueError) as excinfo:
            chain_game._replace(out_edges=((), ()))
        assert str(excinfo.value) == (
            "vertex 'A' has no outgoing edge (blocking); "
            "vertex 'B' has no outgoing edge (blocking)"
        )

    def test_blocking_rejected_on_every_construction_path(self, chain_game):
        blocking = (*chain_game[:3], ((("a", 1),), ()), *chain_game[4:])
        # tuple.__new__ skips every check, so this record can be pickled
        unchecked = tuple.__new__(FiniteGame, blocking)
        for make in (
            lambda: FiniteGame(*blocking),
            lambda: FiniteGame._make(blocking),
            lambda: chain_game._replace(out_edges=blocking[3]),
            lambda: pickle.loads(pickle.dumps(unchecked)),
        ):
            with pytest.raises(ValueError) as excinfo:
                make()
            assert str(excinfo.value) == "vertex 'B' has no outgoing edge (blocking)"

    def test_row_count_differs_from_vertex_count(self, chain_game):
        # construction checks the rows, so a short row list never gets as
        # far as the blocking check
        with pytest.raises(ValueError) as excinfo:
            FiniteGame(
                n_players=1,
                alphabet=chain_game.alphabet,
                vertex_names=chain_game.vertex_names,
                out_edges=chain_game.out_edges[:1],
                owner=chain_game.owner,
                targets=chain_game.targets,
                initial=0,
            )
        assert str(excinfo.value) == "edge rows cover 1 of 2 vertices"

    def test_dangling_target_named(self, chain_game):
        with pytest.raises(ValueError) as excinfo:
            FiniteGame(
                n_players=1,
                alphabet=chain_game.alphabet,
                vertex_names=chain_game.vertex_names,
                out_edges=chain_game.out_edges,
                owner=chain_game.owner,
                targets=(frozenset({7}),),
                initial=0,
            )
        assert str(excinfo.value) == "targets[0] contains unknown vertex id 7"

    def test_out_of_range_owner(self, chain_game):
        with pytest.raises(ValueError) as excinfo:
            FiniteGame(
                n_players=1,
                alphabet=chain_game.alphabet,
                vertex_names=chain_game.vertex_names,
                out_edges=chain_game.out_edges,
                owner=(0, 3),
                targets=chain_game.targets,
                initial=0,
            )
        assert str(excinfo.value) == "vertex 'B': owner 3 out of range for 1 players"

    def test_build_rejects_unknown_vertex(self):
        loop = {**LOOP_GAME, "edges": [{"from": "A", "letter": "a", "to": "Z"}]}
        with pytest.raises(InputError, match="^<input>: edge 0: unknown vertex 'Z'$"):
            load_finite_game(loop)

    @pytest.mark.parametrize(
        "edges, targets, initial, message",
        [
            ([("A", "a", "B"), ("Z", "a", "A")], [[], []], "A", "edge 1: unknown vertex 'Z'"),
            ([("A", "a", "B"), ("B", "a", "Z")], [[], []], "A", "edge 1: unknown vertex 'Z'"),
            # the source is resolved first, so it is the one reported
            ([("X", "a", "Y")], [[], []], "A", "edge 0: unknown vertex 'X'"),
            ([("A", "a", "B")], [["A"], ["B", "Z"]], "A", "targets[1]: unknown vertex 'Z'"),
            ([("A", "a", "B")], [[], []], "Z", "initial: unknown vertex 'Z'"),
            # edges are resolved before targets, targets before the initial vertex
            ([("A", "a", "Y")], [["X"], []], "Z", "edge 0: unknown vertex 'Y'"),
            ([("A", "a", "B")], [["X"], []], "Z", "targets[0]: unknown vertex 'X'"),
            ([("A", "b", "B")], [[], []], "A", "edge letter 'b' not in the alphabet"),
            ([("A", "a", "B")], [["A"]], "A", "expected 2 target lists, got 1"),
            # one pass: each edge is checked in full before the next edge,
            # the targets or the initial vertex are read; letters are
            # checked by FiniteGame, after every name has resolved
            ([("A", "b", "B"), ("A", "a", "Z")], [[], []], "A", "edge 1: unknown vertex 'Z'"),
            ([("A", "a", "Z"), ("A", "a", 3)], [[], []], "A", "edge 0: unknown vertex 'Z'"),
            ([("A", "a", "Z")], [[], "B"], 5, "edge 0: unknown vertex 'Z'"),
            ([("A", 3, "B")], [[], []], "A", "edges[0]: key 'letter' has the wrong type"),
        ],
    )
    def test_build_names_the_unknown_reference(self, edges, targets, initial, message):
        with pytest.raises(InputError) as excinfo:
            load_finite_game({
                "players": 2,
                "alphabet": ["a"],
                "vertices": [{"name": "A", "owner": 0}, {"name": "B", "owner": 1}],
                "edges": [{"from": src, "letter": letter, "to": dst} for src, letter, dst in edges],
                "targets": targets,
                "initial": initial,
            })
        assert str(excinfo.value) == f"<input>: {message}"

    @pytest.mark.parametrize(
        "vertices, message",
        [
            ([("A", 0), ("B", 1), ("A", 1)], "duplicate vertex name 'A'"),
            ([("A", 0), ("B", 2)], "vertex 'B': owner 2 out of range for 2 players"),
            ([("A", -1), ("B", 1)], "vertex 'A': owner -1 out of range for 2 players"),
            # each vertex is checked in full before the next one is read,
            # and every vertex before the first edge; owner ranges are
            # checked by FiniteGame, after every name has resolved
            ([("A", 0), ("A", 1), ("B", "1")], "duplicate vertex name 'A'"),
            ([("A", 0), ("B", 2), ("C", "1")], "vertices[2]: key 'owner' has the wrong type"),
            ([("A", 0), ("C", 2)], "edge 0: unknown vertex 'B'"),
            ([("A", 0), ("B", "1"), ("A", 1)], "vertices[1]: key 'owner' has the wrong type"),
        ],
    )
    def test_load_names_the_bad_vertex(self, vertices, message):
        with pytest.raises(InputError) as excinfo:
            load_finite_game({
                "players": 2,
                "alphabet": ["a"],
                "vertices": [{"name": name, "owner": player} for name, player in vertices],
                "edges": [{"from": "A", "letter": "a", "to": "B"}],
                "targets": [[], []],
                "initial": "A",
            })
        assert str(excinfo.value) == f"<input>: {message}"


class TestGainOfLasso:
    def test_chain_lasso_wins(self, chain_game):
        rho = LassoPlay((0,), (1,))
        assert gain_of_lasso(chain_game, rho).bits == (1,)

    def test_missing_edge_rejected(self, chain_game):
        rho = LassoPlay((), (0, 1))  # needs B -> A to close
        assert lasso_violations(chain_game, rho)
        with pytest.raises(InvalidLassoError):
            gain_of_lasso(chain_game, rho)

    def test_empty_target_set(self):
        g = load_finite_game(LOOP_GAME)
        assert gain_of_lasso(g, LassoPlay((), (0,))).bits == (0,)

    def test_gain_matches_visited_set(self):
        for g in random_games(40, seed=11, max_ext_vertices=None):
            rho = _random_lasso(g, random.Random(g.n_vertices))
            visited = set(rho.prefix + rho.cycle)
            assert gain_of_lasso(g, rho).bits == tuple(int(bool(visited & ts)) for ts in g.targets)

    def test_cycle_rotation_invariance(self):
        for g in random_games(25, seed=5, max_ext_vertices=None):
            rng = random.Random(17)
            rho = _random_lasso(g, rng, cycle_len=4)
            base = gain_of_lasso(g, rho)
            for k in range(1, len(rho.cycle)):
                rotated = LassoPlay(
                    rho.prefix + rho.cycle[:k], rho.cycle[k:] + rho.cycle[:k]
                )
                assert gain_of_lasso(g, rotated) == base

    def test_cycle_unroll_invariance(self):
        for g in random_games(25, seed=7, max_ext_vertices=None):
            rho = _random_lasso(g, random.Random(3))
            base = gain_of_lasso(g, rho)
            for k in (1, 2):
                unrolled = LassoPlay(rho.prefix + rho.cycle * k, rho.cycle)
                assert gain_of_lasso(g, unrolled) == base


def _random_lasso(g, rng, prefix_len: int = 3, cycle_len: int = 3) -> LassoPlay:
    """Walk random edges, then close a cycle at the first repeated vertex."""
    path = [g.initial]
    for _ in range(prefix_len + cycle_len):
        path.append(rng.choice(g.out_edges[path[-1]])[1])
    while True:
        seen = {}
        for pos, v in enumerate(path):
            if v in seen:
                return LassoPlay(tuple(path[: seen[v]]), tuple(path[seen[v] : pos]))
            seen[v] = pos
        path.append(rng.choice(g.out_edges[path[-1]])[1])


def test_multi_edges_collapse_to_one_successor():
    g = load_finite_game({
        **CHAIN_GAME,
        "alphabet": ["a", "b"],
        "edges": [
            {"from": src, "letter": letter, "to": dst}
            for src, letter, dst in [("A", "a", "B"), ("A", "b", "B"), ("B", "a", "B")]
        ],
    })
    assert g.out_edges[0] == (("a", 1), ("b", 1))
    assert build_extended_game(g).successors[0] == (1,)
    assert gain_of_lasso(g, LassoPlay((0,), (1,))).bits == (1,)


class TestGameHash:
    def test_equal_games_hash_equal(self):
        for g in random_games(20, seed=37):
            twin = FiniteGame(
                n_players=g.n_players,
                alphabet=tuple(g.alphabet),
                vertex_names=tuple(g.vertex_names),
                out_edges=tuple(tuple(row) for row in g.out_edges),
                owner=tuple(g.owner),
                targets=tuple(frozenset(ts) for ts in g.targets),
                initial=g.initial,
            )
            assert twin is not g and twin == g
            assert hash(twin) == hash(g) == hash(g)

    def test_pickle_drops_the_memoized_hash(self, chain_game):
        hash(chain_game)
        copy = pickle.loads(pickle.dumps(chain_game))
        assert "_hash" not in copy.__dict__
        assert copy == chain_game and hash(copy) == hash(chain_game)


def _solver_records(g):
    """Every record the solver hands out for g, each with one of its fields."""
    a = fixpoint.analyze(g)
    d = a.decide(ConstraintProfile.from_words(["any"] * g.n_players))
    assert d.answer
    return [
        (g, "initial"), (a, "k_star"), (d, "answer"), (d.witness, "gain"),
        (d.witness.gain, "mask"), (d.witness.extended, "cycle"), (a.extended_game, "origin"),
        (ConstraintProfile.from_words(["win"] * g.n_players), "lower"),
    ]


class TestRecords:
    @pytest.mark.parametrize("make, message", [
        (lambda: GainProfile(0, -1), "player count must be nonnegative"),
        (lambda: GainProfile(mask=4, n=2), "mask 4 out of range for 2 players"),
        (lambda: GainProfile(-1, 2), "mask -1 out of range for 2 players"),
        (lambda: ConstraintProfile(GainProfile(0, 1), GainProfile(0, 2)), "must cover the same players"),
        (lambda: ConstraintProfile(GainProfile(1, 1), GainProfile(0, 1)), "lower bound exceeds upper bound"),
        (lambda: LassoPlay(prefix=(0,), cycle=()), "lasso cycle must be nonempty"),
        (lambda: GainProfile(1, 2)._replace(mask=4), "mask 4 out of range for 2 players"),
        (lambda: ConstraintProfile.from_words(["any"])._replace(lower=GainProfile(1, 1), upper=GainProfile(0, 1)),
         "lower bound exceeds upper bound"),
        (lambda: LassoPlay((0,), (1,))._replace(cycle=()), "lasso cycle must be nonempty"),
    ])
    def test_bad_values_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("changes, message", [
        ({"vertex_names": (), "owner": (), "out_edges": ()}, "game has no vertices"),
        ({"owner": (0,)}, "owner map covers 1 of 2 vertices"),
        ({"owner": (-1, 0)}, "vertex 'A': owner -1 out of range for 1 players"),
        ({"targets": ()}, "expected 1 target sets, got 0"),
        ({"targets": (frozenset({5, 0, -2, -1}),)}, "targets[0] contains unknown vertex id -2"),
        ({"initial": 2}, "initial vertex id 2 out of range"),
        ({"out_edges": ((("a", 1),), (("a", -1),))}, "edge row 1 references unknown vertex id -1"),
        ({"out_edges": ((("a", 1),), (("b", 1),))}, "edge letter 'b' not in the alphabet"),
        # two faults: the first one in the order above is named
        ({"owner": (0, 1), "initial": 5}, "vertex 'B': owner 1 out of range for 1 players"),
        ({"initial": 5, "out_edges": ((("b", 1),), (("a", 1),))}, "initial vertex id 5 out of range"),
        ({"out_edges": ((("b", 1),), (("a", 7),))}, "edge letter 'b' not in the alphabet"),
        # any range or letter fault before a blocking vertex
        ({"out_edges": ((("a", 7),), ())}, "edge row 0 references unknown vertex id 7"),
        ({"out_edges": ((), (("b", 1),))}, "edge letter 'b' not in the alphabet"),
        ({"out_edges": ((), ()), "initial": 2}, "initial vertex id 2 out of range"),
        # positions past the vertices need delay links, one per position
        ({"out_edges": ((("a", 1),), (("a", 1),), ())}, "edge rows cover 3 of 2 vertices"),
        ({"out_edges": ((("a", 1),), (("a", 1),), ()), "delay": (2, -1)}, "delay links cover 2 of 3 positions"),
        ({"delay": (5, -1)}, "delay link of position 0 leads to unknown position 5"),
        ({"delay": (1, 0)}, "the delay links through position 0 form a cycle"),
        # no move on the vertex's position nor along its chain
        ({"out_edges": ((), (("a", 1),), ()), "owner": (0, 0, 0), "delay": (2, -1, -1)},
         "vertex 'A' has no outgoing edge (blocking)"),
        # with links, the owner map covers every position
        ({"out_edges": ((), (("a", 1),), ()), "delay": (2, -1, -1)}, "owner map covers 2 of 3 positions"),
        ({"out_edges": ((("a", 1),), (("a", 1),), ()), "owner": (0, 0, 1), "delay": (2, -1, -1)},
         "position 2: owner 1 out of range for 1 players"),
        # without links, delay is empty: (-1,) * n is no second spelling
        ({"delay": (-1, -1)}, "delay holds no link; a game without links has delay ()"),
    ])
    def test_bad_games_rejected(self, chain_game, changes, message):
        # _replace goes through _make, so it checks as construction does
        with pytest.raises(ValueError) as excinfo:
            chain_game._replace(**changes)
        assert str(excinfo.value) == message

    def test_delay_without_a_link_rejected(self):
        fields = dict(
            n_players=1, alphabet=("a",), vertex_names=("A",), out_edges=((("a", 0),),),
            owner=(0,), targets=(frozenset(),), initial=0,
        )
        assert FiniteGame(**fields).delay == ()
        for make in (
            lambda: FiniteGame(**fields, delay=(-1,)),
            lambda: FiniteGame._make((*fields.values(), (-1,))),
        ):
            with pytest.raises(ValueError) as excinfo:
                make()
            assert str(excinfo.value) == "delay holds no link; a game without links has delay ()"

    def test_word_outside_win_lose_any_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            ConstraintProfile.from_words(["won"])
        assert str(excinfo.value) == "player 0: expected win/lose/any, got 'won'"

    def test_delay_links_give_a_vertex_the_moves_along_its_chain(self, chain_game):
        # A's position has no move of its own; its chain runs through the
        # positions 2 and 3, which are no vertex, and 3 repeats B's move
        g = chain_game._replace(
            out_edges=((), (("a", 1),), (("a", 0),), (("a", 1),)),
            owner=(0, 0, 0, 0),
            delay=(2, -1, 3, -1),
        )
        assert g.rows == ((("a", 0), ("a", 1)), (("a", 1),))
        assert g.edges == ((0, "a", 0), (0, "a", 1), (1, "a", 1))
        full = g._replace(out_edges=g.rows, owner=(0, 0), delay=())
        ours, theirs = fixpoint.analyze(g), fixpoint.analyze(full)
        assert tuple(ours.extended_game.successors) == theirs.extended_game.successors
        assert ours[1:] == theirs[1:]

    def test_delay_link_between_two_owners_rejected(self):
        # a delay is no move: were the link allowed, A would take B's
        # moves, and the game would answer NO where its expanded form,
        # with A owning both moves, answers YES
        with pytest.raises(ValueError) as excinfo:
            FiniteGame(
                n_players=2, alphabet=("a",), vertex_names=("A", "B", "C", "E"),
                out_edges=((), (("a", 2), ("a", 3)), (("a", 2),), (("a", 3), ("a", 1))),
                owner=(0, 1, 0, 0), targets=(frozenset(), frozenset({2})), initial=0,
                delay=(1, -1, -1, -1),
            )
        assert str(excinfo.value) == "delay link of position 0 to position 1 joins two owners"

    def test_keyword_construction(self, chain_game):
        assert GainProfile(mask=2, n=2) == GainProfile(2, 2)
        low, high = GainProfile(0, 1), GainProfile(1, 1)
        assert ConstraintProfile(lower=low, upper=high) == ConstraintProfile(low, high)
        assert LassoPlay(prefix=(), cycle=(1,)) == LassoPlay((), (1,))
        g = FiniteGame(
            n_players=1, alphabet=("a",), vertex_names=("A", "B"),
            out_edges=((("a", 1),), (("a", 1),)), owner=(0, 0), targets=(frozenset({1}),), initial=0,
        )
        assert g == chain_game

    def test_fields_cannot_be_assigned(self, fork_game):
        for record, field in _solver_records(fork_game):
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))

    def test_values_compare_and_hash_by_their_fields(self, fork_game):
        twin = load_finite_game(FORK_GAME)
        ours = _solver_records(fork_game)
        fixpoint._analysis.cache_clear()  # else the twin gets the same analysis back
        theirs = _solver_records(twin)
        for (a, _), (b, _) in zip(ours, theirs):
            assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert GainProfile(1, 2) != GainProfile(1, 3) and LassoPlay((), (0,)) != LassoPlay((0,), (0,))

    def test_extended_game_compares_base_and_origin_only(self, fork_game):
        xg = fixpoint.analyze(fork_game).extended_game
        rest = ((),) * (len(ExtendedGame._fields) - 2)
        bare = ExtendedGame(xg.base, xg.origin, *rest)
        assert bare == xg and hash(bare) == hash(xg) and not bare != xg
        assert ExtendedGame(xg.base, xg.origin[:1], *rest) != xg

    def test_records_survive_pickling(self, fork_game):
        for record, _ in _solver_records(fork_game):
            assert pickle.loads(pickle.dumps(record)) == record

    def test_gain_profiles_are_only_partially_ordered(self):
        low, high, other = GainProfile(0b01, 2), GainProfile(0b11, 2), GainProfile(0b10, 2)
        assert high >= low and high >= high and not low >= high
        # a lexicographic order would put 0b10 above 0b01
        assert not other >= low and not low >= other
        for compare in (operator.lt, operator.gt):
            with pytest.raises(TypeError):
                compare(low, high)
        with pytest.raises(TypeError):
            sorted([high, low])


class TestLassoPlay:
    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError):
            LassoPlay((0,), ())
