import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spe_reach.errors import DeadlockedRegionError, SizeCapError
from spe_reach.extended import build_extended_game
from spe_reach.fixpoint import analyze, decide_constrained_existence
from spe_reach.game import ConstraintProfile
from spe_reach.oracle import oracle_outcomes
from spe_reach.timed import (
    ClockRegion,
    GuardAtom,
    PPTA,
    Transition,
    build_region_game,
    describe_region,
    guard_sat_region,
    reset_region,
)

from clock_samples import (
    all_regions,
    assert_edges_concretely_realizable,
    delay_reaching,
    guard_sat_valuation,
    immediate_delay,
    random_member,
    random_valuation,
    region_equiv,
    region_of,
    region_representative,
    reset_valuation,
    time_successors,
)
from generators import guarded_ppta, random_ppta
from reference_regions import expanded, reference_build_region_game


def _region(maxima, clipped, order=()):
    """A region written per clock as (integer part, fraction is zero), or None past its maximum."""
    intervals = tuple(
        2 * x + 1 if info is None else 2 * info[0] + (not info[1])
        for x, info in zip(maxima, clipped)
    )
    return ClockRegion(tuple(maxima), intervals, tuple(map(frozenset, order)))


class TestRegionOf:
    def test_single_clock_fraction(self):
        r = region_of([Fraction(1, 2)], [1])
        assert r == _region([1], [(0, False)], [{0}])

    def test_single_clock_beyond(self):
        assert region_of([Fraction(23, 10)], [1]) == _region([1], [None])

    def test_two_clocks_ordered_fractions(self):
        r = region_of([Fraction(3, 10), Fraction(7, 10)], [1, 1])
        assert r == _region([1, 1], [(0, False), (0, False)], [{0}, {1}])

    def test_equal_fractions_grouped(self):
        r = region_of([Fraction(1, 3), Fraction(4, 3)], [2, 2])
        assert r == _region([2, 2], [(0, False), (1, False)], [{0, 1}])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            region_of([Fraction(-1, 2)], [1])

    def test_value_at_maximum_not_beyond(self):
        assert region_of([1], [1]) == _region([1], [(1, True)])


class TestRegionEquiv:
    def test_same_cell(self):
        assert region_equiv([Fraction(1, 2)], [Fraction(7, 10)], [1])

    def test_swapped_fraction_order_differs(self):
        assert not region_equiv(
            [Fraction(1, 2), Fraction(7, 10)], [Fraction(7, 10), Fraction(1, 2)], [1, 1]
        )

    def test_both_beyond(self):
        assert region_equiv([Fraction(23, 10)], [Fraction(59, 10)], [1])

    @settings(max_examples=200)
    @given(
        st.lists(st.fractions(min_value=0, max_value=3, max_denominator=8), min_size=1, max_size=3),
        st.data(),
    )
    def test_equivalence_relation(self, values, data):
        k = len(values)
        maxima = data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
        other = data.draw(
            st.lists(st.fractions(min_value=0, max_value=3, max_denominator=8), min_size=k, max_size=k)
        )
        third = data.draw(
            st.lists(st.fractions(min_value=0, max_value=3, max_denominator=8), min_size=k, max_size=k)
        )
        assert region_equiv(values, values, maxima)
        assert region_equiv(values, other, maxima) == region_equiv(other, values, maxima)
        if region_equiv(values, other, maxima) and region_equiv(other, third, maxima):
            assert region_equiv(values, third, maxima)


class TestTimeSuccessors:
    def test_single_clock_chain(self):
        chain = time_successors(ClockRegion.zero([1]))
        assert chain == (
            _region([1], [(0, True)]),
            _region([1], [(0, False)], [{0}]),
            _region([1], [(1, True)]),
            _region([1], [None]),
        )

    def test_all_beyond_absorbing(self):
        beyond = _region([1], [None])
        assert time_successors(beyond) == (beyond,)

    def test_two_zero_clocks_move_together(self):
        chain = time_successors(ClockRegion.zero([1, 1]))
        assert chain[1] == _region([1, 1], [(0, False), (0, False)], [{0, 1}])

    def test_chain_matches_concrete_delays(self):
        rng = random.Random(7)
        maxima = (1, 2)
        for _ in range(50):
            nu = random_valuation(rng, 2, high=3)
            chain = time_successors(region_of(nu, maxima))
            for target in chain:
                d = delay_reaching(nu, target, maxima)
                assert region_of([v + d for v in nu], maxima) == target


    @pytest.mark.parametrize("maxima", [(0,), (2,), (1, 1), (2, 1), (1, 0, 2)])
    def test_successors_and_resets_pass_the_checks(self, maxima):
        # both skip the constructor's checks, because they keep a region canonical
        for r in all_regions(maxima):
            resets = [
                reset_region(r, [c for c in range(len(maxima)) if bits >> c & 1])
                for bits in range(1 << len(maxima))
            ]
            for d in [*time_successors(r), *resets]:
                assert ClockRegion(*d) == d


class TestGuardSatRegion:
    def test_le_at_boundary(self):
        assert guard_sat_region((GuardAtom(0, "le", 1),), _region([1], [(1, True)]))

    def test_lt_at_boundary(self):
        assert not guard_sat_region((GuardAtom(0, "lt", 1),), _region([1], [(1, True)]))

    def test_gt_beyond(self):
        assert guard_sat_region((GuardAtom(0, "gt", 1),), _region([1], [None]))

    def test_empty_guard_true(self):
        assert guard_sat_region((), ClockRegion.zero([1]))

    def test_constant_above_maximum_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            guard_sat_region((GuardAtom(0, "le", 5),), ClockRegion.zero([1]))

    def test_unknown_clock_rejected(self):
        with pytest.raises(ValueError, match="^guard uses unknown clock id 1$"):
            guard_sat_region((GuardAtom(1, "le", 0),), ClockRegion.zero([1]))

    def test_agrees_with_concrete_members(self):
        rng = random.Random(13)
        maxima = (2, 1)
        atoms = [
            GuardAtom(c, op, k)
            for c in (0, 1)
            for op in ("le", "lt", "eq", "gt", "ge")
            for k in range(maxima[c] + 1)
        ]
        for r in all_regions(maxima):
            members = [region_representative(r)] + [random_member(r, rng) for _ in range(2)]
            for atom in atoms:
                expected = guard_sat_region((atom,), r)
                for nu in members:
                    assert guard_sat_valuation((atom,), nu) == expected


class TestResetRegion:
    def test_reset_all_gives_zero(self):
        r = region_of([Fraction(1, 2), Fraction(5, 2)], [1, 1])
        assert reset_region(r, [0, 1]) == ClockRegion.zero([1, 1])

    def test_reset_nothing_identity(self):
        r = region_of([Fraction(1, 2)], [1])
        assert reset_region(r, []) is r

    def test_unknown_clock_rejected(self):
        with pytest.raises(ValueError, match="^reset uses unknown clock id 2$"):
            reset_region(ClockRegion.zero([1, 1]), [0, 2])

    def test_reset_drops_from_order(self):
        r = _region([1, 1], [(0, False), (0, False)], [{0}, {1}])
        assert reset_region(r, [0]) == _region([1, 1], [(0, True), (0, False)], [{1}])

    def test_matches_concrete_reset(self):
        rng = random.Random(17)
        maxima = (1, 2)
        for _ in range(50):
            nu = random_valuation(rng, 2, high=3)
            for resets in ([], [0], [1], [0, 1]):
                symbolic = reset_region(region_of(nu, maxima), resets)
                concrete = region_of(reset_valuation(nu, resets), maxima)
                assert symbolic == concrete


class TestRegionEnumeration:
    @pytest.mark.parametrize("maxima", [(0,), (1,), (2,), (1, 1), (2, 1)])
    def test_count_within_classical_bound(self, maxima):
        regions = all_regions(maxima)
        k = len(maxima)
        bound = 1
        for x in maxima:
            bound *= 2 * x + 2
        factor = 1
        for i in range(1, k + 1):
            factor *= i
        assert len(regions) == len(set(regions))
        assert len(regions) <= factor * (2 ** k) * bound

    def test_every_region_is_realizable(self):
        for r in all_regions((1, 1)):
            assert region_of(region_representative(r), r.maxima) == r


class TestDescribeRegion:
    def test_mixed_parts(self):
        r = _region([1, 1], [(0, True), (0, False)], [{1}])
        assert describe_region(r, ("c1", "c2")) == "c1=0;c2∈(0,1)"

    def test_fraction_order_suffix(self):
        r = _region([1, 1], [(0, False), (0, False)], [{0}, {1}])
        assert describe_region(r, ("c1", "c2")) == "c1∈(0,1);c2∈(0,1);c1<c2"

    def test_beyond(self):
        assert describe_region(_region([1], [None]), ("c",)) == "c>1"

    @pytest.mark.parametrize("maxima", [
        (0,), (3,), (1, 2), (3, 3), (0, 0, 0), (2, 0, 1), (1, 1, 1), (1, 0, 1, 0), (1, 1, 1, 1),
    ])
    def test_names_are_injective(self, maxima):
        # region-game vertex names must stay distinct: `regions` output is
        # loaded again by name
        names = tuple(f"c{c}" for c in range(len(maxima)))
        regions = all_regions(maxima)
        assert len({describe_region(r, names) for r in regions}) == len(regions)


class TestRegionOperationsOnRandomMaxima:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agree_with_exact_valuations(self, data):
        maxima = tuple(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
        # a few shared fractions make equal fractional parts likely, and
        # integer parts up to the maximum plus one reach the top index
        nu = tuple(
            data.draw(st.integers(0, x + 1)) + Fraction(data.draw(st.integers(0, 4)), 5)
            for x in maxima
        )
        r = region_of(nu, maxima)
        chain = time_successors(r)
        if len(chain) == 1:
            assert all(v > x for v, x in zip(nu, maxima))
        else:
            d = immediate_delay(nu, maxima)
            assert region_of([v + d for v in nu], maxima) == chain[1]
            assert region_of([v + d / 2 for v in nu], maxima) in chain[:2]
        for c, x in enumerate(maxima):
            for op in ("le", "lt", "eq", "gt", "ge"):
                for k in range(x + 1):
                    atom = (GuardAtom(c, op, k),)
                    assert guard_sat_region(atom, r) == guard_sat_valuation(atom, nu)
        for resets in range(1 << len(maxima)):
            rs = [c for c in range(len(maxima)) if resets >> c & 1]
            assert reset_region(r, rs) == region_of(reset_valuation(nu, rs), maxima)


def one_clock_choice_ppta() -> PPTA:
    """Reach l1 while the clock is at most 1, or l2 strictly later."""
    return PPTA(
        n_players=1,
        alphabet=("a", "b"),
        clock_names=("c",),
        location_names=("l0", "l1", "l2"),
        owners=(0, 0, 0),
        transitions=(
            Transition(0, "a", (GuardAtom(0, "le", 1),), frozenset(), 1),
            Transition(0, "b", (GuardAtom(0, "gt", 1),), frozenset(), 2),
            Transition(1, "a", (), frozenset(), 1),
            Transition(2, "b", (), frozenset(), 2),
        ),
        goals=(frozenset({1}),),
        initial=0,
    )


def two_clock_handover_ppta() -> PPTA:
    """Two players alternating between l0 and l1 under clock pressure."""
    return PPTA(
        n_players=2,
        alphabet=("a", "b", "c"),
        clock_names=("x", "y"),
        location_names=("l0", "l1", "l2"),
        owners=(0, 1, 0),
        transitions=(
            Transition(0, "a", (GuardAtom(0, "le", 2),), frozenset({1}), 1),
            Transition(0, "b", (GuardAtom(0, "gt", 2),), frozenset(), 2),
            Transition(1, "a", (GuardAtom(1, "lt", 1),), frozenset({0}), 0),
            Transition(1, "b", (GuardAtom(1, "ge", 1),), frozenset(), 2),
            Transition(2, "c", (), frozenset(), 2),
        ),
        goals=(frozenset({2}), frozenset({1})),
        initial=0,
    )


def long_wait_ppta(const: int) -> PPTA:
    """One location whose only move waits until the clock reaches const."""
    return PPTA(
        n_players=1,
        alphabet=("a",),
        clock_names=("x",),
        location_names=("l0",),
        owners=(0,),
        transitions=(Transition(0, "a", (GuardAtom(0, "ge", const),), frozenset(), 0),),
        goals=(frozenset({0}),),
        initial=0,
    )


def zero_clock_fork_ppta() -> PPTA:
    return PPTA(
        n_players=1,
        alphabet=("a",),
        clock_names=(),
        location_names=("A", "B", "C"),
        owners=(0, 0, 0),
        transitions=(
            Transition(0, "a", (), frozenset(), 1),
            Transition(0, "a", (), frozenset(), 2),
            Transition(1, "a", (), frozenset(), 1),
            Transition(2, "a", (), frozenset(), 2),
        ),
        goals=(frozenset({1}),),
        initial=0,
    )


def _with_transition(t: Transition) -> PPTA:
    a = zero_clock_fork_ppta()
    return a._replace(transitions=a.transitions + (t,))


class TestTimedRecords:
    @pytest.mark.parametrize("make, message", [
        (lambda: GuardAtom(0, "ne", 1), "unknown comparator 'ne'"),
        (lambda: GuardAtom(0, "le", -1), "natural number, got -1"),
        (lambda: GuardAtom(0, "le", True), "natural number, got True"),
        (lambda: GuardAtom(0, "le", 1.5), "natural number, got 1.5"),
        (lambda: GuardAtom(clock=-1, op="le", const=1), "clock index must be nonnegative"),
        (lambda: ClockRegion((1,), (), ()), "interval entries must match the clock count"),
        (lambda: ClockRegion((1,), (4,), ()), r"clock 0: interval index 4 outside \[0, 3\]"),
        (lambda: ClockRegion((0,), (-1,), ()), r"clock 0: interval index -1 outside \[0, 1\]"),
        (lambda: ClockRegion((1,), (0,), (frozenset(),)), "must not contain empty groups"),
        # the order lists exactly the clocks with an odd index below the top:
        # here one is missing, one twice, one on an integer, one at the top
        (lambda: ClockRegion((1, 1), (1, 1), (frozenset({0}),)), "each nonzero-fraction clock once"),
        (lambda: ClockRegion((1,), (1,), (frozenset({0}),) * 2), "each nonzero-fraction clock once"),
        (lambda: ClockRegion((1,), (2,), (frozenset({0}),)), "each nonzero-fraction clock once"),
        (lambda: ClockRegion((1,), (3,), (frozenset({0}),)), "each nonzero-fraction clock once"),
        (lambda: GuardAtom(0, "le", 1)._replace(op="ne"), "unknown comparator 'ne'"),
        (lambda: ClockRegion.zero([1])._replace(intervals=()), "interval entries must match"),
        (lambda: ClockRegion.zero([1])._replace(intervals=(5,)), r"interval index 5 outside \[0, 3\]"),
        (lambda: ClockRegion.zero([1])._replace(frac_order=(frozenset(),)), "fractional order must not contain empty"),
        (lambda: ClockRegion.zero([1])._replace(intervals=(1,)), "fractional order must list each"),
        # a PPTA reports its first fault; the fork has locations A, B, C, one
        # player, letter a and no clocks
        (lambda: zero_clock_fork_ppta()._replace(location_names=()), "automaton has no locations"),
        (lambda: zero_clock_fork_ppta()._replace(owners=(0, 0)), "owner map covers 2 of 3 locations"),
        (lambda: zero_clock_fork_ppta()._replace(owners=(0, 1, 0)), "location 'B': owner 1 out of range"),
        (lambda: zero_clock_fork_ppta()._replace(owners=(0, -1, 1), initial=9), "'B': owner -1 out of"),
        (lambda: zero_clock_fork_ppta()._replace(goals=()), "expected 1 goal sets, got 0"),
        (lambda: zero_clock_fork_ppta()._replace(goals=(frozenset({5, 3}),)), r"goals\[0\] contains unknown location id 3"),
        (lambda: zero_clock_fork_ppta()._replace(initial=-1), "initial location id -1 out of range"),
        (lambda: _with_transition(Transition(0, "a", (), frozenset(), 3)), "transition 4 references an unknown location id"),
        (lambda: _with_transition(Transition(0, "b", (), frozenset(), 1)), "transition 4: letter 'b' not in the alphabet"),
        (lambda: _with_transition(Transition(0, "a", (GuardAtom(0, "le", 1),), frozenset(), 1)), "transition 4: guard uses unknown clock id 0"),
        (lambda: _with_transition(Transition(0, "a", (), frozenset({2, 1}), 1)), "transition 4: reset uses unknown clock id 1"),
    ])
    def test_bad_values_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_records_are_values(self):
        # built twice, equal but distinct; keyword and positional forms agree
        def records():
            a = two_clock_handover_ppta()
            rg = build_region_game(a)
            return [
                (a, "transitions"), (a.transitions[0], "guard"), (a.transitions[0].guard[0], "const"),
                (rg, "game"), (rg.origin[-1][1], "frac_order"),
                (ClockRegion(maxima=(2, 1), intervals=(0, 3), frac_order=()), "intervals"),
            ]

        assert GuardAtom(clock=0, op="le", const=2) == GuardAtom(0, "le", 2)
        for (ours, field), (theirs, _) in zip(records(), records()):
            assert ours is not theirs and ours == theirs and hash(ours) == hash(theirs)
            assert pickle.loads(pickle.dumps(ours)) == ours
            with pytest.raises(AttributeError):
                setattr(ours, field, getattr(ours, field))
        assert _region([1], [None]) != _region([2], [None])


def assert_matches_reference(a: PPTA) -> None:
    rg = build_region_game(a)
    ref, triples = reference_build_region_game(a)
    assert rg._replace(game=expanded(rg.game)) == ref
    assert rg.game.edges == triples


class TestBuildRegionGame:
    def test_zero_clock_isomorphic_to_location_graph(self):
        rg = build_region_game(zero_clock_fork_ppta())
        assert rg.game.n_vertices == 3
        assert rg.game.vertex_names == ("A", "B", "C")
        assert set(rg.game.edges) == {(0, "a", 1), (0, "a", 2), (1, "a", 1), (2, "a", 2)}

    def test_resetting_self_loop_single_vertex(self):
        a = PPTA(
            n_players=1,
            alphabet=("a",),
            clock_names=("c",),
            location_names=("l",),
            owners=(0,),
            transitions=(Transition(0, "a", (), frozenset({0}), 0),),
            goals=(frozenset(),),
            initial=0,
        )
        rg = build_region_game(a)
        assert rg.game.n_vertices == 1
        assert rg.game.edges == ((0, "a", 0),)

    def test_one_clock_choice_structure(self):
        rg = build_region_game(one_clock_choice_ppta())
        by_location = {}
        for loc, reg in rg.origin:
            by_location.setdefault(loc, []).append(reg)
        assert rg.game.n_vertices == 6
        assert len(rg.game.edges) == 15
        assert len(by_location[0]) == 1  # only the initial zero region
        assert len(by_location[1]) == 4  # all four 1-clock regions
        assert len(by_location[2]) == 1  # only beyond

    def test_one_clock_choice_decisions(self):
        rg = build_region_game(one_clock_choice_ppta())
        win = ConstraintProfile.from_words(["win"])
        lose = ConstraintProfile.from_words(["lose"])
        assert decide_constrained_existence(rg.game, win).answer
        assert not decide_constrained_existence(rg.game, lose).answer
        # the solver reads the delay-chain form alone: no full row is built
        assert not {"rows", "edges"} & rg.game.__dict__.keys()
        xg = analyze(rg.game).extended_game
        assert not {"predecessors", "game"} & xg.__dict__.keys()
        # the witness search reads successor rows expanded one vertex at a time
        assert not isinstance(xg.successors, tuple)
        outcomes = oracle_outcomes(build_extended_game(rg.game))
        assert any(map(win.admits, outcomes))
        assert not any(map(lose.admits, outcomes))

    def test_deadlocked_region_reported(self):
        a = PPTA(
            n_players=1,
            alphabet=("a", "b"),
            clock_names=("c",),
            location_names=("l0", "l1"),
            owners=(0, 0),
            transitions=(
                Transition(0, "a", (GuardAtom(0, "eq", 1),), frozenset(), 1),
                Transition(1, "b", (GuardAtom(0, "eq", 0),), frozenset(), 1),
            ),
            goals=(frozenset(),),
            initial=0,
        )
        with pytest.raises(DeadlockedRegionError) as info:
            build_region_game(a)
        assert info.value.location == "l1"
        assert info.value.region == "c=1"

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            build_region_game(one_clock_choice_ppta(), max_vertices=3)

    @pytest.mark.parametrize("make, max_vertices, max_regions", [
        (one_clock_choice_ppta, 1, 3),
        (two_clock_handover_ppta, 2, 4),
        (two_clock_handover_ppta, 3, 6),
    ])
    def test_region_limit_reached_in_a_walk_is_named_first(self, make, max_vertices, max_regions):
        # both limits are passed in the same chain walk; the vertex limit is
        # checked once the walk is done, as the extended game's builder does
        with pytest.raises(SizeCapError) as excinfo:
            build_region_game(make(), max_vertices=max_vertices, max_regions=max_regions)
        assert str(excinfo.value) == f"region game would exceed the cap of {max_regions} clock regions"

    def test_cap_bounds_clock_regions(self):
        # the guard's time-successor chain has about 6M regions; the cap must
        # stop the construction long before that chain is built
        with pytest.raises(SizeCapError, match="cap of 1000 clock regions"):
            build_region_game(long_wait_ppta(3_000_000), max_regions=1000)

    def test_matches_reference_on_random_automata(self):
        rng = random.Random(41)
        for _ in range(150):
            assert_matches_reference(random_ppta(rng))

    def test_matches_reference_on_fixed_automata(self):
        for a in (one_clock_choice_ppta(), two_clock_handover_ppta(), zero_clock_fork_ppta()):
            assert_matches_reference(a)

    def test_deadlock_matches_reference(self):
        a = two_clock_handover_ppta()
        # the only move out of l2 needs y = 0, which no delay brings back once
        # y has left 0
        a = a._replace(
            transitions=a.transitions[:-1]
            + (Transition(2, "c", (GuardAtom(1, "eq", 0),), frozenset(), 2),),
        )
        with pytest.raises(DeadlockedRegionError) as ours:
            build_region_game(a)
        with pytest.raises(DeadlockedRegionError) as reference:
            reference_build_region_game(a)
        assert (ours.value.location, ours.value.region) == (
            reference.value.location,
            reference.value.region,
        )

    def test_invalid_ppta_rejected(self):
        with pytest.raises(ValueError, match="location 'l': owner 4 out of range"):
            PPTA(
                n_players=1,
                alphabet=("a",),
                clock_names=(),
                location_names=("l",),
                owners=(4,),
                transitions=(Transition(0, "a", (), frozenset(), 0),),
                goals=(frozenset(),),
                initial=0,
            )

    def test_region_classes_respect_owners_and_goals(self):
        # pair sampled concrete states with their regions and run the
        # quotient-side checkers on the induced finite snapshot
        from spe_reach.game import FiniteGame
        from quotient import (
            EquivalenceMap,
            check_respects_partition,
            check_respects_targets,
        )

        a = two_clock_handover_ppta()
        rng = random.Random(31)
        samples = [
            (rng.randrange(a.n_locations), random_valuation(rng, a.n_clocks, high=4))
            for _ in range(120)
        ]
        class_ids: dict[tuple[int, ClockRegion], int] = {}
        class_of = []
        for loc, nu in samples:
            key = (loc, region_of(nu, a.maxima))
            class_of.append(class_ids.setdefault(key, len(class_ids)))
        snapshot = FiniteGame(
            n_players=a.n_players,
            alphabet=("a",),
            vertex_names=tuple(f"s{k}" for k in range(len(samples))),
            out_edges=tuple((("a", k),) for k in range(len(samples))),
            owner=tuple(a.owners[loc] for loc, _ in samples),
            targets=tuple(
                frozenset(k for k, (loc, _) in enumerate(samples) if loc in goal)
                for goal in a.goals
            ),
            initial=0,
        )
        eq = EquivalenceMap(tuple(class_of))
        assert check_respects_partition(snapshot, eq)
        assert check_respects_targets(snapshot, eq)

    def test_region_edges_concretely_realizable(self):
        assert_edges_concretely_realizable(one_clock_choice_ppta(), random.Random(23))

    def test_guarded_region_edges_concretely_realizable(self):
        # every transition is guarded, with constants up to 6, so a guard
        # misread at some constant shows as an edge no valuation takes; a
        # sample of each game's edges keeps the exact arithmetic quick
        rng = random.Random(37)
        for _ in range(30):
            assert_edges_concretely_realizable(guarded_ppta(rng), rng, sample=20)

