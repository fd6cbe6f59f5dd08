"""Acceptance suite: one test per criterion, each printing its pass line.

Run ``pytest -s tests/test_acceptance.py`` to see the lines; without ``-s``
the test names still report one pass/fail per criterion.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product
from math import factorial

import pytest

from spe_reach.extended import build_extended_game
from spe_reach.fixpoint import (
    Decision,
    analyze,
    decide_constrained_existence,
    initial_labeling,
)
from spe_reach.game import ConstraintProfile, FiniteGame
from spe_reach.oracle import oracle_outcomes
from spe_reach.timed import PPTA, build_region_game

from clock_samples import (
    all_regions,
    assert_edges_concretely_realizable,
    delay_reaching,
    guard_sat_valuation,
    random_member,
    random_valuation,
    region_of,
    region_representative,
    reset_valuation,
)
from generators import (
    all_constraints,
    clone_game,
    dense_small_games,
    exhaustive_grid,
    random_games,
)
from lassos import gain_of_lasso, is_consistent
from quotient import quotient_game
from reference_extended import adjacency_matches, reference_build_extended_game
from reference_fixpoint import reference_lambda_step
from test_timed import (
    one_clock_choice_ppta,
    two_clock_handover_ppta,
    zero_clock_fork_ppta,
)

RANDOM_SEED = 20240817


def _witness_problems(g: FiniteGame, c: ConstraintProfile, d: Decision) -> list[str]:
    if d.witness is None:
        return ["yes decision without witness"]
    w = d.witness
    problems = []
    if not c.admits(w.gain):
        problems.append(f"witness gain {w.gain} outside [{c.lower}, {c.upper}]")
    if not is_consistent(d.extended_game, d.lambda_star, w.extended):
        problems.append("witness not consistent with the fixpoint labeling")
    if gain_of_lasso(d.extended_game.game, w.extended) != w.gain:
        problems.append("extended witness gain mismatch")
    if gain_of_lasso(g, w.base) != w.gain:
        problems.append("base witness gain mismatch")
    if d.extended_game.project(w.extended) != w.base:
        problems.append("base witness is not the projection of the extended one")
    return problems


@dataclass
class SweepResult:
    games: int = 0
    agreement_checks: int = 0
    mismatches: list = field(default_factory=list)
    bound_failures: list = field(default_factory=list)
    unconstrained_failures: list = field(default_factory=list)
    witness_failures: list = field(default_factory=list)
    builder_failures: list = field(default_factory=list)


@pytest.fixture(scope="module")
def sweep() -> SweepResult:
    """One pass over the whole finite-game corpus; criteria 1, 2, 3, and 7
    and the extended-builder identity read different aspects of it."""
    result = SweepResult()
    corpus = chain(
        exhaustive_grid(),
        random_games(500, seed=RANDOM_SEED),
        dense_small_games(),
    )
    for g in corpus:
        result.games += 1
        label = f"game#{result.games}"
        # every decision below reads this one analysis of g
        a = analyze(g)
        xg = a.extended_game
        ref, origin, triples = reference_build_extended_game(g)
        if xg.origin != origin or not adjacency_matches(xg, triples):
            result.builder_failures.append(f"{label}: adjacency differs from the reference")
        elif xg.game != ref or xg.game.edges != triples:
            result.builder_failures.append(f"{label}: game view differs from the reference")
        n_ext = xg.n_vertices
        lam_star, k_star = a.lambda_star, a.k_star

        # replay the chain with the independent mask-by-mask step
        lam = initial_labeling(xg)
        steps = 0
        while True:
            nxt = reference_lambda_step(xg, lam)
            if any(a > b for a, b in zip(lam, nxt)):
                result.bound_failures.append(f"{label}: labeling step not monotone")
            if nxt == lam:
                break
            lam = nxt
            steps += 1
        if lam != lam_star or steps != k_star:
            result.bound_failures.append(f"{label}: replayed chain disagrees with fixpoint")
        if not k_star <= n_ext <= g.n_vertices * (1 << g.n_players):
            result.bound_failures.append(
                f"{label}: k*={k_star} ext={n_ext} base={g.n_vertices} players={g.n_players}"
            )

        full = (1 << g.n_players) - 1
        outcomes = oracle_outcomes(xg)
        for c in all_constraints(g.n_players):
            d = a.decide(c)
            if d.answer != any(map(c.admits, outcomes)):
                result.mismatches.append(f"{label}: [{c.lower},{c.upper}] solver={d.answer}")
            result.agreement_checks += 1
            if d.answer:
                result.witness_failures.extend(
                    f"{label}: {p}" for p in _witness_problems(g, c, d)
                )
            elif c.lower.mask == 0 and c.upper.mask == full:
                result.unconstrained_failures.append(f"{label}: no equilibrium found")
    return result


@pytest.mark.slow
def test_criterion_1_oracle_equivalence(sweep):
    assert sweep.games >= 5500
    assert not sweep.mismatches, sweep.mismatches[:10]
    print(
        f"\ncriterion 1 (oracle equivalence): PASS - {sweep.agreement_checks} "
        f"constraint decisions over {sweep.games} games all agree with the oracle"
    )


@pytest.mark.slow
def test_criterion_2_fixpoint_bounds(sweep):
    assert not sweep.bound_failures, sweep.bound_failures[:10]
    print(
        f"\ncriterion 2 (fixpoint lemma bounds): PASS - monotone chains, "
        f"k* within the vertex bound on all {sweep.games} games"
    )


@pytest.mark.slow
def test_extended_builder_matches_reference(sweep):
    assert not sweep.builder_failures, sweep.builder_failures[:10]
    print(
        f"\nextended builder: PASS - adjacency and game view equal the reference "
        f"construction on all {sweep.games} games"
    )


@pytest.mark.slow
def test_criterion_3_unconstrained_existence(sweep):
    assert not sweep.unconstrained_failures, sweep.unconstrained_failures[:10]
    print(
        f"\ncriterion 3 (unconstrained existence): PASS - an equilibrium "
        f"exists in every generated game"
    )


def test_criterion_4_quotient_preservation():
    failures = []
    witness_failures = []
    for k, g in enumerate(random_games(200, seed=RANDOM_SEED + 1, max_vertices=6)):
        cloned, eq = clone_game(g)
        quotient, _ = quotient_game(cloned, eq)
        for c in all_constraints(g.n_players):
            expected = decide_constrained_existence(g, c)
            for variant, other in (("clone", cloned), ("quotient", quotient)):
                d = decide_constrained_existence(other, c)
                if d.answer != expected.answer:
                    failures.append(f"game#{k} {variant}: [{c.lower},{c.upper}]")
                if d.answer:
                    witness_failures.extend(_witness_problems(other, c, d))
    assert not failures, failures[:10]
    assert not witness_failures, witness_failures[:10]
    print(
        "\ncriterion 4 (quotient preservation): PASS - decisions survive the "
        "clone/quotient round trip on 200 games for every constraint"
    )


def _sample_pptas() -> list[PPTA]:
    return [one_clock_choice_ppta(), two_clock_handover_ppta()]


def test_criterion_5a_region_enumeration():
    total = 0
    for k in (1, 2, 3):
        for maxima in product(range(3), repeat=k):
            regions = all_regions(maxima)
            bound = factorial(k) * (2 ** k)
            for x in maxima:
                bound *= 2 * x + 2
            assert len(regions) == len(set(regions))
            assert len(regions) <= bound, (maxima, len(regions), bound)
            for r in regions:
                assert region_of(region_representative(r), maxima) == r
            total += len(regions)
    print(
        f"\ncriterion 5a (region enumeration): PASS - {total} canonical regions "
        f"across all maxima <= 2 with k <= 3, all within the classical bound "
        f"and all realizable"
    )


def test_criterion_5b_bisimulation_and_edge_realizability():
    rng = random.Random(RANDOM_SEED + 2)
    pair_checks = 0
    edge_checks = 0
    for a in _sample_pptas():
        maxima = a.maxima
        k = a.n_clocks
        high = max(maxima) + 2
        # every concrete move from a sampled valuation must be matched, with
        # a delay reconstructed from region data alone, by a region mate
        for _ in range(1000):
            loc = rng.randrange(a.n_locations)
            nu = random_valuation(rng, k, high=high)
            mate = random_member(region_of(nu, maxima), rng)
            delay = Fraction(rng.randint(0, high * 12), 12)
            moved = tuple(v + delay for v in nu)
            for t in a.transitions_from[loc]:
                if not guard_sat_valuation(t.guard, moved):
                    continue
                landing = region_of(reset_valuation(moved, t.resets), maxima)
                mate_delay = delay_reaching(mate, region_of(moved, maxima), maxima)
                mate_moved = tuple(v + mate_delay for v in mate)
                assert guard_sat_valuation(t.guard, mate_moved)
                assert region_of(reset_valuation(mate_moved, t.resets), maxima) == landing
                pair_checks += 1
        edge_checks += assert_edges_concretely_realizable(a, rng)
    print(
        f"\ncriterion 5b (region soundness): PASS - {pair_checks} matched "
        f"concrete moves across region mates and {edge_checks} region edges "
        f"realized concretely"
    )


def test_criterion_6_timed_golden_pipelines():
    win = ConstraintProfile.from_words(["win"])
    lose = ConstraintProfile.from_words(["lose"])
    anyc = ConstraintProfile.from_words(["any"])

    one_clock = build_region_game(one_clock_choice_ppta())
    assert one_clock.game.n_vertices == 6
    assert len(one_clock.game.edges) == 15
    assert decide_constrained_existence(one_clock.game, win).answer
    assert not decide_constrained_existence(one_clock.game, lose).answer

    zero_clock = build_region_game(zero_clock_fork_ppta())
    assert zero_clock.game.n_vertices == 3
    assert len(zero_clock.game.edges) == 4
    assert decide_constrained_existence(zero_clock.game, win).answer
    assert not decide_constrained_existence(zero_clock.game, lose).answer

    for rg in (one_clock, zero_clock):
        outcomes = oracle_outcomes(build_extended_game(rg.game))
        for c in (win, lose, anyc):
            assert decide_constrained_existence(rg.game, c).answer == any(map(c.admits, outcomes))
    print(
        "\ncriterion 6 (timed golden pipelines): PASS - region games match the "
        "expected vertex/edge counts and decisions, oracle-confirmed"
    )


@pytest.mark.slow
def test_criterion_7_witness_soundness(sweep):
    assert not sweep.witness_failures, sweep.witness_failures[:10]
    print(
        "\ncriterion 7 (witness soundness): PASS - every yes decision carried "
        "a consistent witness with an admissible gain"
    )
