"""Test-only checkers for lasso plays.

The solver never checks a lasso: its witnesses are built edge by edge in
the extended game. These helpers check them from the outside: that a lasso
uses only existing edges, what its gain profile is, whether it is
consistent with a labeling, and how a base-game lasso lifts into the
extended game.
"""

from __future__ import annotations

from spe_reach.errors import InputError
from spe_reach.extended import ExtendedGame
from spe_reach.fixpoint import Labeling
from spe_reach.game import FiniteGame, GainProfile, LassoPlay


class InvalidLassoError(InputError):
    """A lasso play uses an edge that does not exist in the game."""


def lasso_violations(g: FiniteGame, rho: LassoPlay) -> list[str]:
    """Report the structural defects of rho as a play of g."""
    nv = g.n_vertices
    for v in rho.prefix + rho.cycle:
        if not 0 <= v < nv:
            return [f"lasso references unknown vertex id {v}"]
    succ = g.successors
    return [
        f"no edge from '{g.vertex_names[a]}' to '{g.vertex_names[b]}'"
        for a, b in rho.steps()
        if b not in succ[a]
    ]


def require_valid_lasso(g: FiniteGame, rho: LassoPlay) -> None:
    problems = lasso_violations(g, rho)
    if problems:
        raise InvalidLassoError(problems[0])


def gain_of_lasso(g: FiniteGame, rho: LassoPlay) -> GainProfile:
    """Gain profile of the infinite play denoted by rho.

    Player i wins iff some vertex of the prefix or the cycle lies in
    ``targets[i]``.
    """
    require_valid_lasso(g, rho)
    tm = g.target_mask
    mask = 0
    for v in rho.visited:
        mask |= tm[v]
    return GainProfile(mask, g.n_players)


def is_consistent(xg: ExtendedGame, lam: Labeling, rho: LassoPlay) -> bool:
    """Check the per-position label constraints along a lasso.

    At every position owned by player i, the gain of i on the remaining
    suffix must be at least the label of that vertex. Cycle positions all
    see the same suffix gains (every cycle suffix visits the whole cycle),
    so they are checked once.
    """
    g = xg.game
    if len(lam) != g.n_vertices:
        raise ValueError("labeling must be total over the extended vertices")
    require_valid_lasso(g, rho)
    tm = g.target_mask
    owner = g.owner
    cycle_mask = 0
    for v in rho.cycle:
        cycle_mask |= tm[v]
    for v in rho.cycle:
        if lam[v] and not (cycle_mask >> owner[v]) & 1:
            return False
    seen = cycle_mask
    for v in reversed(rho.prefix):
        seen |= tm[v]
        if lam[v] and not (seen >> owner[v]) & 1:
            return False
    return True


def lift_lasso(xg: ExtendedGame, rho: LassoPlay) -> LassoPlay:
    """Lift a base-game lasso starting at the initial vertex into xg.

    The satisfied sets grow monotonically, so the extended trace of the
    infinite play becomes periodic once they stabilize; the result may
    unroll the base cycle into the prefix up to (player count + 1) times
    before the extended cycle closes. The gain profile is preserved.
    """
    g = xg.base
    require_valid_lasso(g, rho)
    if rho.start != g.initial:
        raise InputError(
            f"lasso starts at '{g.vertex_names[rho.start]}', not the initial vertex"
        )
    tm = g.target_mask
    index = xg.index
    sat = xg.satisfied

    def step(x: int, dst: int) -> int:
        return index[(dst, sat[x] | tm[dst])]

    trace = [xg.x0]
    for v in rho.prefix[1:]:
        trace.append(step(trace[-1], v))
    if rho.prefix:
        trace.append(step(trace[-1], rho.cycle[0]))
    # walk the repeated cycle until an (extended vertex, cycle offset) pair
    # recurs; from there the extended trace repeats with the same period
    length = len(rho.cycle)
    seen: dict[tuple[int, int], int] = {}
    pos = len(trace) - 1
    offset = 0
    while True:
        key = (trace[pos], offset)
        j = seen.get(key)
        if j is not None:
            return LassoPlay(tuple(trace[:j]), tuple(trace[j:pos]))
        seen[key] = pos
        offset = (offset + 1) % length
        trace.append(step(trace[pos], rho.cycle[offset]))
        pos += 1
