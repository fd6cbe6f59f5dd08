"""Test-only lasso helpers: a reference enumerator and play checkers.

The solver never checks a lasso: its witnesses are built edge by edge in
the extended game. These helpers check them from the outside: that a lasso
uses only existing edges, what its gain profile is, whether it is
consistent with a labeling, and how a base-game lasso lifts into the
extended game.

``enumerate_lassos`` is the bounded reference enumerator over an extended
game's adjacency, with prefix and cycle bounds and an unrestricted-prefix
mode. Called as ``(xg, v, n, n, simple_prefix=True)`` on an extended game
with n vertices, it yields the lassos the oracle walks from v, in the same
order; larger, unrestricted enumerations check that simple prefixes lose
nothing. The checkers read a lasso's steps and visited vertices straight
from its prefix and cycle, and a game's edges from ``out_edges``.
"""

from __future__ import annotations

from typing import Iterator

from spe_reach.errors import InputError
from spe_reach.extended import ExtendedGame
from spe_reach.fixpoint import Labeling
from spe_reach.game import FiniteGame, GainProfile, LassoPlay


class InvalidLassoError(InputError):
    """A lasso play uses an edge that does not exist in the game."""


def enumerate_lassos(
    g: ExtendedGame,
    start: int,
    max_prefix: int,
    max_cycle: int,
    *,
    simple_prefix: bool = False,
) -> Iterator[LassoPlay]:
    """All lassos from start with prefix length <= max_prefix and simple cycle length <= max_cycle.

    Cycles never repeat a vertex; prefixes may, unless ``simple_prefix`` is
    set. Enumeration order is deterministic: depth-first over prefixes with
    ascending successors, and for each prefix depth-first over cycles.
    """
    if max_cycle < 1:
        raise ValueError("cycle bound must be at least 1")
    if not 0 <= start < g.n_vertices:
        raise ValueError(f"start vertex {start} is not in the game")
    succ, pred = g.successors, g.predecessors
    reaching: dict[int, set[int]] = {}

    def reaches(head: int) -> set[int]:
        """The vertices with a path to head; every vertex of a simple cycle
        through head is one of them, so a cycle search need not leave this set."""
        found = reaching.get(head)
        if found is None:
            found = {head}
            stack = [head]
            while stack:
                for u in pred[stack.pop()]:
                    if u not in found:
                        found.add(u)
                        stack.append(u)
            reaching[head] = found
        return found

    def cycles(head: int) -> Iterator[tuple[int, ...]]:
        path = [head]
        on_path = {head}
        back = reaches(head)

        def extend() -> Iterator[tuple[int, ...]]:
            cur = path[-1]
            if head in succ[cur]:
                yield tuple(path)
            if len(path) < max_cycle:
                for w in succ[cur]:
                    if w in back and w not in on_path:
                        path.append(w)
                        on_path.add(w)
                        yield from extend()
                        path.pop()
                        on_path.remove(w)

        yield from extend()

    for cycle in cycles(start):
        yield LassoPlay((), cycle)
    if max_prefix < 1:
        return
    prefix = [start]
    on_prefix = {start}

    def with_prefix() -> Iterator[LassoPlay]:
        last = prefix[-1]
        for head in succ[last]:
            for cycle in cycles(head):
                yield LassoPlay(tuple(prefix), cycle)
        if len(prefix) < max_prefix:
            for w in succ[last]:
                if simple_prefix and w in on_prefix:
                    continue
                prefix.append(w)
                on_prefix.add(w)
                yield from with_prefix()
                prefix.pop()
                on_prefix.discard(w)

    yield from with_prefix()


def lasso_violations(g: FiniteGame, rho: LassoPlay) -> list[str]:
    """Report the structural defects of rho as a play of g."""
    nv = g.n_vertices
    for v in rho.prefix + rho.cycle:
        if not 0 <= v < nv:
            return [f"lasso references unknown vertex id {v}"]
    seq = rho.prefix + rho.cycle
    return [
        f"no edge from '{g.vertex_names[a]}' to '{g.vertex_names[b]}'"
        for a, b in zip(seq, seq[1:] + rho.cycle[:1])
        if all(dst != b for _, dst in g.out_edges[a])
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
    for v in rho.prefix + rho.cycle:
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
    start = (rho.prefix or rho.cycle)[0]
    if start != g.initial:
        raise InputError(f"lasso starts at '{g.vertex_names[start]}', not the initial vertex")
    tm = g.target_mask
    index = {pair: x for x, pair in enumerate(xg.origin)}
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
