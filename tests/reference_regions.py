"""The region-game builder as a plain nested loop, kept as a test reference.

``reference_build_region_game`` walks the whole time-successor chain of
every reachable (location, region) pair and tries every transition at every
delay, deduplicating edges in a set. It is slow but direct; the interned
builder in ``spe_reach.timed`` must return a ``RegionGame`` equal to it,
and a game whose flat ``edges`` are the triples it emitted, grouped by
source because the BFS visits sources in id order.
"""

from __future__ import annotations

from collections import deque

from spe_reach.errors import DeadlockedRegionError, SizeCapError
from spe_reach.game import FiniteGame
from spe_reach.timed import (
    PPTA,
    ClockRegion,
    RegionGame,
    describe_region,
    guard_sat_region,
    reset_region,
)

from clock_samples import time_successors


def reference_build_region_game(
    a: PPTA, max_vertices: int | None = None
) -> tuple[RegionGame, tuple[tuple[int, str, int], ...]]:
    """Construct the reachable region game of a; returns it and its edge triples.

    From a pair (location, region), one edge exists per transition of the
    location and per time successor of the region satisfying the guard; the
    edge leads to the transition's target paired with the time successor
    after resets. A reachable pair with no edge at all blocks the arena and
    is reported as an error.
    """
    start = (a.initial, ClockRegion.zero(a.maxima))
    order: dict[tuple[int, ClockRegion], int] = {start: 0}
    pairs: list[tuple[int, ClockRegion]] = [start]
    queue: deque[tuple[int, ClockRegion]] = deque([start])
    chains: dict[ClockRegion, tuple[ClockRegion, ...]] = {}
    edges: list[tuple[int, str, int]] = []
    seen_edges: set[tuple[int, str, int]] = set()
    while queue:
        loc, reg = pair = queue.popleft()
        xi = order[pair]
        chain = chains.get(reg)
        if chain is None:
            chain = chains[reg] = time_successors(reg)
        blocked = True
        for elapsed in chain:
            for t in a.transitions_from[loc]:
                if not guard_sat_region(t.guard, elapsed):
                    continue
                succ = (t.target, reset_region(elapsed, t.resets))
                xj = order.get(succ)
                if xj is None:
                    xj = len(order)
                    if max_vertices is not None and xj >= max_vertices:
                        raise SizeCapError(
                            f"region game would exceed the cap of {max_vertices} vertices"
                        )
                    order[succ] = xj
                    pairs.append(succ)
                    queue.append(succ)
                triple = (xi, t.letter, xj)
                if triple not in seen_edges:
                    seen_edges.add(triple)
                    edges.append(triple)
                blocked = False
        if blocked:
            raise DeadlockedRegionError(
                a.location_names[loc], describe_region(reg, a.clock_names)
            )
    rows: list[list[tuple[str, int]]] = [[] for _ in pairs]
    for src, letter, dst in edges:
        rows[src].append((letter, dst))
    names = tuple(
        f"{a.location_names[loc]}|{describe_region(reg, a.clock_names)}"
        if a.n_clocks
        else a.location_names[loc]
        for loc, reg in pairs
    )
    owners = tuple(a.owners[loc] for loc, _ in pairs)
    targets = tuple(
        frozenset(x for x, (loc, _) in enumerate(pairs) if loc in a.goals[i])
        for i in range(a.n_players)
    )
    game = FiniteGame(
        n_players=a.n_players,
        alphabet=a.alphabet,
        vertex_names=names,
        out_edges=tuple(map(tuple, rows)),
        owner=owners,
        targets=targets,
        initial=0,
    )
    return RegionGame(game=game, origin=tuple(pairs)), tuple(edges)
