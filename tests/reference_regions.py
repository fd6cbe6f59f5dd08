"""Region-game builders that store full rows, kept as test references.

``reference_build_region_game`` walks the whole time-successor chain of
every reachable (location, region) pair and tries every transition at every
delay, deduplicating edges in a set. It is slow but direct; the builder in
``spe_reach.timed`` must return a ``RegionGame`` whose game, with its delay
chains expanded by :func:`expanded`, equals it, and whose flat ``edges``
are the triples it emitted, grouped by source because the BFS visits
sources in id order.

``expanded_build_region_game`` is the interned builder that stored each
vertex's full row, the union of the moves along its time-successor chain,
before the solver kept those chains as delay links. Its games are what the
solver read then, so running the CLI on them gives the old outputs.
"""

from __future__ import annotations

from collections import deque

from spe_reach.errors import DeadlockedRegionError, SizeCapError
from spe_reach.game import FiniteGame
from spe_reach.timed import (
    PPTA,
    ClockRegion,
    RegionGame,
    _immediate_time_successor,
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


def expanded(g: FiniteGame) -> FiniteGame:
    """g with every vertex's moves in one row and no delay link."""
    return g._replace(out_edges=g.rows, delay=())


def expanded_build_region_game(a: PPTA, max_vertices: int | None = None) -> RegionGame:
    """The region game of a with full rows, built as the solver once built it.

    Regions are interned; the moves of a pair, as (letter, (target, image
    id)) entries, are memoized per (location, id): the moves enabled at the
    region itself, then those of (location, immediate successor) not already
    listed. ``max_vertices`` caps the clock regions and the vertices.
    """
    regions: list[ClockRegion] = []
    region_id: dict[ClockRegion, int] = {}
    successor: dict[int, int | None] = {}
    images: dict[tuple[int, frozenset[int]], int] = {}
    moves: dict[tuple[int, int], tuple] = {}

    def intern(r: ClockRegion) -> int:
        rid = region_id.get(r)
        if rid is None:
            rid = len(regions)
            if max_vertices is not None and rid >= max_vertices:
                raise SizeCapError(
                    f"region game would exceed the cap of {max_vertices} clock regions"
                )
            region_id[r] = rid
            regions.append(r)
        return rid

    def next_id(rid: int) -> int | None:
        if rid not in successor:
            nxt = _immediate_time_successor(regions[rid])
            successor[rid] = None if nxt is None else intern(nxt)
        return successor[rid]

    def enabled(loc: int, rid: int) -> list:
        r = regions[rid]
        out = []
        for t in a.transitions_from[loc]:
            if not guard_sat_region(t.guard, r):
                continue
            image = rid
            if t.resets:
                key = (rid, t.resets)
                image = images.get(key)
                if image is None:
                    image = images[key] = intern(reset_region(r, t.resets))
            out.append((t.letter, (t.target, image)))
        return out

    def moves_from(loc: int, rid: int) -> tuple:
        walk = []
        tail: tuple = ()
        step: int | None = rid
        while step is not None:
            known = moves.get((loc, step))
            if known is not None:
                tail = known
                break
            walk.append(step)
            step = next_id(step)
        for step in reversed(walk):
            here = enabled(loc, step)
            if here:
                tail = tuple(dict.fromkeys(here + list(tail)))
            moves[(loc, step)] = tail
        return tail

    start = (a.initial, intern(ClockRegion.zero(a.maxima)))
    order: dict[tuple[int, int], int] = {start: 0}
    pairs: list[tuple[int, int]] = [start]
    rows: list[tuple[tuple[str, int], ...]] = []
    for loc, rid in pairs:
        out = moves_from(loc, rid)
        if not out:
            raise DeadlockedRegionError(
                a.location_names[loc], describe_region(regions[rid], a.clock_names)
            )
        row = []
        for letter, succ in out:
            xj = order.get(succ)
            if xj is None:
                xj = len(pairs)
                if max_vertices is not None and xj >= max_vertices:
                    raise SizeCapError(
                        f"region game would exceed the cap of {max_vertices} vertices"
                    )
                order[succ] = xj
                pairs.append(succ)
            row.append((letter, xj))
        rows.append(tuple(row))
    if a.n_clocks:
        names = tuple(
            f"{a.location_names[loc]}|{describe_region(regions[rid], a.clock_names)}"
            for loc, rid in pairs
        )
    else:
        names = tuple(a.location_names[loc] for loc, _ in pairs)
    game = FiniteGame(
        n_players=a.n_players,
        alphabet=a.alphabet,
        vertex_names=names,
        out_edges=tuple(rows),
        owner=tuple(a.owners[loc] for loc, _ in pairs),
        targets=tuple(
            frozenset(x for x, (loc, _) in enumerate(pairs) if loc in a.goals[i])
            for i in range(a.n_players)
        ),
        initial=0,
    )
    return RegionGame(game=game, origin=tuple((loc, regions[rid]) for loc, rid in pairs))
