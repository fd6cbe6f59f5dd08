"""Test-only reference for the extended-game construction.

This is the direct construction that ``spe_reach.extended`` replaced: a
BFS over the lettered base edges that materializes the whole extended
``FiniteGame`` (names, edges, owners, target sets). It shares no code with
the solver's builder, so tests can compare the two. It also returns its edge
triples in the order it emitted them, which is grouped by source because
the BFS visits sources in id order; ``adjacency_matches`` checks the
builder's successor and predecessor rows against those triples.
"""

from __future__ import annotations

from collections import deque

from spe_reach.errors import SizeCapError
from spe_reach.extended import ExtendedGame
from spe_reach.game import FiniteGame


def _set_name(mask: int) -> str:
    players = [str(i) for i in range(mask.bit_length()) if (mask >> i) & 1]
    return "{" + ",".join(players) + "}"


def reference_build_extended_game(
    g: FiniteGame, max_vertices: int | None = None
) -> tuple[FiniteGame, tuple[tuple[int, int], ...], tuple[tuple[int, str, int], ...]]:
    """The reachable extended game of g, per vertex its (base vertex, satisfied
    mask), and its edge triples in emission order."""
    tm = g.target_mask
    start = (g.initial, tm[g.initial])
    order: dict[tuple[int, int], int] = {start: 0}
    pairs: list[tuple[int, int]] = [start]
    queue: deque[tuple[int, int]] = deque([start])
    edges: list[tuple[int, str, int]] = []
    while queue:
        v, sat = pair = queue.popleft()
        xi = order[pair]
        for letter, dst in g.out_edges[v]:
            succ = (dst, sat | tm[dst])
            xj = order.get(succ)
            if xj is None:
                xj = len(order)
                if max_vertices is not None and xj >= max_vertices:
                    raise SizeCapError(
                        f"extended game would exceed the cap of {max_vertices} vertices"
                    )
                order[succ] = xj
                pairs.append(succ)
                queue.append(succ)
            edges.append((xi, letter, xj))
    rows: list[list[tuple[str, int]]] = [[] for _ in pairs]
    for src, letter, dst in edges:
        rows[src].append((letter, dst))
    names = tuple(f"{g.vertex_names[v]}|{_set_name(sat)}" for v, sat in pairs)
    owners = tuple(g.owner[v] for v, _ in pairs)
    target_sets = tuple(
        frozenset(x for x, (_, sat) in enumerate(pairs) if (sat >> i) & 1)
        for i in range(g.n_players)
    )
    ext = FiniteGame(
        n_players=g.n_players,
        alphabet=g.alphabet,
        vertex_names=names,
        out_edges=tuple(map(tuple, rows)),
        owner=owners,
        targets=target_sets,
        initial=0,
    )
    return ext, tuple(pairs), tuple(edges)


def adjacency_matches(xg: ExtendedGame, edges: tuple[tuple[int, str, int], ...]) -> bool:
    """Whether xg's successor and predecessor rows hold exactly the arcs of
    the edge triples, each neighbour once and in ascending order."""
    arcs = sorted({(src, dst) for src, _, dst in edges})
    return (
        len(xg.successors) == len(xg.predecessors) == xg.n_vertices
        and [(x, y) for x, row in enumerate(xg.successors) for y in row] == arcs
        and [(y, x) for y, row in enumerate(xg.predecessors) for x in row] == sorted(
            (y, x) for x, y in arcs
        )
    )
