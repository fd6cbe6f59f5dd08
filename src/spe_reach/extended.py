"""Extended games: vertices remember which players already reached a target.

An extended vertex pairs a base vertex with the set of players whose target
set has been visited on the way there. That set only grows along edges, so
every suffix of an infinite play has the same gain profile as the play
itself; the labeling fixpoint relies on this. Only the fragment reachable
from the initial vertex is materialized, which is usually far smaller than
the full product with all player subsets.

The builder records owners, successors and predecessors in the same BFS
that discovers the vertices; that adjacency is all the solver and the oracle
read. Vertex names, lettered edges and target sets exist only in the lazy
``game`` view, which the benchmark's tracer and tests build.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .errors import InputError, SizeCapError
from .game import FiniteGame, LassoPlay, validate_game


def set_name(mask: int) -> str:
    """The display name ``{i,j}`` of a satisfied-players mask."""
    players = [str(i) for i, b in enumerate(reversed(format(mask, "b"))) if b == "1"]
    return "{" + ",".join(players) + "}"


class ExtendedGame(namedtuple("ExtendedGame", "base origin owner successors predecessors")):
    """Reachable satisfied-set product of a finite reachability game.

    ``origin[x]`` gives the (base vertex, satisfied players mask) pair behind
    extended vertex x; vertex 0 is the initial one. An extended vertex
    belongs to player i's target set exactly when i is in its satisfied
    mask. ``owner``, ``successors`` and ``predecessors`` are derived from
    base and origin, so equality and hashing look at those two only; both
    adjacency tuples list each neighbour once, ascending. The cached views
    keep an instance ``__dict__``, so this record has no ``__slots__``.
    """

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self[:2] == other[:2]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:2])

    @property
    def n_vertices(self) -> int:
        return len(self.origin)

    @property
    def n_players(self) -> int:
        return self.base.n_players

    @property
    def x0(self) -> int:
        return 0

    @cached_property
    def satisfied(self) -> tuple[int, ...]:
        return tuple(mask for _, mask in self.origin)

    @cached_property
    def layers(self) -> dict[int, tuple[int, ...]]:
        """Each occurring satisfied set mapped to its vertices, ascending."""
        layers: dict[int, list[int]] = {}
        for v, m in enumerate(self.satisfied):
            layers.setdefault(m, []).append(v)
        return {m: tuple(vs) for m, vs in layers.items()}

    @cached_property
    def game(self) -> FiniteGame:
        """The extended game as a named, lettered FiniteGame, built on first access.

        Extended vertex (v, sat) is named ``v|{i,j}``. Its ``out_edges`` row
        follows the base row of v, which is the order the BFS discovered its
        successors in.
        """
        g = self.base
        tm, names = g.target_mask, g.vertex_names
        index = {pair: x for x, pair in enumerate(self.origin)}
        out_edges = tuple(
            tuple((letter, index[(dst, sat | tm[dst])]) for letter, dst in g.out_edges[v])
            for v, sat in self.origin
        )
        sat = self.satisfied
        return FiniteGame(
            n_players=g.n_players,
            alphabet=g.alphabet,
            vertex_names=tuple(f"{names[v]}|{set_name(m)}" for v, m in self.origin),
            out_edges=out_edges,
            owner=self.owner,
            targets=tuple(
                frozenset(x for x, m in enumerate(sat) if (m >> i) & 1)
                for i in range(g.n_players)
            ),
            initial=0,
        )

    def project(self, rho: LassoPlay) -> LassoPlay:
        """Map a lasso over extended vertices back onto base vertices."""
        origin = self.origin
        return LassoPlay(
            tuple(origin[x][0] for x in rho.prefix), tuple(origin[x][0] for x in rho.cycle)
        )


def build_extended_game(
    g: FiniteGame, max_vertices: int | None = None, *, validate: bool = True
) -> ExtendedGame:
    """Construct the reachable extended game of g.

    Edges mirror the base edges while accumulating, per target vertex hit,
    the players that are now satisfied; the initial satisfied set already
    accounts for the initial vertex. Plays from the base initial vertex and
    plays from the extended initial vertex correspond one to one. Vertices
    are numbered in BFS order over the base ``out_edges``, in declaration
    order: witnesses and the printed labeling follow this numbering. A
    caller that has already validated g may pass ``validate=False``.
    """
    if validate:
        problems = validate_game(g)
        if problems:
            raise InputError("cannot extend ill-formed game: " + problems[0])
    tm, base_owner, out_edges = g.target_mask, g.owner, g.out_edges
    start = (g.initial, tm[g.initial])
    order: dict[tuple[int, int], int] = {start: 0}
    pairs: list[tuple[int, int]] = [start]
    owner: list[int] = []
    succ: list[tuple[int, ...]] = []
    pred: list[list[int]] = [[]]
    # pairs grows while it is walked: visiting ids in order is the BFS
    for xi, (v, sat) in enumerate(pairs):
        owner.append(base_owner[v])
        row: list[int] = []
        for _, dst in out_edges[v]:
            nxt = (dst, sat | tm[dst])
            xj = order.get(nxt)
            if xj is None:
                xj = len(pairs)
                if max_vertices is not None and xj >= max_vertices:
                    raise SizeCapError(
                        f"extended game would exceed the cap of {max_vertices} vertices"
                    )
                order[nxt] = xj
                pairs.append(nxt)
                pred.append([])
            elif pred[xj] and pred[xj][-1] == xi:
                continue  # another letter to the same vertex
            row.append(xj)
            pred[xj].append(xi)
        row.sort()
        succ.append(tuple(row))
    return ExtendedGame(
        base=g,
        origin=tuple(pairs),
        owner=tuple(owner),
        successors=tuple(succ),
        predecessors=tuple(map(tuple, pred)),
    )

