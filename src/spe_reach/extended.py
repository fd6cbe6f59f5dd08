"""Extended games: vertices remember which players already reached a target.

An extended vertex pairs a base vertex with the set of players whose target
set has been visited on the way there. That set only grows along edges, so
every suffix of an infinite play has the same gain profile as the play
itself; the labeling fixpoint relies on this. Only the fragment reachable
from the initial vertex is materialized, which is usually far smaller than
the full product with all player subsets.

The extended game keeps the base game's delay-chain form. An extended
position pairs a base position with a satisfied set, and its delay link
leads to the pair of the base link's position with the same set, because a
delay visits no new vertex. The successors of a vertex are then its own
successors and those along its chain of links. The builder records owners,
own successors and delay links in the same BFS that discovers the vertices;
that is all the solver reads. The full successor and predecessor rows, the
oracle's input, are views built on first access. Vertex names, lettered
edges and target sets exist only in the lazy ``game`` view, which the
benchmark's tracer and tests build.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .errors import SizeCapError
from .game import FiniteGame, LassoPlay, chain_order


def set_name(mask: int) -> str:
    """The display name ``{i,j}`` of a satisfied-players mask."""
    players = [str(i) for i, b in enumerate(reversed(format(mask, "b"))) if b == "1"]
    return "{" + ",".join(players) + "}"


class ExtendedGame(namedtuple("ExtendedGame", "base origin owner own delay own_pred")):
    """Reachable satisfied-set product of a finite reachability game.

    Positions ``0 .. n_vertices - 1`` are the extended vertices, in BFS
    order, and vertex 0 is the initial one; positions that only a delay link
    reaches come after them. ``origin[p]`` gives the (base position,
    satisfied players mask) pair behind position p. An extended vertex
    belongs to player i's target set exactly when i is in its satisfied
    mask. Per position, ``owner`` is the owner along its chain, ``own`` its
    own successor vertices, ascending, each once, and ``delay`` the position
    its link leads to, or -1; ``own_pred[w]`` lists, ascending, the positions
    whose ``own`` row holds vertex w. All of these are derived from base and
    origin, so equality and hashing look at those two only. The cached views
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
        return len(self.own_pred)

    @property
    def n_players(self) -> int:
        return self.base.n_players

    @property
    def x0(self) -> int:
        return 0

    @cached_property
    def satisfied(self) -> tuple[int, ...]:
        """Per position, its satisfied players mask."""
        return tuple(mask for _, mask in self.origin)

    @cached_property
    def layers(self) -> dict[int, tuple[int, ...]]:
        """Each occurring satisfied set mapped to its vertices, ascending."""
        layers: dict[int, list[int]] = {}
        for v, m in enumerate(self.satisfied[: self.n_vertices]):
            layers.setdefault(m, []).append(v)
        return {m: tuple(vs) for m, vs in layers.items()}

    @cached_property
    def chains(self) -> dict[int, tuple[int, ...]]:
        """Each satisfied set mapped to its positions that a delay link leads
        to, ascending; sets without any are left out."""
        sat = self.satisfied
        chains: dict[int, list[int]] = {}
        for p, linked in enumerate(self.delay_pred):
            if linked:
                chains.setdefault(sat[p], []).append(p)
        return {m: tuple(ps) for m, ps in chains.items()}

    @cached_property
    def delay_pred(self) -> tuple[tuple[int, ...], ...]:
        """Per position, the positions whose delay link leads to it."""
        if not self.base.delay:
            return ((),) * len(self.delay)
        pred: list[list[int]] = [[] for _ in self.delay]
        for p, q in enumerate(self.delay):
            if q >= 0:
                pred[q].append(p)
        return tuple(map(tuple, pred))

    @cached_property
    def chain_order(self) -> tuple[int, ...]:
        """The positions with a delay link, each after its link's position."""
        return tuple(chain_order(self.delay)) if self.base.delay else ()

    @cached_property
    def successor_rows(self) -> tuple[tuple[int, ...], ...] | dict[int, tuple[int, ...]]:
        """Per vertex, its successors, ascending: its own and those along its
        chain. Without delay links this is ``own``; with them, a mapping
        that expands a vertex's chain when it is first looked up."""
        if not self.chain_order:
            return self.own
        return _Rows(self.own, self.delay)

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Every vertex's :attr:`successor_rows` entry."""
        rows = self.successor_rows
        if isinstance(rows, tuple):
            return rows
        return tuple(rows[v] for v in range(self.n_vertices))

    @cached_property
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the vertices that have it among their ``successors``, ascending."""
        if not self.chain_order:
            return self.own_pred
        pred: list[list[int]] = [[] for _ in self.own_pred]
        for v, row in enumerate(self.successors):
            for w in row:
                pred[w].append(v)
        return tuple(map(tuple, pred))

    @cached_property
    def game(self) -> FiniteGame:
        """The extended game as a named, lettered FiniteGame, built on first access.

        Extended vertex (v, sat) is named ``v|{i,j}``. Its ``out_edges`` row
        follows the base ``rows`` entry of v, the order the BFS discovered
        its successors in. The view has no delay links.
        """
        g = self.base
        tm, names = g.target_mask, g.vertex_names
        vertices = self.origin[: self.n_vertices]
        index = {pair: x for x, pair in enumerate(vertices)}
        out_edges = tuple(
            tuple((letter, index[(dst, sat | tm[dst])]) for letter, dst in g.rows[v])
            for v, sat in vertices
        )
        return FiniteGame(
            n_players=g.n_players,
            alphabet=g.alphabet,
            vertex_names=tuple(f"{names[v]}|{set_name(m)}" for v, m in vertices),
            out_edges=out_edges,
            owner=self.owner[: self.n_vertices],
            targets=tuple(
                frozenset(x for x, (_, m) in enumerate(vertices) if (m >> i) & 1)
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


class _Rows(dict):
    """Successor rows of positions in delay-chain form, each expanded on first lookup."""

    def __init__(self, own: tuple[tuple[int, ...], ...], delay: tuple[int, ...]) -> None:
        super().__init__()
        self.own, self.delay = own, delay

    def __missing__(self, v: int) -> tuple[int, ...]:
        own, delay = self.own, self.delay
        found = set(own[v])
        p = delay[v]
        while p >= 0:
            found.update(own[p])
            p = delay[p]
        row = self[v] = tuple(sorted(found))
        return row


def build_extended_game(g: FiniteGame, max_vertices: int | None = None) -> ExtendedGame:
    """Construct the reachable extended game of g.

    Edges mirror the base edges while accumulating, per target vertex hit,
    the players that are now satisfied; the initial satisfied set already
    accounts for the initial vertex. Plays from the base initial vertex and
    plays from the extended initial vertex correspond one to one. Vertices
    are numbered in BFS order over the base ``rows``, in declaration order:
    witnesses and the printed labeling follow this numbering.

    In a game with delay links, processing a vertex also walks its chain,
    to the end or to the first position already walked, and numbers the
    targets of each position's own row on the way: every target of an
    already walked position's chain is numbered, so the numbering is that of
    the full rows. A walked position that is no vertex gets an id after the
    vertices.
    """
    tm, base_owner, base_own, base_delay = g.target_mask, g.owner, g.out_edges, g.delay
    start = (g.initial, tm[g.initial])
    order: dict[tuple[int, int], int] = {start: 0}
    pairs: list[tuple[int, int]] = [start]
    owner: list[int] = []
    own: list[tuple[int, ...]] = []
    pred: list[list[int]] = [[]]
    walked: dict[tuple[int, int], int] = {}  # position -> the owner along its chain
    # pairs grows while it is walked: visiting ids in order is the BFS
    for xi, (v, sat) in enumerate(pairs):
        owner.append(base_owner[v])
        row: list[int] = []
        for _, dst in base_own[v]:
            nxt = (dst, sat | tm[dst])
            xj = order.get(nxt)
            if xj is None:
                xj = order[nxt] = len(pairs)
                pairs.append(nxt)
                pred.append([])
            elif pred[xj] and pred[xj][-1] == xi:
                continue  # another letter to the same vertex
            row.append(xj)
            pred[xj].append(xi)
        row.sort()
        own.append(tuple(row))
        if base_delay:
            walked[pairs[xi]] = base_owner[v]
            p = base_delay[v]
            while p >= 0 and (p, sat) not in walked:
                walked[(p, sat)] = base_owner[v]
                for _, dst in base_own[p]:
                    nxt = (dst, sat | tm[dst])
                    if nxt not in order:
                        order[nxt] = len(pairs)
                        pairs.append(nxt)
                        pred.append([])
                p = base_delay[p]
        if max_vertices is not None and len(pairs) > max_vertices:
            raise SizeCapError(f"extended game would exceed the cap of {max_vertices} vertices")
    for pos, who in walked.items():
        if pos not in order:  # no move reaches it
            x = order[pos] = len(pairs)
            pairs.append(pos)
            owner.append(who)
            p, sat = pos
            row = sorted({order[(dst, sat | tm[dst])] for _, dst in base_own[p]})
            own.append(tuple(row))
            for xj in row:
                pred[xj].append(x)
    delay = (-1,) * len(pairs)
    if base_delay:
        delay = tuple(
            -1 if base_delay[p] < 0 else order[(base_delay[p], sat)] for p, sat in pairs
        )
    return ExtendedGame(
        base=g,
        origin=tuple(pairs),
        owner=tuple(owner),
        own=tuple(own),
        delay=delay,
        own_pred=tuple(map(tuple, pred)),
    )
