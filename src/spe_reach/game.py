"""Finite turn-based games: arenas, lasso plays, gain profiles.

Vertices and players are dense integer indices; display names live in a side
table on the game. Edge letters are part of the data model (they matter for
synchronous products) but play semantics ignore them: a play is a sequence of
vertices, and gains depend only on the vertices visited. All types are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from typing import Sequence


def _mask(players: Sequence[int]) -> int:
    """The mask with bit i set for each listed player i.

    It is read from binary text, so the time is linear in the mask's width,
    where setting one shifted bit at a time would be quadratic.
    """
    digits = ["0"] * (max(players, default=-1) + 1)
    for i in players:
        digits[-1 - i] = "1"
    return int("0" + "".join(digits), 2)


class GainProfile(namedtuple("GainProfile", "mask n")):
    """One win/lose bit per player, packed into an integer ``mask`` over ``n`` players.

    Bit i is 1 when player i wins. Profiles over the same player count are
    partially ordered pointwise via ``<=`` (and ``>=``, its reflection).
    """

    __slots__ = ()
    # namedtuple's _make (and so _replace) skips __new__; this one checks too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, mask: int, n: int) -> "GainProfile":
        if n < 0:
            raise ValueError("player count must be nonnegative")
        if not 0 <= mask < (1 << n):
            raise ValueError(f"mask {mask} out of range for {n} players")
        return super().__new__(cls, mask, n)

    @property
    def bits(self) -> tuple[int, ...]:
        # the guard bit 1 << n fixes the text at n + 1 digits; it is dropped
        return tuple(map(int, format(self.mask | 1 << self.n, "b")[:0:-1]))

    def __le__(self, other: "GainProfile") -> bool:
        if self.n != other.n:
            raise ValueError("cannot compare profiles over different player counts")
        return self.mask | other.mask == other.mask

    # the tuple base would order lexicographically; these answer NotImplemented
    # instead, so >= falls back to the reflected <= and < or > raise TypeError
    __lt__, __gt__, __ge__ = object.__lt__, object.__gt__, object.__ge__

    def __str__(self) -> str:
        return "(" + ",".join(str(b) for b in self.bits) + ")"


class ConstraintProfile(namedtuple("ConstraintProfile", "lower upper")):
    """Lower and upper gain bounds for the constrained existence problem."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, lower: GainProfile, upper: GainProfile) -> "ConstraintProfile":
        if lower.n != upper.n:
            raise ValueError("constraint bounds must cover the same players")
        if not lower <= upper:
            raise ValueError("constraint lower bound exceeds upper bound")
        return super().__new__(cls, lower, upper)

    @property
    def n(self) -> int:
        return self.lower.n

    @classmethod
    def from_words(cls, words: Sequence[str]) -> "ConstraintProfile":
        """Build bounds from one of ``win``/``lose``/``any`` per player."""
        for i, word in enumerate(words):
            if word not in ("win", "lose", "any"):
                raise ValueError(f"player {i}: expected win/lose/any, got {word!r}")
        lo = _mask([i for i, word in enumerate(words) if word == "win"])
        up = _mask([i for i, word in enumerate(words) if word != "lose"])
        return cls(GainProfile(lo, len(words)), GainProfile(up, len(words)))

    def admits(self, p: GainProfile) -> bool:
        return self.lower <= p and p <= self.upper


def chain_order(delay: Sequence[int]) -> list[int]:
    """The positions with a delay link, each after the position its link leads to.

    ``delay[p]`` is the position p's delay link leads to, or -1. Filling a
    per-position value in this order reads the value at the end of each link
    before the value that depends on it. Raises ``ValueError`` if the links
    form a cycle.
    """
    order: list[int] = []
    state = bytearray(len(delay))  # 0 unseen, 1 on the current walk, 2 listed
    for p in range(len(delay)):
        walk = []
        while p >= 0 and not state[p]:
            state[p] = 1
            walk.append(p)
            p = delay[p]
        if p >= 0 and state[p] == 1:
            raise ValueError(f"the delay links through position {p} form a cycle")
        for q in reversed(walk):
            state[q] = 2
            if delay[q] >= 0:
                order.append(q)
    return order


class FiniteGame(namedtuple(
    "FiniteGame",
    "n_players alphabet vertex_names out_edges owner targets initial delay",
    defaults=((),),
)):
    """Explicit turn-based arena with per-player reachability targets.

    Every vertex is owned by exactly one player, who chooses the outgoing
    edge whenever a play is there. ``targets[i]`` is the vertex set player i
    wants to visit.

    The edges are stored in delay-chain form, over positions. Positions
    ``0 .. n_vertices - 1`` are the vertices; a game may list more positions
    after them. ``out_edges[p]`` holds position p's own (letter, target
    vertex) pairs, in declaration order, each pair once, and ``delay[p]`` is
    the position p's delay link leads to, or -1. The moves of a vertex are its
    own pairs followed by those along its chain of delay links. A region game
    keeps the moves enabled at one clock region on its position and links it
    to the position of the next region. A game without delay links has an
    empty ``delay`` and one position per vertex, so ``out_edges[v]`` are all
    of v's moves. ``rows``, ``edges`` and ``target_mask`` are views derived
    on first access; ``rows`` lists each vertex's moves in full.

    ``owner[p]`` is the owner of position p; a delay is no move, so a link
    joins positions of one owner. ``targets`` holds frozensets of vertex ids.
    The views and the memoized hash keep an instance ``__dict__``, so this
    record has no ``__slots__``. Construction checks that every id is in
    range, every letter is in the alphabet and every link keeps its owner
    and forms no cycle, raising ``ValueError`` on the first fault, then that
    no vertex is blocking (without a move), naming every vertex that is.
    """

    # namedtuple's _make (and so _replace) skips __new__; this one checks too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(
        cls, n_players, alphabet, vertex_names, out_edges, owner, targets, initial, delay=()
    ) -> "FiniteGame":
        nv = len(vertex_names)
        if nv == 0:
            raise ValueError("game has no vertices")
        npos = len(delay) or nv
        if len(owner) != npos:
            unit = "positions" if delay else "vertices"
            raise ValueError(f"owner map covers {len(owner)} of {npos} {unit}")
        for p, player in enumerate(owner):
            if not 0 <= player < n_players:
                where = f"vertex '{vertex_names[p]}'" if p < nv else f"position {p}"
                raise ValueError(f"{where}: owner {player} out of range for {n_players} players")
        if len(targets) != n_players:
            raise ValueError(f"expected {n_players} target sets, got {len(targets)}")
        for i, ts in enumerate(targets):
            unknown = [v for v in ts if not 0 <= v < nv]
            if unknown:
                raise ValueError(f"targets[{i}] contains unknown vertex id {min(unknown)}")
        if not 0 <= initial < nv:
            raise ValueError(f"initial vertex id {initial} out of range")
        if len(out_edges) < nv or len(out_edges) > nv and not delay:
            raise ValueError(f"edge rows cover {len(out_edges)} of {nv} vertices")
        if delay and len(delay) != len(out_edges):
            raise ValueError(f"delay links cover {len(delay)} of {len(out_edges)} positions")
        letters = frozenset(alphabet)
        for src, row in enumerate(out_edges):
            for letter, dst in row:
                if not 0 <= dst < nv:
                    raise ValueError(f"edge row {src} references unknown vertex id {dst}")
                if letter not in letters:
                    raise ValueError(f"edge letter '{letter}' not in the alphabet")
        live = out_edges  # per position: whether it or its chain has a move
        if delay:
            for p, q in enumerate(delay):
                if not -1 <= q < len(delay):
                    raise ValueError(f"delay link of position {p} leads to unknown position {q}")
                if q >= 0 and owner[p] != owner[q]:
                    raise ValueError(f"delay link of position {p} to position {q} joins two owners")
            live = list(map(bool, out_edges))
            for p in chain_order(delay):
                live[p] = live[p] or live[delay[p]]
        if not all(live[:nv]):
            raise ValueError("; ".join(
                f"vertex '{name}' has no outgoing edge (blocking)"
                for name, ok in zip(vertex_names, live) if not ok
            ))
        return super().__new__(
            cls, n_players, alphabet, vertex_names, out_edges, owner, targets, initial, delay
        )

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_names)

    def __hash__(self) -> int:
        # the tuple hash of the fields, computed once per instance
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = tuple.__hash__(self)
        return h

    def __getstate__(self) -> dict:
        # string hashes differ between processes, so a pickle drops the memo
        state = self.__dict__.copy()
        state.pop("_hash", None)
        return state

    @cached_property
    def rows(self) -> tuple[tuple[tuple[str, int], ...], ...]:
        """Per vertex, all its (letter, target) moves: its own pairs, then
        those along its delay chain, each pair once where it first occurs."""
        own, delay = self.out_edges, self.delay
        if not delay:
            return own
        rows = []
        for v in range(self.n_vertices):
            seen: set[tuple[str, int]] = set()
            row = []
            p = v
            while p >= 0:
                for pair in own[p]:
                    if pair not in seen:
                        seen.add(pair)
                        row.append(pair)
                p = delay[p]
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def edges(self) -> tuple[tuple[int, str, int], ...]:
        """All (source, letter, target) triples of ``rows``, grouped by source in vertex order."""
        return tuple(
            (src, letter, dst) for src, row in enumerate(self.rows) for letter, dst in row
        )

    @cached_property
    def target_mask(self) -> tuple[int, ...]:
        """Per vertex, the mask of players whose target set contains it."""
        players: dict[int, list[int]] = {}
        for i, ts in enumerate(self.targets):
            for v in ts:
                players.setdefault(v, []).append(i)
        masks = [0] * self.n_vertices
        for v, listed in players.items():
            masks[v] = _mask(listed)
        return tuple(masks)


class LassoPlay(namedtuple("LassoPlay", "prefix cycle")):
    """Finite presentation of the infinite play prefix . cycle^omega.

    The prefix may be empty; the cycle is repeated forever, so the set of
    vertices the play visits is exactly prefix union cycle. Both are tuples
    of vertex ids.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, prefix: tuple[int, ...], cycle: tuple[int, ...]) -> "LassoPlay":
        if not cycle:
            raise ValueError("lasso cycle must be nonempty")
        return super().__new__(cls, prefix, cycle)
