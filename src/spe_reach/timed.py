"""Timed-automaton front end: guards, clock regions, and the region game.

A clock valuation is abstracted by the index of the elementary interval that
holds each clock (``2k`` for exactly k, ``2k+1`` for (k, k+1), ``2m+1`` past
the largest constant m the clock is compared against, so ``clock op k`` holds
iff ``index op 2k``) and the ordering of the nonzero fractional parts. Two
valuations with the same abstraction satisfy the same guards and stay
equivalent under time elapse and resets, so the abstraction is a time-abstract
bisimulation that respects owners and goals. The region game is the finite
quotient of the (uncountable) timed game it induces; solving on it is
equivalent to solving on the timed game itself.

The builder interns regions: each reachable region is constructed once and
then named by an int id, so time-successor chains share their tails through
a memoized next-id map. It keeps delay and discrete moves apart, as
on-the-fly timed-game solvers do (Cassez, David, Fleury, Larsen & Lime 2005):
the position of a (location, region id) pair holds the moves enabled at that
region alone and a delay link to the pair of the next region. Reset images
are memoized per (region id, reset set), so a guard is evaluated once per
location and region, and a region's moves are stored once, not once per
pair whose time successors reach it.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import DeadlockedRegionError, SizeCapError
from .game import FiniteGame

COMPARATORS = ("le", "lt", "eq", "gt", "ge")
# the comparator names are those of the operator module's functions
_HOLDS = {op: getattr(operator, op) for op in COMPARATORS}


class GuardAtom(namedtuple("GuardAtom", "clock op const")):
    """A single comparison ``clock <op> const`` with a natural constant."""

    __slots__ = ()
    # namedtuple's _make (and so _replace) skips __new__; this one checks too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, clock: int, op: str, const: int) -> "GuardAtom":
        if op not in COMPARATORS:
            raise ValueError(f"unknown comparator '{op}'")
        if not isinstance(const, int) or isinstance(const, bool) or const < 0:
            raise ValueError(f"guard constant must be a natural number, got {const!r}")
        if clock < 0:
            raise ValueError("clock index must be nonnegative")
        return super().__new__(cls, clock, op, const)


Guard = tuple[GuardAtom, ...]


class Transition(NamedTuple):
    source: int
    letter: str
    guard: Guard
    resets: frozenset[int]
    target: int


class PPTA(namedtuple(
    "PPTA",
    "n_players alphabet clock_names location_names owners transitions goals initial",
)):
    """Timed automaton whose locations are partitioned among players.

    Each player optionally carries a set of goal locations; the induced
    timed game is then a reachability game. The alphabet and the names are
    tuples of strings, ``owners[l]`` is a player index, ``goals`` holds one
    frozenset of location ids per player and ``initial`` is a location id.
    The cached views keep an instance ``__dict__``, so this record has no
    ``__slots__``. Construction checks that every id is in range and every
    letter is in the alphabet, and raises ``ValueError`` on the first fault.
    """

    # namedtuple's _make (and so _replace) skips __new__; this one checks too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(
        cls, n_players, alphabet, clock_names, location_names, owners, transitions, goals, initial
    ) -> "PPTA":
        nl, nc = len(location_names), len(clock_names)
        if nl == 0:
            raise ValueError("automaton has no locations")
        if len(owners) != nl:
            raise ValueError(f"owner map covers {len(owners)} of {nl} locations")
        for name, player in zip(location_names, owners):
            if not 0 <= player < n_players:
                raise ValueError(f"location '{name}': owner {player} out of range")
        if len(goals) != n_players:
            raise ValueError(f"expected {n_players} goal sets, got {len(goals)}")
        for i, gs in enumerate(goals):
            for loc in sorted(gs):
                if not 0 <= loc < nl:
                    raise ValueError(f"goals[{i}] contains unknown location id {loc}")
        if not 0 <= initial < nl:
            raise ValueError(f"initial location id {initial} out of range")
        for k, t in enumerate(transitions):
            if not 0 <= t.source < nl or not 0 <= t.target < nl:
                raise ValueError(f"transition {k} references an unknown location id")
            if t.letter not in alphabet:
                raise ValueError(f"transition {k}: letter '{t.letter}' not in the alphabet")
            for atom in t.guard:
                if not 0 <= atom.clock < nc:
                    raise ValueError(f"transition {k}: guard uses unknown clock id {atom.clock}")
            for c in sorted(t.resets):
                if not 0 <= c < nc:
                    raise ValueError(f"transition {k}: reset uses unknown clock id {c}")
        return super().__new__(
            cls, n_players, alphabet, clock_names, location_names, owners, transitions, goals, initial
        )

    @property
    def n_clocks(self) -> int:
        return len(self.clock_names)

    @property
    def n_locations(self) -> int:
        return len(self.location_names)

    @cached_property
    def maxima(self) -> tuple[int, ...]:
        """Per clock, the largest guard constant it is compared against (0 if none)."""
        out = [0] * self.n_clocks
        for t in self.transitions:
            for atom in t.guard:
                out[atom.clock] = max(out[atom.clock], atom.const)
        return tuple(out)

    @cached_property
    def transitions_from(self) -> tuple[tuple[Transition, ...], ...]:
        buckets: list[list[Transition]] = [[] for _ in range(self.n_locations)]
        for t in self.transitions:
            buckets[t.source].append(t)
        return tuple(tuple(b) for b in buckets)


class ClockRegion(namedtuple("ClockRegion", "maxima intervals frac_order")):
    """Canonical cell of the clock abstraction.

    ``maxima[c]`` is the largest constant clock c is compared against.
    ``intervals[c]`` is the index of the elementary interval that holds
    clock c: ``2k`` for exactly k, ``2k+1`` for (k, k+1), and the top index
    ``2*maxima[c]+1`` for (maxima[c], ∞). ``frac_order`` groups the clocks
    with an odd index below the top (a nonzero fractional part) by equal
    fractions, smallest first, as a tuple of frozensets. Regions are value
    objects: equality of canonical forms is region equivalence.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, maxima, intervals, frac_order) -> "ClockRegion":
        if len(intervals) != len(maxima):
            raise ValueError("interval entries must match the clock count")
        fractional = set()
        for c, i in enumerate(intervals):
            top = 2 * maxima[c] + 1
            if not 0 <= i <= top:
                raise ValueError(f"clock {c}: interval index {i} outside [0, {top}]")
            if i % 2 and i < top:
                fractional.add(c)
        listed = [c for group in frac_order for c in group]
        if any(not group for group in frac_order):
            raise ValueError("fractional order must not contain empty groups")
        if len(listed) != len(set(listed)) or set(listed) != fractional:
            raise ValueError("fractional order must list each nonzero-fraction clock once")
        return super().__new__(cls, maxima, intervals, frac_order)

    @classmethod
    def zero(cls, maxima: Sequence[int]) -> "ClockRegion":
        return cls(tuple(maxima), (0,) * len(maxima), ())

    @classmethod
    def _derived(cls, maxima, intervals, frac_order) -> "ClockRegion":
        """A region that a delay or a reset made from a canonical region. It
        is canonical too, so the checks of the constructor are skipped: they
        take about a sixth of the region construction."""
        return tuple.__new__(cls, (maxima, intervals, frac_order))


def _immediate_time_successor(r: ClockRegion) -> ClockRegion | None:
    """The next region hit when time elapses, or None from the absorbing one."""
    intervals = list(r.intervals)
    at_integer = [c for c, i in enumerate(intervals) if i % 2 == 0]
    if at_integer:
        # any positive delay moves these off the integer; those below their
        # maximum open a new smallest-fraction group, the rest reach the top
        for c in at_integer:
            intervals[c] += 1
        opening = frozenset(c for c in at_integer if r.intervals[c] < 2 * r.maxima[c])
        order = ((opening,) + r.frac_order) if opening else r.frac_order
    elif r.frac_order:
        # all fractions nonzero: the largest group is first to reach the next integer
        for c in r.frac_order[-1]:
            intervals[c] += 1
        order = r.frac_order[:-1]
    else:
        return None  # every clock is at its top index
    return ClockRegion._derived(r.maxima, tuple(intervals), order)


def guard_sat_region(guard: Guard, r: ClockRegion) -> bool:
    """True iff every valuation in r satisfies the guard.

    Well defined because regions refine all comparisons against constants
    up to the per-clock maxima.
    """
    for clock, op, const in guard:
        if not 0 <= clock < len(r.intervals):
            raise ValueError(f"guard uses unknown clock id {clock}")
        if const > r.maxima[clock]:
            raise ValueError(
                f"guard constant {const} exceeds the maximum {r.maxima[clock]} "
                f"of clock {clock}; regions do not refine such constraints"
            )
        if not _HOLDS[op](r.intervals[clock], 2 * const):
            return False
    return True


def reset_region(r: ClockRegion, resets: Iterable[int]) -> ClockRegion:
    """Zero the given clocks and drop them from the fractional order."""
    rs = frozenset(resets)
    for c in rs:
        if not 0 <= c < len(r.intervals):
            raise ValueError(f"reset uses unknown clock id {c}")
    if not rs:
        return r
    intervals = list(r.intervals)
    for c in rs:
        intervals[c] = 0
    order = tuple(group - rs for group in r.frac_order if group - rs)
    return ClockRegion._derived(r.maxima, tuple(intervals), order)


def describe_region(r: ClockRegion, clock_names: Sequence[str]) -> str:
    """Human-readable region name, e.g. ``c1=0;c2∈(0,1)``.

    When two or more clocks have nonzero fractions, the ordering of their
    fractional parts is appended (``c1<c2``, ties written with ``=``) since
    it distinguishes otherwise identical cells.
    """
    parts = []
    for name, i, x in zip(clock_names, r.intervals, r.maxima):
        if i == 2 * x + 1:
            parts.append(f"{name}>{x}")
        elif i % 2:
            parts.append(f"{name}∈({i // 2},{i // 2 + 1})")
        else:
            parts.append(f"{name}={i // 2}")
    if sum(len(group) for group in r.frac_order) >= 2:
        parts.append(
            "<".join(
                "=".join(clock_names[c] for c in sorted(group))
                for group in r.frac_order
            )
        )
    return ";".join(parts)


# a move out of a (location, region id) pair: its letter and the
# (target location, region id after resets) pair it leads to
_Move = tuple[str, tuple[int, int]]


class RegionGame(NamedTuple):
    """Finite game over the reachable (location, region) pairs of a PPTA.

    ``game`` is in delay-chain form: a position per (location, region) pair
    walked, holding the moves enabled at that region, and a delay link to
    the position of (location, next region). ``origin`` covers the vertices.
    """

    game: FiniteGame
    origin: tuple[tuple[int, ClockRegion], ...]


def build_region_game(
    a: PPTA, max_vertices: int | None = None, max_regions: int | None = None
) -> RegionGame:
    """Construct the reachable region game of a.

    From a pair (location, region), one edge exists per transition of the
    location and per time successor of the region satisfying the guard; the
    edge leads to the transition's target paired with the time successor
    after resets. A reachable pair with no edge at all blocks the arena and
    is reported as an error.

    The game is stored in delay-chain form: the position of a pair holds
    the moves enabled at its region itself, each once, and links to the
    pair of the immediate time successor. Each region gets an int id the
    first time it is reached; ``max_regions`` caps the number of ids, so a
    long time-successor chain is cut off before it is built, and
    ``max_vertices`` caps the number of vertices. The immediate time
    successor and the reset images are memoized per id.

    The BFS walks the chain of a vertex the first time it reaches it, to its
    end or to the first position already walked, and numbers the targets
    along the walk in chain order. That is the first-occurrence order of a
    walk over the whole time-successor chain, so vertices come out in that
    order. Positions that are no vertex get ids after the vertices.
    """
    regions: list[ClockRegion] = []
    region_id: dict[ClockRegion, int] = {}
    successor: dict[int, int | None] = {}
    images: dict[tuple[int, frozenset[int]], int] = {}

    def intern(r: ClockRegion) -> int:
        rid = region_id.get(r)
        if rid is None:
            rid = len(regions)
            if max_regions is not None and rid >= max_regions:
                raise SizeCapError(
                    f"region game would exceed the cap of {max_regions} clock regions"
                )
            region_id[r] = rid
            regions.append(r)
        return rid

    def next_id(rid: int) -> int | None:
        if rid not in successor:
            nxt = _immediate_time_successor(regions[rid])
            successor[rid] = None if nxt is None else intern(nxt)
        return successor[rid]

    def enabled(loc: int, rid: int) -> list[_Move]:
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

    start = (a.initial, intern(ClockRegion.zero(a.maxima)))
    order: dict[tuple[int, int], int] = {start: 0}
    pairs: list[tuple[int, int]] = [start]
    # per walked position: whether a move is enabled somewhere along its chain
    live: dict[tuple[int, int], bool] = {}
    own: dict[tuple[int, int], tuple[tuple[str, int], ...]] = {}
    # pairs grows while it is walked: visiting ids in order is the BFS
    for loc, rid in pairs:
        # walk forward to the chain's end or the first position already
        # walked, then read the moves backwards, so that each position knows
        # whether its chain has one
        walk = []
        step: int | None = rid
        while step is not None and (loc, step) not in live:
            walk.append(step)
            step = next_id(step)
        alive = step is not None and live[(loc, step)]
        moves = []
        for step in reversed(walk):
            here = enabled(loc, step)
            alive = alive or bool(here)
            live[(loc, step)] = alive
            moves.append(here)
        if not live[(loc, rid)]:
            raise DeadlockedRegionError(
                a.location_names[loc], describe_region(regions[rid], a.clock_names)
            )
        for step, here in zip(walk, reversed(moves)):
            row: list[tuple[str, int]] = []
            for letter, succ in here:
                xj = order.get(succ)
                if xj is None:
                    xj = len(pairs)
                    if max_vertices is not None and xj >= max_vertices:
                        raise SizeCapError(
                            f"region game would exceed the cap of {max_vertices} vertices"
                        )
                    order[succ] = xj
                    pairs.append(succ)
                if (letter, xj) not in row:
                    row.append((letter, xj))
            own[(loc, step)] = tuple(row)
    n = len(pairs)
    extra = [pos for pos in own if pos not in order]
    for x, pos in enumerate(extra, n):
        order[pos] = x
    positions = pairs + extra
    delay = tuple(
        -1 if successor[rid] is None else order[(loc, successor[rid])] for loc, rid in positions
    )
    if a.n_clocks:
        text = {rid: describe_region(regions[rid], a.clock_names) for rid in {r for _, r in pairs}}
        names = tuple(f"{a.location_names[loc]}|{text[rid]}" for loc, rid in pairs)
    else:
        names = tuple(a.location_names[loc] for loc, _ in pairs)
    owners = tuple(a.owners[loc] for loc, _ in positions)
    targets = tuple(
        frozenset(x for x, (loc, _) in enumerate(pairs) if loc in a.goals[i])
        for i in range(a.n_players)
    )
    game = FiniteGame(
        n_players=a.n_players,
        alphabet=a.alphabet,
        vertex_names=names,
        out_edges=tuple(own[pos] for pos in positions),
        owner=owners,
        targets=targets,
        initial=0,
        delay=delay if max(delay) >= 0 else (),  # no clock: no delay link
    )
    return RegionGame(game=game, origin=tuple((loc, regions[rid]) for loc, rid in pairs))
