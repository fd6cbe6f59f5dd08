"""Concrete clock-valuation helpers for exercising the region abstraction.

The solver works on regions alone; these helpers map concrete valuations to
regions and back, enumerate regions and walk time-successor chains, so the
tests can check the region operations against exact rational arithmetic.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Sequence

from spe_reach.timed import (
    PPTA,
    ClockRegion,
    Guard,
    _immediate_time_successor,
    build_region_game,
    guard_sat_region,
    reset_region,
)

ClockValuation = tuple[Fraction, ...]

_OP_FN = {
    "le": operator.le,
    "lt": operator.lt,
    "eq": operator.eq,
    "gt": operator.gt,
    "ge": operator.ge,
}


def _as_valuation(values: Sequence) -> ClockValuation:
    vals = tuple(Fraction(x) for x in values)
    for c, v in enumerate(vals):
        if v < 0:
            raise ValueError(f"clock {c}: value must be nonnegative, got {v}")
    return vals


def region_of(valuation: Sequence, maxima: Sequence[int]) -> ClockRegion:
    """The canonical region containing the valuation."""
    maxima = tuple(maxima)
    vals = _as_valuation(valuation)
    if len(vals) != len(maxima):
        raise ValueError("valuation entries must match the clock count")
    intervals: list[int] = []
    by_fraction: dict[Fraction, list[int]] = {}
    for c, v in enumerate(vals):
        if v > maxima[c]:
            intervals.append(2 * maxima[c] + 1)
            continue
        ip = v.numerator // v.denominator
        frac = v - ip
        intervals.append(2 * ip + (frac != 0))
        if frac != 0:
            by_fraction.setdefault(frac, []).append(c)
    order = tuple(frozenset(by_fraction[f]) for f in sorted(by_fraction))
    return ClockRegion(maxima, tuple(intervals), order)


def region_equiv(nu1: Sequence, nu2: Sequence, maxima: Sequence[int]) -> bool:
    """True iff the two valuations lie in the same region."""
    return region_of(nu1, maxima) == region_of(nu2, maxima)


def time_successors(r: ClockRegion) -> tuple[ClockRegion, ...]:
    """The chain of regions reached by letting time elapse.

    Starts at r itself (delay 0 is allowed) and ends at the absorbing
    region where every clock has passed its maximum.
    """
    chain = [r]
    while True:
        nxt = _immediate_time_successor(chain[-1])
        if nxt is None:
            return tuple(chain)
        chain.append(nxt)


def guard_sat_valuation(guard: Guard, valuation: Sequence) -> bool:
    """Concrete guard satisfaction, used to cross-check the region version."""
    vals = _as_valuation(valuation)
    return all(_OP_FN[atom.op](vals[atom.clock], atom.const) for atom in guard)


def reset_valuation(valuation: Sequence, resets: Iterable[int]) -> ClockValuation:
    vals = list(_as_valuation(valuation))
    for c in resets:
        vals[c] = Fraction(0)
    return tuple(vals)


def region_representative(r: ClockRegion) -> ClockValuation:
    """A concrete valuation inside r.

    Fractional parts are assigned as distinct multiples of 1/(k+1) for k
    clocks, respecting the fractional order; clocks past their maximum get
    the maximum plus one.
    """
    k = len(r.maxima)
    frac_of: dict[int, Fraction] = {}
    for j, group in enumerate(r.frac_order):
        for c in group:
            frac_of[c] = Fraction(j + 1, k + 1)
    out = []
    for c, i in enumerate(r.intervals):
        if i == 2 * r.maxima[c] + 1:
            out.append(Fraction(r.maxima[c] + 1))
        else:
            out.append(i // 2 + frac_of.get(c, Fraction(0)))
    return tuple(out)


def _ordered_partitions(items: frozenset[int]) -> Iterator[tuple[frozenset[int], ...]]:
    if not items:
        yield ()
        return
    elems = sorted(items)
    m = len(elems)
    for pick in range(1, 1 << m):
        first = frozenset(elems[i] for i in range(m) if (pick >> i) & 1)
        for tail in _ordered_partitions(items - first):
            yield (first,) + tail


def all_regions(maxima: Sequence[int]) -> list[ClockRegion]:
    """Every canonical region for the given per-clock maxima."""
    maxima = tuple(maxima)
    regions = []
    for combo in product(*(range(2 * x + 2) for x in maxima)):
        fractional = frozenset(
            c for c, i in enumerate(combo) if i % 2 and i < 2 * maxima[c] + 1
        )
        for order in _ordered_partitions(fractional):
            regions.append(ClockRegion(maxima, tuple(combo), order))
    return regions


def random_valuation(
    rng: random.Random, n_clocks: int, high: int = 4, denominator: int = 12
) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(rng.randint(0, high * denominator), denominator) for _ in range(n_clocks)
    )


def random_member(r: ClockRegion, rng: random.Random) -> tuple[Fraction, ...]:
    """A random concrete valuation inside the region."""
    denom = 97
    numerators = sorted(rng.sample(range(1, denom), len(r.frac_order)))
    frac_of = {}
    for j, group in enumerate(r.frac_order):
        for c in group:
            frac_of[c] = Fraction(numerators[j], denom)
    out = []
    for c, i in enumerate(r.intervals):
        if i == 2 * r.maxima[c] + 1:
            out.append(r.maxima[c] + rng.randint(1, 3) + Fraction(rng.randint(0, 4), 5))
        else:
            out.append(i // 2 + frac_of.get(c, Fraction(0)))
    return tuple(out)


def _fractional(v: Fraction) -> Fraction:
    return v - (v.numerator // v.denominator)


def immediate_delay(nu: Sequence[Fraction], maxima: Sequence[int]) -> Fraction:
    """A delay moving nu exactly into the next region of its time chain."""
    r = region_of(nu, maxima)
    live = [c for c, i in enumerate(r.intervals) if i < 2 * maxima[c] + 1]
    if not live:
        return Fraction(1)
    fracs = [_fractional(nu[c]) for c in live]
    if any(f == 0 for f in fracs):
        # open the zero fractions without letting anything cross a boundary
        return min(1 - f for f in fracs) / 2
    return 1 - max(fracs)


def delay_reaching(
    nu: Sequence[Fraction], target: ClockRegion, maxima: Sequence[int]
) -> Fraction:
    """A delay d with region_of(nu + d) == target; target must lie on nu's time chain."""
    total = Fraction(0)
    current = tuple(nu)
    limit = sum(2 * x + 2 for x in maxima) * (len(maxima) + 1) + 4
    for _ in range(limit):
        if region_of(current, maxima) == target:
            return total
        d = immediate_delay(current, maxima)
        current = tuple(v + d for v in current)
        total += d
    raise AssertionError("target region is not on the time-successor chain")


def assert_edges_concretely_realizable(
    a: PPTA, rng: random.Random, sample: int | None = None
) -> int:
    """Check that each region-game edge (or ``sample`` of them, drawn with
    rng) is taken by a concrete member of its source region: for every delay
    and transition the regions allow, the delayed valuation satisfies the
    guard and lands, reset, in the target region. Draws one member per edge
    and returns the number of edges checked."""
    rg = build_region_game(a)
    maxima = a.maxima
    edges = rg.game.edges
    if sample is not None:
        edges = rng.sample(edges, min(sample, len(edges)))
    for src, letter, dst in edges:
        loc, reg = rg.origin[src]
        loc2, reg2 = rg.origin[dst]
        nu = random_member(reg, rng)
        realized = False
        for elapsed in time_successors(reg):
            for t in a.transitions_from[loc]:
                if t.letter != letter or t.target != loc2:
                    continue
                if not guard_sat_region(t.guard, elapsed):
                    continue
                if reset_region(elapsed, t.resets) != reg2:
                    continue
                d = delay_reaching(nu, elapsed, maxima)
                shifted = [v + d for v in nu]
                assert guard_sat_valuation(t.guard, shifted)
                assert region_of(reset_valuation(shifted, t.resets), maxima) == reg2
                realized = True
        assert realized, (src, letter, dst)
    return len(edges)
