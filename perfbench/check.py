"""Independent checks of solver output, using only the input JSON.

A witness is re-checked from scratch: every step must be a move of the
input game (for a timed automaton, a delay followed by an enabled
transition between the printed regions), the printed satisfied sets must
be the ones accumulated along the play, and the gain computed from the
targets must equal the printed gain and lie within the constraint. Nothing
here imports the solver, so a bug in it cannot hide in the check.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

_OPS = {"le": operator.le, "lt": operator.lt, "eq": operator.eq, "gt": operator.gt, "ge": operator.ge}


@dataclass
class Answer:
    """The answer and witness of one decision, with vertices by name.

    ``sats`` holds the printed satisfied set of every prefix and cycle
    vertex, or None where the output does not print them.
    """

    yes: bool
    gain: tuple[int, ...] | None = None
    prefix: tuple[str, ...] = ()
    cycle: tuple[str, ...] = ()
    sats: tuple[frozenset[int], ...] | None = None


def parse_cli(text: str) -> Answer:
    """Parse ``spe-reach solve[-timed] --witness`` output; raise ValueError if malformed."""
    lines = text.split("\n")
    if lines[0] not in ("YES", "NO"):
        raise ValueError(f"first line is {lines[0]!r}, not YES or NO")
    if lines[0] == "NO":
        if any(line.startswith("witness") for line in lines):
            raise ValueError("a NO answer prints a witness")
        return Answer(False)
    head = "witness gain: "
    if not lines[1].startswith(head):
        raise ValueError("YES without a witness gain line")
    gain = tuple(int(b) for b in lines[1][len(head):].strip("()").split(","))
    blocks: dict[str, list[tuple[str, frozenset[int]]]] = {}
    k = 2
    for label in ("prefix", "cycle"):
        if lines[k] != f"witness {label}:":
            raise ValueError(f"missing witness {label} block")
        k += 1
        rows = blocks[label] = []
        while k < len(lines) and lines[k].startswith("  "):
            row = lines[k][2:]
            k += 1
            if row == "(empty)":
                continue
            name, sat = row.rsplit("  ", 1)
            if not (sat.startswith("{") and sat.endswith("}")):
                raise ValueError(f"malformed witness row {row!r}")
            inner = sat[1:-1]
            rows.append((name, frozenset(int(i) for i in inner.split(",")) if inner else frozenset()))
    if not blocks["cycle"]:
        raise ValueError("empty witness cycle")
    rows = blocks["prefix"] + blocks["cycle"]
    return Answer(
        True,
        gain,
        tuple(name for name, _ in blocks["prefix"]),
        tuple(name for name, _ in blocks["cycle"]),
        tuple(sat for _, sat in rows),
    )


def _constraint_problems(gain: tuple[int, ...], words: list[str]) -> list[str]:
    problems = []
    for i, word in enumerate(words):
        if (word == "win" and gain[i] != 1) or (word == "lose" and gain[i] != 0):
            problems.append(f"player {i} gain {gain[i]} violates the constraint {word}")
    return problems


def _play_problems(
    answer: Answer,
    words: list[str],
    initial: str,
    is_move,
    satisfied_by,
) -> list[str]:
    """Checks shared by both input kinds; is_move(a, b) judges one step and
    satisfied_by(name) gives the players whose targets contain a vertex."""
    seq = answer.prefix + answer.cycle
    if not answer.cycle:
        return ["witness cycle is empty"]
    problems = []
    if seq[0] != initial:
        problems.append(f"witness starts at {seq[0]!r}, not the initial vertex {initial!r}")
    for a, b in zip(seq, seq[1:] + answer.cycle[:1]):
        if not is_move(a, b):
            problems.append(f"no move from {a!r} to {b!r}")
    sat: frozenset[int] = frozenset()
    accumulated = []
    for name in seq:
        sat = sat | satisfied_by(name)
        accumulated.append(sat)
    if accumulated[-1] != accumulated[len(answer.prefix)]:
        problems.append("the satisfied set changes along the cycle")
    if answer.sats is not None and tuple(accumulated) != answer.sats:
        problems.append("printed satisfied sets differ from those accumulated along the play")
    n = len(words)
    gain = tuple(int(i in sat) for i in range(n))
    if answer.gain != gain:
        problems.append(f"printed gain {answer.gain} differs from the computed gain {gain}")
    return problems + _constraint_problems(gain, words)


def finite_witness_problems(game: dict, words: list[str], answer: Answer) -> list[str]:
    """Problems with a YES answer on a finite game; empty when it checks out."""
    moves = {(e["from"], e["to"]) for e in game["edges"]}
    owned = {}
    for i, targets in enumerate(game["targets"]):
        for v in targets:
            owned.setdefault(v, set()).add(i)
    return _play_problems(
        answer,
        words,
        game["initial"],
        lambda a, b: (a, b) in moves,
        lambda v: frozenset(owned.get(v, ())),
    )


# --- timed automata -------------------------------------------------------
#
# A region is (location, clipped, order): clipped[c] is None above the
# clock's maximum, else (integer part, fraction is zero); order lists the
# groups of clocks with equal nonzero fractions, smallest first. A step is
# checked on concrete rational valuations: a representative of the source
# region is delayed by every delay at which the region can change (each
# integer crossing, the midpoints between them, and one beyond all), and
# each enabled transition's reset image must land in the target region.


def _maxima(automaton: dict) -> dict[str, int]:
    top = {c: 0 for c in automaton["clocks"]}
    for t in automaton["transitions"]:
        for atom in t["guard"]:
            top[atom["clock"]] = max(top[atom["clock"]], atom["const"])
    return top


def _parse_state(name: str, clocks: list[str]):
    """Split ``loc|x=0;y∈(1,2);x<y`` into (location, clipped, order)."""
    if not clocks:
        return name, (), ()
    loc, _, region = name.partition("|")
    parts = region.split(";")
    clipped = []
    for c, part in zip(clocks, parts):
        if part.startswith(f"{c}>"):
            clipped.append(None)
        elif part.startswith(f"{c}="):
            clipped.append((int(part[len(c) + 1:]), True))
        elif part.startswith(f"{c}∈("):
            clipped.append((int(part[len(c) + 2:].split(",")[0]), False))
        else:
            raise ValueError(f"cannot parse clock part {part!r} of {name!r}")
    fractional = [c for c, info in zip(clocks, clipped) if info is not None and not info[1]]
    if len(parts) == len(clocks) + 1:
        order = tuple(frozenset(group.split("=")) for group in parts[-1].split("<"))
    elif len(parts) == len(clocks) and len(fractional) <= 1:
        order = (frozenset(fractional),) if fractional else ()
    else:
        raise ValueError(f"cannot parse region of {name!r}")
    return loc, tuple(clipped), order


def _region(values: dict[str, Fraction], clocks: list[str], top: dict[str, int]):
    clipped = []
    by_frac: dict[Fraction, set[str]] = {}
    for c in clocks:
        v = values[c]
        if v > top[c]:
            clipped.append(None)
            continue
        whole = v.numerator // v.denominator
        clipped.append((whole, v == whole))
        if v != whole:
            by_frac.setdefault(v - whole, set()).add(c)
    return tuple(clipped), tuple(frozenset(by_frac[f]) for f in sorted(by_frac))


def _representative(clipped, order, clocks: list[str], top: dict[str, int]) -> dict[str, Fraction]:
    step = Fraction(1, len(clocks) + 1)
    frac = {c: (j + 1) * step for j, group in enumerate(order) for c in group}
    values = {}
    for c, info in zip(clocks, clipped):
        if info is None:
            values[c] = Fraction(top[c] + 1)
        else:
            values[c] = Fraction(info[0]) + (0 if info[1] else frac[c])
    return values


def _delays(values: dict[str, Fraction], top: dict[str, int]) -> list[Fraction]:
    points = {Fraction(0)}
    for c, v in values.items():
        n = v.numerator // v.denominator + 1
        while n <= top[c] + 1:
            points.add(n - v)
            n += 1
    ordered = sorted(points)
    mids = [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]
    return ordered + mids + [ordered[-1] + 1]


def timed_witness_problems(automaton: dict, words: list[str], answer: Answer) -> list[str]:
    """Problems with a YES answer on a timed automaton; empty when it checks out."""
    clocks = list(automaton["clocks"])
    top = _maxima(automaton)
    goals = {}
    for i, locs in enumerate(automaton["goals"]):
        for loc in locs:
            goals.setdefault(loc, set()).add(i)
    by_source: dict[str, list[dict]] = {}
    for t in automaton["transitions"]:
        by_source.setdefault(t["from"], []).append(t)
    try:
        states = {name: _parse_state(name, clocks) for name in answer.prefix + answer.cycle}
    except ValueError as exc:
        return [str(exc)]

    def is_move(a: str, b: str) -> bool:
        loc_a, clipped_a, order_a = states[a]
        loc_b, clipped_b, order_b = states[b]
        start = _representative(clipped_a, order_a, clocks, top)
        for delay in _delays(start, top):
            delayed = {c: v + delay for c, v in start.items()}
            for t in by_source.get(loc_a, ()):
                if t["to"] != loc_b:
                    continue
                if not all(_OPS[g["op"]](delayed[g["clock"]], g["const"]) for g in t["guard"]):
                    continue
                after = {c: (Fraction(0) if c in t["reset"] else v) for c, v in delayed.items()}
                if _region(after, clocks, top) == (clipped_b, order_b):
                    return True
        return False

    zero = f"{automaton['initial']}|" + ";".join(f"{c}=0" for c in clocks) if clocks else automaton["initial"]
    return _play_problems(
        answer, words, zero, is_move, lambda name: frozenset(goals.get(states[name][0], ()))
    )
