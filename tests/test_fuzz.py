"""Fuzzing the CLI's input files: every input ends in a documented exit code.

Arbitrary bytes, and small mutations of valid game and automaton files, are
given to ``solve``, ``solve-timed`` and ``regions``. Each run must return
0 (YES), 1 (NO), 2 (bad input) or 3 (size cap) and never raise: an uncaught
exception would exit 1 with a traceback, which reads as "NO". The size cap
is kept small so that no example can grow a large game. A mutated finite
game either fails to load or loads into a game whose names all resolved; a
mutated automaton either fails to load or loads into one whose region game
is well formed.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from spe_reach.cli import ENV_MAX_EXT_VERTICES, main
from spe_reach.errors import DeadlockedRegionError, InputError, SizeCapError
from spe_reach.game import validate_game
from spe_reach.jsonio import load_finite_game, load_ppta
from spe_reach.timed import build_region_game

from documents import (
    CHAIN_GAME,
    FORK_GAME,
    LOOP_GAME,
    ONE_CLOCK_PPTA,
    TWO_CLOCK_PPTA,
    ZERO_CLOCK_PPTA,
)

FINITE_DOCUMENTS = (FORK_GAME, CHAIN_GAME, LOOP_GAME)
PPTA_DOCUMENTS = (ONE_CLOCK_PPTA, TWO_CLOCK_PPTA, ZERO_CLOCK_PPTA)
DOCUMENTS = (FORK_GAME, ONE_CLOCK_PPTA, TWO_CLOCK_PPTA, ZERO_CLOCK_PPTA)
COMMANDS = (
    ["solve", "--witness", "--lambda"],
    ["solve-timed", "--witness", "--lambda"],
    ["regions"],
)
# names and keys of the documents, so mutations often stay almost valid
WORDS = sorted(
    {"A", "B", "C", "a", "b", "c", "x", "y", "l0", "l1", "l2", "le", "lt", "eq", "gt", "ge"}
    | {key for doc in DOCUMENTS for key in doc}
    | {"name", "owner", "from", "to", "letter", "guard", "reset", "clock", "op", "const"}
)

# number literals json.dumps never writes; values drawn as their index are
# spliced into the text raw
RAW_LITERALS = ("9" * 5000, "1e999", "-1e999", "NaN", "-0", "1.0", "1e2")
RAW_MARK = "\x00raw"

json_values = st.recursive(
    st.none()
    | st.sampled_from(range(len(RAW_LITERALS))).map(lambda k: f"{RAW_MARK}{k}")
    | st.booleans()
    | st.integers(-2, 6)
    | st.sampled_from([-(10**30), 10**6, 10**30])
    | st.floats()
    | st.sampled_from(WORDS)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(WORDS), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _at(node, path):
    for step in path:
        node = node[step]
    return node


# values one step from a valid finite game: a player index just past either
# end of the range, a known and an unknown name, a letter outside the alphabet
near_misses = st.sampled_from((-1, 1, 2, "A", "Z", "b"))
# the same for an automaton: an owner or a guard constant out of range, a
# known and an unknown location and clock, a letter, an unknown comparator
ppta_near_ints = st.sampled_from((-1, 1, 2))
ppta_near_strings = st.sampled_from(("l0", "l9", "c", "z", "b", "ne"))


@st.composite
def mutated_documents(draw, documents=DOCUMENTS, values=json_values):
    """A valid document with one to three values replaced, deleted or duplicated."""
    doc = copy.deepcopy(draw(st.sampled_from(documents)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(values)
            continue
        parent, key = _at(doc, path[:-1]), path[-1]
        action = draw(st.sampled_from(("replace", "delete", "duplicate")))
        if action == "replace":
            parent[key] = draw(values)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.append(copy.deepcopy(parent[key]))
    text = json.dumps(doc)
    for k, literal in enumerate(RAW_LITERALS):
        text = text.replace(json.dumps(f"{RAW_MARK}{k}"), literal)
    return text.encode()


@st.composite
def near_miss_automata(draw):
    """A valid automaton with one to three int or string fields set to a near
    miss of the same type, so that most of them still pass the type checks."""
    doc = copy.deepcopy(draw(st.sampled_from(PPTA_DOCUMENTS)))
    fields = [p for p in _paths(doc) if isinstance(_at(doc, p), (int, str))]
    for path in draw(st.lists(st.sampled_from(fields), min_size=1, max_size=3)):
        parent = _at(doc, path[:-1])
        parent[path[-1]] = draw(ppta_near_ints if isinstance(parent[path[-1]], int) else ppta_near_strings)
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(ENV_MAX_EXT_VERTICES, "64")
        yield tmp_path_factory.mktemp("fuzz") / "input.json"


def _run_all(path, data: bytes) -> None:
    path.write_bytes(data)
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main([command[0], str(path), *command[1:]])
        assert status in (0, 1, 2, 3), (command, data)
        assert "Traceback" not in err.getvalue()


@settings(max_examples=60, deadline=None)
@given(data=st.binary(max_size=200))
def test_any_bytes(input_path, data):
    _run_all(input_path, data)


@settings(max_examples=150, deadline=None)
@given(data=mutated_documents())
def test_mutated_documents(input_path, data):
    _run_all(input_path, data)


@settings(max_examples=300, deadline=None)
@given(data=mutated_documents(FINITE_DOCUMENTS, near_misses | json_values))
def test_mutated_games_load_resolved_or_not_at_all(input_path, data):
    # the loader is the only code that resolves names: what it accepts must
    # pass every range check of validate_game, and what it rejects, solve
    # rejects with the loader's message alone
    input_path.write_bytes(data)
    try:
        g = load_finite_game(input_path)
    except InputError as exc:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(["solve", str(input_path), "--witness", "--lambda"])
        assert (status, out.getvalue(), err.getvalue()) == (2, "", _error_line(exc))
    else:
        for problem in validate_game(g):
            assert problem == "game has no vertices" or problem.endswith("(blocking)"), (problem, data)


@settings(max_examples=300, deadline=None)
@given(data=near_miss_automata() | mutated_documents(PPTA_DOCUMENTS, ppta_near_ints | ppta_near_strings | json_values))
def test_mutated_automata_load_well_formed_or_not_at_all(input_path, data):
    # the automaton checks itself on construction: what the loader accepts
    # must build a well-formed region game, and what it rejects, solve-timed
    # rejects with the loader's message alone
    input_path.write_bytes(data)
    try:
        a = load_ppta(input_path)
    except InputError as exc:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(["solve-timed", str(input_path), "--witness", "--lambda"])
        assert (status, out.getvalue(), err.getvalue()) == (2, "", _error_line(exc))
    else:
        try:
            rg = build_region_game(a, max_vertices=64)
        except (DeadlockedRegionError, SizeCapError):
            return
        assert validate_game(rg.game) == [], data


def _error_line(exc: Exception) -> str:
    """The CLI's stderr for exc: one line, non-printable characters escaped."""
    return "error: " + "".join(ch if ch.isprintable() else repr(ch)[1:-1] for ch in str(exc)) + "\n"
