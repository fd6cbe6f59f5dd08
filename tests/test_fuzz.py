"""Fuzzing the CLI's input files: every input ends in a documented exit code.

Arbitrary bytes, and small mutations of valid game and automaton files, are
given to ``solve``, ``solve-timed`` and ``regions``. Each run must return
0 (YES), 1 (NO), 2 (bad input) or 3 (size cap) and never raise: an uncaught
exception would exit 1 with a traceback, which reads as "NO". The size cap
is kept small so that no example can grow a large game. A mutated finite
game either fails to load or loads into a game that solve never rejects; a
mutated automaton either fails to load or loads into one whose region game
is well formed. Renaming every name and letter of a document, to any
strings at all, changes no exit code, even with a stdout that encodes
strictly, and the region game that ``regions`` and ``solve-timed
--regions`` print still loads back as itself, on a UTF-8 or an ASCII
stdout and from the ``--output`` file.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from spe_reach.cli import ENV_MAX_EXT_VERTICES, main
from spe_reach.errors import DeadlockedRegionError, InputError, SizeCapError
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
    # FiniteGame checks every fault as the loader builds it: what the loader
    # accepts, solve answers (or hits the size cap on), and what it rejects,
    # solve rejects with the loader's message alone
    input_path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(["solve", str(input_path), "--witness", "--lambda"])
    try:
        load_finite_game(input_path)
    except InputError as exc:
        assert (status, out.getvalue(), err.getvalue()) == (2, "", _error_line(exc))
    else:
        assert status in (0, 1, 3), (status, err.getvalue(), data)


@settings(max_examples=300, deadline=None)
@given(data=near_miss_automata() | mutated_documents(PPTA_DOCUMENTS, ppta_near_ints | ppta_near_strings | json_values))
def test_mutated_automata_load_well_formed_or_not_at_all(input_path, data):
    # the automaton checks itself on construction: what the loader accepts
    # builds a region game that FiniteGame accepts, or hits a deadlock or
    # the size cap, and what it rejects, solve-timed rejects with the
    # loader's message alone
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
            build_region_game(a, max_vertices=64)
        except (DeadlockedRegionError, SizeCapError):
            pass


# any string; a lone surrogate is valid JSON that UTF-8 cannot encode, and
# drawn from the whole code space it would almost never come up
names = st.text(
    st.characters(exclude_categories=()) | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
    max_size=3,
)


def _strings(node):
    """Every name and letter in a document: its string values but comparators."""
    if isinstance(node, dict):
        return {s for key, value in node.items() if key != "op" for s in _strings(value)}
    if isinstance(node, list):
        return {s for value in node for s in _strings(value)}
    return {node} if isinstance(node, str) else set()


def _renamed(node, new: dict):
    if isinstance(node, dict):
        return {key: value if key == "op" else _renamed(value, new) for key, value in node.items()}
    if isinstance(node, list):
        return [_renamed(value, new) for value in node]
    return new.get(node, node) if isinstance(node, str) else node


# names outside ASCII on purpose: below U+0100 a Python backslash escape is
# not a JSON one, and above U+FFFF JSON needs a surrogate pair
wide_names = st.text(
    st.sampled_from("\xe9\xff\u0100\U0001f600\U0010ffff") | st.characters(min_codepoint=0x80),
    min_size=1,
    max_size=3,
)


@st.composite
def renamings(draw, documents, strings=names):
    """A document and a copy with every name and letter renamed to a
    distinct drawn string. No document uses one string in two roles, so one
    map renames them all, and the copy describes the same game."""
    doc = draw(st.sampled_from(documents))
    old = sorted(_strings(doc))
    new = draw(st.lists(strings, min_size=len(old), max_size=len(old), unique=True))
    return doc, _renamed(doc, dict(zip(old, new)))


def _run(argv, encoding: str = "utf-8") -> tuple[int, str]:
    # stdout encodes strictly, as a pipe does; an io.StringIO never encodes
    out = io.TextIOWrapper(io.BytesIO(), encoding=encoding, errors="strict")
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        status = main(argv)
    out.flush()
    return status, out.buffer.getvalue().decode(encoding)


def _exit_code(path, command, data: bytes) -> int:
    path.write_bytes(data)
    return _run([command[0], str(path), *command[1:]])[0]


@settings(max_examples=100, deadline=None)
@given(pair=renamings(FINITE_DOCUMENTS + PPTA_DOCUMENTS))
def test_renamed_documents_keep_their_exit_codes(input_path, pair):
    # the renamed game is the same game, so only its printed names change
    doc, renamed = pair
    for command in COMMANDS:
        expected = _exit_code(input_path, command, json.dumps(doc).encode())
        assert _exit_code(input_path, command, json.dumps(renamed).encode()) == expected, (command, renamed)


@settings(max_examples=60, deadline=None)
@given(pair=renamings(PPTA_DOCUMENTS, names | wide_names))
@example(pair=(ONE_CLOCK_PPTA, _renamed(ONE_CLOCK_PPTA, {"l1": "l\xe9", "l2": "m\U0001f600"})))
def test_printed_region_games_load_back_on_any_stdout(input_path, pair):
    # regions (to stdout under UTF-8 and ASCII, and to --output) and the
    # region game block of solve-timed --regions all print JSON that loads
    # back into the region game itself, whatever the names are
    input_path.write_text(json.dumps(pair[1]), encoding="utf-8")
    expected = build_region_game(load_ppta(input_path)).game
    output = input_path.with_name("regions.json")
    texts = []
    for encoding in ("utf-8", "ascii"):
        status, text = _run(["regions", str(input_path)], encoding)
        assert status == 0
        texts.append(text)
        status, text = _run(["solve-timed", str(input_path), "--regions"], encoding)
        assert status in (0, 1)
        texts.append(text.partition("region game:\n")[2])
    assert _run(["regions", str(input_path), "--output", str(output)])[0] == 0
    texts.append(output.read_text(encoding="utf-8"))
    for text in texts:
        assert load_finite_game(json.loads(text)) == expected


def _error_line(exc: Exception) -> str:
    """The CLI's stderr for exc: one line, non-printable characters escaped."""
    return "error: " + "".join(ch if ch.isprintable() else repr(ch)[1:-1] for ch in str(exc)) + "\n"
