"""Command-line driver.

Subcommands: ``solve`` for explicit finite games, ``solve-timed`` for timed
automata (built into their region game first), ``regions`` to emit a region
game as a finite-game file, and ``oracle-check`` to compare the solver with
the brute-force oracle. Exit codes are a stable contract: 0 means YES,
1 means NO (or, for oracle-check, a disagreement), 2 means bad input, and
3 means the configured size cap was hit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Sequence

from .errors import InputError, SizeCapError
from .extended import set_name
from .fixpoint import Decision, decide_constrained_existence
from .game import ConstraintProfile, FiniteGame
from .jsonio import dump_finite_game, load_finite_game, load_ppta

if TYPE_CHECKING:
    from .timed import PPTA, RegionGame

DEFAULT_MAX_EXT_VERTICES = 1 << 22
ENV_MAX_EXT_VERTICES = "SPE_REACH_MAX_EXT_VERTICES"


def build_region_game(a: PPTA, max_vertices: int | None = None) -> RegionGame:
    """:func:`spe_reach.timed.build_region_game`, imported on first use so
    that ``solve`` never loads the timed module."""
    from . import timed

    return timed.build_region_game(a, max_vertices=max_vertices)


def _max_ext_vertices() -> int:
    raw = os.environ.get(ENV_MAX_EXT_VERTICES)
    if raw is None:
        return DEFAULT_MAX_EXT_VERTICES
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InputError(f"{ENV_MAX_EXT_VERTICES} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise InputError(f"{ENV_MAX_EXT_VERTICES} must be positive")
    return cap


def _add_constraint_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--player",
        action="append",
        default=[],
        metavar="I=win|lose|any",
        help="constrain player I (0-based) to win, lose, or any (default any)",
    )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--witness", action="store_true", help="print a witness lasso")
    parser.add_argument(
        "--lambda", dest="show_lambda", action="store_true", help="print the labeling fixpoint"
    )
    parser.add_argument(
        "--oracle", action="store_true", help="cross-check with the brute-force oracle"
    )


def _parse_constraint(tokens: Sequence[str], n_players: int) -> ConstraintProfile:
    words = ["any"] * n_players
    for token in tokens:
        head, sep, word = token.partition("=")
        if not sep:
            raise InputError(f"--player expects I=win|lose|any, got {token!r}")
        try:
            player = int(head)
        except ValueError as exc:
            raise InputError(f"--player: invalid player index {head!r}") from exc
        if not 0 <= player < n_players:
            raise InputError(f"--player: index {player} out of range for {n_players} players")
        if word not in ("win", "lose", "any"):
            raise InputError(f"--player: expected win|lose|any, got {word!r}")
        words[player] = word
    return ConstraintProfile.from_words(words)


def _print_witness(decision: Decision) -> None:
    assert decision.witness is not None
    xg = decision.extended_game
    names = xg.base.vertex_names
    print(f"witness gain: {decision.witness.gain}")

    def rows(label: str, vertices: tuple[int, ...]) -> None:
        print(f"witness {label}:")
        if not vertices:
            print("  (empty)")
        for x in vertices:
            base, sat = xg.origin[x]
            print(f"  {names[base]}  {set_name(sat)}")

    rows("prefix", decision.witness.extended.prefix)
    rows("cycle", decision.witness.extended.cycle)


def _print_labeling(decision: Decision) -> None:
    # row x spells xg.game.vertex_names[x], from one name per occurring satisfied set
    xg = decision.extended_game
    names = xg.base.vertex_names
    sets = {sat: set_name(sat) for sat in xg.layers}
    rows = "".join(
        f"  {names[v]}|{sets[sat]}  {label}\n"
        for (v, sat), label in zip(xg.origin, decision.lambda_star)
    )
    sys.stdout.write(f"labeling fixpoint:\n{rows}iterations to fixpoint: {decision.k_star}\n")


def _print_oracle_line(c: ConstraintProfile, decision: Decision) -> None:
    from .oracle import ORACLE_MAX_EXT_VERTICES, OracleLimitError, oracle_outcomes

    if decision.extended_game.n_vertices > ORACLE_MAX_EXT_VERTICES:
        print("oracle: skipped (extended game too large)")
        return
    try:
        agreed = any(map(c.admits, oracle_outcomes(decision.extended_game))) == decision.answer
    except OracleLimitError as exc:
        print(f"oracle: skipped ({exc})")
        return
    print(f"oracle: {'AGREE' if agreed else 'DISAGREE'}")


def _write_game_json(g: FiniteGame, stream) -> None:
    """Write g to stream as a finite-game file; JSON's own ``\\uXXXX`` escape
    spells each character the stream cannot encode, so g always loads back."""
    text = json.dumps(dump_finite_game(g), ensure_ascii=False, indent=2)
    encoding = stream.encoding or "utf-8"  # an io.StringIO has none
    try:
        text.encode(encoding)
    except UnicodeEncodeError:  # under "ignore", a character it cannot encode is b""
        text = "".join(ch if ch.encode(encoding, "ignore") else json.dumps(ch)[1:-1] for ch in text)
    stream.write(text + "\n")


def _solve_game(g: FiniteGame, args: argparse.Namespace) -> int:
    c = _parse_constraint(args.player, g.n_players)
    decision = decide_constrained_existence(g, c, max_ext_vertices=_max_ext_vertices())
    args.status = 0 if decision.answer else 1
    print("YES" if decision.answer else "NO")
    if args.witness and decision.answer:
        _print_witness(decision)
    if args.show_lambda:
        _print_labeling(decision)
    if args.oracle:
        _print_oracle_line(c, decision)
    return args.status


def _cmd_solve(args: argparse.Namespace) -> int:
    return _solve_game(load_finite_game(args.game), args)


def _cmd_solve_timed(args: argparse.Namespace) -> int:
    automaton = load_ppta(args.automaton)
    rg = build_region_game(automaton, max_vertices=_max_ext_vertices())
    status = _solve_game(rg.game, args)
    if args.regions:
        print("region game:")
        _write_game_json(rg.game, sys.stdout)
    return status


def _cmd_regions(args: argparse.Namespace) -> int:
    automaton = load_ppta(args.automaton)
    rg = build_region_game(automaton, max_vertices=_max_ext_vertices())
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                _write_game_json(rg.game, handle)
        except OSError as exc:
            raise InputError(f"{args.output}: {exc}") from exc
    else:
        _write_game_json(rg.game, sys.stdout)
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    from .oracle import ORACLE_MAX_EXT_VERTICES, OracleLimitError, oracle_outcomes

    g = load_finite_game(args.game)
    c = _parse_constraint(args.player, g.n_players)
    decision = decide_constrained_existence(g, c, max_ext_vertices=_max_ext_vertices())
    if decision.extended_game.n_vertices > ORACLE_MAX_EXT_VERTICES:
        raise InputError(
            f"extended game has {decision.extended_game.n_vertices} vertices; "
            f"the oracle only handles up to {ORACLE_MAX_EXT_VERTICES}"
        )
    try:
        oracle_answer = any(map(c.admits, oracle_outcomes(decision.extended_game)))
    except OracleLimitError as exc:
        raise InputError(f"the oracle gives up: {exc}") from exc
    agreed = oracle_answer == decision.answer
    args.status = 0 if agreed else 1
    print(f"solver: {'YES' if decision.answer else 'NO'}")
    print(f"oracle: {'YES' if oracle_answer else 'NO'}")
    print("AGREE" if agreed else "DISAGREE")
    return args.status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spe-reach",
        description="Constrained existence of subgame perfect equilibria in "
        "turn-based reachability games.",
    )
    # the exit status a command has decided on; each command sets it before
    # printing, so main() still returns it if stdout closes mid-print
    parser.set_defaults(status=0)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide an explicit finite game")
    solve.add_argument("game", help="finite game JSON file")
    _add_constraint_flags(solve)
    _add_output_flags(solve)
    solve.set_defaults(run=_cmd_solve)

    timed = sub.add_parser("solve-timed", help="decide a timed automaton via its region game")
    timed.add_argument("automaton", help="timed automaton JSON file")
    _add_constraint_flags(timed)
    _add_output_flags(timed)
    timed.add_argument(
        "--regions", action="store_true", help="also print the region game as JSON"
    )
    timed.set_defaults(run=_cmd_solve_timed)

    regions = sub.add_parser("regions", help="emit the region game of a timed automaton")
    regions.add_argument("automaton", help="timed automaton JSON file")
    regions.add_argument("--output", help="write to this file instead of stdout")
    regions.set_defaults(run=_cmd_regions)

    check = sub.add_parser("oracle-check", help="compare the solver against the oracle")
    check.add_argument("game", help="finite game JSON file")
    _add_constraint_flags(check)
    check.set_defaults(run=_cmd_oracle_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # a name can hold any character: escape what stdout cannot encode, as stderr does
    if hasattr(sys.stdout, "reconfigure"):  # an io.StringIO never encodes
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    try:
        status = args.run(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader stopped early (`| head`); send what is still buffered to
        # /dev/null so that the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return args.status
    except (SizeCapError, InputError) as exc:
        # one line whatever the message quotes: escape what would break it
        line = "".join(ch if ch.isprintable() else repr(ch)[1:-1] for ch in str(exc))
        print(f"error: {line}", file=sys.stderr)
        return 3 if isinstance(exc, SizeCapError) else 2


def entry() -> None:
    sys.exit(main())
