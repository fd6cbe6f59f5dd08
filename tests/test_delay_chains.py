"""Region games in delay-chain form against the builders that store full rows.

``build_region_game`` stores, per (location, region) position, only the
moves enabled at that region and a delay link to the next region's
position; the extended game, the fixpoint and the witness search read that
form. Here every layer is compared with the test references, which store
each vertex's full row and share no code with the chain form:

- the region game with its chains expanded equals both region references;
- the extended game's ``game`` view, origin and adjacency views equal the
  reference extended game of the expanded region game;
- every fixpoint step equals ``reference_lambda_step`` on that reference;
- every witness equals ``reference_consistent_play``.

``guarded_ppta`` automata have no unguarded self-loop, so most of their
region games hold positions that no move reaches; ``random_ppta`` and
``looping_ppta`` automata have a self-loop at every location. The CLI's
region JSON, witnesses and labelings must be byte-identical to those of the
full-row builder.
"""

import io
import json
import random
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from spe_reach import cli
from spe_reach.extended import build_extended_game
from spe_reach.fixpoint import compute_lambda_star, cores, exists_consistent_play, initial_labeling, lambda_step
from spe_reach.game import GainProfile
from spe_reach.jsonio import load_ppta
from spe_reach.timed import PPTA, RegionGame, build_region_game

import documents
from generators import guarded_ppta, looping_ppta, random_ppta
from reference_extended import adjacency_matches, reference_build_extended_game
from reference_fixpoint import reference_consistent_play, reference_lambda_step
from reference_regions import expanded, expanded_build_region_game, reference_build_region_game


def assert_chain_form_matches(a: PPTA) -> bool:
    """Check every layer of a's solve against the references; returns
    whether its region game has a position that is no vertex."""
    rg = build_region_game(a)
    ref, triples = reference_build_region_game(a)
    assert RegionGame(expanded(rg.game), rg.origin) == ref == expanded_build_region_game(a)
    assert rg.game.edges == triples
    xg = build_extended_game(rg.game)
    ref_game, pairs, ref_triples = reference_build_extended_game(ref.game)
    assert xg.game == ref_game
    assert xg.origin[: xg.n_vertices] == pairs
    assert adjacency_matches(xg, ref_triples)
    flat = build_extended_game(ref.game)
    assert flat.delay == (-1,) * flat.n_vertices
    lam, k = initial_labeling(xg), 0
    while True:
        nxt = reference_lambda_step(flat, lam)
        assert lambda_step(xg, lam) == nxt
        if nxt == lam:
            break
        lam, k = nxt, k + 1
    assert compute_lambda_star(xg) == (lam, k)
    core = cores(xg, lam)
    for start in {0, xg.n_vertices // 2, xg.n_vertices - 1}:
        for m in xg.layers:
            p = GainProfile(m, xg.n_players)
            found = exists_consistent_play(xg, lam, start, p, core)
            assert (found and (found.prefix, found.cycle)) == reference_consistent_play(flat, lam, start, p)
    return len(rg.game.out_edges) > rg.game.n_vertices


def test_random_automata_match_the_references():
    rng = random.Random(31)
    for _ in range(80):
        assert_chain_form_matches(random_ppta(rng))


def test_guarded_automata_match_the_references():
    rng = random.Random(37)
    hidden = [assert_chain_form_matches(guarded_ppta(rng)) for _ in range(60)]
    # the positions that are no vertex are what this set is for
    assert sum(hidden) >= 50


def test_benchmark_shaped_automata_match_the_references():
    rng = random.Random(41)
    for _ in range(3):
        assert_chain_form_matches(looping_ppta(rng, n_locations=10, n_clocks=2, max_const=4))


def test_documents_match_the_references():
    for doc in (documents.ONE_CLOCK_PPTA, documents.TWO_CLOCK_PPTA, documents.ZERO_CLOCK_PPTA):
        assert_chain_form_matches(load_ppta(doc))
    assert assert_chain_form_matches(load_ppta(documents.GUARDED_PPTA))


def ppta_document(a: PPTA) -> dict:
    """a in the timed-automaton file format."""
    clocks, locations = a.clock_names, a.location_names
    return {
        "players": a.n_players,
        "alphabet": list(a.alphabet),
        "clocks": list(clocks),
        "locations": [{"name": name, "owner": owner} for name, owner in zip(locations, a.owners)],
        "transitions": [
            {
                "from": locations[t.source],
                "letter": t.letter,
                "guard": [{"clock": clocks[c], "op": op, "const": k} for c, op, k in t.guard],
                "reset": [clocks[c] for c in sorted(t.resets)],
                "to": locations[t.target],
            }
            for t in a.transitions
        ],
        "goals": [[locations[loc] for loc in sorted(gs)] for gs in a.goals],
        "initial": locations[a.initial],
    }


def readme_automaton() -> dict:
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    return next(json.loads(block) for block in blocks if '"clocks"' in block)


def _outputs(path: Path) -> list[tuple[int, str]]:
    """Exit code and stdout of regions, of regions --output (the file), and
    of solve-timed --regions --witness --lambda."""
    results = []
    output = path.with_name("regions.json")
    for argv in (
        ["regions", str(path)],
        ["regions", str(path), "--output", str(output)],
        ["solve-timed", str(path), "--regions", "--witness", "--lambda"],
        ["solve-timed", str(path), "--witness", "--lambda", "--player", "0=lose"],
    ):
        out = io.StringIO()
        with redirect_stdout(out):
            status = cli.main(argv)
        results.append((status, out.getvalue()))
    results.append((0, output.read_text(encoding="utf-8")))
    return results


def test_cli_output_is_that_of_the_full_row_builder(tmp_path, monkeypatch):
    rng = random.Random(43)
    docs = [
        readme_automaton(),
        documents.ONE_CLOCK_PPTA,
        documents.TWO_CLOCK_PPTA,
        documents.ZERO_CLOCK_PPTA,
        documents.GUARDED_PPTA,
    ] + [ppta_document(guarded_ppta(rng)) for _ in range(8)]
    path = tmp_path / "automaton.json"
    for doc in docs:
        path.write_text(json.dumps(doc), encoding="utf-8")
        ours = _outputs(path)
        with monkeypatch.context() as patch:
            patch.setattr(
                cli, "build_region_game",
                lambda a, max_vertices=None, max_regions=None: expanded_build_region_game(a, max_vertices),
            )
            theirs = _outputs(path)
        assert ours == theirs
        assert ours[2][1].startswith(("YES\n", "NO\n"))
