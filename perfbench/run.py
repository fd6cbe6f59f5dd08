"""Seeded end-to-end and per-layer benchmark of spe-reach.

Run from the root of a checkout:

    python3 perfbench/run.py --workload finite-cli --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40
    python3 perfbench/run.py --workload all --seed 1 --record-expected

With ``--trace 0`` one workload runs untraced for ``--seconds`` and the
end-to-end metrics are reported; with ``--trace 1`` each instance of a
fixed prefix of the workload runs traced and then untraced, and the
per-layer metrics are reported. ``--workload all`` does both for every
workload. Every output is checked (see check.py); the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--record-expected`` stores the outputs of every instance of
a seed in expected.json, against which later runs of that seed compare.

Workloads (inputs from gen.py, seeded by ``--seed``):

finite-cli      fixpoint-heavy: one ``spe-reach solve --witness --lambda``
                process per random 5-player game, one at a time.
timed-cli       region-heavy: one ``spe-reach solve-timed --witness``
                process per random one-player timed automaton.
finite-queries  many queries on one game: ``decide_constrained_existence``
                called under all 81 constraints per 4-player game, in one
                worker process per game.

The CLI workloads are a closed loop with one client: the next process is
spawned when the previous one has exited.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import check
import gen

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
CLI = [sys.executable, "-c", "from spe_reach.cli import entry; entry()"]
CHILD = [sys.executable, str(HERE / "child.py")]
CLI_TIMEOUT_S = 30.0
WORKER_TIMEOUT_S = 30.0  # per finite-queries game
SETUP_REPEATS = 4  # at the start and again at the end of a run

# layer time -> the span whose self time it sums
SPAN_OF = {
    "jsonio.load_s": "jsonio.load",
    "timed.region_build_s": "timed.region_build",
    "game.validate_s": "game.validate",
    "game.views_s": "game.views",
    "extended.build_s": "extended.build",
    "fixpoint.lambda_s": "fixpoint.lambda",
    "fixpoint.witness_s": "fixpoint.witness",
    "fixpoint.decide_self_s": "fixpoint.decide",
    "cli.self_s": "cli.main",
}
# every layer time, in the order they are printed; their shares sum to 1
# over the traced wall time
LAYER_TIMES = (*SPAN_OF, "trace.process_s")


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int  # distinct instances (games for finite-queries) per seed; timed runs cycle them
    traced: int  # leading instances of the pool the traced run covers
    dominant: tuple[str, ...]  # layer times expected to dominate the traced run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("finite-cli", 120, 40, ("fixpoint.lambda_s",)),
        Workload("timed-cli", 120, 40, ("timed.region_build_s", "game.views_s")),
        Workload("finite-queries", 30, 6, ("extended.build_s", "fixpoint.witness_s")),
    )
}


@dataclass
class Instance:
    index: int
    obj: dict  # the input as written
    path: Path
    words: list[str]
    args: list[str]  # spe-reach arguments; empty for finite-queries games


@dataclass
class Outcome:
    code: int
    wall: float
    rss_kb: int
    timed_out: bool
    stdout: bytes
    stderr: bytes


# metrics by name as (value, unit, sample count), the output checks, and
# the latency samples of an untraced run
Measured = tuple[dict, "Tally", list[float]]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, what: str, problems: list[str], weight: int = 1) -> None:
        self.attempted += weight
        if problems:
            self.failed += weight
            self.problems.append(f"{what}: {'; '.join(problems)}")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def spawn(argv: list[str], scratch: Path, timeout: float) -> Outcome:
    """Run argv to completion; wall time is spawn to exit, RSS from wait4."""
    out, err = scratch / "stdout", scratch / "stderr"
    created = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), created, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), created, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, ENV, file_actions=actions)
    try:
        fd = os.pidfd_open(pid)
        try:
            timed_out = not select.select([fd], [], [], timeout)[0]
        finally:
            os.close(fd)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    wall = time.perf_counter() - start
    return Outcome(
        os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss, timed_out,
        out.read_bytes(), err.read_bytes(),
    )


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop: shows host speed drift, never used to scale."""
    walls = []
    for _ in range(5):
        start = time.perf_counter()
        x = 0
        for i in range(300_000):
            x = (x + i * i) & 0xFFFF
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def measure_setup(scratch: Path, warm_up: bool) -> list[float]:
    """Fresh-process solves of a one-vertex game: interpreter start, import, parse."""
    path = scratch / "one-vertex.json"
    path.write_text(gen.dumps(gen.one_vertex_game()))
    argv = CLI + ["solve", str(path)]
    walls = []
    for k in range(SETUP_REPEATS + warm_up):
        o = spawn(argv, scratch, CLI_TIMEOUT_S)
        if o.code != 0 or o.stdout != b"YES\n":
            raise RuntimeError(f"one-vertex solve failed (exit {o.code}): {o.stderr.decode(errors='replace')[-400:]}")
        if k or not warm_up:  # a first solve only warms the bytecode and file caches
            walls.append(o.wall)
    return walls


# --- inputs ---------------------------------------------------------------


def make_pool(w: Workload, seed: int, inputs: Path) -> list[Instance]:
    inputs.mkdir(exist_ok=True)
    pool = []
    for i in range(w.pool):
        path = inputs / f"{w.name}-{i}.json"
        if w.name == "finite-queries":
            obj, words, args = gen.query_game(seed, i), [], []
        else:
            if w.name == "finite-cli":
                obj, words = gen.finite_cli_instance(seed, i)
                command, extra = "solve", ["--witness", "--lambda"]
            else:
                obj, words = gen.timed_cli_instance(seed, i)
                command, extra = "solve-timed", ["--witness"]
            flags = [f"--player={p}={word}" for p, word in enumerate(words)]
            args = [command, str(path), *flags, *extra]
        path.write_text(gen.dumps(obj))
        pool.append(Instance(i, obj, path, words, args))
    return pool


def load_expected(workload: str, seed: int) -> list[str] | None:
    if not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text()).get(workload, {}).get(str(seed))


# --- CLI workloads ----------------------------------------------------------


def judge_cli(inst: Instance, o: Outcome, expected: list[str] | None) -> list[str]:
    if o.timed_out:
        return [f"timed out after {CLI_TIMEOUT_S:g} s"]
    problems = []
    if b"Traceback" in o.stderr:
        problems.append("ended in a traceback")
    if o.code not in (0, 1):
        problems.append(f"exit code {o.code}")
    try:
        answer = check.parse_cli(o.stdout.decode())
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        return problems + [f"unparsable output: {exc}"]
    if answer.yes != (o.code == 0):
        problems.append(f"answer {'YES' if answer.yes else 'NO'} with exit code {o.code}")
    if answer.yes:
        checker = check.timed_witness_problems if inst.args[0] == "solve-timed" else check.finite_witness_problems
        problems += checker(inst.obj, inst.words, answer)
    if expected is not None and f"{o.code}:{digest(o.stdout)}" != expected[inst.index]:
        problems.append("output differs from the recorded output")
    return problems


def run_cli_timed(w: Workload, pool: list[Instance], seconds: float, scratch: Path, expected) -> Measured:
    runs: list[tuple[Instance, Outcome]] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        inst = pool[len(runs) % len(pool)]
        runs.append((inst, spawn(CLI + inst.args, scratch, CLI_TIMEOUT_S)))
    elapsed = time.perf_counter() - start
    tally = Tally()
    for inst, o in runs:
        tally.add(f"{w.name}[{inst.index}]", judge_cli(inst, o, expected))
    walls = [o.wall for _, o in runs]
    return {
        "throughput_per_s": (len(runs) / elapsed, "1/s", len(runs)),
        **latency_metrics(walls),
        "peak_rss_mb": (max(o.rss_kb for _, o in runs) / 1024, "MB", len(runs)),
    }, tally, walls


def run_cli_traced(w: Workload, pool: list[Instance], seconds: float, scratch: Path, expected) -> Measured:
    tally = Tally()
    traces, traced_walls, untraced_walls, output_bytes = [], [], [], 0
    trace_file = scratch / "trace.json"
    for inst in pool[: w.traced]:
        traced = spawn(CHILD + ["cli", str(trace_file), "--"] + inst.args, scratch, CLI_TIMEOUT_S)
        problems = judge_cli(inst, traced, expected)
        if trace_file.is_file():
            traces.append((traced.wall, json.loads(trace_file.read_text())))
            trace_file.unlink()
        else:
            problems.append("no trace written")
        tally.add(f"{w.name}[{inst.index}] traced", problems)
        traced_walls.append(traced.wall)
        output_bytes += len(traced.stdout)
        plain = spawn(CLI + inst.args, scratch, CLI_TIMEOUT_S)
        problems = judge_cli(inst, plain, expected)
        if (plain.code, plain.stdout) != (traced.code, traced.stdout):
            problems.append("untraced output differs from the traced output")
        tally.add(f"{w.name}[{inst.index}] untraced", problems)
        untraced_walls.append(plain.wall)
    return layer_metrics(traces, sum(traced_walls), sum(untraced_walls), output_bytes), tally, []


# --- finite-queries -----------------------------------------------------------


def _query_answer(line: str) -> check.Answer:
    fields = dict(part.split("=", 1) for part in line.split(" ")[1:])
    if line.startswith("NO "):
        return check.Answer(False)
    if not line.startswith("YES "):
        raise ValueError(f"malformed query line {line!r}")
    def names(joined: str) -> tuple[str, ...]:
        return tuple(joined.split(",")) if joined else ()

    gain = tuple(int(b) for b in fields["gain"].strip("()").split(","))
    return check.Answer(True, gain, names(fields["prefix"]), names(fields["cycle"]))


def judge_games(w: Workload, pool: list[Instance], o: Outcome, data: dict | None, expected, tally: Tally) -> None:
    if data is None:
        detail = "timed out" if o.timed_out else f"exit code {o.code}: {o.stderr.decode(errors='replace')[-300:]}"
        tally.add(f"{w.name} worker", [detail])
        return
    for inst, lines in zip(pool, data["games"]):
        n = len(lines)
        words = gen.all_words(inst.obj["players"])
        if n != len(words):
            tally.add(f"{w.name}[{inst.index}]", [f"{n} answers for {len(words)} queries"], len(words))
            continue
        if expected is not None and digest("\n".join(lines).encode()) != expected[inst.index]:
            tally.add(f"{w.name}[{inst.index}]", ["answers differ from the recorded answers"], n)
            continue
        for words_k, line in zip(words, lines):
            try:
                answer = _query_answer(line)
                problems = check.finite_witness_problems(inst.obj, words_k, answer) if answer.yes else []
            except (ValueError, KeyError, IndexError) as exc:
                problems = [f"unparsable answer: {exc}"]
            tally.add(f"{w.name}[{inst.index}] {'/'.join(words_k)}", problems)


def run_worker(games: list[Instance], traced: bool, scratch: Path) -> tuple[Outcome, dict | None]:
    out = scratch / "queries.json"
    out.unlink(missing_ok=True)
    argv = CHILD + ["queries", str(out), "1" if traced else "0"] + [str(g.path) for g in games]
    o = spawn(argv, scratch, WORKER_TIMEOUT_S * len(games))
    data = json.loads(out.read_text()) if o.code == 0 and out.is_file() else None
    return o, data


def run_queries_timed(w: Workload, pool: list[Instance], seconds: float, scratch: Path, expected) -> Measured:
    """One worker process per game, cycling through the pool, so every game
    starts with an empty lambda cache, as in the traced run."""
    tally = Tally()
    latencies: list[float] = []
    rss_kb = 0
    games = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        inst = pool[games % len(pool)]
        games += 1
        o, data = run_worker([inst], False, scratch)
        judge_games(w, [inst], o, data, expected, tally)
        if data is not None:
            latencies += data["latencies"]
            rss_kb = max(rss_kb, data["peak_rss_kb"])
    elapsed = time.perf_counter() - start
    if not latencies:
        return {}, tally, []
    return {
        "throughput_per_s": (len(latencies) / elapsed, "1/s", len(latencies)),
        **latency_metrics(latencies),
        "peak_rss_mb": (rss_kb / 1024, "MB", games),
    }, tally, latencies


def run_queries_traced(w: Workload, pool: list[Instance], seconds: float, scratch: Path, expected) -> Measured:
    """Each game in a traced worker and then an untraced one, so that both
    sides of the overhead ratio see the same spells of host speed."""
    tally = Tally()
    traces, traced_s, untraced_s = [], 0.0, 0.0
    for inst in pool[: w.traced]:
        traced, traced_data = run_worker([inst], True, scratch)
        judge_games(w, [inst], traced, traced_data, expected, tally)
        plain, plain_data = run_worker([inst], False, scratch)
        judge_games(w, [inst], plain, plain_data, expected, tally)
        if traced_data is None or plain_data is None:
            return {}, tally, []
        tally.add(
            f"{w.name}[{inst.index}] traced vs untraced",
            [] if traced_data["games"] == plain_data["games"] else ["untraced answers differ from the traced answers"],
        )
        traces.append((traced.wall, traced_data["trace"]))
        traced_s += traced.wall
        untraced_s += plain.wall
    return layer_metrics(traces, traced_s, untraced_s, 0), tally, []


# --- metrics --------------------------------------------------------------------


def latency_metrics(samples: list[float]) -> dict:
    n = len(samples)
    p90 = statistics.quantiles(samples, n=10)[-1] if n > 1 else samples[0]
    return {
        "latency_s_p50": (statistics.median(samples), "s", n),
        "latency_s_p90": (p90, "s", n),
    }


def layer_metrics(traces: list[tuple[float, dict]], traced_s: float, untraced_s: float, output_bytes: int) -> dict:
    """Per-layer sums over the traced processes: the self time of each
    layer's spans (their duration less that of the spans nested in them),
    and the remainder of each process's wall time (start-up and exit)."""
    self_s: defaultdict[str, float] = defaultdict(float)
    spans_per: defaultdict[str, int] = defaultdict(int)
    counts: defaultdict[str, int] = defaultdict(int)
    process_s = 0.0
    for wall, trace in traces:
        spans = trace["spans"]
        child_s = [0.0] * len(spans)
        top_s = 0.0
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
            else:
                top_s += end - start
        for (name, start, end, _), inner in zip(spans, child_s):
            self_s[name] += end - start - inner
            spans_per[name] += 1
        process_s += wall - top_s
        for key, value in trace["counts"].items():
            counts[key] += value
    times = {key: (self_s[span], spans_per[span]) for key, span in SPAN_OF.items()}
    times["trace.process_s"] = (process_s, len(traces))
    metrics = {}
    for key in LAYER_TIMES:
        value, n = times[key]
        metrics[key] = (value, "s", n)
        metrics[key[:-2] + "_share"] = (value / traced_s, "ratio", n)

    def ratio(num: str, den: str) -> tuple:
        return (counts[num] / counts[den] if counts[den] else 0.0, "ratio", counts[den])

    for key in (
        "jsonio.input_bytes", "timed.region_vertices", "timed.region_edges",
        "extended.vertices", "extended.edges", "extended.masks",
        "fixpoint.k_star", "fixpoint.lambda_steps", "fixpoint.cache_calls", "fixpoint.profiles_tried",
    ):
        metrics[key] = (counts[key], "bytes" if key.endswith("_bytes") else "count", 1)
    metrics["fixpoint.cache_hit_ratio"] = ratio("fixpoint.cache_hits", "fixpoint.cache_calls")
    metrics["fixpoint.profiles_found_ratio"] = ratio("fixpoint.profiles_found", "fixpoint.profiles_tried")
    metrics["cli.output_bytes"] = (output_bytes, "bytes", len(traces))
    metrics["trace.traced_s"] = (traced_s, "s", len(traces))
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio", len(traces))
    return metrics


def dominance(w: Workload, metrics: dict) -> str:
    layers = {k: metrics[k][0] for k in LAYER_TIMES if k != "trace.process_s"}
    expected = sum(layers[k] for k in w.dominant)
    rival = max((v, k) for k, v in layers.items() if k not in w.dominant)
    verdict = "ok" if expected > rival[0] else "NOT MET"
    return f"dominant layer {'+'.join(w.dominant)} = {expected:.4f} s vs next {rival[1]} = {rival[0]:.4f} s: {verdict}"


# --- entry point ---------------------------------------------------------------


def run_workload(w: Workload, seed: int, seconds: float, traced: bool, scratch: Path) -> tuple[dict, Tally, list[str]]:
    calib_start = calibrate()
    setup = measure_setup(scratch, warm_up=True)
    pool = make_pool(w, seed, scratch / "inputs")
    expected = load_expected(w.name, seed)
    if expected is not None and len(expected) != len(pool):
        raise RuntimeError(f"{EXPECTED.name} does not match the {w.name} pool; record the seed again")
    runners = {
        (True, False): run_queries_timed, (True, True): run_queries_traced,
        (False, False): run_cli_timed, (False, True): run_cli_traced,
    }
    runner = runners[w.name == "finite-queries", traced]
    metrics, tally, samples = runner(w, pool, seconds, scratch, expected)
    # samples from both ends of the run, so one slow spell of the host
    # cannot set them all
    setup += measure_setup(scratch, warm_up=False)
    if not traced:
        metrics["setup_s"] = (statistics.median(setup), "s", len(setup))
    calib_end = calibrate()
    notes = [
        f"host.calib_s start={calib_start:.4f} end={calib_end:.4f} (fixed loop; metrics are not scaled by it)",
        f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}",
        f"outputs checked against recorded digests: {'yes' if expected else 'no (seed not recorded)'}",
        f"failed_ratio = {tally.failed}/{tally.attempted} = {tally.failed / max(tally.attempted, 1):.4f}",
    ]
    if traced and metrics:
        shares = sum(metrics[k[:-2] + "_share"][0] for k in LAYER_TIMES)
        notes.append(f"layer shares sum to {shares:.4f} of the traced wall time")
        notes.append("wait_s: none; the solver is single-threaded, so no layer waits on another")
        notes.append(dominance(w, metrics))
    elif metrics:
        p90 = metrics["latency_s_p90"][0]
        notes.append(f"latency samples: {len(samples)}, {sum(s > p90 for s in samples)} beyond p90")
    return metrics, tally, notes


def report(w: Workload, traced: bool, metrics: dict, tally: Tally, notes: list[str]) -> None:
    print(f"== {w.name} ({'traced' if traced else 'untraced'})")
    for name, (value, unit, n) in metrics.items():
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6f}"
        print(f"  {name:32} {shown} {unit:6} n={n}")
    for note in notes:
        print(f"  {note}")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")


def record(names: list[str], seed: int, scratch: Path) -> int:
    """Store exit code and stdout digest of every pool instance as the expected output."""
    table = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    for name in names:
        w = WORKLOADS[name]
        pool = make_pool(w, seed, scratch / "inputs")
        tally = Tally()
        if name == "finite-queries":
            o, data = run_worker(pool, False, scratch)
            judge_games(w, pool, o, data, None, tally)
            digests = [digest("\n".join(lines).encode()) for lines in data["games"]] if data else []
        else:
            digests = []
            for inst in pool:
                o = spawn(CLI + inst.args, scratch, CLI_TIMEOUT_S)
                tally.add(f"{name}[{inst.index}]", judge_cli(inst, o, None))
                digests.append(f"{o.code}:{digest(o.stdout)}")
        if tally.failed:
            print("\n".join(tally.problems), file=sys.stderr)
            return 1
        table.setdefault(name, {})[str(seed)] = digests
        print(f"recorded {name} seed {seed}: {len(digests)} outputs")
    EXPECTED.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true", help="record outputs of this seed instead of measuring")
    args = parser.parse_args(argv)
    if not (SRC / "spe_reach" / "cli.py").is_file():
        print(f"error: no spe-reach sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    (ROOT / ".perfbench_run").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_run"))
    try:
        if args.record_expected:
            return record(names, args.seed, scratch)
        phases = [args.trace == 1] if args.workload != "all" else [False, True]
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            w = WORKLOADS[name]
            for traced in phases:
                metrics, tally, notes = run_workload(w, args.seed, args.seconds, traced, scratch)
                report(w, traced, metrics, tally, notes)
                result["attempted"] += tally.attempted
                result["failed"] += tally.failed
                result["correct"] &= tally.failed == 0 and bool(metrics)
                prefix = f"{name}/" if args.workload == "all" else ""
                for key, (value, unit, _) in metrics.items():
                    result["metrics"][prefix + key] = {"value": value, "unit": unit}
        print(json.dumps(result))
        return 0
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run is still using it
            pass


if __name__ == "__main__":
    sys.exit(main())
