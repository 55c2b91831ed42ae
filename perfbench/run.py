"""Rankability benchmark: run one workload for one seed, print one result.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the program from
``src/``. Every command is a closed loop: one caller, one command at a
time. ``tables`` and ``bnb-large`` call ``rankability.cli.main`` in this
process with stdout captured; ``seasons`` runs ``rankability season`` and
``rankability ratings`` as subprocesses. A run measures a fixed number of
instance sets (see Workload.rounds), each on inputs no earlier one used.
Times are reference seconds (see reference.py): each call's wall time
scaled by how fast a fixed loop ran during that call, so that the host
slowing down does not read as the program slowing down.

With ``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` it holds the per-layer metrics: the
first instance set is run once to warm up, then alternately untraced and
traced (spans from tracing.py, seasons commands in process), times are
medians over the traced passes, counts come from one pass and must repeat
exactly in the others, and ``trace.overhead_s`` is traced minus untraced
reference seconds. ``--out FILE`` appends the result, with the per-command
breakdown, as one JSON line for compare.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.checks import check, load_records  # noqa: E402
from perfbench.reference import CHILD_ENTRY, IMPORT_ENTRY, Sampler, reported, scaled  # noqa: E402
from perfbench.tracing import Tracer, calls_under, summarize  # noqa: E402
from perfbench.workloads import SECONDS_PER_ROUND, WORKLOADS, Workload  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"
COMMAND_TIMEOUT_S = 170
IMPORT_REPEATS = 15
SETUP_REPEATS = 5
# Untraced/traced pass pairs of a traced run, at most.
TRACE_PAIRS = 3

LAYER_METRICS = (
    # (metric, unit, span, field); span None marks a derived metric.
    ("lop.heuristic_ranking.s", "s", "lop.heuristic_ranking", "s"),
    ("lop.heuristic_ranking.calls", "count", "lop.heuristic_ranking", "calls"),
    ("lop.solve_lop.self_s", "s", "lop.solve_lop", "self_s"),
    ("lop.solve_lop.calls", "count", "lop.solve_lop", "calls"),
    ("lop.solve_lop.nodes", "count", "lop.solve_lop", "nodes"),
    ("lop.solve_lop.pruned", "count", "lop.solve_lop", "pruned"),
    ("lop.prune_ratio", "ratio", None, None),
    ("lop.enumerate_optima.self_s", "s", "lop.enumerate_optima", "self_s"),
    ("lop.enumerate_optima.calls", "count", "lop.enumerate_optima", "calls"),
    ("lop.optima", "count", "lop.enumerate_optima", "optima"),
    ("ktdiam.solve_kt.s", "s", "ktdiam.solve_kt", "s"),
    ("ktdiam.solve_kt.calls", "count", "ktdiam.solve_kt", "calls"),
    ("sports.season_report.self_s", "s", "sports.season_report", "self_s"),
    ("sports.season_report.calls", "count", "sports.season_report", "calls"),
    ("sports.lop_calls_per_season", "ratio", None, None),
    ("rating.colley_ratings.s", "s", "rating.colley_ratings", "s"),
    ("rating.massey_ratings.s", "s", "rating.massey_ratings", "s"),
    ("sports.read_games_csv.s", "s", "sports.read_games_csv", "s"),
    ("sports.build_win_matrix.s", "s", "sports.build_win_matrix", "s"),
    ("sports.accuracy.s", "s", "sports.accuracy", "s"),
    ("core.read_matrix_csv.s", "s", "core.read_matrix_csv", "s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("trace.overhead_s", "s", None, None),
)
COUNT_FIELDS = ("calls", "nodes", "pruned", "optima")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT))))


def argv_for(job) -> list[str]:
    argv = [job.command, "--input", str(job.path)]
    return argv + ["--format", "json"] if job.command == "season" else argv


def run_in_process(job) -> tuple[int, str, float]:
    """Exit code, stdout and the reference loop's median seconds."""
    import rankability.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            Sampler() as sampler:
        try:
            code = rankability.cli.main(argv_for(job))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue(), sampler.median()


def run_subprocess(job) -> tuple[int, str, float]:
    """As run_in_process, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_ENTRY, *argv_for(job)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=COMMAND_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, reported(proc.stderr)


class Tally:
    """Commands attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: 10 - len(self.problems)])


def run_round(jobs, runner, records, tally: Tally) -> list[tuple[str, float, float]]:
    """Run one instance set's commands: (command, reference s, wall s) each."""
    times = []
    for job in jobs:
        start = time.perf_counter()
        try:
            code, stdout, loop_s = runner(job)
        except Exception:  # a crash fails the command; the run goes on
            code, stdout, loop_s = -1, traceback.format_exc(), None
        wall = time.perf_counter() - start
        times.append((job.command, scaled(wall, loop_s) if loop_s else wall, wall))
        tally.add(check(job, code, stdout, records))
    return times


def measure_setup(workload_name: str, seed: int, tmp: Path) -> dict[str, float]:
    """Package import in a fresh interpreter plus input generation, medians."""
    imports = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_ENTRY], cwd=ROOT, env=child_env(),
            check=True, timeout=COMMAND_TIMEOUT_S, capture_output=True, text=True,
        )
        imports.append(scaled(time.perf_counter() - start, reported(proc.stderr)))
    gens = []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        with Sampler() as sampler:
            Workload(workload_name, seed).write_round(0, tmp / f"setup{k}")
        gens.append(scaled(time.perf_counter() - start, sampler.median()))
    return {"import_s": statistics.median(imports), "inputs_s": statistics.median(gens)}


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def measure(workload, seconds: float, tmp: Path, records, tally: Tally):
    """Untraced run: end-to-end metrics and the per-command breakdown.

    Seconds are per instance set: the mean over the run's rounds.
    """
    runner = run_subprocess if workload.name == "seasons" else run_in_process
    rounds = workload.rounds(seconds)
    per_command: dict[str, float] = {}
    wall = 0.0
    for r in range(rounds):
        jobs = workload.write_round(r, tmp / f"r{r}")
        for command, ref_s, wall_s in run_round(jobs, runner, records, tally):
            per_command[command] = per_command.get(command, 0.0) + ref_s / rounds
            wall += wall_s / rounds
    breakdown = {f"{cmd}_s": (v, "s") for cmd, v in per_command.items()}
    breakdown["wall_total_s"] = (wall, "s")
    breakdown["rounds"] = (rounds, "count")
    return {"total_s": (sum(per_command.values()), "s")}, breakdown


def measure_traced(workload, seconds: float, tmp: Path, records, tally: Tally) -> dict:
    """Traced run over the first instance set: per-layer metrics."""
    jobs = workload.write_round(0, tmp / "r0")
    tracer = Tracer()
    untraced, traced, summaries = [], [], []
    pairs = max(1, min(TRACE_PAIRS, int(seconds // (2 * SECONDS_PER_ROUND[workload.name]))))
    run_round(jobs, run_in_process, records, tally)  # warm-up, so no pass runs cold
    for _ in range(pairs):
        untraced.append(sum(t for _, t, _ in run_round(jobs, run_in_process, records, tally)))
        tracer.run_id = len(traced)
        tracer.install()
        try:
            traced.append(sum(t for _, t, _ in run_round(jobs, run_in_process, records, tally)))
        finally:
            tracer.uninstall()
        summaries.append(summarize(tracer.spans, tracer.run_id))
    tracer.write(tmp.parent / f"spans-{workload.name}-{workload.seed}.jsonl")

    def counts(summary):
        return {(n, f): v.get(f) for n, v in summary.items() for f in COUNT_FIELDS}

    if any(counts(s) != counts(summaries[0]) for s in summaries[1:]):
        tally.add(["counts differ between traced passes of the same inputs"])

    first = summaries[0]
    metrics = {}
    for name, unit, span, fld in LAYER_METRICS:
        if span is None:
            continue
        if fld in COUNT_FIELDS:
            value = int(first.get(span, {}).get(fld, 0))
        else:
            value = statistics.median(s.get(span, {}).get(fld, 0.0) for s in summaries)
        metrics[name] = (value, unit)
    nodes = metrics["lop.solve_lop.nodes"][0]
    pruned = metrics["lop.solve_lop.pruned"][0]
    seasons = metrics["sports.season_report.calls"][0]
    in_seasons = calls_under(tracer.spans, 0, "lop.solve_lop", "sports.season_report")
    metrics["lop.prune_ratio"] = (pruned / (nodes + pruned) if nodes + pruned else 0.0, "ratio")
    metrics["sports.lop_calls_per_season"] = (in_seasons / seasons if seasons else 0.0, "ratio")
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced), "s"
    )
    return {name: metrics[name] for name, *_ in LAYER_METRICS}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="append the result here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rankability" / "__init__.py").is_file():
        sys.stderr.write(f"no program source at {SRC / 'rankability'}; run from a checkout\n")
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {WORKLOADS}\n")
        return 2
    import rankability.cli  # noqa: F401  imported before timing; setup_s counts it

    records = load_records()
    tally = Tally()
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=WORK) as tmpdir:
        tmp = Path(tmpdir)
        workload = Workload(args.workload, args.seed)
        if args.trace:
            metrics = measure_traced(workload, args.seconds, tmp, records, tally)
            extra = {}
        else:
            setup = measure_setup(args.workload, args.seed, tmp)
            metrics, extra = measure(workload, args.seconds, tmp, records, tally)
            metrics["setup_s"] = (setup["import_s"] + setup["inputs_s"], "s")
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
            extra.update({k: (v, "s") for k, v in setup.items()})
        extra["error_rate"] = (tally.failed / max(tally.attempted, 1), "ratio")

    for problem in tally.problems:
        sys.stderr.write(f"check failed: {problem}\n")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload:10s} {name:32s} {value:14.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out is not None:
        line = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                    extra={k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
