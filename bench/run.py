"""Benchmark of tubevol: one command per run, one JSON result line.

    python3 bench/run.py --workload census-verify --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the directory holding ``src/``).
With ``--trace 0`` the workload's commands run as separate ``tubevol``
processes, round after round, until the timed rounds add up to
``--seconds`` (checks run between rounds, untimed); the result line carries
the end-to-end metrics.  With ``--trace 1`` one process runs every
workload's commands in-process, once traced and once not, plus probes of
single layers, and the result line carries the per-layer metrics; the
spans go to ``.bench_traces/``.  Every output of every command is checked
against values computed apart from the program (see README.md).
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import inputs
import reference as ref
from spans import Tracer
from workloads import WORKLOADS, CheckFailed, Result

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
TRACE_DIR = os.path.join(ROOT, ".bench_traces")
# the console-script entry point of ``tubevol``
ENTRY = "import sys; from tubevol.cli import main; sys.exit(main())"
# set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_MIN_S seconds, and its median reported
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
PROCESS_TIMEOUT_S = 150


class Tally:
    """Operations attempted and failed.  An operation fails when it
    crashes, exits with another code than it must, or when a check of its
    outputs fails; the last kind also makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []

    def record(self, op, res: Result) -> None:
        self.attempted += 1
        problem = None
        if res.code != op.exit_code:
            problem = f"exit code {res.code}, expected {op.exit_code}: {res.stderr.strip()[-400:]}"
        else:
            try:
                op.check(res)
            # the last three: output too malformed to parse
            except (CheckFailed, ValueError, IndexError, KeyError) as exc:
                problem = f"check failed: {exc}"
                self.wrong += 1
        if problem is not None:
            self.failed += 1
            self.messages.append(f"{op.name}: {problem}")


# ---------------------------------------------------------------------------
# Executing one command


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("TUBEVOL_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """Runs ``tubevol`` processes through ``launcher.py``, so that their
    peak RSS is theirs and not the benchmark's (see that file)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(__file__), "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.peak_rss_mb = 0.0

    def run(self, argv: list[str]) -> Result:
        request = {
            "argv": [sys.executable, "-c", ENTRY, *argv],
            "env": _child_env(),
            "timeout": PROCESS_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        self.peak_rss_mb = reply["children_peak_rss_mb"]
        return Result(reply["code"], reply["stdout"], reply["stderr"], reply["wall_s"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=PROCESS_TIMEOUT_S)
        self.proc.stdout.close()


def run_inprocess(argv: list[str], tracer: Tracer | None = None) -> Result:
    from tubevol import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            traceback.print_exc()
            code = None
    return Result(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Set-up: byte-compile the program from source, then make the inputs


def setup(workload) -> float:
    start = time.perf_counter()
    if not compileall.compile_dir(os.path.join(SRC, "tubevol"), force=True, quiet=1):
        raise RuntimeError("src/tubevol does not compile")
    workload.setup()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# End-to-end run


def timed_run(
    name: str, seed: int, seconds: float, workdir: str, launcher: Launcher
) -> tuple[dict, Tally]:
    workload = WORKLOADS[name](seed, workdir)
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        setup_times.append(setup(workload))
    tally = Tally()
    walls, per_op = [], {}
    while True:
        ops = workload.ops()
        round_start = time.perf_counter()
        results = [launcher.run(op.argv) for op in ops]
        walls.append(time.perf_counter() - round_start)
        for op, res in zip(ops, results):
            tally.record(op, res)
            per_op.setdefault(op.name, []).append(res.wall_s)
        if sum(walls) >= seconds:
            break
    print(f"workload {name}: seed {seed}, {len(walls)} round(s)")
    print(f"  setup      median {statistics.median(setup_times):.4f} s of {len(setup_times)}")
    print(f"  round wall median {statistics.median(walls):.4f} s of {[round(w, 4) for w in walls]}")
    for op_name, times in per_op.items():
        print(f"  {op_name:<11} median {statistics.median(times):.4f} s over {len(times)} process(es)")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (launcher.peak_rss_mb, "MB"),
    }
    return metrics, tally


# ---------------------------------------------------------------------------
# Traced run


# public functions wrapped with spans; per-record functions are left alone
TRACED = (
    ("census", ("ingest", "evaluate", "statistics", "write_report_csv", "synthesize",
                "write_dataset", "figure_series")),
    ("svgplot", ("render_figure",)),
    ("kleinian", ("read_presentation", "tube_radius_upper_bound")),
    ("surgery", ("read_profile", "schlafli_delta_v", "bridgeman_check")),
    ("topobounds", ("min_volume_scan",)),
)
IMPORT_MODULES = ("tubevol", "tubevol.kleinian", "tubevol.census", "tubevol.cli")
IMPORT_REPEATS = 3


def import_times() -> dict[str, float]:
    """Cumulative import time of each module, from ``-X importtime`` in a
    fresh interpreter; the median of IMPORT_REPEATS interpreters."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    code = "import " + ", ".join(IMPORT_MODULES)
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=PROCESS_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr[-400:]}")
        seen = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            _, cumulative, module = line[len("import time:") :].split("|")
            if module.strip() in samples:
                seen[module.strip()] = int(cumulative) / 1e6
        for module in IMPORT_MODULES:
            samples[module].append(seen[module])
    return {m: statistics.median(v) for m, v in samples.items()}


def _reduced_word_count(generators: int, max_length: int) -> int:
    letters = 2 * generators
    return sum(letters * (letters - 1) ** (k - 1) for k in range(1, max_length + 1))


def _layer_probes(tracer: Tracer, verify, interactive, metrics: dict) -> None:
    """Calls into single layers that no command isolates."""
    from tubevol import hypkernel, kleinian

    data = inputs.read_dataset(verify.dataset)
    tubes = [
        (vf, hypkernel.TubeData(l, r))
        for vf, l, r in zip(data["v_fill"].tolist(), data["length"].tolist(), data["radius"].tolist())
    ]
    with tracer.span("hypkernel.scalar_bounds") as s:
        for vf, tube in tubes:
            hypkernel.bound_base_B(vf, tube)
            hypkernel.factor_co(tube.radius)
            hypkernel.factor_cp(tube.radius)
    metrics["hypkernel.scalar_bounds_s"] = (_duration(s), "s")

    group = kleinian.read_presentation(interactive.group)
    for n in range(1, interactive.max_word_length + 1):
        with tracer.span(f"kleinian.search.k{n}") as search:
            kleinian.tube_radius_upper_bound(group, n)
        metrics[f"kleinian.search.k{n}_s"] = (_duration(search), "s")
    words = _reduced_word_count(len(group.generators), interactive.max_word_length)
    metrics["kleinian.search.words_per_s"] = (words / _duration(search), "1/s")

    core_axis = kleinian.axis(group.core())
    images = [
        kleinian.evaluate_word(group.generators, word).apply_to_line(core_axis)
        for word in ref.reduced_words(len(group.generators), 6)
    ]
    calls = 0
    with tracer.span("kleinian.line_distance") as s:
        while calls == 0 or time.perf_counter() - s["start"] < 0.25:
            for image in images:
                kleinian.line_distance(core_axis, image)
            calls += len(images)
    metrics["kleinian.line_distance.calls_per_s"] = (calls / _duration(s), "1/s")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def traced_run(seed: int, workdir: str) -> tuple[dict, Tally, dict]:
    metrics: dict[str, tuple[float, str]] = {}
    for module, seconds in import_times().items():
        metrics[f"import.{module.split('.')[-1]}_s"] = (seconds, "s")

    sys.path.insert(0, SRC)
    import tubevol
    from tubevol import cli  # noqa: F401  (imported before any pass is timed)

    tracer = Tracer()
    tally = Tally()
    loads = {}
    for name, cls in WORKLOADS.items():
        wdir = os.path.join(workdir, name)
        os.makedirs(wdir)
        workload = loads[name] = cls(seed, wdir)
        setup(workload)
        # passes run traced, untraced, traced: the first traced pass reads
        # the per-stage RSS of census-verify in a process that has not yet
        # held a census and gives the spans; the overhead compares the
        # untraced pass with the mean of the two traced ones around it, so
        # that effects of pass order cancel
        walls = []
        for pass_tracer in (tracer, None, Tracer()):
            if pass_tracer is not None:
                for module, attrs in TRACED:
                    for attr in attrs:
                        pass_tracer.wrap(getattr(tubevol, module), attr, f"{module}.{attr}")
            ops = workload.ops()
            start = time.perf_counter()
            try:
                results = [run_inprocess(op.argv, pass_tracer) for op in ops]
            finally:
                if pass_tracer is not None:
                    pass_tracer.uninstall()
            walls.append(time.perf_counter() - start)
            for op, res in zip(ops, results):
                tally.record(op, res)
            if pass_tracer is tracer and name == "census-verify":
                metrics["census.report_bytes"] = (os.path.getsize(workload.report), "bytes")
            if pass_tracer is tracer and name == "census-figures":
                svg = [f for f in os.listdir(workload.out_dir) if f.endswith(".svg")]
                size = sum(os.path.getsize(os.path.join(workload.out_dir, f)) for f in svg)
                metrics["svgplot.svg_bytes"] = (size, "bytes")
        traced, untraced = (walls[0] + walls[2]) / 2, walls[1]
        metrics[f"trace.overhead.{name}_s"] = (traced - untraced, "s")
        print(f"traced pass {name}: traced {traced:.4f} s (mean of two), untraced {untraced:.4f} s")

    for stage in ("ingest", "evaluate", "statistics", "write_report_csv"):
        metrics[f"census.{stage}_s"] = (tracer.total_s(f"census.{stage}", "cli.verify"), "s")
    for stage in ("ingest", "evaluate"):
        (span,) = tracer.named(f"census.{stage}", "cli.verify")
        metrics[f"census.{stage}.rss_mb"] = (span["rss_mb"], "MB")
    for stage in ("synthesize", "write_dataset"):
        metrics[f"census.{stage}_s"] = (tracer.total_s(f"census.{stage}", "cli.synthesize"), "s")
    metrics["census.figure_series_s"] = (tracer.total_s("census.figure_series", "cli.figures"), "s")
    metrics["svgplot.render_figure_s"] = (tracer.total_s("svgplot.render_figure", "cli.figures"), "s")
    for command in ("verify", "figures"):
        (span,) = tracer.named(f"cli.{command}")
        metrics[f"cli.{command}.self_s"] = (tracer.self_s(span), "s")
    metrics["topobounds.min_volume_scan_s"] = (
        tracer.total_s("topobounds.min_volume_scan", "cli.bounds"),
        "s",
    )
    for fn in ("read_profile", "schlafli_delta_v"):
        metrics[f"surgery.{fn}_s"] = (tracer.total_s(f"surgery.{fn}", "cli.surgery"), "s")

    _layer_probes(tracer, loads["census-verify"], loads["interactive"], metrics)
    return metrics, tally, {"spans": tracer.spans}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="any integer; used mod 2^32")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tubevol", "cli.py")):
        print(f"error: no program source at {SRC}/tubevol; run from a source checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    launcher = None if args.trace else Launcher()
    try:
        if args.trace:
            metrics, tally, trace = traced_run(args.seed % 2**32, workdir)
        else:
            metrics, tally = timed_run(
                args.workload, args.seed % 2**32, args.seconds, workdir, launcher
            )
    finally:
        if launcher is not None:
            launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    for message in tally.messages[:20]:
        print(f"FAILED {message}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed, **result, **trace}, handle)
        print(f"trace written to {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
