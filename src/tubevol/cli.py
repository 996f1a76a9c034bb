"""Command-line interface.

Subcommands: estimate (closed-form bounds for one (v_fill, L, R) triple),
verify (run a dataset through the bound checks), figures (emit the figure
series as CSV and SVG), tube-radius (word search over a group presentation),
surgery (cone-profile volume predictors), synthesize (generate a dataset),
bounds (volume bounds from topological invariants).

Each subcommand imports the modules it calls when it runs.

Exit codes: 0 success, 1 input error, 2 domain error (also a result beyond
binary64, named with its inputs, and a count that needs more memory than the
machine has), 3 verification failure, 141 (the shell's status for SIGPIPE,
with nothing printed) when stdout is closed early, as by ``| head``.
Numeric output is printed with 12 significant digits, and a zero as 0,
never -0.  A config file of key=value lines may supply defaults; flags
override it.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import TYPE_CHECKING

from . import hypkernel
from .errors import DomainError, IngestError, ParseError, parse_number, read_lines
from .hypkernel import Factor, TubeData

if TYPE_CHECKING:
    from . import census

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{x + 0.0:.12g}"  # + 0.0 turns -0 into 0


def _line(label: str, text: str, width: int = 18) -> None:
    """One labelled line: ``label`` padded to ``width``, a space, then ``text``."""
    print(f"{label:<{width}} {text}")


# the argparse and config types of numbers; argparse names the type in its
# messages ("invalid float value")
_FLOAT, _INT = (functools.partial(parse_number, kind=kind) for kind in (float, int))
_FLOAT.__name__, _INT.__name__ = "float", "int"


# ---------------------------------------------------------------------------
# Config file


def _apply_config(path: str, options: dict[str, argparse.Action]) -> None:
    """Make each ``key=value`` line of ``path`` the default of the flag in
    ``options`` whose dest is the key, read by the flag's type and checked
    against its choices; a flag given on the command line still wins."""
    for lineno, line in read_lines(path):
        if "=" not in line:
            raise ParseError(f"{path}: line {lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in options:
            raise ParseError(f"{path}: unknown config key {key!r}")
        action = options[key]
        try:
            value = (action.type or str)(raw.strip())
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"{value!r} is not one of {', '.join(action.choices)}")
        except ValueError as exc:
            raise ParseError(f"{path}: bad value for {key!r}: {exc}") from exc
        action.default = value


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_estimate(args) -> int:
    tube = TubeData(args.length, args.radius)
    v_fill = args.v_fill
    if not (math.isfinite(v_fill) and v_fill > 0.0):
        raise DomainError("v_fill must be positive")
    rows = [
        ("tube_volume", lambda: hypkernel.tube_volume(tube)),
        ("tube_boundary_area", lambda: hypkernel.tube_boundary_area(tube)),
        ("mean_curvature", lambda: hypkernel.mean_curvature(tube.radius)),
        ("horocusp_volume", lambda: hypkernel.horocusp_volume(tube)),
        ("B", lambda: hypkernel.bound_base_B(v_fill, tube)),
        ("C_O", lambda: hypkernel.factor_co(tube.radius)),
        ("C_P", lambda: hypkernel.factor_cp(tube.radius)),
    ]
    bound = functools.partial(hypkernel.drilled_volume_bound, v_fill, tube)
    if args.factor in ("old", "both"):
        rows.append(("V_est_old", lambda: bound(Factor.OLD)))
    if args.factor in ("perelman", "both"):
        rows.append(("V_est_perelman", lambda: bound(Factor.PERELMAN)))
    cells = _cells(rows, v_fill=v_fill, length=tube.length, radius=tube.radius)
    if args.csv:
        print(",".join(name for name, _ in cells))
        print(",".join(text for _, text in cells))
    else:
        _print_table(cells)
    return 0


def _cells(rows, **inputs) -> list[tuple[str, str]]:
    """Each (name, function) of ``rows`` with its value as text, a str as it
    is and a number by ``_fmt``.  The functions run in order; one that raises
    OverflowError is a DomainError naming its row, then ``inputs``, and once
    all have run so is the first number that is not finite."""
    values = []
    for name, function in rows:
        try:
            values.append(function())
        except OverflowError:  # math's and int-to-float's, which name no quantity
            hypkernel._finite(name, math.inf, **inputs)  # raises
    return [
        (name, value if isinstance(value, str) else _fmt(hypkernel._finite(name, value, **inputs)))
        for (name, _), value in zip(rows, values)
    ]


def _print_table(cells, width: int | None = None) -> None:
    """Each cell as a ``_line``, by default one wider than the longest name."""
    width = width or max(len(name) for name, _ in cells) + 1
    for name, text in cells:
        _line(name, text, width)


def _print_summary(stats: census.DatasetStats) -> None:
    _line("records", str(stats.count))
    _line("mean dv/(pi L)", _fmt(stats.mean_ratio))
    _line("std dv/(pi L)", _fmt(stats.std_ratio))
    _line("violations", " ".join(f"{key}={n}" for key, n in stats.violations.items()))
    _line("length range", f"[{_fmt(stats.length_range[0])}, {_fmt(stats.length_range[1])}]")
    _line("radius range", f"[{_fmt(stats.radius_range[0])}, {_fmt(stats.radius_range[1])}]")
    if stats.violations["b_le_vdrill"]:
        print(
            f"warning: B > v_drill on {stats.violations['b_le_vdrill']} record(s); "
            "this observation is not a theorem, so it never fails verification"
        )


def _evaluate_dataset(path: str, tol: float = 0.0, sink=None) -> census.Table:
    from . import census

    records = census.ingest(path, sink=sink)
    if not len(records):
        raise IngestError(["dataset contains no records"])
    return census.evaluate(records, tol=tol)


def _cmd_verify(args) -> int:
    from . import census

    if args.report == "":
        raise ParseError("the report path is empty; name a report file")
    # a worker process may format the report while ingest reads; the report
    # is opened only once every check below has passed
    with census.ReportWriter(args.tol) as writer:
        reports = _evaluate_dataset(args.dataset, args.tol, writer.sink)
        stats = census.statistics(reports)
        report_path = args.report or args.dataset + ".report.csv"
        if args.report is None and not os.path.isfile(args.dataset):
            # a pipe or a device has no directory of its own to write beside
            raise ParseError(
                f"dataset {args.dataset!r} is not a regular file; name a --report path"
            )
        if os.path.exists(report_path) and os.path.samefile(report_path, args.dataset):
            raise ParseError(f"report path {report_path!r} is the dataset; it would be overwritten")
        writer.write(reports, report_path)
    print(f"report written to {report_path}")
    _print_summary(stats)
    if stats.violations["perelman"] > 0:
        print(
            f"FAIL: {stats.violations['perelman']} record(s) violate the sharp "
            "drilled-volume bound",
            file=sys.stderr,
        )
        return 3
    print("OK: all records satisfy the sharp drilled-volume bound")
    return 0


def _cmd_figures(args) -> int:
    from . import census, svgplot

    reports = _evaluate_dataset(args.dataset)
    series = census.figure_series(
        reports,
        r_range=(args.r_min, args.r_max),
        curve_points=args.curve_points,
        bins=args.bins,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    written = []
    for fig in series.values():
        written += census.write_figure_csv(fig, args.out_dir)
        svg_path = os.path.join(args.out_dir, fig.name + ".svg")
        with open(svg_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(svgplot.render_figure(fig))
        written.append(svg_path)
    for path in written:
        print(path)
    return 0


def _cmd_tube_radius(args) -> int:
    from . import kleinian

    presentation = kleinian.read_presentation(args.presentation)
    result = kleinian.tube_radius_upper_bound(presentation, args.max_word_length)
    core_len = kleinian.complex_length(presentation.core())
    rows = [
        ("core word", lambda: presentation.core_word),
        ("core length", lambda: core_len.real),
        ("core rotation", lambda: core_len.imag),
    ]
    if result.witness is None:
        rows.append(("tube radius", lambda: "infinite (no distinct lift found)"))
    else:
        rows.append(("tube radius bound", lambda: result.radius))
        rows.append(("witness word", lambda: result.witness))
    _print_table(_cells(rows), 18)
    if result.radius == 0.0:
        print(
            f"warning: the image of the core axis under {result.witness} crosses or "
            "is asymptotic to it, so the group is not discrete or the geodesic "
            "is not simple",
            file=sys.stderr,
        )
    return 0


def _cmd_surgery(args) -> int:
    from . import surgery

    profile = surgery.read_profile(args.profile)
    result = surgery.bridgeman_check(profile)
    try:
        simpson = surgery.schlafli_delta_v(profile, "simpson")
    except DomainError:
        simpson = "n/a (needs uniform spacing and odd sample count)"
    rows = [
        ("delta_v trapezoid", lambda: result.delta_v),
        ("delta_v simpson", lambda: simpson),
        ("nz_estimate", lambda: surgery.neumann_zagier_estimate(profile.lengths[-1])),
        ("monotone", lambda: "true" if result.monotone else "false"),
        ("bound delta_v<=piL", lambda: "true" if result.bound_holds else "false"),
        ("pi_l", lambda: result.pi_l),
    ]
    if args.radius is not None:
        flag = surgery.hodgson_kerckhoff_regime(profile.lengths[-1], args.radius)
        rows.append(("hk_regime", lambda: "true" if flag else "false"))
    _print_table(_cells(rows), 18)
    return 0


def _cmd_synthesize(args) -> int:
    from . import census

    records = census.synthesize(args.count, args.seed, noise_sigma=args.noise_sigma)
    census.write_dataset(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_bounds(args) -> int:
    from . import topobounds

    if args.gromov_norm is not None and args.chi is None:
        raise ParseError("--gromov-norm needs --chi: the guts bound takes both")
    rows = []
    if args.chi is not None:
        if args.gromov_norm is not None:
            data = topobounds.GutsData(args.chi, args.gromov_norm)
            rows.append(("guts_norm_tier", lambda: topobounds.haken_double_bound(args.gromov_norm)))
            rows.append(("guts_chi_tier", lambda: topobounds.miyamoto_lower_bound(args.chi)))
            rows.append(("guts_lower_bound", lambda: topobounds.guts_lower_bound(data)))
        else:
            rows.append(("miyamoto_lower_bound", lambda: topobounds.miyamoto_lower_bound(args.chi)))
    if args.twist is not None:
        diagram = topobounds.AlternatingDiagram(args.twist)
        rows.append(("alternating_lower", lambda: topobounds.alternating_volume_window(diagram)[0]))
        rows.append(("alternating_upper", lambda: topobounds.alternating_volume_window(diagram)[1]))
    if args.double_norm is not None:
        rows.append(("haken_double_bound", lambda: topobounds.haken_double_bound(args.double_norm)))
    if args.min_scan is not None:
        rows.append(("min_volume_scan", lambda: topobounds.min_volume_scan(*args.min_scan)))
    if not rows:
        raise ParseError("supply at least one invariant (see --help)")
    _print_table(_cells(rows))
    return 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.Action]]:
    """The parser, and the flags a config file may set, keyed by dest."""
    parser = argparse.ArgumentParser(
        prog="tubevol",
        description="Volume bounds for drilling and filling geodesics in "
        "hyperbolic 3-manifolds",
    )
    parser.add_argument("--config", help="key=value file supplying defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    options = {}

    def option(subparser, flag, **kwargs):
        action = subparser.add_argument(flag, **kwargs)
        options[action.dest] = action

    est = sub.add_parser("estimate", help="closed-form bounds for one record")
    est.add_argument("v_fill", type=_FLOAT)
    est.add_argument("length", type=_FLOAT)
    est.add_argument("radius", type=_FLOAT)
    option(est, "--factor", choices=("perelman", "old", "both"), default="both")
    est.add_argument("--csv", action="store_true", help="machine-readable output")
    est.set_defaults(handler=_cmd_estimate)

    ver = sub.add_parser("verify", help="validate a dataset against every bound")
    ver.add_argument("dataset")
    option(ver, "--report", help="report CSV path (default: <dataset>.report.csv)")
    option(
        ver,
        "--tol",
        type=_FLOAT,
        default=0.0,
        help="relative slack for the inequality verdicts (default 0: exact)",
    )
    ver.set_defaults(handler=_cmd_verify)

    fig = sub.add_parser("figures", help="emit figure series CSVs and SVGs")
    fig.add_argument("dataset")
    fig.add_argument("out_dir")
    option(fig, "--bins", type=_INT, default=40)
    option(fig, "--r-min", type=_FLOAT, default=0.05)
    option(fig, "--r-max", type=_FLOAT, default=3.0)
    option(fig, "--curve-points", type=_INT, default=512)
    fig.set_defaults(handler=_cmd_figures)

    tr = sub.add_parser("tube-radius", help="search a presentation for close lifts")
    tr.add_argument("presentation")
    option(tr, "--max-word-length", type=_INT, default=3)
    tr.set_defaults(handler=_cmd_tube_radius)

    sur = sub.add_parser("surgery", help="cone-profile volume predictors")
    sur.add_argument("profile")
    option(sur, "--radius", type=_FLOAT, help="tube radius for the regime check")
    sur.set_defaults(handler=_cmd_surgery)

    syn = sub.add_parser("synthesize", help="generate a synthetic dataset")
    syn.add_argument("count", type=_INT)
    syn.add_argument("seed", type=_INT)
    syn.add_argument("out")
    option(syn, "--noise-sigma", type=_FLOAT, default=0.017)
    syn.set_defaults(handler=_cmd_synthesize)

    bnd = sub.add_parser("bounds", help="volume bounds from topological invariants")
    bnd.add_argument("--chi", type=_INT, help="Euler characteristic of guts (<= 0)")
    bnd.add_argument(
        "--gromov-norm", type=_FLOAT, help="Gromov norm of the doubled cut-open manifold"
    )
    bnd.add_argument("--twist", type=_INT, help="twist number of an alternating diagram")
    bnd.add_argument(
        "--double-norm", type=_FLOAT, help="doubled Gromov norm for the minimal-surface bound"
    )
    bnd.add_argument(
        "--min-scan",
        type=_FLOAT,
        nargs=3,
        metavar=("V_CUSPED", "RADIUS", "L_MAX"),
        help="the filled-volume bound at L_MAX, its minimum over lengths up to "
        "L_MAX: a bound on vol M only if L_MAX bounds the drilled geodesic's length",
    )
    bnd.set_defaults(handler=_cmd_bounds)
    return parser, options


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, options = _build_parser()
    # --config is read first, wherever it stands, so that its values can
    # become the defaults of the full parse
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    try:
        if known.config is not None:
            _apply_config(known.config, options)
        args = parser.parse_args(rest)
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout is gone, as under `| head`: print nothing,
        # send what stdout still buffers to devnull so the flush at exit
        # cannot fail, and give the shell's status for SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ParseError, IngestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, OverflowError) as exc:
        # inputs whose results overflow binary64 are outside the domain too;
        # math's OverflowError carries (errno, message), printed as the message
        print("domain error:", *exc.args[-1:], file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a count whose arrays the machine cannot hold is outside the domain
        reason = str(exc) or "an allocation failed"
        print(f"domain error: out of memory: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
