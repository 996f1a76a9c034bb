"""The three workloads: their inputs, their command sequences, and the
checks of every output.

A workload's ``setup`` writes the input files and computes, apart from the
program (``reference`` and numpy), everything the checks compare against.
``ops`` lists one round of commands; each ``Op`` carries the ``tubevol``
arguments, the exit code it must return and a check of its outputs that
raises ``CheckFailed``.  Nothing here imports ``tubevol``: the same ops run
as separate processes (end-to-end runs) or in-process (traced run).
"""

from __future__ import annotations

import math
import os
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import inputs
import reference as ref


class CheckFailed(Exception):
    """An output of the program disagrees with the expected value."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Result:
    """What one command left behind."""

    code: int | None
    stdout: str
    stderr: str
    wall_s: float


@dataclass
class Op:
    name: str
    argv: list[str]
    exit_code: int
    check: Callable[[Result], None] = field(repr=False)


def _field(stdout: str, label: str) -> str:
    """The value printed after ``label`` on its own line."""
    for line in stdout.splitlines():
        if line.startswith(label):
            return line[len(label) :].strip()
    raise CheckFailed(f"no line starting with {label!r} in output")


def _read_rows(path) -> tuple[list[str], list[list[str]]]:
    require(os.path.exists(path), f"missing output file {path}")
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    require(bool(lines), f"{path} is empty")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _column(header, rows, name) -> list[str]:
    require(name in header, f"column {name!r} missing")
    i = header.index(name)
    return [row[i] for row in rows]


def _certain_verdicts(margins: dict[str, np.ndarray], exact_row) -> dict[str, np.ndarray]:
    """Verdicts from binary64 relative margins where the margin exceeds the
    1e-9 rounding allowance (these numpy expressions are accurate to about
    1e-14), and from the exact ``reference`` evaluation elsewhere."""
    verdicts = {key: m >= 0.0 for key, m in margins.items()}
    unsure = np.zeros(next(iter(margins.values())).shape, dtype=bool)
    for m in margins.values():
        unsure |= np.abs(m) < 1e-9
    for i in np.flatnonzero(unsure):
        exact = exact_row(int(i))
        for key in verdicts:
            verdicts[key][i] = bool(exact[key])
    return verdicts


def _margins(cols) -> dict[str, np.ndarray]:
    vf, vd, length, radius = cols["v_fill"], cols["v_drill"], cols["length"], cols["radius"]
    b = vf + np.pi * length * np.sinh(radius) ** 2 / np.cosh(2.0 * radius)
    coth_2r = 1.0 / np.tanh(2.0 * radius)
    sharp = coth_2r**3 * b
    old = (coth_2r / np.tanh(radius)) ** 1.5 * b
    bridge = vf + np.pi * length
    return {
        "perelman_ok": (sharp - vd) / sharp,
        "old_ok": (old - vd) / old,
        "bridgeman_ok": (bridge - vd) / bridge,
        "b_le_vdrill": (vd - b) / vd,
    }


def _ratio_stats(cols) -> tuple[float, float]:
    ratio = (cols["v_drill"] - cols["v_fill"]) / (np.pi * cols["length"])
    mean = math.fsum(ratio.tolist()) / ratio.size
    var = math.fsum(((ratio - mean) ** 2).tolist()) / (ratio.size - 1)
    return mean, math.sqrt(var)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# census-verify


class CensusVerify:
    """One ``tubevol verify`` over a generated census with planted
    violators of each of the four inequalities."""

    name = "census-verify"
    SAMPLE_ROWS = 64

    def __init__(self, seed: int, workdir: str, records: int = 200_000):
        self.seed, self.records = seed, records
        self.dataset = os.path.join(workdir, "census.csv")
        self.report = os.path.join(workdir, "census.report.csv")

    def setup(self) -> None:
        data = inputs.census_dataset(self.dataset, self.seed, self.records)
        cols = self.cols = data

        def exact(i):
            return ref.record_report(
                cols["v_fill"][i], cols["v_drill"][i], cols["length"][i], cols["radius"][i]
            )

        margins = _margins(cols)
        self.verdicts = _certain_verdicts(margins, exact)
        self.hk_regime = (cols["length"] <= 0.16) & (cols["radius"] >= 0.66)
        rng = random.Random(f"sample-{self.seed}")
        clean = rng.sample(range(self.records), self.SAMPLE_ROWS * 2)
        clean = [i for i in clean if i not in data["planted"]][: self.SAMPLE_ROWS]
        # exact report rows for every planted record and a seeded sample
        self.exact_rows = {i: exact(i) for i in sorted(set(data["planted"]) | set(clean))}
        # planted rows are decided exactly; every other row is clean by a
        # margin far beyond rounding, so the tallies are the exact ones
        for i in data["planted"]:
            for flag in ref.VERDICT_COLUMNS:
                self.verdicts[flag][i] = self.exact_rows[i][flag]
        self.tallies = {
            key: int(np.count_nonzero(~self.verdicts[flag]))
            for key, flag in zip(("perelman", "old", "bridgeman", "b_le_vdrill"), ref.VERDICT_COLUMNS)
        }
        expected = {
            "perelman": inputs.PLANTED["perelman_only"] + inputs.PLANTED["old"],
            "old": inputs.PLANTED["old"],
            "bridgeman": inputs.PLANTED["bridgeman_only"] + inputs.PLANTED["old"],
            "b_le_vdrill": inputs.PLANTED["b_le_vdrill_only"],
        }
        if self.tallies != expected:
            raise RuntimeError(f"generator planted {self.tallies}, meant {expected}")
        self.mean, self.std = _ratio_stats(cols)

    def ops(self) -> list[Op]:
        argv = ["verify", self.dataset, "--report", self.report]
        return [Op("verify", argv, 3, self.check)]

    def check(self, res: Result) -> None:
        out = res.stdout
        require(_field(out, "records") == str(self.records), "record count")
        tallies = dict(kv.split("=") for kv in _field(out, "violations").split())
        for key, want in self.tallies.items():
            require(tallies.get(key) == str(want), f"{key} tally {tallies.get(key)} != {want}")
        require(
            ref.agrees(_field(out, "mean dv/(pi L)"), self.mean), "mean dv/(pi L) disagrees"
        )
        require(
            ref.agrees(_field(out, "std dv/(pi L)"), self.std, ulps=1024),
            "std dv/(pi L) disagrees",
        )
        for label, col in (("length range", "length"), ("radius range", "radius")):
            want = f"[{_fmt(self.cols[col].min())}, {_fmt(self.cols[col].max())}]"
            require(_field(out, label) == want, f"{label} {_field(out, label)} != {want}")
        require(f"FAIL: {self.tallies['perelman']} record(s)" in res.stderr, "FAIL line")

        header, rows = _read_rows(self.report)
        require(len(rows) == self.records, f"report has {len(rows)} rows")
        require(_column(header, rows, "name") == self.cols["names"], "report names/order")
        for flag in ref.VERDICT_COLUMNS:
            got = np.array(_column(header, rows, flag)) == "true"
            bad = np.flatnonzero(got != self.verdicts[flag])
            require(bad.size == 0, f"{flag} wrong on {bad.size} rows, first row {bad[:1]}")
        got = np.array(_column(header, rows, "hk_regime")) == "true"
        require(bool(np.all(got == self.hk_regime)), "hk_regime column")
        index = {name: i for i, name in enumerate(header)}
        for i, exact in self.exact_rows.items():
            row = rows[i]
            for col in (
                "b",
                "c_o",
                "c_p",
                "v_est_old",
                "v_est_perelman",
                "overshoot_old",
                "overshoot_perelman",
                "delta_v",
                "dv_over_pi_l",
                "b_over_vdrill",
            ):
                printed = row[index[col]]
                scale = exact["_scale"].get(col)
                require(ref.agrees(printed, exact[col], scale), f"row {i} {col}={printed}")


# ---------------------------------------------------------------------------
# census-figures


class CensusFigures:
    """``tubevol synthesize`` then ``tubevol figures`` on the file it wrote."""

    name = "census-figures"
    NOISE_SIGMA = 0.017
    R_RANGE = (0.05, 3.0)
    CURVE_POINTS = 512
    BINS = 40

    def __init__(self, seed: int, workdir: str, records: int = 25_709):
        self.seed, self.records = seed, records
        self.dataset = os.path.join(workdir, "synthetic.csv")
        self.out_dir = os.path.join(workdir, "figures")

    def setup(self) -> None:
        grid = np.linspace(self.R_RANGE[0], self.R_RANGE[1], self.CURVE_POINTS)
        self.grid = grid
        co = [ref.factor_co(r) for r in grid.tolist()]
        cp = [ref.factor_cp(r) for r in grid.tolist()]
        self.curves = {
            "co_over_cp": [o / p for o, p in zip(co, cp)],
            "inv_c_p": [1 / p for p in cp],
            "inv_c_o": [1 / o for o in co],
        }
        self.std_model = float(ref.clipped_normal_std(self.NOISE_SIGMA))

    def ops(self) -> list[Op]:
        lo, hi = self.R_RANGE
        synth = [
            "synthesize",
            str(self.records),
            str(self.seed),
            self.dataset,
            "--noise-sigma",
            repr(self.NOISE_SIGMA),
        ]
        figs = [
            "figures",
            self.dataset,
            self.out_dir,
            "--bins",
            str(self.BINS),
            "--r-min",
            repr(lo),
            "--r-max",
            repr(hi),
            "--curve-points",
            str(self.CURVE_POINTS),
        ]
        return [
            Op("synthesize", synth, 0, self.check_synthesize),
            Op("figures", figs, 0, self.check_figures),
        ]

    def check_synthesize(self, res: Result) -> None:
        cols = inputs.read_dataset(self.dataset)
        n = len(cols["names"])
        require(n == self.records, f"synthesized {n} records")
        require(len(set(cols["names"])) == n, "duplicate names")
        vf, vd = cols["v_fill"], cols["v_drill"]
        require(bool(np.all((vf > 0) & (vd > vf))), "0 < v_fill < v_drill violated")

        def exact(i):
            return ref.record_report(vf[i], vd[i], cols["length"][i], cols["radius"][i])

        margins = {"perelman_ok": _margins(cols)["perelman_ok"]}
        sharp = _certain_verdicts(margins, exact)["perelman_ok"]
        require(bool(np.all(sharp)), f"{np.count_nonzero(~sharp)} rows break the sharp bound")
        # dv / (pi L) = 1/2 + eps with eps ~ N(0, sigma^2) clipped at 3 sigma;
        # allow six standard errors each way
        mean, std = _ratio_stats(cols)
        se_mean = self.std_model / math.sqrt(n)
        se_std = self.std_model / math.sqrt(2 * (n - 1))
        require(abs(mean - 0.5) <= 6 * se_mean, f"mean dv/(pi L) {mean} outside noise band")
        require(abs(std - self.std_model) <= 6 * se_std, f"std dv/(pi L) {std} outside band")
        require(_field(res.stdout, "wrote") == f"{n} records to {self.dataset}", "stdout")

    def check_figures(self, res: Result) -> None:
        cols = inputs.read_dataset(self.dataset)
        zoom = [i for i, r in enumerate(cols["radius"].tolist()) if r >= 0.6]
        names = {
            "fig_overshoot": cols["names"],
            "fig_b_over_vdrill": cols["names"],
            "fig_dv_over_pil": cols["names"],
            "fig_overshoot_zoom": [cols["names"][i] for i in zoom],
        }
        listed = set(res.stdout.split())
        for fig, want in names.items():
            path = os.path.join(self.out_dir, fig + ".csv")
            require(path in listed, f"{path} not listed")
            header, rows = _read_rows(path)
            require(len(rows) == len(want), f"{fig}.csv has {len(rows)} rows, want {len(want)}")
            require(_column(header, rows, "name") == want, f"{fig}.csv names/order")
        ratio = [float(v) for v in self._check_curve("fig_ratio_curve.csv", ("co_over_cp",))[0]]
        require(all(b < a for a, b in zip(ratio, ratio[1:])), "ratio curve not decreasing")
        self._check_curve("fig_b_over_vdrill_curves.csv", ("inv_c_p", "inv_c_o"))
        _, rows = _read_rows(os.path.join(self.out_dir, "fig_dv_over_pil_hist.csv"))
        require(len(rows) == self.BINS, f"{len(rows)} histogram bins")
        require(sum(int(r[2]) for r in rows) == self.records, "histogram counts")
        circles = {fig: len(want) for fig, want in names.items()}
        circles["fig_ratio_curve"] = 0
        for fig, want in circles.items():
            path = os.path.join(self.out_dir, fig + ".svg")
            require(path in listed, f"{path} not listed")
            try:
                root = ET.parse(path).getroot()
            except ET.ParseError as exc:
                raise CheckFailed(f"{fig}.svg does not parse: {exc}") from exc
            got = sum(1 for el in root.iter() if el.tag.rsplit("}", 1)[-1] == "circle")
            require(got == want, f"{fig}.svg has {got} circles, want {want}")

    def _check_curve(self, filename, labels) -> list[list[str]]:
        header, rows = _read_rows(os.path.join(self.out_dir, filename))
        require(len(rows) == self.CURVE_POINTS, f"{filename} has {len(rows)} rows")
        xs = _column(header, rows, "x")
        require(all(map(ref.agrees, xs, self.grid.tolist())), f"{filename} x grid")
        out = []
        for label in labels:
            values = _column(header, rows, label)
            for v, exact in zip(values, self.curves[label]):
                require(ref.agrees(v, exact), f"{filename} {label}={v}, exact {exact}")
            out.append(values)
        return out


# ---------------------------------------------------------------------------
# interactive


ESTIMATE_ROWS = (
    "tube_volume",
    "tube_boundary_area",
    "mean_curvature",
    "horocusp_volume",
    "B",
    "C_O",
    "C_P",
    "V_est_old",
    "V_est_perelman",
)


class Interactive:
    """One-shot commands, each a fresh process: several ``estimate``
    calls, ``bounds --min-scan``, ``surgery`` and ``tube-radius``."""

    name = "interactive"
    ESTIMATES = 4
    BRUTE_FORCE_LENGTH = 4

    def __init__(self, seed: int, workdir: str, max_word_length: int = 9):
        self.seed, self.max_word_length = seed, max_word_length
        self.group = os.path.join(workdir, "group.txt")
        self.profile = os.path.join(workdir, "profile.csv")

    def setup(self) -> None:
        self.triples = inputs.estimate_triples(self.seed, self.ESTIMATES)
        self.estimates = [ref.tube_quantities(*t) for t in self.triples]
        self.scan = inputs.min_scan_args(self.seed)
        v, r, l_max = self.scan
        # the bound decreases in L, so the scan's minimum sits at L = L_MAX
        self.scan_min = ref.filled_volume_bound(v, l_max, r)
        self.scan_scale = ref.mpf(v) / ref.factor_cp(r) + abs(self.scan_min)
        self.profile_radius = random.Random(f"radius-{self.seed}").uniform(0.5, 0.9)
        angles, lengths = inputs.cone_profile(self.profile, self.seed)
        self.lengths = lengths
        self.delta_v = ref.trapezoid_half_integral(angles, lengths)
        inputs.group_presentation(self.group, self.seed)
        gens, self.core_word = inputs.read_group(self.group)
        self.generators = [ref.normalized(g) for g in gens]
        core = ref.word_matrix(self.generators, self.core_word)
        self.core_length = ref.complex_length(core).real
        self.brute_min = ref.brute_force_min_distance(
            self.generators, self.core_word, self.BRUTE_FORCE_LENGTH
        )

    def ops(self) -> list[Op]:
        ops = []
        for k, triple in enumerate(self.triples):
            argv = ["estimate"] + [repr(x) for x in triple]
            if k % 2:
                argv.append("--csv")
            ops.append(Op("estimate", argv, 0, self._estimate_check(k, k % 2 == 1)))
        v, r, l_max = self.scan
        ops.append(
            Op("bounds", ["bounds", "--min-scan", repr(v), repr(r), repr(l_max)], 0, self.check_bounds)
        )
        ops.append(
            Op(
                "surgery",
                ["surgery", self.profile, "--radius", repr(self.profile_radius)],
                0,
                self.check_surgery,
            )
        )
        ops.append(
            Op(
                "tube-radius",
                ["tube-radius", self.group, "--max-word-length", str(self.max_word_length)],
                0,
                self.check_tube_radius,
            )
        )
        return ops

    def _estimate_check(self, k: int, csv: bool):
        exact = self.estimates[k]

        def check(res: Result) -> None:
            lines = res.stdout.splitlines()
            if csv:
                require(len(lines) == 2, "estimate --csv prints two lines")
                rows = dict(zip(lines[0].split(","), lines[1].split(",")))
            else:
                rows = dict(line.split() for line in lines)
            require(sorted(rows) == sorted(ESTIMATE_ROWS), f"estimate rows {sorted(rows)}")
            for name in ESTIMATE_ROWS:
                require(ref.agrees(rows[name], exact[name]), f"estimate {name}={rows[name]}")

        return check

    def check_bounds(self, res: Result) -> None:
        value = _field(res.stdout, "min_volume_scan")
        require(ref.agrees(value, self.scan_min, self.scan_scale), f"min_volume_scan={value}")

    def check_surgery(self, res: Result) -> None:
        out = res.stdout
        final = self.lengths[-1]
        pi_l = ref.PI * ref.mpf(final)
        require(ref.agrees(_field(out, "delta_v trapezoid"), self.delta_v), "delta_v")
        require(_field(out, "delta_v simpson").startswith("n/a"), "simpson must not apply")
        require(ref.agrees(_field(out, "nz_estimate"), pi_l / 2), "nz_estimate")
        require(_field(out, "monotone") == "true", "profile is monotone")
        require(_field(out, "bound delta_v<=piL") == ("true" if self.delta_v <= pi_l else "false"), "bound")
        require(ref.agrees(_field(out, "pi_l"), pi_l), "pi_l")
        regime = final <= 0.16 and self.profile_radius >= 0.66
        require(_field(out, "hk_regime") == ("true" if regime else "false"), "hk_regime")

    def check_tube_radius(self, res: Result) -> None:
        out = res.stdout
        require(_field(out, "core word") == self.core_word, "core word")
        require(ref.agrees(_field(out, "core length"), self.core_length, ulps=4096), "core length")
        bound = ref.mpf(_field(out, "tube radius bound"))
        witness = _field(out, "witness word")
        require(bound > 0, f"tube radius bound {bound} is not positive")
        require(
            ref.is_reduced(witness, len(self.generators)) and len(witness) <= self.max_word_length,
            f"witness {witness!r} is not a reduced word of length <= {self.max_word_length}",
        )
        d = ref.lift_distance(self.generators, self.core_word, witness)
        require(d is not None, f"witness {witness!r} stabilizes the core axis")
        # binary64 products of up to 9 matrices with entries of order 10^2
        # carry absolute errors far below this allowance
        tol = ref.mpf("1e-9") * (1 + d)
        require(abs(2 * bound - d) <= tol, f"2 * bound {2 * bound} != distance {d} of {witness}")
        require(
            2 * bound <= self.brute_min + tol,
            f"bound {bound} exceeds half the brute-force minimum {self.brute_min}",
        )


WORKLOADS = {cls.name: cls for cls in (CensusVerify, CensusFigures, Interactive)}

