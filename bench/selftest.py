"""Self-test of the benchmark's checks: they must catch wrong outputs.

    python3 bench/selftest.py

Run from the root of a source checkout.  Runs small versions of the three
workloads in-process, confirms that the genuine outputs pass, then makes
three kinds of wrong output and confirms that each is counted as a failed
operation:

* a verify report with one verdict flipped;
* a figure CSV missing a row;
* a tube-radius witness whose distance does not match the bound.

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
import tempfile

import reference as ref
from run import SRC, WORK_ROOT, Tally, run_inprocess
from workloads import CensusFigures, CensusVerify, Interactive


def _run_round(workload, tally: Tally) -> dict:
    results = {}
    for op in workload.ops():
        res = run_inprocess(op.argv)
        tally.record(op, res)
        results[op.name] = (op, res)
    return results


def _rewrite(path, edit) -> None:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(edit(lines)) + "\n")


def _expect_failure(label: str, op, res, failures: list) -> None:
    tally = Tally()
    tally.record(op, res)
    if tally.failed == 1 and tally.wrong == 1:
        print(f"PASS {label}: counted as failed ({tally.messages[0]})")
    else:
        print(f"FAIL {label}: not caught")
        failures.append(label)


def main() -> int:
    sys.path.insert(0, SRC)
    failures: list[str] = []
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=WORK_ROOT)
    try:
        for sub in ("v", "f", "i"):
            os.makedirs(os.path.join(work, sub))
        verify = CensusVerify(3, os.path.join(work, "v"), records=2000)
        figures = CensusFigures(3, os.path.join(work, "f"), records=500)
        interactive = Interactive(3, os.path.join(work, "i"), max_word_length=5)
        genuine = Tally()
        rounds = {}
        for wl in (verify, figures, interactive):
            wl.setup()
            rounds[wl.name] = _run_round(wl, genuine)
        if genuine.failed:
            print("FAIL genuine outputs rejected:", *genuine.messages, sep="\n  ")
            return 1
        print(f"PASS genuine outputs: {genuine.attempted} operations, none failed")

        # 1. one verdict flipped in the verify report
        op, res = rounds["census-verify"]["verify"]

        def flip(lines):
            header = lines[0].split(",")
            col = header.index("perelman_ok")
            row = lines[1].split(",")
            row[col] = "false" if row[col] == "true" else "true"
            return [lines[0], ",".join(row)] + lines[2:]

        _rewrite(verify.report, flip)
        _expect_failure("report with one verdict flipped", op, res, failures)

        # 2. a figure CSV missing a row
        op, res = rounds["census-figures"]["figures"]
        _rewrite(os.path.join(figures.out_dir, "fig_overshoot.csv"), lambda ls: ls[:-1])
        _expect_failure("figure CSV missing a row", op, res, failures)

        # 3. a witness whose distance does not match the printed bound
        op, res = rounds["interactive"]["tube-radius"]
        lines = res.stdout.splitlines()
        witness = next(line.split()[-1] for line in lines if line.startswith("witness"))
        bound = ref.mpf(next(line.split()[-1] for line in lines if line.startswith("tube radius")))
        for other in ref.reduced_words(len(interactive.generators), 2):
            d = ref.lift_distance(interactive.generators, interactive.core_word, other)
            if d is not None and abs(d - 2 * bound) > 1e-6:
                break
        stdout = res.stdout.replace(f"witness word       {witness}", f"witness word       {other}")
        wrong = dataclasses.replace(res, stdout=stdout)
        _expect_failure(f"witness {other!r} in place of {witness!r}", op, wrong, failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
