"""Show that each output check accepts real output and rejects a corrupted one.

    python3 perfbench/selftest.py

Runs one job of every workload at the benchmark's default seed, checks its
real outputs, then checks them again after each corruption: a flipped
digit in ``gen --digits`` output, a printed wce^2 perturbed by 1e-6
relative, a search bound perturbed by 1e-6 relative, and a dropped
experiment row.  Exits 1 if a check accepts a corruption or rejects the
real output.
"""

from __future__ import annotations

import csv
import io
import shutil
import sys

import run


def flip_digit(texts):
    rows = list(csv.reader(io.StringIO(texts[0])))
    field = rows[100][-1]
    rows[100][-1] = field[:2] + str(1 - int(field[2])) + field[3:]
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return [out.getvalue()] + texts[1:]


def perturb_bound(texts):
    rows = list(csv.reader(io.StringIO(texts[0])))
    col = rows[0].index("bound")
    rows[1][col] = "%.17g" % (float(rows[1][col]) * (1 + 1e-6))
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return [out.getvalue()] + texts[1:]


def perturb_wce(texts):
    return texts[:1] + ["%.17g\n" % (float(texts[1]) * (1 + 1e-6))]


def drop_row(texts):
    lines = texts[0].splitlines(keepends=True)
    return ["".join(ln for ln in lines if not ln.startswith("7,"))] + texts[1:]


CASES = {"points": [flip_digit, perturb_wce], "search-greedy": [perturb_bound],
         "experiment": [drop_row]}


def main():
    sys.path.insert(0, str(run.SRC))
    launcher = run.Launcher()
    d = run.WORK / "selftest"
    d.mkdir(parents=True, exist_ok=True)
    failures = 0
    try:
        for name, corruptions in CASES.items():
            calls, check = run.WORKLOADS[name](run.DEFAULT_SEED, d)
            texts = []
            for argv, out in calls:
                stdout = d / "call.stdout"
                *_, code = launcher.run(
                    [sys.executable, "-m", "tentqmc.cli"] + argv, stdout)
                if code:
                    raise SystemExit(f"{name}: {argv[0]} exited {code}")
                texts.append((out or stdout).read_text())
            good = check(texts)
            failures += bool(good)
            print(f"{'FAIL' if good else 'ok  '} {name}: real output "
                  f"{good or 'accepted'}")
            for corrupt in corruptions:
                bad = check(corrupt(texts))
                failures += not bad
                print(f"{'ok  ' if bad else 'FAIL'} {name}: {corrupt.__name__} "
                      f"{'rejected: ' + bad[0] if bad else 'accepted'}")
    finally:
        launcher.close()
        shutil.rmtree(d, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
