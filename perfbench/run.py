"""Benchmark of the ``tentqmc`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A job is a fixed series of ``python -m tentqmc.cli ...`` calls, each in a
fresh interpreter, started one after another by this process: a closed
loop with one client, which is how a batch command line is used.  Every
input file is generated from ``--seed``; all jobs of a run share them.
Jobs repeat while the next one should still end within ``--seconds`` of
wall time spent in calls, if it took as long as the longest so far (at
least one job), and every job's outputs are
checked by ``checks.py``.

With ``--trace 0`` the end-to-end metrics come from each child's wall
clock and ``wait4`` resource usage.  With ``--trace 1`` untraced jobs
alternate with jobs whose calls go through ``tracer.py``, and the pairs
share the ``--seconds`` budget; the per-layer metrics are medians over the
traced jobs, and all spans of the run are written as JSON lines (with the
job id) when the run ends.  ``setup_s`` is the median of SETUP_IMPORTS
fresh imports of ``tentqmc.cli``, taken between the jobs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results, spans and the
environment go to ``.perfbench_work/results/`` in the checkout.
``--workload all`` runs every workload and prints their metrics together.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from tracer import WRAPPED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 42
SETUP_IMPORTS = 16  # per run: SETUP_PER_JOB before each job, the rest after
SETUP_PER_JOB = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# ---------------------------------------------------------------------------
# Workloads: each returns the job's calls as (cli arguments, output file or
# None for stdout) and a check of the outputs' texts.


def _poly(coeffs):
    return ",".join(str(c) for c in coeffs) if any(coeffs) else "0"


def experiment(seed, d):
    """The test_09 acceptance plan: half-digit call, then the classic rerun."""
    from checks import check_experiment

    plan = ("base=2\nalpha=2\ns=1\nm_min=4\nm_max=9\nreplicates={r}\n"
            "candidates=32\nseed={seed}\n")
    (d / "half.plan").write_text(plan.format(r=128, seed=seed))
    (d / "classic.plan").write_text(
        plan.format(r=32, seed=seed) + "classic=1\ntruncation=12\n")
    calls = [(["experiment", str(d / "half.plan"), "--out", str(d / "half.csv")],
              d / "half.csv"),
             (["experiment", str(d / "classic.plan"), "--out",
               str(d / "classic.csv")], d / "classic.csv")]

    def check(texts):
        return (check_experiment(texts[0], 2, 4, 9, half_digit=True)
                + check_experiment(texts[1], 2, 4, 9, half_digit=False))

    return calls, check


def search_greedy(seed, d):
    """Greedy CBC at b=2 (calibrated c_walsh) and b=3 (c_walsh given)."""
    from checks import check_search

    rng = random.Random(seed)
    gammas = [rng.uniform(0.5, 1.0) for _ in range(2)]
    (d / "w.txt").write_text(
        "s=2\ngamma_empty=1.0\nproduct:" + ",".join(map(repr, gammas)) + "\n")
    common = ["search", "--s", "2", "--mode", "greedy", "--weights",
              str(d / "w.txt")]
    calls = [(common + ["--base", "2", "--m", "6", "--n", "6", "--out",
                        str(d / "g2.csv")], d / "g2.csv"),
             (common + ["--base", "3", "--m", "4", "--n", "4", "--truncation",
                        "7", "--cwalsh", "0.3", "--out", str(d / "g3.csv")],
              d / "g3.csv")]

    def check(texts):
        return (check_search(texts[0], 2, 6, 6, 2, gammas)
                + check_search(texts[1], 3, 4, 4, 2, gammas))

    return calls, check


def points(seed, d):
    """gen --shift --fold --digits of an s=8, N=4096 net, then wce of it."""
    from checks import check_points, first_irreducible

    b, m, n, s = 2, 12, 12, 8
    rng = random.Random(seed)
    p = first_irreducible(b, n)
    qs = [[(h >> i) & 1 for i in range(n)]
          for h in (rng.randrange(1, b**n) for _ in range(s))]
    (d / "net.spec").write_text(
        f"b={b}\nm={m}\nn={n}\np={_poly(p)}\n"
        + "".join(f"q{j + 1}={_poly(q)}\n" for j, q in enumerate(qs)))
    pts = d / "pts.csv"
    calls = [(["gen", str(d / "net.spec"), "--shift", str(seed), "--fold",
               "--digits", "--out", str(pts)], pts),
             (["wce", str(pts), "--base", str(b), "--s", str(s)], None)]

    def check(texts):
        return check_points(texts[0], texts[1], b, m, n, p, qs)

    return calls, check


WORKLOADS = {"experiment": experiment, "search-greedy": search_greedy,
             "points": points}

# ---------------------------------------------------------------------------
# Child processes


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# Linux starts a child's ru_maxrss at the high-water RSS of the process it
# was forked from, and the output checks grow this process by hundreds of
# MB.  So the measured children are started by a small helper process.
LAUNCHER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    cmd, stdout, stderr = json.loads(line)
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss,
                      proc.returncode]), flush=True)
"""


class Launcher:
    """Runs commands one at a time from the helper process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)

    def run(self, cmd, stdout_path):
        """Run cmd to completion: (wall s, user+sys s, max RSS MB, exit code)."""
        request = [cmd, str(stdout_path), str(stdout_path.with_suffix(".stderr"))]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        wall, cpu, rss_kib, code = json.loads(reply)
        return wall, cpu, rss_kib / 1024.0, code

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def time_imports(count, times, d, launcher):
    """Append the wall times of count fresh interpreters importing
    tentqmc.cli to times."""
    cmd = [sys.executable, "-c", "import tentqmc.cli"]
    for _ in range(count):
        wall, _, _, code = launcher.run(cmd, d / "setup.out")
        if code != 0:
            raise RuntimeError("import tentqmc.cli failed: "
                               + (d / "setup.stderr").read_text())
        times.append(wall)


def run_job(index, calls, check, checked, d, launcher, traced):
    """One job: its calls in order, then the output check."""
    job = {"job": index, "traced": traced, "wall": [], "cpu": [], "rss": [],
           "codes": [], "bytes_out": 0, "spans": []}
    for _, out in calls:
        if out is not None and out.exists():
            out.unlink()
    texts = []
    for c, (argv, out) in enumerate(calls):
        stdout_path = d / f"call{c}.stdout"
        spans_path = d / f"call{c}.spans"
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path),
                   "--"] + argv
        else:
            cmd = [sys.executable, "-m", "tentqmc.cli"] + argv
        wall, cpu, rss, code = launcher.run(cmd, stdout_path)
        job["wall"].append(wall)
        job["cpu"].append(cpu)
        job["rss"].append(rss)
        job["codes"].append(code)
        path = out if out is not None else stdout_path
        texts.append(path.read_text() if path.exists() else "")
        job["bytes_out"] += stdout_path.stat().st_size + (
            out.stat().st_size if out is not None and out.exists() else 0)
        if traced and spans_path.exists():
            job["spans"].append(spans_path.read_text().splitlines())
            spans_path.unlink()
    if any(job["codes"]):
        job["problems"] = [f"exit codes {job['codes']}"]
    else:
        key = hashlib.sha256("\0".join(texts).encode()).hexdigest()
        if key not in checked:
            checked[key] = check(texts)
        job["problems"] = checked[key]
    return job


# ---------------------------------------------------------------------------
# Metrics


END_TO_END = {"job_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def job_figures(job):
    return {"job_s": sum(job["wall"]), "cpu_s": sum(job["cpu"]),
            "peak_rss_mb": max(job["rss"])}


LAYER_UNITS = {
    "base_arith.irreducible_s": "s",
    "base_arith.irreducible_calls": "count",
    "base_arith.irreducible_hit_ratio": "ratio",
    "base_arith.laurent_s": "s",
    "base_arith.laurent_calls": "count",
    "walsh.delta_b_calls": "count",
    "walsh.mu_alpha_calls": "count",
    "walsh.grid_exponents_calls": "count",
    "nets.matrices_s": "s",
    "nets.materialize_s": "s",
    "nets.materialize_digits": "count",
    "transforms.shift_fold_s": "s",
    "transforms.shift_fold_calls": "count",
    "sobolev.calibrate_s": "s",
    "sobolev.walsh_coeff_calls": "count",
    "sobolev.walsh_coeff_cache_hit_ratio": "ratio",
    "sobolev.bound_B_s": "s",
    "sobolev.bound_B_calls": "count",
    "sobolev.dual_box_vectors": "count",
    "sobolev.gram_s": "s",
    "sobolev.gram_pairs": "count",
    "sobolev.mean_wce_s": "s",
    "search.first_irreducible_s": "s",
    "search.run_s": "s",
    "search.candidates": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}
SHIFT_FOLD = {f"{m}.{f}" for m, f, _ in WRAPPED if m == "transforms"}


def _duration(span):
    return span["busy"] if "busy" in span else span["end"] - span["start"]


def layer_figures(job):
    """Per-layer totals of one traced job, from its calls' spans."""
    f = {k: 0 if unit in ("count", "bytes") else 0.0
         for k, unit in LAYER_UNITS.items() if k != "trace.overhead_s"}
    counters = defaultdict(int)
    true_irreducible = main_time = main_children = 0.0
    for lines in job["spans"]:
        records = [json.loads(line) for line in lines]
        for key, value in records.pop()["counters"].items():
            counters[key] += value
        by_id = {r["id"]: r for r in records}
        children = defaultdict(float)
        for r in records:
            if r["parent"] is not None:
                children[r["parent"]] += _duration(r)

        def ancestors(r):
            while r["parent"] is not None:
                r = by_id[r["parent"]]
                yield r["name"]

        for r in records:
            name, dur = r["name"], _duration(r)
            own = dur - children[r["id"]]
            if name == "base_arith.poly_is_irreducible":
                f["base_arith.irreducible_s"] += dur
                f["base_arith.irreducible_calls"] += r["calls"]
                true_irreducible += r["true"]
            elif name == "base_arith.laurent_expand":
                f["base_arith.laurent_s"] += dur
                f["base_arith.laurent_calls"] += 1
            elif name == "nets.matrices_from_poly":
                f["nets.matrices_s"] += dur
            elif name == "nets.net_from_matrices":
                f["nets.materialize_s"] += dur
                f["nets.materialize_digits"] += r["digits"]
            elif name in SHIFT_FOLD:
                f["transforms.shift_fold_calls"] += 1
                if not SHIFT_FOLD.intersection(ancestors(r)):
                    f["transforms.shift_fold_s"] += dur
            elif name == "sobolev.calibrate_c_walsh":
                f["sobolev.calibrate_s"] += dur
            elif name == "sobolev.bound_B":
                f["sobolev.bound_B_s"] += own
                f["sobolev.bound_B_calls"] += 1
                f["sobolev.dual_box_vectors"] += r["vectors"]
                if "search.run_search" in ancestors(r):
                    f["search.candidates"] += 1
            elif name == "sobolev.wce_squared":
                f["sobolev.gram_s"] += dur
                f["sobolev.gram_pairs"] += r["pairs"]
            elif name == "sobolev.mean_wce_estimate":
                f["sobolev.mean_wce_s"] += own
            elif name == "search.first_irreducible":
                f["search.first_irreducible_s"] += own
            elif name == "search.run_search":
                f["search.run_s"] += own
            elif name == "cli.main":
                f["cli.self_s"] += own
                main_time += dur
                main_children += children[r["id"]]
    f["walsh.delta_b_calls"] = counters["walsh.delta_b"]
    f["walsh.mu_alpha_calls"] = counters["walsh.mu_alpha"]
    f["walsh.grid_exponents_calls"] = counters["walsh.grid_exponents"]
    f["sobolev.walsh_coeff_calls"] = counters["sobolev.kernel_walsh_coefficient_1d"]
    lookups = counters["sobolev.walsh_coeff_hits"] + counters["sobolev.walsh_coeff_misses"]
    f["sobolev.walsh_coeff_cache_hit_ratio"] = (
        counters["sobolev.walsh_coeff_hits"] / lookups if lookups else 0.0)
    calls = f["base_arith.irreducible_calls"]
    f["base_arith.irreducible_hit_ratio"] = true_irreducible / calls if calls else 0.0
    f["cli.bytes_out"] = job["bytes_out"]
    f["trace.coverage"] = main_children / main_time if main_time else 0.0
    return f


def _metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# Environment


def environment():
    import numpy

    from tentqmc import _kernels

    digest = hashlib.sha256()
    for path in sorted((SRC / "tentqmc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "backend": _kernels.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "TENTQMC_CAP": os.environ.get("TENTQMC_CAP"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# One run


def run_workload(name, seed, seconds, trace, env_record, launcher):
    tag = f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    d = WORK / "runs" / tag
    d.mkdir(parents=True, exist_ok=True)
    try:
        calls, check = WORKLOADS[name](seed, d)
        time_imports(1, [], d, launcher)  # fills the bytecode cache
        setup, checked, jobs = [], {}, []
        measured = longest = 0.0
        # another step only if it would end within the budget even if it
        # took as long as the longest so far, so a run never measures much
        # more than `seconds`, however slow the host is
        while not jobs or measured + longest <= seconds:
            # set-up imports are spread between jobs, so that a run's
            # median sees the host as its jobs do
            time_imports(min(SETUP_PER_JOB, SETUP_IMPORTS - len(setup)),
                         setup, d, launcher)
            step = 0.0
            # with tracing, a step is an untraced job then a traced one
            for traced in ([False, True] if trace else [False]):
                job = run_job(len(jobs), calls, check, checked, d, launcher,
                              traced)
                jobs.append(job)
                step += sum(job["wall"])
            measured += step
            longest = max(longest, step)
        time_imports(SETUP_IMPORTS - len(setup), setup, d, launcher)
    finally:
        shutil.rmtree(d, ignore_errors=True)

    failed = sum(1 for j in jobs if j["problems"])
    timed = [job_figures(j) for j in jobs if j["traced"] == bool(trace)]
    shown = {k: _metric(statistics.median(f[k] for f in timed), END_TO_END[k])
             for k in timed[0]}
    shown["setup_s"] = _metric(statistics.median(setup), "s")
    shown["failed_frac"] = _metric(failed / len(jobs), "ratio")
    if trace:
        layers = defaultdict(list)
        for j in jobs:
            if j["traced"]:
                for key, value in layer_figures(j).items():
                    layers[key].append(value)
        metrics = {k: _metric(statistics.median(layers[k]), unit)
                   for k, unit in LAYER_UNITS.items() if k != "trace.overhead_s"}
        # median over (untraced, traced) neighbours, so host drift cancels
        walls = [job_figures(j)["job_s"] for j in jobs]
        metrics["trace.overhead_s"] = _metric(
            statistics.median(t - u for u, t in zip(walls[::2], walls[1::2])),
            "s")
    else:
        metrics = {k: shown[k] for k in END_TO_END}

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    spans = [(j["job"], c, line) for j in jobs
             for c, lines in enumerate(j.pop("spans")) for line in lines]
    if trace:
        with open(results / f"{tag}.spans.jsonl", "w") as fh:
            for job, c, line in spans:
                fh.write(json.dumps({"job": job, "call": c, **json.loads(line)})
                         + "\n")
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": env_record, "jobs": jobs,
              "summary": shown, "metrics": metrics}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for j in jobs:
        for problem in j["problems"][:3]:
            print(f"{name} job {j['job']}: {problem}")
    print(f"{name}: seed {seed}, {len(jobs)} jobs, {failed} failed")
    for key, m in shown.items():
        print(f"  {key:<12} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=56.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "tentqmc" / "cli.py").is_file():
        print(f"error: no tentqmc sources under {SRC}", file=sys.stderr)
        return 2
    launcher = Launcher()
    try:
        sys.path.insert(0, str(SRC))
        env_record = environment()
        print("environment: " + json.dumps(env_record))
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        out = [run_workload(n, args.seed, args.seconds, args.trace, env_record,
                            launcher) for n in names]
    finally:
        launcher.close()
    if len(out) == 1:
        result = out[0]
    else:
        result = {
            "correct": all(r["correct"] for r in out),
            "attempted": sum(r["attempted"] for r in out),
            "failed": sum(r["failed"] for r in out),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, out)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
