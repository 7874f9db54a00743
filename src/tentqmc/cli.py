"""Command line interface.

Subcommands
    gen         materialize a point set from a spec file (optional shift/fold)
    search      rank generating vectors by the dominating sum
    bound       dominating sum and existence bound for one spec
    wce         squared worst-case error of a point file
    experiment  error-vs-size study driven by a plan file

Reals are printed with 17 significant digits so reruns are byte identical.
Exit codes: 0 success, 2 validation error, 3 capacity exceeded, 4 file I/O.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .base_arith import poly_from_string, poly_to_string
from .nets import (
    CapacityError,
    PolyLatticeSpec,
    load_spec_file,
    matrices_from_poly,
    net_from_matrices,
)
from .search import (
    RankedCandidate,
    SearchConfig,
    first_irreducible,
    run_search,
)
from .sobolev import (
    KernelParams,
    ProductWeights,
    Weights,
    bound_B,
    calibrate_c_walsh,
    existence_bound_opt,
    load_weights_file,
    mean_wce_estimate,
    wce_squared,
)
from .transforms import (
    RngSpec,
    fold_digit_array,
    folded_values,
    sample_shift,
    shift_digit_array,
)

G17 = "%.17g"


def _fmt(x: float) -> str:
    return G17 % float(x)


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _load_weights(path: str | None, s: int) -> Weights:
    if path is None:
        return ProductWeights((1.0,) * s)
    w = load_weights_file(path)
    if w.s != s:
        raise ValueError(f"weights file has s={w.s}, expected {s}")
    return w


def _resolve_c(args, alpha: int, base: int) -> float:
    if getattr(args, "cwalsh", None) is not None:
        return args.cwalsh
    return calibrate_c_walsh(alpha, base)


# ---------------------------------------------------------------------------
# gen

def cmd_gen(args) -> int:
    spec = load_spec_file(args.specfile)
    net = net_from_matrices(matrices_from_poly(spec))
    p_sigma = spec.n + args.alpha + 2
    if args.shift is not None:
        shift = sample_shift(RngSpec(args.shift), spec.s, spec.base, p_sigma)
        digits = shift_digit_array(net.digits, shift, spec.base)
    else:
        digits = net.digits
    if args.fold:
        prefix, tail = fold_digit_array(digits, spec.base)
        values = folded_values(digits, spec.base)
    else:
        prefix, tail = digits, np.zeros(digits.shape[:2], dtype=np.uint8)
        w = spec.base ** -np.arange(1, digits.shape[2] + 1, dtype=np.float64)
        values = digits.astype(np.float64) @ w
    out, close = _open_out(args.out)
    try:
        writer = csv.writer(out)
        for i in range(values.shape[0]):
            row = [_fmt(v) for v in values[i]]
            if args.digits:
                row += [
                    "".join(str(int(d)) for d in prefix[i, j])
                    + f"({int(tail[i, j])})"
                    for j in range(values.shape[1])
                ]
            writer.writerow(row)
    finally:
        if close:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# search

def _write_ranking(out, ranked: list[RankedCandidate], s: int) -> None:
    writer = csv.writer(out)
    writer.writerow(
        ["rank"] + [f"q{j + 1}" for j in range(s)]
        + ["bound", "T", "c_walsh", "seconds"]
    )
    for r in ranked:
        writer.writerow(
            [r.rank]
            + [poly_to_string(q) for q in r.qs]
            + [_fmt(r.bound), r.truncation, _fmt(r.c_walsh), _fmt(r.seconds)]
        )


def cmd_search(args) -> int:
    base = args.base
    p = (
        poly_from_string(args.p, base)
        if args.p is not None
        else first_irreducible(base, args.n)
    )
    weights = _load_weights(args.weights, args.s)
    params = KernelParams(args.alpha, base, _resolve_c(args, args.alpha, base))
    cfg = SearchConfig(
        base, args.m, args.n, p, args.s, params, weights,
        T=args.truncation, mode=args.mode, draws=args.k, rng=RngSpec(args.seed),
    )
    ranked = run_search(cfg)
    out, close = _open_out(args.out)
    try:
        _write_ranking(out, ranked, args.s)
    finally:
        if close:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# bound

def cmd_bound(args) -> int:
    spec = load_spec_file(args.specfile)
    weights = _load_weights(args.weights, spec.s)
    params = KernelParams(args.alpha, spec.base, _resolve_c(args, args.alpha, spec.base))
    fom = bound_B(spec, params, weights, args.truncation)
    ex, lam = existence_bound_opt(params, weights, spec.m, spec.n)
    out, close = _open_out(args.out)
    try:
        writer = csv.writer(out)
        writer.writerow(
            ["p"] + [f"q{j + 1}" for j in range(spec.s)]
            + ["T", "c_walsh", "bound", "existence_bound", "lambda_opt",
               "tail_note", "c_walsh_source"]
        )
        writer.writerow(
            [poly_to_string(spec.p)]
            + [poly_to_string(q) for q in spec.qs]
            + [fom.truncation, _fmt(params.c_walsh), _fmt(fom.value), _fmt(ex),
               _fmt(lam), fom.tail_note,
               "given" if args.cwalsh is not None else "calibrated"]
        )
    finally:
        if close:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# wce

def cmd_wce(args) -> int:
    with open(args.pointsfile, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{args.pointsfile}: no points")
    pts = np.array([[float(v) for v in row[: args.s]] for row in rows])
    weights = _load_weights(args.weights, args.s)
    params = KernelParams(args.alpha, args.base)
    print(_fmt(wce_squared(pts, params, weights)))
    return 0


# ---------------------------------------------------------------------------
# experiment

@dataclass(frozen=True)
class ExperimentPlan:
    base: int
    alpha: int
    s: int
    m_min: int
    m_max: int
    replicates: int = 128
    candidates: int = 32
    seed: int = 0
    integrand: str = "kernel"
    classic: bool = False
    truncation: int | None = None
    cwalsh: float | None = None
    smooth_c: float = 1.0
    weights_file: str | None = None

    def __post_init__(self):
        if self.integrand not in ("kernel", "smooth"):
            raise ValueError(f"unknown integrand {self.integrand!r}")
        if not (1 <= self.m_min <= self.m_max):
            raise ValueError("need 1 <= m_min <= m_max")
        if self.replicates < 2 or self.candidates < 1:
            raise ValueError("need replicates >= 2 and candidates >= 1")


def load_plan_file(path: str) -> ExperimentPlan:
    fields: dict[str, str] = {}
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise ValueError(f"{path}: malformed line {ln!r}")
            key, val = ln.split("=", 1)
            fields[key.strip()] = val.strip()
    ints = {
        k: int(fields[k])
        for k in ("base", "alpha", "s", "m_min", "m_max", "replicates",
                  "candidates", "seed", "truncation")
        if k in fields
    }
    plan = ExperimentPlan(
        base=ints.get("base", 2),
        alpha=ints.get("alpha", 2),
        s=ints.get("s", 1),
        m_min=ints.get("m_min", 4),
        m_max=ints.get("m_max", 9),
        replicates=ints.get("replicates", 128),
        candidates=ints.get("candidates", 32),
        seed=ints.get("seed", 0),
        integrand=fields.get("integrand", "kernel"),
        classic=fields.get("classic", "0") not in ("0", "false", "no"),
        truncation=ints.get("truncation"),
        cwalsh=float(fields["cwalsh"]) if "cwalsh" in fields else None,
        smooth_c=float(fields.get("smooth_c", "1.0")),
        weights_file=fields.get("weights_file"),
    )
    return plan


def _smooth_reference(plan: ExperimentPlan) -> float:
    # I(f) for f = prod_j (1 + c x^alpha e^x), by Gauss quadrature to 1e-12
    nodes, wts = np.polynomial.legendre.leggauss(50)
    x = (nodes + 1.0) / 2.0
    one_dim = 0.5 * np.sum(wts * x**plan.alpha * np.exp(x))
    return (1.0 + plan.smooth_c * one_dim) ** plan.s


def _smooth_values(x: np.ndarray, alpha: int, c: float) -> np.ndarray:
    return np.prod(1.0 + c * x**alpha * np.exp(x), axis=1)


def run_experiment(plan: ExperimentPlan) -> list[dict]:
    """One row per m: search a vector, estimate the error, record the bound."""
    base, alpha = plan.base, plan.alpha
    weights = (
        load_weights_file(plan.weights_file)
        if plan.weights_file
        else ProductWeights((1.0,) * plan.s)
    )
    if weights.s != plan.s:
        raise ValueError("weights dimension must match the plan")
    c = plan.cwalsh if plan.cwalsh is not None else calibrate_c_walsh(alpha, base)
    params = KernelParams(alpha, base, c)
    rows: list[dict] = []
    ms: list[int] = []
    logr: list[float] = []
    for m in range(plan.m_min, plan.m_max + 1):
        n = alpha * m if plan.classic else (alpha * m + 1) // 2
        T = plan.truncation if plan.truncation is not None else n + alpha + 2
        p = first_irreducible(base, n)
        cfg = SearchConfig(
            base, m, n, p, plan.s, params, weights, T=T, mode="random",
            draws=plan.candidates, rng=RngSpec(plan.seed, stream=m),
        )
        best = run_search(cfg)[0]
        spec = PolyLatticeSpec(base, m, n, p, best.qs)
        net = net_from_matrices(matrices_from_poly(spec))
        est_rng = RngSpec(plan.seed, stream=10_000 + m)
        if plan.integrand == "kernel":
            msq, se = mean_wce_estimate(
                net, params, weights, plan.replicates, est_rng
            )
        else:
            ref = _smooth_reference(plan)
            gen = est_rng.generator()
            p_sigma = net.n + alpha + 2
            errs = np.empty(plan.replicates)
            for r in range(plan.replicates):
                shift = sample_shift(gen, net.s, base, p_sigma)
                pts = folded_values(
                    shift_digit_array(net.digits, shift, base), base
                )
                errs[r] = (
                    float(np.mean(_smooth_values(pts, alpha, plan.smooth_c)))
                    - ref
                ) ** 2
            msq = float(errs.mean())
            se = float(errs.std(ddof=1) / math.sqrt(plan.replicates))
        clamped = msq < 0.0
        rmse = math.sqrt(max(msq, 0.0))
        row = {
            "m": m,
            "N": base**m,
            "rmse_estimate": rmse,
            "stderr": se,
            "theorem_bound": best.bound,
            "slope_so_far": "",
            "clamped": int(clamped),
        }
        if rmse > 0.0:
            ms.append(m)
            logr.append(math.log(rmse) / math.log(base))
        if len(ms) >= 2:
            row["slope_so_far"] = float(np.polyfit(ms, logr, 1)[0])
        rows.append(row)
    return rows


def fit_convergence(ms, rmses, base: int) -> tuple[float, float, float]:
    """OLS of log_base(rmse) on m: (slope, intercept, r_squared).

    Needs at least 3 rows with positive rmse.
    """
    pairs = [(m, r) for m, r in zip(ms, rmses) if r > 0]
    if len(pairs) < 3:
        raise ValueError("need at least 3 rows with positive rmse")
    xs = np.array([p[0] for p in pairs], dtype=np.float64)
    ys = np.array([math.log(p[1]) / math.log(base) for p in pairs])
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


_EXPERIMENT_COLUMNS = [
    "m", "N", "rmse_estimate", "stderr", "theorem_bound", "slope_so_far",
    "clamped",
]


def write_experiment_csv(rows: list[dict], out) -> None:
    writer = csv.writer(out)
    writer.writerow(_EXPERIMENT_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row["m"],
                row["N"],
                _fmt(row["rmse_estimate"]),
                _fmt(row["stderr"]),
                _fmt(row["theorem_bound"]),
                _fmt(row["slope_so_far"]) if row["slope_so_far"] != "" else "",
                row["clamped"],
            ]
        )


def cmd_experiment(args) -> int:
    plan = load_plan_file(args.planfile)
    if args.classic:
        plan = replace(plan, classic=True)
    rows = run_experiment(plan)
    out, close = _open_out(args.out)
    try:
        write_experiment_csv(rows, out)
    finally:
        if close:
            out.close()
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tentqmc",
        description="digital nets over Z_b with digit folding",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="materialize points from a spec file")
    g.add_argument("specfile")
    g.add_argument("--out", default=None)
    g.add_argument("--shift", type=int, default=None, metavar="SEED")
    g.add_argument("--fold", action="store_true")
    g.add_argument("--digits", action="store_true",
                   help="append exact digit strings per coordinate")
    g.add_argument("--alpha", type=int, default=2,
                   help="sets the shift depth n + alpha + 2")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("search", help="rank generating vectors")
    s.add_argument("--base", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--s", type=int, required=True)
    s.add_argument("--p", default=None, help="modulus coefficients, e.g. 1,1,1")
    s.add_argument("--alpha", type=int, default=2)
    s.add_argument("--weights", default=None, help="weights file")
    s.add_argument("--cwalsh", type=float, default=None)
    s.add_argument("--truncation", type=int, default=None)
    s.add_argument("--mode", choices=("exhaustive", "random", "greedy"),
                   default="exhaustive")
    s.add_argument("--k", type=int, default=64, help="random draws")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_search)

    b = sub.add_parser("bound", help="dominating sum for one spec")
    b.add_argument("specfile")
    b.add_argument("--alpha", type=int, default=2)
    b.add_argument("--weights", default=None)
    b.add_argument("--cwalsh", type=float, default=None)
    b.add_argument("--truncation", type=int, default=None)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bound)

    w = sub.add_parser("wce", help="squared worst-case error of a point file")
    w.add_argument("pointsfile")
    w.add_argument("--base", type=int, required=True)
    w.add_argument("--s", type=int, required=True)
    w.add_argument("--alpha", type=int, default=2)
    w.add_argument("--weights", default=None)
    w.set_defaults(func=cmd_wce)

    e = sub.add_parser("experiment", help="error-vs-size study from a plan")
    e.add_argument("planfile")
    e.add_argument("--out", default=None)
    e.add_argument("--classic", action="store_true",
                   help="force the n = alpha m digit rule")
    e.set_defaults(func=cmd_experiment)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
