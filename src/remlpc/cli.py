"""Command-line front end.

Verbs: basis, simulate, fit, pca, rates, score-check, kl-scan,
design-check.  Exit codes: 0 success, 2 fit did not converge (results
are still written), 64 usage error, 65 malformed or unusable data
(messages name the offending row where applicable), 66 missing file.
All file outputs are written atomically (temp file plus rename) and are
byte-stable for a fixed configuration; --threads is accepted and ignored.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import matrixcase, optimizer, sim
from .bspline import OrthoBasis, eval_basis, make_basis
from .model import Dataset, ModelParams, SampleCov, matrix_loss

EXIT_OK = 0
EXIT_NOCONV = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOFILE = 66


class UsageError(Exception):
    pass


class DataFormatError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require_file(path: str) -> None:
    if not os.path.exists(path):
        raise FileNotFoundError(path)


def read_curves_csv(path: str) -> Dataset:
    """Functional data CSV with header curve_id,t,y; curves keep file order."""
    _require_file(path)
    codes: dict[str, int] = {}
    curve, ts, ys = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["curve_id", "t", "y"]:
            raise DataFormatError(f"{path}: expected header 'curve_id,t,y', got {header}")
        for row in reader:
            lineno = reader.line_num  # the file line, also past quoted line breaks
            if not row:
                continue
            if len(row) != 3:
                raise DataFormatError(f"{path}: row {lineno}: expected 3 fields, got {len(row)}")
            try:
                t = float(row[1])
                y = float(row[2])
            except ValueError:
                raise DataFormatError(f"{path}: row {lineno}: non-numeric t or y") from None
            if not (math.isfinite(t) and math.isfinite(y)):
                raise DataFormatError(f"{path}: row {lineno}: non-finite t or y")
            if not 0.0 <= t <= 1.0:
                raise DataFormatError(f"{path}: row {lineno}: t={row[1]} outside [0, 1]")
            curve.append(codes.setdefault(row[0], len(codes)))
            ts.append(t)
            ys.append(y)
    if not codes:
        raise DataFormatError(f"{path}: no data rows")
    # curves in order of first appearance, rows in file order within each
    order = np.argsort(curve, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(np.bincount(curve))])
    return Dataset(np.array(ts)[order], np.array(ys)[order], offsets)


def write_curves_csv(path: str, data: Dataset) -> None:
    curve = np.repeat(np.arange(data.n), np.diff(data.offsets))
    rows = zip(curve.tolist(), data.t.tolist(), data.y.tolist())
    _atomic_write(path, _csv_text(["curve_id", "t", "y"], rows, []))


def _sidecar(path: str) -> str:
    base, _ = os.path.splitext(path)
    return base + ".json"


def read_cov_csv(path: str) -> SampleCov:
    """Matrix-regime input: numeric M x M CSV plus a sidecar JSON with n."""
    _require_file(path)
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise DataFormatError(f"{path}: row {lineno}: non-numeric entry") from None
            if not all(math.isfinite(v) for v in rows[-1]):
                raise DataFormatError(f"{path}: row {lineno}: non-finite entry")
            if len(rows[-1]) != len(rows[0]):
                raise DataFormatError(f"{path}: row {lineno}: ragged row")
    S = np.asarray(rows)
    if S.size == 0 or S.shape[0] != S.shape[1]:
        raise DataFormatError(f"{path}: expected a square numeric matrix, got {S.shape}")
    side = _sidecar(path)
    n = _read_json(side).get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DataFormatError(f"{side}: 'n' must be an integer of at least 1, got {n!r}")
    try:
        return SampleCov(S, n)
    except ValueError as e:
        raise DataFormatError(f"{path}: {e}") from None


def write_cov_csv(path: str, data: SampleCov) -> None:
    lines = [",".join(_fmt(v) for v in row) for row in data.cov]
    _atomic_write(path, "\n".join(lines) + "\n")
    _atomic_write(_sidecar(path), json.dumps({"n": data.n}, sort_keys=True) + "\n")


def read_params_json(path: str) -> ModelParams:
    d = _read_json(path)
    try:
        return ModelParams.from_dict(d)
    except (KeyError, ValueError, TypeError) as e:
        raise DataFormatError(f"{path}: {e}") from None


def write_params_json(path: str, params: ModelParams) -> None:
    _atomic_write(path, json.dumps(params.to_dict(), indent=2, sort_keys=True) + "\n")


def _read_json(path: str) -> dict:
    """A JSON file whose document is an object; anything else is a data error."""
    _require_file(path)
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as e:
            raise DataFormatError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(d, dict):
        raise DataFormatError(f"{path}: expected a JSON object, got {type(d).__name__}")
    return d


def _csv_text(header: list[str], rows: list[list], comments: list[str]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    lines.extend(f"# {c}" for c in comments)
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="remlpc", description=__doc__)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored; experiments run serially")
    p.add_argument("--quiet", action="store_true", help="suppress progress output")
    p.add_argument("--seed", type=int, default=None, help="override the configured base seed")
    sub = p.add_subparsers(dest="verb", required=True)

    b = sub.add_parser("basis", help="evaluate the orthonormal spline basis on a grid")
    b.add_argument("--M", type=int, required=True)
    b.add_argument("--grid", type=int, default=201)
    b.add_argument("--out", required=True)

    s = sub.add_parser("simulate", help="draw one synthetic dataset")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)

    f = sub.add_parser("fit", help="fit the rank-r covariance model")
    f.add_argument("--data", required=True)
    f.add_argument("--M", type=int, default=None)
    f.add_argument("--r", type=int, required=True)
    f.add_argument("--sigma2", type=float, required=True)
    f.add_argument("--s", type=float, default=1.0)
    f.add_argument("--regime", choices=["sparse", "dense", "matrix"], default="sparse")
    f.add_argument("--out", default=None)
    f.add_argument("--max-iter", type=int, default=500)
    f.add_argument("--grad-tol", type=float, default=None,
                   help="gradient norm target; default picks one per regime")
    f.add_argument("--init", choices=["pooled-pca", "random"], default="pooled-pca")
    f.add_argument("--restarts", type=int, default=1)

    q = sub.add_parser("pca", help="closed-form matrix-regime solution")
    q.add_argument("--data", required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--sigma2", type=float, default=1.0)
    q.add_argument("--s", type=float, default=1.0)
    q.add_argument("--out", default=None)

    rr = sub.add_parser("rates", help="loss decay across a sample-size grid")
    rr.add_argument("--config", required=True)
    rr.add_argument("--out", required=True)

    sc = sub.add_parser("score-check", help="first-order score expansion residuals")
    sc.add_argument("--config", required=True)
    sc.add_argument("--out", required=True)

    kl = sub.add_parser("kl-scan", help="KL divergence over a shrinking ellipsoid")
    kl.add_argument("--params", required=True)
    kl.add_argument("--alphas", default="1e-3,3e-3,1e-2,3e-2")
    kl.add_argument("--directions", type=int, default=200)
    kl.add_argument("--out", required=True)

    dc = sub.add_parser("design-check", help="design second-moment concentration")
    dc.add_argument("--M", type=int, required=True)
    dc.add_argument("--n", type=int, default=100)
    dc.add_argument("--m", type=int, required=True)
    dc.add_argument("--r", type=int, default=0, help="probe a random rank-r frame too")
    dc.add_argument("--frame-seed", type=int, default=1)
    dc.add_argument("--out", default=None)

    return p


def parse(argv) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def _basis(M: int) -> OrthoBasis:
    """The basis of dimension --M; a dimension the basis rejects is a usage error."""
    try:
        return make_basis(M)
    except ValueError as e:
        raise UsageError(f"--M: {e}") from None


def _positive(args, *names: str) -> None:
    """Each named float flag that was given must be positive and finite."""
    for name in names:
        v = getattr(args, name)
        if v is not None and not 0.0 < v < math.inf:
            raise UsageError(f"--{name.replace('_', '-')} must be positive and finite, got {v}")


def _rank(args, M: int) -> None:
    if not 1 <= args.r <= M:
        raise UsageError(f"--r must be in [1, {M}], got {args.r}")


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _cmd_basis(args) -> int:
    basis = _basis(args.M)
    if args.grid < 2:
        raise UsageError("--grid must be at least 2")
    t = np.linspace(0.0, 1.0, args.grid)
    V = eval_basis(basis, t)
    header = ["t"] + [f"phi_{k + 1}" for k in range(args.M)]
    rows = [[t[i]] + list(V[i]) for i in range(t.size)]
    _atomic_write(args.out, _csv_text(header, rows, []))
    _say(args, f"wrote {args.out} ({args.grid} points, M={args.M})")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = _read_json(args.config)
    try:
        regime = cfg["regime"]
        n = int(cfg["n"])
        seed = int(cfg.get("seed", 0)) if args.seed is None else args.seed
        sigma2 = float(cfg.get("sigma2", 1.0))
        s = float(cfg.get("s", 1.0))
        ecfg = sim.ExperimentConfig(
            regime=regime,
            n_grid=(n,),
            replicates=1,
            r=len(cfg["truth"]["eigenvalues"]),
            base_seed=seed,
            sigma2=sigma2,
            s=s,
            truth=cfg["truth"],
        )
        truth = sim.build_truth(ecfg)
        data = sim.sample_dataset(
            truth,
            regime,
            n,
            (seed, n, 0),
            sigma2=sigma2,
            s=s,
            m_bounds=tuple(cfg["m_bounds"]) if "m_bounds" in cfg else None,
            m=int(cfg["m"]) if "m" in cfg else None,
        )
    except (KeyError, ValueError) as e:
        raise DataFormatError(f"{args.config}: {e}") from None
    if regime == "matrix":
        write_cov_csv(args.out, data)
    else:
        write_curves_csv(args.out, data)
    _say(args, f"wrote {args.out} (regime={regime}, n={n})")
    return EXIT_OK


def _cmd_fit(args) -> int:
    _positive(args, "sigma2", "s", "grad_tol")
    if args.max_iter < 0:
        raise UsageError(f"--max-iter must be at least 0, got {args.max_iter}")
    if args.restarts < 1:
        raise UsageError(f"--restarts must be at least 1, got {args.restarts}")
    if args.regime == "matrix":
        data = read_cov_csv(args.data)
        basis = None
        M = data.cov.shape[0]
        if args.M is not None and args.M != M:
            raise UsageError(f"--M {args.M} does not match covariance dimension {M}")
    else:
        data = read_curves_csv(args.data)
        if args.M is None:
            raise UsageError("functional regimes require --M")
        basis = _basis(args.M)
        M = args.M
    _rank(args, M)
    seed = 0 if args.seed is None else args.seed
    config = optimizer.FitConfig(
        max_iter=args.max_iter,
        grad_tol=args.grad_tol,
        init=args.init,
        restarts=args.restarts,
        seed=seed,
    )
    try:
        res = optimizer.fit(data, basis, args.r, args.sigma2, args.s, config)
    except ValueError as e:
        raise DataFormatError(f"{args.data}: {e}") from None
    if args.out:
        write_params_json(args.out, res.params)
    _say(
        args,
        f"loss={_fmt(res.loss)} grad_norm={_fmt(res.grad_norm)} "
        f"iters={res.n_iter} converged={res.converged}",
    )
    return EXIT_OK if res.converged else EXIT_NOCONV


def _cmd_pca(args) -> int:
    _positive(args, "sigma2", "s")
    data = read_cov_csv(args.data)
    _rank(args, data.cov.shape[0])
    try:
        params = matrixcase.pca_fit(data.cov, args.r, args.sigma2, args.s)
    except ValueError as e:
        raise DataFormatError(f"{args.data}: {e}") from None
    if args.out:
        write_params_json(args.out, params)
    loss = matrix_loss(params.B.B, params.lam, params.sigma2, params.s, data.cov)
    _say(args, f"loss={_fmt(loss)} lambda={','.join(_fmt(v) for v in params.lam)}")
    return EXIT_OK


def _experiment_config(args) -> sim.ExperimentConfig:
    raw = _read_json(args.config)
    try:
        cfg = sim.ExperimentConfig.from_dict(raw)
    except KeyError as e:
        raise DataFormatError(f"{args.config}: missing key {e}") from None
    except (ValueError, TypeError) as e:
        raise DataFormatError(f"{args.config}: {e}") from None
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, base_seed=args.seed)
    return cfg


def _table_text(rows: tuple[dict, ...], comments: list[str]) -> str:
    """CSV of an experiment's rows, whose keys (in order) are the columns."""
    return _csv_text(list(rows[0]), [list(row.values()) for row in rows], comments)


def _cmd_rates(args) -> int:
    cfg = _experiment_config(args)
    try:
        result = sim.rate_experiment(cfg, threads=args.threads)
    except ValueError as e:
        raise DataFormatError(f"{args.config}: {e}") from None
    comments = [
        f"slope {key} {_fmt(slope)} se {_fmt(se)}" for key, (slope, se) in result.slopes.items()
    ]
    comments += [f"beta n={n} {_fmt(result.betas[n])}" for n in cfg.n_grid]
    _atomic_write(args.out, _table_text(result.rows, comments))
    _say(args, "; ".join(comments[: len(result.slopes)]))
    return EXIT_OK


def _cmd_score(args) -> int:
    cfg = _experiment_config(args)
    try:
        result = sim.score_experiment(cfg, threads=args.threads)
    except ValueError as e:
        raise DataFormatError(f"{args.config}: {e}") from None
    comments = [
        f"ratio_residual {_fmt(result.ratio_residual)}",
        f"ratio_error {_fmt(result.ratio_error)}",
        f"max_delta_consistency {_fmt(result.max_delta_consistency)}",
    ]
    _atomic_write(args.out, _table_text(result.rows, comments))
    _say(args, "; ".join(comments))
    return EXIT_OK


def _cmd_kl(args) -> int:
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a]
    except ValueError:
        raise UsageError(f"bad --alphas value {args.alphas!r}") from None
    if not alphas or not all(0.0 < a < math.inf for a in alphas):
        raise UsageError(f"--alphas must be positive numbers, got {args.alphas!r}")
    if args.directions < 1:
        raise UsageError(f"--directions must be at least 1, got {args.directions}")
    params = read_params_json(args.params)
    seed = 0 if args.seed is None else args.seed
    try:
        result = sim.kl_ellipsoid_scan(params, alphas, n_directions=args.directions, seed=seed)
    except ValueError as e:
        raise DataFormatError(f"{args.params}: {e}") from None
    header = ["alpha", "direction", "kl_over_alpha2"]
    rows = []
    for ia, alpha in enumerate(result.alphas):
        for idir in range(result.ratios.shape[1]):
            rows.append([alpha, idir, result.ratios[ia, idir]])
    comments = [
        f"spread alpha={_fmt(a)} {_fmt(result.spread[a])}" for a in result.alphas
    ] + [f"stability {_fmt(result.stability)}"]
    _atomic_write(args.out, _csv_text(header, rows, comments))
    _say(args, "; ".join(comments))
    return EXIT_OK


def _cmd_design(args) -> int:
    basis = _basis(args.M)
    if args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    if args.m < 1:
        raise UsageError(f"--m must be at least 1, got {args.m}")
    if not 0 <= args.r <= args.M:
        raise UsageError(f"--r must be in [0, {args.M}], got {args.r}")
    seed = 0 if args.seed is None else args.seed
    B = None
    if args.r > 0:
        B = sim.random_frame(args.M, args.r, args.frame_seed).B
    report = sim.design_concentration(basis, args.n, args.m, seed=seed, B=B)
    text = _table_text((dataclasses.asdict(report),), [])
    if args.out:
        _atomic_write(args.out, text)
    _say(args, text.strip())
    return EXIT_OK


_DISPATCH = {
    "basis": _cmd_basis,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "pca": _cmd_pca,
    "rates": _cmd_rates,
    "score-check": _cmd_score,
    "kl-scan": _cmd_kl,
    "design-check": _cmd_design,
}


def run(args: argparse.Namespace) -> int:
    return _DISPATCH[args.verb](args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse(argv)
        return run(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as e:
        print(f"missing file: {e}", file=sys.stderr)
        return EXIT_NOFILE


if __name__ == "__main__":
    sys.exit(main())
