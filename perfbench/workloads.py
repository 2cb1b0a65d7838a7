"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup``,
runs pass i of a closed loop in ``run_pass(i)``, and checks a pass's
outputs against the repo's own oracles in ``check``, outside the timed
region.  ``run_pass`` times each call into the program on its own and
returns ``(times, outputs)``: the seconds of each timed operation, keyed
by a name that is the same in every pass that repeats the operation,
and the outputs.  ``check`` returns a ``Checked``: a verdict ("ok",
"failed" or "wrong") and an estimation error for each fit, keyed by a
name that is the same in every pass that repeats the fit, and the
exceptions raised.  A fit that raises is caught inside the pass and
counted as failed, so one failing fit does not end the run.  Passes
``0 .. cycle - 1`` together run every operation once.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import time
from typing import NamedTuple

import numpy as np

from remlpc import cli, matrixcase, sim
from remlpc.bspline import eval_basis, make_basis
from remlpc.model import ModelParams, kernel_from_params, kernel_l2_distance, marginal_cov

# full size, and the tiny size the smoke test runs
SIZES = {
    "sparse-fit": {"full": {"n": 2048, "datasets": 4}, "tiny": {"n": 200, "datasets": 2}},
    "rate-study": {
        "full": {"n_grid": (128, 256, 512, 1024), "replicates": 4},
        "tiny": {"n_grid": (64, 128), "replicates": 2},
    },
    "matrix-fit": {
        "full": {"M_grid": (20, 50, 100, 200), "replicates": 16},
        "tiny": {"M_grid": (20, 50), "replicates": 2},
    },
}

SIGMA2 = 0.25
EIGENVALUES = (2.0, 1.0, 0.5)
# criterion 3's truth; the seed draws the data, not the truth, because a
# truth drawn per seed moved descent work across seeds twice as much
TRUTH_SEED = 5
_LOSS = re.compile(r"loss=(\S+) grad_norm=\S+ iters=\d+ converged=(True|False)")


class Checked(NamedTuple):
    verdicts: dict
    errors: dict
    raised: tuple = ()


def _spline_truth():
    return sim.make_true_kernel("spline", EIGENVALUES, M_ref=4, seed=TRUTH_SEED)


class SparseFit:
    """``remlpc fit`` on a CSV of n sparse curves, at M=4 and at M=10.

    Setup writes several CSVs drawn from one truth, so a run's sweep
    mixes datasets whose descents need different iteration counts
    instead of resting on one draw.  Pass i runs the (i mod cycle)-th
    fit, one CSV at one M: a pass as short as one fit keeps the
    reference kernel's runs around it close in time to the fit.
    """

    name = "sparse-fit"
    workers = 1
    M_values = (4, 10)

    def __init__(self, seed: int, workdir: str, scale: str = "full"):
        size = SIZES[self.name][scale]
        self.seed = seed
        self.workdir = workdir
        self.n = size["n"]
        self.count = size["datasets"]
        self.fits = [(k, M) for k in range(self.count) for M in self.M_values]
        self.cycle = len(self.fits)
        self.verdicts = {}

    def setup(self) -> None:
        self.truth = _spline_truth()
        self.data = []
        for k in range(self.count):
            data = sim.sample_dataset(
                self.truth, "sparse", self.n, (self.seed, self.n, k), sigma2=SIGMA2,
                m_bounds=(2, 10),
            )
            cli.write_curves_csv(self._csv(k), data)
            self.data.append(data)

    def _csv(self, k: int) -> str:
        return os.path.join(self.workdir, f"curves{k}.csv")

    def warm_up(self) -> None:
        small = os.path.join(self.workdir, "warm.csv")
        data = sim.sample_dataset(
            self.truth, "sparse", 64, (self.seed, 64, self.count), sigma2=SIGMA2, m_bounds=(2, 10)
        )
        cli.write_curves_csv(small, data)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["fit", "--data", small, "--M", "4", "--r", "3", "--sigma2", str(SIGMA2)])

    def run_pass(self, i: int):
        k, M = self.fits[i % self.cycle]
        out = os.path.join(self.workdir, f"params{k}_M{M}.json")
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(
                    ["fit", "--data", self._csv(k), "--M", str(M), "--r", "3",
                     "--sigma2", str(SIGMA2), "--out", out]
                )
        except Exception as exc:
            code = repr(exc)
        seconds = time.perf_counter() - t0
        return {f"csv{k}_M{M}": seconds}, [(k, M, code, buf.getvalue(), out)]

    def check(self, outputs) -> Checked:
        """Exit code 0 and a loss equal to the dense oracle's at the written
        parameters.  Fits are deterministic, so an output identical to one
        already checked inherits its verdict instead of rerunning the
        dense oracle."""
        verdicts, errors, raised = {}, {}, []
        for k, M, code, text, out in outputs:
            key = f"csv{k}_M{M}"
            if code != 0:
                verdicts[key] = "failed"
                if isinstance(code, str):
                    raised.append(code)
                continue
            with open(out) as fh:
                written = fh.read()
            cache_key = (k, M, text, written)
            if cache_key not in self.verdicts:
                self.verdicts[cache_key] = self._verdict(k, M, text, written)
            verdicts[key], err = self.verdicts[cache_key]
            if err is not None:
                errors[key] = err
        return Checked(verdicts, errors, tuple(raised))

    def _verdict(self, k, M, text, written):
        match = _LOSS.search(text)
        if match is None:
            return "wrong", None
        if match.group(2) != "True":
            return "failed", None
        params = ModelParams.from_dict(json.loads(written))
        basis = make_basis(M)
        oracle = self._dense_loss(self.data[k], params, basis)
        ok = abs(float(match.group(1)) - oracle) <= 1e-9 * abs(oracle)
        err = kernel_l2_distance(kernel_from_params(params, basis), self.truth.evaluator())
        return ("ok" if ok else "wrong"), err

    @staticmethod
    def _dense_loss(data, params: ModelParams, basis) -> float:
        """Average Gaussian negative log likelihood from full m x m covariances."""
        Phi = eval_basis(basis, np.concatenate([c.times for c in data.curves]))
        total = 0.0
        start = 0
        for c in data.curves:
            S = marginal_cov(params, Phi[start : start + c.m].T)
            start += c.m
            _, logdet = np.linalg.slogdet(S)
            total += 0.5 * (c.values @ np.linalg.solve(S, c.values) + logdet)
        return total / data.n


class RateStudy:
    """A cut-down criterion-3 rate study through ``sim.rate_experiment``."""

    name = "rate-study"
    # One thread: two GIL-bound threads on a 2-core shared host ran no
    # faster than one and spread four times wider across seeds.
    workers = 1
    cycle = 1

    def __init__(self, seed: int, workdir: str, scale: str = "full"):
        size = SIZES[self.name][scale]
        self.config = sim.ExperimentConfig(
            regime="sparse",
            n_grid=size["n_grid"],
            replicates=size["replicates"],
            r=3,
            base_seed=seed,
            sigma2=SIGMA2,
            m_bounds=(4, 5),
            M_schedule={"kind": "ninth-root", "c": 2.0},
            truth={"family": "spline", "eigenvalues": list(EIGENVALUES), "M_ref": 4,
                   "seed": TRUTH_SEED},
        )
        self.reference = None

    def setup(self) -> None:
        sim.build_truth(self.config)

    def warm_up(self) -> None:
        small = sim.ExperimentConfig.from_dict(
            {**self.config.to_dict(), "n_grid": [64, 96], "replicates": 1}
        )
        sim.rate_experiment(small, threads=self.workers)

    def run_pass(self, i: int):
        t0 = time.perf_counter()
        try:
            result = sim.rate_experiment(self.config, threads=self.workers)
        except Exception as exc:
            result = repr(exc)
        return {"rate_experiment": time.perf_counter() - t0}, result

    def check(self, result) -> Checked:
        """Every fit converged, and every pass gives the first pass's rows."""
        keys = [f"n{n}_rep{rep}" for n in self.config.n_grid
                for rep in range(self.config.replicates)]
        if isinstance(result, str):
            return Checked(dict.fromkeys(keys, "failed"), {}, (result,))
        rows = result.rows
        if self.reference is None:
            self.reference = rows
        if rows != self.reference:
            return Checked(dict.fromkeys(keys, "wrong"), {})
        verdicts, errors = {}, {}
        for row in rows:
            key = f"n{row['n']}_rep{row['replicate']}"
            verdicts[key] = "ok" if row["converged"] else "failed"
            errors[key] = row["kernel_l2"]
        return Checked(verdicts, errors)


class MatrixFit:
    """``matrixcase.reml_equals_pca`` on spiked sample covariances, M = 20..200."""

    name = "matrix-fit"
    workers = 1
    cycle = 1
    n = 2000
    eigenvalues = np.array([6.0, 3.5, 2.0])

    def __init__(self, seed: int, workdir: str, scale: str = "full"):
        size = SIZES[self.name][scale]
        self.seed = seed
        self.M_grid = size["M_grid"]
        self.replicates = size["replicates"]

    def setup(self) -> None:
        self.cases = []
        for M in self.M_grid:
            truth = ModelParams(
                M=M, r=3, B=sim.random_frame(M, 3, self.seed), lam=self.eigenvalues, sigma2=1.0
            )
            for rep in range(self.replicates):
                S = sim.sample_dataset(truth, "matrix", self.n, (self.seed, M, rep)).cov
                lam_err = float(np.linalg.norm(matrixcase.pca_fit(S, 3).lam - self.eigenvalues))
                self.cases.append((S, lam_err))

    def warm_up(self) -> None:
        matrixcase.reml_equals_pca(self.cases[0][0], self.n, 3)

    def run_pass(self, i: int):
        times, reports = {}, []
        for j, (S, _) in enumerate(self.cases):
            t0 = time.perf_counter()
            try:
                reports.append(matrixcase.reml_equals_pca(S, self.n, 3))
            except Exception as exc:
                reports.append(repr(exc))
            times[f"case{j}"] = time.perf_counter() - t0
        return times, reports

    def check(self, reports) -> Checked:
        """The criterion-1 gates: gradient at the closed form below 1e-10,
        frame and eigenvalue distance of the fit to it below 1e-6."""
        verdicts, errors, raised = {}, {}, []
        for j, (rep, (_, lam_err)) in enumerate(zip(reports, self.cases)):
            key = f"case{j}"
            if isinstance(rep, str):
                verdicts[key] = "failed"
                raised.append(rep)
                continue
            ok = (rep.grad_norm_at_pca < 1e-10 and rep.frame_distance < 1e-6
                  and rep.eigenvalue_distance < 1e-6)
            verdicts[key] = "ok" if ok else "wrong"
            # the gate holds the fitted eigenvalues within 1e-6 of the closed form's
            errors[key] = lam_err
        return Checked(verdicts, errors, tuple(raised))


WORKLOADS = {cls.name: cls for cls in (SparseFit, RateStudy, MatrixFit)}
