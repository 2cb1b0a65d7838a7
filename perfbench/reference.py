"""A fixed reference kernel that gauges how fast the host runs right now.

A shared host slows a process down for tens of seconds to minutes at a
time: every call then takes up to 1.6x as long, CPU time included, so
a run can be slow from its first pass to its last and no statistic over
its own passes removes that.  Timing this kernel next to each pass and
dividing by it does.  The kernel makes the same kinds of calls as a
remlpc fit (small matrix products, QR, batched r x r solves, a 6 x 6
matrix exponential, a Python loop of np.kron) on inputs drawn from a
fixed seed, and runs none of remlpc's code, so no change to remlpc
moves it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

SEED = 20080512
ROUNDS = 8  # about 50 ms per run of the kernel on a 2-core Xeon VM
REPEATS = 3


class Reference:
    def __init__(self):
        rng = np.random.default_rng(SEED)
        self.inputs = []
        for M in (4, 10, 50, 200):
            X = rng.standard_normal((M, M))
            K = rng.standard_normal((6, 6))
            self.inputs.append((
                X @ X.T / M + np.eye(M),
                rng.standard_normal((M, 3)),
                (K - K.T) / 2,
                rng.standard_normal((40, M)),
                rng.standard_normal((256, 3, 3)) + 3 * np.eye(3),
            ))

    def run(self) -> float:
        acc = 0.0
        for S, B, K, phi, batch in self.inputs * ROUNDS:
            G = S @ B
            _, R = np.linalg.qr(G)
            acc += np.linalg.slogdet(B.T @ G)[1] + R[0, 0]
            acc += np.linalg.solve(batch, np.ones((batch.shape[0], 3, 1))).sum()
            acc += scipy.linalg.expm(K)[0, 0]
            for p in phi:
                acc += np.kron(p, p).sum()
        return acc

    def samples(self) -> list[float]:
        """Wall times of REPEATS runs of the kernel."""
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self.run()
            times.append(time.perf_counter() - t0)
        return times
