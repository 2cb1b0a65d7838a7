"""The benchmark's span tracer must still find every layer it times.

perfbench/tracer.py wraps module attributes (``optimizer.step``,
``model.functional_loss``, ...).  A refactor that calls a kernel some
other way leaves its wrapper unused and its per-layer metrics at zero
without any error; these tests turn that into a failure.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from conftest import spiked_sample_cov
from remlpc import cli, make_basis, matrixcase, optimizer, sim

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_spans(run) -> list[tuple]:
    tracer_mod = load_tracer()
    assert tracer_mod.absent_layers() == []
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    tracer_mod.assert_unwrapped()
    return tracer.spans


def traced_layers(run) -> Counter:
    return Counter(span[2] for span in traced_spans(run))


def test_sparse_fit_reaches_every_hook():
    truth = sim.make_true_kernel("fourier", [2.0, 1.0], seed=1)
    data = sim.sample_dataset(truth, "sparse", 40, (1, 40, 0), sigma2=0.25, m_bounds=(3, 6))
    config = optimizer.FitConfig(restarts=1, max_iter=5)
    calls = traced_layers(lambda: optimizer.fit(data, make_basis(5), 2, 0.25, 1.0, config))
    for layer in ("model.functional_loss", "calculus.grad_functional_raw",
                  "model.curve_batches", "stiefel.product_exp", "optimizer.init_params",
                  "optimizer.step"):
        assert calls[layer] > 0, layer


def test_matrix_fit_reaches_every_hook():
    S = spiked_sample_cov(8, 2, 300, seed=3)
    calls = traced_layers(lambda: matrixcase.reml_equals_pca(S, 300, 2))
    for layer in ("model.matrix_loss", "calculus.grad_matrix", "calculus.inv_hessian_star_B"):
        assert calls[layer] > 0, layer


def test_rate_experiment_reaches_every_hook():
    cfg = sim.ExperimentConfig(
        regime="sparse", n_grid=(40, 60), replicates=1, r=2, base_seed=2, sigma2=0.25,
        m_bounds=(3, 6), M_schedule={"kind": "fixed", "M": 5},
        truth={"family": "fourier", "eigenvalues": [2.0, 1.0]}, fit={"max_iter": 5},
    )
    # called as perfbench/workloads.py calls it
    calls = traced_layers(lambda: sim.rate_experiment(cfg, threads=1))
    for layer in ("sim.rate_experiment", "sim.sample_dataset", "sim.optimal_parameter",
                  "sim.kernel_l2_distance", "optimizer.fit"):
        assert calls[layer] > 0, layer


def test_cli_fit_reaches_the_csv_hook(tmp_path, capsys):
    truth = sim.make_true_kernel("fourier", [2.0, 1.0], seed=1)
    data = sim.sample_dataset(truth, "sparse", 40, (1, 40, 0), sigma2=0.25, m_bounds=(3, 6))
    path = tmp_path / "curves.csv"
    cli.write_curves_csv(str(path), data)
    data_rows = len(path.read_text().splitlines()) - 1
    # called as perfbench/workloads.py calls it
    spans = traced_spans(lambda: cli.main(["fit", "--data", str(path), "--M", "5", "--r", "2",
                                           "--sigma2", "0.25", "--max-iter", "5"]))
    reads = [span for span in spans if span[2] == "cli.read_curves_csv"]
    assert len(reads) == 1
    # the _rows extra, which counts rows through result.curves
    assert reads[0][5] == data_rows
    capsys.readouterr()
