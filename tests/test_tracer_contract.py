"""The names perfbench/spans.py wraps must exist and be the ones a run calls:
a tiny traced `bench run` reports cells, objective evaluations and the
policy calls inside them.  A rename then fails here, not in a traced
benchmark run."""

import importlib.util
import os
import sys

from dro_crm import save_multilabel_svmlight, synthetic_multilabel
from dro_crm.cli import main

_SPANS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve names there
    spec.loader.exec_module(module)
    return module


def test_traced_run_reports_layer_metrics(tmp_path, capsys):
    spans = _load_spans()
    data = tmp_path / "synth.svm"
    save_multilabel_svmlight(synthetic_multilabel(120, 6, 2, seed=3), data)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset = {data}\nalgorithms = cips,aklcrm\nseeds = 0\n"
                   "delta = 2\nthreads = 1\noptim_max_iters = 5\n"
                   f"grid_aklcrm = 1e-3\nout_dir = {tmp_path / 'out'}\n")
    tracer = spans.Tracer()
    with spans.installed(tracer), tracer.span("cli", "main") as root:
        code = main(["run", "--config", str(cfg)])
    capsys.readouterr()
    assert code == 0
    metrics = {k: v for k, (v, _unit) in spans.layer_metrics(tracer.spans, root).items()}
    assert metrics["bench.cell_s.cips"] > 0.0
    assert metrics["bench.cell_s.aklcrm"] > 0.0
    assert metrics["objectives.evals"] > 0
    assert 0.0 < metrics["policy.matrix_calls_per_eval"] < 3.0
    assert metrics["divergence.boltzmann_calls"] > 0
