"""The benchmark's tracer wraps rstparse functions by name.

perfbench/run.py resolves those names only when a traced run starts, so a
renamed or re-signatured function would otherwise fail the benchmark alone.
Here the tracer is built, installed around a tiny parse and training run,
and removed again.
"""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def bench_run():
    """perfbench/run.py as a module; the environment, sys.path and
    sys.modules entries it changes on import are put back afterwards."""
    env = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    path = list(sys.path)
    had_spans = "spans" in sys.modules
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = path
        if not had_spans:
            sys.modules.pop("spans", None)
        for var, value in env.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def test_tracer_installs_and_restores_every_name(bench_run):
    from rstparse import training

    tracer = bench_run.make_tracer()
    get = sys.modules["spans"]._get
    before = [get(owner, key) for owner, key, _, _ in tracer._targets]

    rng = np.random.default_rng(0)
    docs = [bench_run.make_document(f"t{n}", n, rng) for n in (1, 3, 4)]
    cfg = bench_run.dataclasses.replace(bench_run.TRAIN_CONFIG, hidden=4,
                                        ff_hidden=4, word_dim=4, pos_dim=4)
    with tracer.installed():
        wrapped = [get(owner, key) for owner, key, _, _ in tracer._targets]
        assert all(w is not b for w, b in zip(wrapped, before))
        result = training.train(docs, docs, bench_run.VOCABS, cfg)
        for method in bench_run.METHODS:
            training.predict_tree(docs[2], result.params, method)
    after = [get(owner, key) for owner, key, _, _ in tracer._targets]
    assert all(a is b for a, b in zip(after, before))

    seen = set(tracer.stats())
    assert {"encoder.encode", "chart.tables", "chart.decode.exact",
            "chart.decode.partial", "chart.decode.complete", "chart.loss",
            "chart.count_missing", "transition.greedy", "transition.loss",
            "ops.backward", "training.adam", "training.eval",
            "metrics.evaluate"} <= seen
    assert tracer.counts["table_rows"] > 0 and tracer.counts["states"] > 0
