"""The benchmark's tracer wraps rstparse functions by name.

perfbench/run.py resolves those names only when a traced run starts, so a
renamed or re-signatured function would otherwise fail the benchmark alone.
Here the tracer is built, installed around a tiny parse and training run,
and removed again.  The reference digests are recomputed with the
benchmark's own functions, and the encoder's tape is counted as the
benchmark counts it.
"""

import importlib.util
import json
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
        # no decoder builds the dense table any more, so its span is
        # recorded only when the table is asked for
        from rstparse.chart import NeuralOracle
        from rstparse.encoder import encode_document
        NeuralOracle(result.params,
                     encode_document(docs[2], result.params)).tables()
    after = [get(owner, key) for owner, key, _, _ in tracer._targets]
    assert all(a is b for a, b in zip(after, before))

    seen = set(tracer.stats())
    assert {"encoder.encode", "chart.tables", "chart.decode.exact",
            "chart.decode.partial", "chart.decode.complete", "chart.loss",
            "chart.count_missing", "transition.greedy", "transition.loss",
            "ops.backward", "training.adam", "training.eval",
            "metrics.evaluate"} <= seen
    assert tracer.counts["table_rows"] > 0 and tracer.counts["states"] > 0


@pytest.mark.parametrize("workload", ["parse-long", "train-joint"])
def test_reference_digest_matches(bench_run, workload, tmp_path):
    """The trees of parse-long's reference documents, and the report rows of
    train-joint's two-epoch reference training, digest as perfbench records.

    A change that alters any parsed tree or report row fails here instead of
    only in a full benchmark run.
    """
    wl = bench_run.WORKLOADS[workload]
    docs, params = bench_run.setup(wl, 1, tmp_path)
    res = bench_run.Results()
    if wl.train:
        bench_run.reference_training(wl, docs, res)
    else:
        n_ref = len(wl.reference_sizes)
        bench_run.parse_body(wl, docs, params, res, lambda done: done < n_ref)
    assert res.failed == 0
    expected = json.loads((PERFBENCH / "digests.json").read_text())[workload]
    assert res.digest.hexdigest() == expected


@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_encoder_tape_does_not_grow_with_tokens(bench_run, dropout):
    """Two documents of four EDUs, with 3 and with 30 tokens per EDU, encode
    to tapes of the same size, counted as the benchmark counts tape nodes:
    the encoder records no node per token."""
    from rstparse.core import Document, Edu
    from rstparse.encoder import encode_document, make_dropout_masks

    params = bench_run.new_params()
    masks = make_dropout_masks(params, 4, dropout, np.random.default_rng(0))

    def document(tokens_per_edu):
        words = bench_run.WORD_TYPES[:tokens_per_edu]
        tags = [bench_run.TAGS[t % len(bench_run.TAGS)] for t in range(tokens_per_edu)]
        return Document(f"d{tokens_per_edu}", tuple(
            Edu(tuple(words), tuple(tags), k + 1) for k in range(4)))

    sizes = [bench_run.tape_size(encode_document(document(m), params, masks))
             for m in (3, 30)]
    assert sizes[0] == sizes[1]


def test_joint_loss_tape_does_not_grow_with_edus(bench_run):
    """The joint loss of a 5-EDU and of a 17-EDU document, with dropout,
    records tapes of the same size, counted as the benchmark counts tape
    nodes: both losses score their decisions in batches."""
    from rstparse.encoder import make_dropout_masks
    from rstparse.training import joint_loss

    params = bench_run.new_params()
    rng = np.random.default_rng(1)
    sizes = []
    for n in (5, 17):
        doc = bench_run.make_document(f"d{n}", n, rng)
        masks = make_dropout_masks(params, n, 0.2, rng)
        loss, diag = joint_loss(doc, params, bench_run.TRAIN_CONFIG, masks)
        assert diag.loss > 0.0, "chart hinge inactive, the chart loss is off the tape"
        sizes.append(bench_run.tape_size(loss))
    assert sizes[0] == sizes[1]
