"""Benchmark of rstparse, driven from outside the package through its public functions.

Run from the repository root:

    python3 perfbench/run.py --workload parse-long --seed 1 --seconds 50 --trace 0

One workload runs in this one process, with BLAS pinned to one thread, as a
closed loop with one client: the next document (or training run) starts only
after the previous one returned.  Inputs come from --seed alone: a synthetic
corpus is generated, written with data.save_corpus and read back with
data.load_corpus, and the program sees only what was read back.

Every output is checked outside the timed region, and the trees of a fixed
set of reference documents (or the report rows of a fixed reference
training run) are digested and compared with perfbench/digests.json.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Lines before it repeat every metric by name with its
unit and sample count, and record the environment.
"""

import os

# Pinned before numpy is imported, so BLAS starts with one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import rstparse  # noqa: E402
from rstparse import chart, core, data, ops, training, transition  # noqa: E402
from rstparse.encoder import ModelParams  # noqa: E402

from spans import Tracer  # noqa: E402

if not Path(rstparse.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"rstparse was imported from {rstparse.__file__}, "
                      f"not from this checkout's src/")

METHODS = training.PARSE_METHODS
CHART_METHODS = tuple(m for m in METHODS if m in chart.DECODERS)

# Model and corpus shape shared by all workloads.
HIDDEN = 64                       # hidden = ff_hidden = word_dim
POS_DIM = 32
REL_VOCAB = core.RelationVocab(f"R{r:02d}" for r in range(18))   # + LEAF = 19
VOCAB_TYPES = 4000
ZIPF_EXPONENT = 1.1
N_TAGS = 12
TOKENS_PER_EDU = (3, 12)
WORD_TYPES = tuple(f"w{r:04d}" for r in range(VOCAB_TYPES))
TAGS = tuple(f"T{t:02d}" for t in range(N_TAGS))
_ZIPF = 1.0 / np.arange(1, VOCAB_TYPES + 1) ** ZIPF_EXPONENT
ZIPF_P = _ZIPF / _ZIPF.sum()
# The parameters are indexed by the whole type inventory, not by the types a
# seed happens to draw, so the reference documents parse the same under
# every seed.
VOCABS = data.CorpusVocabs(data.Vocab(WORD_TYPES), data.Vocab(TAGS), REL_VOCAB)
PARAM_SEED = 0
REFERENCE_SEED = 20200903
SETUP_REPEATS = 5
TRAIN_CONFIG = training.TrainConfig(
    max_epochs=1, dropout=0.2, hidden=HIDDEN, ff_hidden=HIDDEN, word_dim=HIDDEN,
    pos_dim=POS_DIM, mode="joint", decoder="partial")
P90_MIN_SAMPLES = 100             # ten samples beyond the 90th percentile


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    sizes: tuple[int, ...]        # EDU counts; each round draws each once, shuffled
    rounds: int                   # seed documents = rounds * len(sizes)
    reference_sizes: tuple[int, ...]   # seed-independent documents, digested
    train: bool = False           # train on the seed documents, parse them, repeat


WORKLOADS = {w.name: w for w in (
    # The O(n^3) score tables and exact's label loop dominate.
    Workload("parse-long", (80,), 12, (80,)),
    # Joint training: loss-augmented tables, both losses, backward and Adam,
    # then parsing short documents, where the encoder and per-call overhead
    # dominate; the reference documents are a two-epoch reference training.
    # Four sizes, four documents each: every parse pass gives four samples
    # of each size.
    Workload("train-joint", (5, 9, 13, 17), 4, (3, 5, 7, 9), train=True),
)}


# --- inputs ----------------------------------------------------------------

def make_document(doc_id: str, n: int, rng: np.random.Generator) -> core.Document:
    # EDU lengths cycle through 3..12 in shuffled order, so every document of
    # n EDUs has the same number of tokens and the same parsing work.
    lengths = rng.permutation(np.resize(np.arange(TOKENS_PER_EDU[0], TOKENS_PER_EDU[1] + 1), n))
    words = rng.choice(VOCAB_TYPES, size=int(lengths.sum()), p=ZIPF_P)
    tags = rng.integers(0, N_TAGS, size=int(lengths.sum()))
    edus = []
    pos = 0
    for t, length in enumerate(lengths.tolist()):
        edus.append(core.Edu(tuple(WORD_TYPES[w] for w in words[pos:pos + length]),
                             tuple(TAGS[g] for g in tags[pos:pos + length]), t + 1))
        pos += length
    return core.Document(doc_id, tuple(edus), data.random_tree(n, REL_VOCAB, rng))


def make_corpus(wl: Workload, seed: int) -> data.Corpus:
    """Reference documents ``r*`` first, then the seed's documents ``s*``."""
    ref_rng = np.random.default_rng(REFERENCE_SEED)
    docs = [make_document(f"r{i:03d}", n, ref_rng)
            for i, n in enumerate(wl.reference_sizes)]
    rng = np.random.default_rng(seed)
    sizes = [n for _ in range(wl.rounds) for n in rng.permutation(wl.sizes).tolist()]
    docs += [make_document(f"s{i:04d}", n, rng) for i, n in enumerate(sizes)]
    return data.Corpus(tuple(docs), REL_VOCAB, VOCABS.word, VOCABS.pos)


def new_params() -> ModelParams:
    return ModelParams.init(VOCABS.word, VOCABS.pos, REL_VOCAB,
                            np.random.default_rng(PARAM_SEED), word_dim=HIDDEN,
                            pos_dim=POS_DIM, hidden=HIDDEN, ff_hidden=HIDDEN)


def setup(wl: Workload, seed: int, workdir: Path):
    """Generate, save and reload the corpus, build parameters, warm up once."""
    corpus = make_corpus(wl, seed)
    path = tempfile.mkdtemp(prefix="corpus-", dir=workdir)
    try:
        data.save_corpus(corpus, path)
        docs = data.load_corpus(path).documents
    finally:
        shutil.rmtree(path)
    params = new_params()
    training.predict_tree(docs[0], params, "transition")
    return docs, params


# --- checks ----------------------------------------------------------------

class Results:
    """Timings, check counts and the reference digest of one loop."""

    def __init__(self):
        # method -> EDU count -> seconds per predict_tree
        self.samples = {m: defaultdict(list) for m in METHODS}
        self.epochs: list[float] = []             # seconds per training epoch
        self.train_docs = 0                       # documents in those epochs
        self.units = 0                            # documents or training runs
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def flat(self, method: str) -> list[float]:
        return [s for by_n in self.samples[method].values() for s in by_n]

    def fastest_seconds(self) -> float:
        """Fastest parse of each method (see size_min) plus the fastest epoch."""
        return (sum(size_min(self.samples[m]) for m in METHODS)
                + (min(self.epochs) if self.epochs else 0.0))


def output_error(doc: core.Document, method: str, tree) -> str | None:
    """Chart trees may carry real labels on leaves (_fill_leaves), so only
    their structure is checked; transition trees must be fully valid."""
    if not isinstance(tree, core.RstTree):
        return f"returned {type(tree).__name__}, not a tree"
    if tree.n != doc.n:
        return f"tree covers {tree.n} EDUs, the document has {doc.n}"
    if method == "transition":
        return core.validate_tree(tree)
    return core.structural_error(tree)


def tree_key(doc_id: str, method: str, tree: core.RstTree) -> bytes:
    spans = sorted((s.i, s.j, s.relation, int(s.nuclearity)) for s in tree.spans)
    return f"{doc_id} {method} {spans} {sorted(tree.splits.items())}\n".encode()


def span_or_null(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# --- workload bodies -------------------------------------------------------

def parse_document(doc, params, res: Results, digest: bool, tracer=None) -> None:
    """One closed-loop step: every method, in a fixed order, on one document."""
    if tracer is not None:
        tracer.last.clear()
    for method in METHODS:
        start = time.perf_counter()
        try:
            with span_or_null(tracer, f"parse.{method}"):
                tree = training.predict_tree(doc, params, method)
        except Exception:
            traceback.print_exc()
            res.check(False, f"{doc.doc_id} {method} raised")
            continue
        res.samples[method][doc.n].append(time.perf_counter() - start)
        err = output_error(doc, method, tree)
        res.check(err is None, f"{doc.doc_id} {method}: {err}")
        if digest and err is None:
            res.digest.update(tree_key(doc.doc_id, method, tree))
    if tracer is not None and all(f"score.{m}" in tracer.last for m in CHART_METHODS):
        # The exact decoder maximizes what the others approximate.
        s = {m: tracer.last[f"score.{m}"] for m in CHART_METHODS}
        res.check(s["exact"] >= max(s["partial"], s["complete"]) - 1e-9,
                  f"{doc.doc_id}: decoder scores out of order {s}")


def parse_body(wl, docs, params, res: Results, more, tracer=None) -> None:
    n_ref = len(wl.reference_sizes)
    while more(res.units):
        doc = docs[res.units % len(docs)]
        parse_document(doc, params, res, res.units < n_ref, tracer)
        res.units += 1


def train_body(wl, docs, params, res: Results, more, tracer=None) -> None:
    """One-epoch training runs, each followed by a parse pass over the training
    documents with the trained parameters, until ``more`` says stop.  Every
    run starts afresh with its own config seed, so all epochs carry the same
    kind of work."""
    pool = list(docs[len(wl.reference_sizes):])
    while more(res.units):
        stamps = [time.perf_counter()]
        cfg = dataclasses.replace(TRAIN_CONFIG, seed=res.units)
        try:
            with span_or_null(tracer, "train"):
                result = training.train(pool, pool, VOCABS, cfg,
                                        log=lambda _: stamps.append(time.perf_counter()))
        except Exception:
            traceback.print_exc()
            res.check(False, f"training run {res.units} raised")
            break
        res.units += 1
        res.epochs += [b - a for a, b in zip(stamps, stamps[1:])]
        res.train_docs += len(pool) * len(result.reports)
        for r in result.reports:
            res.check(math.isfinite(r.train_loss), f"epoch {r.epoch} loss {r.train_loss}")
        for doc in pool:
            parse_document(doc, result.params, res, False, tracer)


def reference_training(wl, docs, res: Results) -> None:
    ref = list(docs[:len(wl.reference_sizes)])
    cfg = dataclasses.replace(TRAIN_CONFIG, max_epochs=2, seed=0)
    for report in training.train(ref, ref, VOCABS, cfg).reports:
        res.digest.update((training.report_row(report) + "\n").encode())


# --- tracing ---------------------------------------------------------------

def tape_size(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _count_tokens(tr, args, out):
    tr.counts["tokens"] += sum(len(e.tokens) for e in args[0].edus)


def _count_table(tr, args, out):
    tr.counts["table_rows"] += out.rel.shape[0]
    tr.counts["table_mb"] += (out.span.nbytes + out.rel.nbytes + out.nuc.nbytes) / 2**20


def _keep_score(method):
    def after(tr, args, out):
        tr.last[f"score.{method}"] = out[1]
    return after


def _count_hinge(tr, args, out):
    tr.counts["hinge_active"] += out[1].loss > 0.0


def _count_states(tr, args, out):
    tr.counts["states"] += 2 * args[0].n - 1


def _count_tape(tr, args, out):
    tr.counts["tape_nodes"] += tape_size(args[0])


def make_tracer() -> Tracer:
    """Wrap the names rstparse resolves at call time, one span per layer call."""
    tr = Tracer()
    for module in (training, chart, transition):
        tr.wrap(module, "encode_document", "encoder.encode", _count_tokens)
    tr.wrap(chart.NeuralOracle, "tables", "chart.tables", _count_table)
    for method in CHART_METHODS:
        tr.wrap(chart.DECODERS, method, f"chart.decode.{method}", _keep_score(method))
    tr.wrap(chart, "augment_tables", "chart.augment")
    tr.wrap(training, "chart_loss", "chart.loss", _count_hinge)
    tr.wrap(training, "count_missing", "chart.count_missing")
    tr.wrap(training, "greedy_parse", "transition.greedy", _count_states)
    tr.wrap(training, "transition_loss", "transition.loss")
    tr.wrap(ops, "backward", "ops.backward", _count_tape)
    tr.wrap(training, "adam_step", "training.adam")
    tr.wrap(training, "evaluate_model", "training.eval")
    tr.wrap(training, "evaluate_trees", "metrics.evaluate")
    tr.wrap(data, "load_corpus", "data.load")
    return tr


def layer_metrics(tr: Tracer, overhead_pct: float) -> dict:
    """Per call: self time (or inclusive, for the three whole-pass layers) and
    the counts recorded beside each span."""
    stats = tr.stats()

    def ms(name, inclusive=False):
        calls, incl, own = stats.get(name, (0, 0.0, 0.0))
        return 1000.0 * (incl if inclusive else own) / calls if calls else 0.0

    def per_call(counter, name):
        calls = stats.get(name, (0,))[0]
        return tr.counts[counter] / calls if calls else 0.0

    out = {
        "encoder.encode_ms": (ms("encoder.encode"), "ms"),
        "encoder.tokens": (per_call("tokens", "encoder.encode"), "count"),
        "chart.tables_ms": (ms("chart.tables"), "ms"),
        "chart.table_rows": (per_call("table_rows", "chart.tables"), "count"),
        "chart.table_mb": (per_call("table_mb", "chart.tables"), "MB"),
    }
    for method in CHART_METHODS:
        out[f"chart.decode_ms.{method}"] = (ms(f"chart.decode.{method}"), "ms")
    out.update({
        "chart.augment_ms": (ms("chart.augment"), "ms"),
        "chart.loss_ms": (ms("chart.loss"), "ms"),
        "chart.hinge_active_frac": (per_call("hinge_active", "chart.loss"), "ratio"),
        "chart.count_missing_ms": (ms("chart.count_missing", True), "ms"),
        "training.eval_ms": (ms("training.eval", True), "ms"),
        "transition.greedy_ms": (ms("transition.greedy"), "ms"),
        "transition.states": (per_call("states", "transition.greedy"), "count"),
        "transition.loss_ms": (ms("transition.loss"), "ms"),
        "ops.backward_ms": (ms("ops.backward"), "ms"),
        "ops.tape_nodes": (per_call("tape_nodes", "ops.backward"), "count"),
        "training.adam_ms": (ms("training.adam"), "ms"),
        "metrics.evaluate_ms": (ms("metrics.evaluate"), "ms"),
        "data.load_ms": (ms("data.load", True), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return out


# --- metrics and reporting -------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def size_min(by_n: dict) -> float:
    """The fastest parse of each EDU count, averaged over the counts.

    Documents of one size carry the same work, so the fastest of them is the
    time the program needs when nothing else on the machine slows it; on a
    shared machine that figure is far steadier from run to run than a median.
    Every size weighs the same however many of its documents a run reached.
    """
    return statistics.fmean(min(v) for v in by_n.values()) if by_n else 0.0


def end_to_end_metrics(res: Results, setup_times: list[float]) -> dict:
    out = {"setup_s": (median(setup_times), "s"),
           "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    for method in METHODS:
        out[f"parse_ms_min.{method}"] = (1000.0 * size_min(res.samples[method]), "ms")
    if res.epochs:       # training documents per second in the fastest epoch
        rate = res.train_docs / len(res.epochs) / min(res.epochs)
    else:                # documents per second through all four methods
        total_ms = sum(out[f"parse_ms_min.{m}"][0] for m in METHODS)
        rate = 1000.0 / total_ms if total_ms else 0.0
    out["docs_per_s"] = (rate, "1/s")
    return out


def summary_lines(res: Results, setup_times, metrics: dict) -> list[str]:
    """Every metric with its unit and sample count, then figures that are not
    gated: the median and, where each method has enough samples, the 90th
    percentile of all parses, the median epoch, and the failure share."""
    counts = {"setup_s": len(setup_times), "peak_rss_mb": 1,
              "docs_per_s": len(res.epochs) or res.units}
    counts.update({f"parse_ms_min.{m}": len(res.flat(m)) for m in METHODS})
    rows = [(name, value, unit, counts.get(name, 1)) for name, (value, unit) in metrics.items()]
    for m in METHODS:
        rows.append((f"parse_ms_p50.{m}", 1000.0 * median(res.flat(m)), "ms", len(res.flat(m))))
    if all(len(res.flat(m)) >= P90_MIN_SAMPLES for m in METHODS):
        for m in METHODS:
            p90 = statistics.quantiles(res.flat(m), n=10)[-1]
            rows.append((f"parse_ms_p90.{m}", 1000.0 * p90, "ms", len(res.flat(m))))
    if res.epochs:
        rows.append(("train_epoch_s", median(res.epochs), "s", len(res.epochs)))
    rows.append(("failed_frac", res.failed / max(res.attempted, 1), "ratio", res.attempted))
    return [f"{name:28s} {value:14.6f} {unit:6s} n={n}" for name, value, unit, n in rows]


def environment(wl: Workload, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_version,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "workload": wl.name, "seed": seed}


def run(wl: Workload, seed: int, seconds: float, trace: bool,
        expected_digest: str | None, workdir: Path) -> tuple[dict, list[str], str]:
    """Returns (result object, summary lines, reference digest)."""
    tracer = make_tracer() if trace else None
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            docs, params = setup(wl, seed, workdir)
        setup_times.append(time.perf_counter() - start)

    body = train_body if wl.train else parse_body
    minimum = 1 if wl.train else len(wl.reference_sizes)

    def until(deadline):
        return lambda done: done < minimum or time.perf_counter() < deadline

    res = Results()
    if tracer is None:
        body(wl, docs, params, res, until(time.perf_counter() + seconds))
        phases = [res]
    else:
        # Half the time untraced, then the same units again traced.
        body(wl, docs, params, res, until(time.perf_counter() + seconds / 2))
        traced = Results()
        with tracer.installed():
            body(wl, docs, params, traced, lambda done: done < res.units, tracer)
        phases = [res, traced]
    if wl.train:
        reference_training(wl, docs, res)
    # A parse phase digests the reference documents it parses first.
    for phase in [res] if wl.train else phases:
        got = phase.digest.hexdigest()
        phase.check(got == expected_digest, f"reference digest {got}, expected {expected_digest}")
    digest = res.digest.hexdigest()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)

    if tracer is None:
        metrics = end_to_end_metrics(res, setup_times)
        lines = summary_lines(res, setup_times, metrics)
    else:
        untraced = res.fastest_seconds()
        overhead = (100.0 * (phases[1].fastest_seconds() - untraced) / untraced
                    if untraced else 0.0)
        metrics = layer_metrics(tracer, overhead)
        lines = [f"{name:28s} {value:14.6f} {unit:6s}" for name, (value, unit) in metrics.items()]
        tracer.write(workdir / f"spans-{wl.name}.jsonl", environment(wl, seed))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, lines, digest


def main(argv=None, workloads=WORKLOADS) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = workloads[args.workload]
    expected = json.loads((HERE / "digests.json").read_text(encoding="utf-8")).get(wl.name)
    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)

    print("env " + json.dumps(environment(wl, args.seed)))
    result, lines, digest = run(wl, args.seed, args.seconds, bool(args.trace),
                                expected, workdir)
    print("\n".join(lines))
    print(f"digest {digest} expected {expected}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
