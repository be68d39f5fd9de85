"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For each workload, shrunk to a handful of documents and a one-second loop,
it runs the benchmark with and without tracing and checks that every metric
BENCHMARK.json names is printed, that a clean run passes every check, and
that a malformed tree returned by the parser is counted as a failure.
"""

import contextlib
import dataclasses
import io
import json
import sys

import run
from rstparse import core, training

TINY = {
    "parse-long": dict(rounds=0),
    "train-joint": dict(sizes=(3, 4), rounds=1),
}


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest failed: {what}")


def bench(workloads, name: str, trace: int) -> tuple[dict, str, str]:
    """(result object, stdout, stderr) of one tiny run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace)], workloads)
    expect(code == 0, f"{name} trace={trace} exited with {code}")
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text, err.getvalue()


def malformed(predict):
    """predict_tree whose partial trees lose their first leaf."""
    def broken(doc, params, method):
        tree = predict(doc, params, method)
        if method != "partial":
            return tree
        spans = [s for s in tree.spans if (s.i, s.j) != (0, 1)]
        return core.RstTree(spans, tree.n, tree.splits)
    return broken


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    expect({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
           "BENCHMARK.json and run.py name different workloads")
    tiny = {k: dataclasses.replace(w, **TINY[k]) for k, w in run.WORKLOADS.items()}

    for name in tiny:
        for trace in (0, 1):
            result, text, errors = bench(tiny, name, trace)
            expect(set(result["metrics"]) == names[trace],
                   f"{name} trace={trace} metrics differ from BENCHMARK.json: "
                   f"{sorted(set(result['metrics']) ^ names[trace])}")
            for metric in names[trace]:
                expect(f"\n{metric} " in text, f"{name}: {metric} not printed by name")
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace}: clean run failed {result['failed']} checks\n{errors}")
            if trace == 0:
                expect("failed_frac" in text and result["attempted"] > 0,
                       f"{name}: failed_frac not printed")
        print(f"selftest {name}: clean runs ok")

    predict = training.predict_tree
    training.predict_tree = malformed(predict)
    try:
        result, _, _ = bench(tiny, "train-joint", 0)
    finally:
        training.predict_tree = predict
    expect(not result["correct"] and result["failed"] >= 1,
           "a malformed tree was not counted as failed")
    print("selftest: malformed tree counted as failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
