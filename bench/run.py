"""Offline benchmark of the finkgqa pipeline under the mock chat provider.

    python3 bench/run.py --workload chain-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark generates a seeded FinQA-shaped
corpus (bench/corpus.py), drives the public ``pipeline.cmd_*`` functions with
the mock chat provider and the local hashing embedder, checks the outputs,
and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes of the same timed phase and reports the per-layer
metrics of bench/tracing.py instead. Workloads, metrics and the layer table
are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from corpus import Shape, write_corpus

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

EPOCHS = 5
TOP_K = 10
MAX_WORKERS = 2  # one process, a closed pool of at most nproc worker threads
MIN_ITERATIONS = 3

FULL_CHAIN = ("ingest", "extract", "train_retriever", "answer_vanilla", "answer_kg",
              "evaluate", "report")
WARM_PHASE = ("extract", "answer_vanilla", "answer_kg", "evaluate")


@dataclass(frozen=True)
class Workload:
    shape: Shape
    warm: bool  # prime the cache and artifacts in set-up, then time WARM_PHASE
    setups: int  # set-ups per run; setup_s is their median


WORKLOADS = {
    # First run on a new corpus: every chat request misses the cache and writes
    # an entry; feature building plus MLP fitting dominate.
    "chain-cold": Workload(
        Shape(n_train=60, n_test=60, year_rows=(4, 8), usd_cols=4, pct_cols=2,
              pre_sentences=3, post_sentences=2),
        warm=False, setups=11),
    # Re-run after a change over a fully warm cache: about 100 candidate
    # triplets per question, so retrieval scoring and store parsing dominate.
    "kg-warm-wide": Workload(
        Shape(n_train=60, n_test=40, year_rows=(8, 8), usd_cols=9, pct_cols=3,
              pre_sentences=3, post_sentences=2),
        warm=True, setups=3),
    # Long filings with tiny tables: chunked extraction, hashing of large
    # prompts, large cache files and vanilla prompt assembly dominate; the
    # retriever sees few candidates.
    "narrative-cold": Workload(
        Shape(n_train=30, n_test=60, year_rows=(2, 2), usd_cols=2, pct_cols=0,
              pre_sentences=110, post_sentences=110),
        warm=False, setups=11),
}

END_TO_END = (
    ("setup_s", "s"), ("chain_s", "s"), ("extract_s", "s"), ("train_retriever_s", "s"),
    ("answer_vanilla_s", "s"), ("answer_kg_s", "s"), ("peak_rss_mb", "MB"),
    ("disk_mb", "MB"), ("kg_accuracy", "ratio"), ("vanilla_accuracy", "ratio"),
    ("kg_recall_at_k", "ratio"),
)


def make_config(pl, paths: dict[str, Path], work: Path, splits, workers: int):
    return pl.PipelineConfig(
        seed=13,
        data={s: str(paths[s]) for s in splits},
        output_dir=str(work / "out"),
        cache_dir=str(work / "cache"),
        chat=pl.ProviderConfig(kind="mock", answer_key=str(paths["test"])),
        max_inflight=workers,
        epochs=EPOCHS,
        retriever_k=TOP_K,
    )


def run_chain(pl, cfg, stages, n_docs: dict[str, int]) -> dict:
    """Run `stages` in order and time each; a stage that raises fails all its items."""
    summaries = {}

    def evaluate():
        for mode in ("vanilla", "kg"):
            summaries[mode] = pl.cmd_evaluate(cfg, "test", mode)

    steps = {
        "ingest": (lambda: pl.cmd_ingest(cfg), 0),
        "extract": (lambda: pl.cmd_extract(cfg), sum(n_docs[s] for s in cfg.data)),
        "train_retriever": (lambda: pl.cmd_train_retriever(cfg), 0),
        "answer_vanilla": (lambda: pl.cmd_answer(cfg, "test", "vanilla"), n_docs["test"]),
        "answer_kg": (lambda: pl.cmd_answer(cfg, "test", "kg"), n_docs["test"]),
        "evaluate": (evaluate, 0),
        "report": (lambda: pl.cmd_report(cfg, summaries["vanilla"]["accuracy_pct"],
                                         summaries["kg"]["accuracy_pct"]), 0),
    }
    times, errors = {}, []
    attempted = failed = 0
    start = time.perf_counter()
    for stage in stages:
        fn, items = steps[stage]
        attempted += items
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # keep going, so every failed item is counted
            errors.append(f"{stage}: {exc!r}")
            failed += items
        times[stage] = time.perf_counter() - t0
    return {"chain_s": time.perf_counter() - start, "times": times, "errors": errors,
            "attempted": attempted, "failed": failed,
            "accuracy": {m: s["accuracy"] for m, s in summaries.items()}}


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def inspect_outputs(pl, cfg, docs) -> dict:
    """Digests, sizes and retrieval recall of the artifacts a chain left behind."""
    from finkgqa import retriever
    from finkgqa.kg_schema import parse_triplets_file

    out = Path(cfg.output_dir)
    problems = []
    predictions = {}
    for mode in ("vanilla", "kg"):
        path = pl.predictions_path(cfg, "test", mode)
        lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
        predictions[mode] = [json.loads(line) for line in lines]
        if len(lines) != len(docs):
            problems.append(f"{mode}: {len(lines)} predictions for {len(docs)} questions")

    store = pl.triplets_path(cfg, "test")
    by_doc: dict[str, list] = {}
    if store.exists():
        for t in parse_triplets_file(store.read_text(encoding="utf-8")):
            by_doc.setdefault(t.source_doc, []).append(t)
    hits = 0
    docs_by_id = {doc.id: doc for doc in docs}
    for entry in predictions["kg"]:
        doc = docs_by_id[entry["doc_id"]]
        candidates = by_doc.get(doc.id, [])
        retrieved = set(entry["retrieved"])
        if len(entry["retrieved"]) > TOP_K or not retrieved <= {t.triplet_id for t in candidates}:
            problems.append(f"kg: {doc.id} retrieved ids outside its top-{TOP_K} candidates")
        labels = retriever.label_triplets(doc, candidates)
        hits += any(label and t.triplet_id in retrieved for t, label in zip(candidates, labels))

    cache = Path(cfg.cache_dir)
    return {
        "digests": {"predictions_test_kg.jsonl": _sha256(pl.predictions_path(cfg, "test", "kg")),
                    "triplets_test.jsonl": _sha256(store)},
        "recall": hits / len(docs),
        "disk_bytes": _dir_bytes(out) + _dir_bytes(cache),
        "cache_entries": sum(1 for _ in cache.glob("*.json")),
        "problems": problems,
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "finkgqa" / "pipeline.py").is_file():
        print(f"bench: no finkgqa sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from finkgqa import pipeline as pl
    from finkgqa.preprocess import load_split
    from tracing import LAYER_METRICS, Tracer, layer_metrics, traced

    wl = WORKLOADS[args.workload]
    shape = wl.shape
    n_docs = {"train": shape.n_train, "test": shape.n_test}
    work = WORK / args.workload
    workers = min(MAX_WORKERS, _nproc())
    problems: list[str] = []
    chains: list[dict] = []  # every chain run, priming included, for the op counts

    # --- set-up: corpus generation, plus the priming chain on warm workloads
    setup_times, primes = [], []
    for _ in range(1 if args.trace else wl.setups):
        shutil.rmtree(work, ignore_errors=True)
        t0 = time.perf_counter()
        paths = write_corpus(args.seed, shape, work / "corpus")
        if wl.warm:
            full = make_config(pl, paths, work, ("train", "test"), workers)
            primes.append(run_chain(pl, full, FULL_CHAIN, n_docs))
        setup_times.append(time.perf_counter() - t0)
    docs = {split: load_split(paths[split]) for split in n_docs}
    for split, n in n_docs.items():
        if len(docs[split]) != n:
            problems.append(f"corpus: {len(docs[split])} of {n} {split} records loaded")
    cfg = make_config(pl, paths, work, ("test",) if wl.warm else ("train", "test"), workers)

    reference: dict = {}  # artifact digests every run of this seed must reproduce

    def check(run: dict) -> None:
        chains.append(run)
        seen = inspect_outputs(pl, cfg, docs["test"])
        run.update(seen)
        problems.extend(run["errors"] + seen["problems"])
        for mode in ("kg", "vanilla"):
            if run["accuracy"].get(mode) != 1.0:
                problems.append(f"{mode} accuracy {run['accuracy'].get(mode)} != 1.0")
        if not reference:
            reference.update(seen["digests"])
        elif seen["digests"] != reference:
            problems.append(f"artifact digests differ between runs of seed {args.seed}")

    for prime in primes:
        check(prime)
    primed_entries = chains[-1]["cache_entries"] if wl.warm else None

    # --- timed phase
    tracer = Tracer()
    timed, traced_runs = [], []
    retrains = []  # warm workloads: train-retriever re-timed on the primed artifacts
    stages = WARM_PHASE if wl.warm else FULL_CHAIN
    t_start = time.perf_counter()
    while True:
        for trace in ((False, True) if args.trace else (False,)):
            if not wl.warm:  # every cold chain starts from an empty cache and output dir
                shutil.rmtree(cfg.output_dir, ignore_errors=True)
                shutil.rmtree(cfg.cache_dir, ignore_errors=True)
            if trace:
                tracer.iteration += 1
            elif wl.warm and not args.trace:
                # The warm phase has no training, so train_retriever_s is timed here,
                # outside chain_s; the chain that follows checks the refitted model.
                t0 = time.perf_counter()
                try:
                    pl.cmd_train_retriever(full)
                except Exception as exc:
                    problems.append(f"train_retriever: {exc!r}")
                retrains.append(time.perf_counter() - t0)
            with traced(tracer) if trace else nullcontext():
                run = run_chain(pl, cfg, stages, n_docs)
            check(run)
            if primed_entries is not None and run["cache_entries"] != primed_entries:
                problems.append("warm phase wrote to the response cache")
            (traced_runs if trace else timed).append(run)
        elapsed = time.perf_counter() - t_start
        if elapsed >= args.seconds and len(timed) >= (1 if args.trace else MIN_ITERATIONS):
            break

    # --- metrics
    if args.trace:
        values = layer_metrics(tracer.spans, len(traced_runs))
        traced_chain = _median([r["chain_s"] for r in traced_runs])
        untraced_chain = _median([r["chain_s"] for r in timed])
        values.update({"trace.chain_s": traced_chain, "trace.untraced_chain_s": untraced_chain,
                       "trace.overhead_ratio": traced_chain / untraced_chain})
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    else:
        last = timed[-1]
        values = {
            "setup_s": _median(setup_times),
            "chain_s": _median([r["chain_s"] for r in timed]),
            "extract_s": _median([r["times"]["extract"] for r in timed]),
            "train_retriever_s": _median(retrains if wl.warm else
                                         [r["times"]["train_retriever"] for r in timed]),
            "answer_vanilla_s": _median([r["times"]["answer_vanilla"] for r in timed]),
            "answer_kg_s": _median([r["times"]["answer_kg"] for r in timed]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "disk_mb": _median([r["disk_bytes"] for r in timed]) / 1e6,
            "kg_accuracy": min(r["accuracy"].get("kg", 0.0) for r in timed),
            "vanilla_accuracy": min(r["accuracy"].get("vanilla", 0.0) for r in timed),
            "kg_recall_at_k": last["recall"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    attempted = sum(r["attempted"] for r in chains)
    failed = sum(r["failed"] for r in chains)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    env = {
        "nproc": _nproc(), "python": platform.python_version(), "numpy": np.__version__,
        "platform": platform.platform(), "workers": workers, "epochs": EPOCHS,
        "top_k": TOP_K, "corpus": shape.describe(), "setups": len(setup_times),
        "timed_stages": list(stages), "iterations": len(timed),
        "traced_iterations": len(traced_runs),
    }
    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(WORK / f"{stem}.spans.jsonl")
    record = {"workload": args.workload, "seed": args.seed, "env": env,
              "digests": reference, "problems": problems, "metrics": metrics,
              "failed_ops": failed / attempted if attempted else 0.0,
              "runs": [{k: r[k] for k in ("chain_s", "times", "recall", "disk_bytes")}
                       for r in chains],
              "retrain_s": retrains}
    (WORK / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env))
    for name, digest in reference.items():
        print(f"sha256 {name} {digest}")
    for name, metric in metrics.items():
        print(f"  {name:<42} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_ops':<42} {record['failed_ops']:.6g} ratio ({failed} of {attempted})")
    for problem in dict.fromkeys(problems):
        print(f"FAIL {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
