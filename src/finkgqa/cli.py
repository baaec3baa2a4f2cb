"""Command-line entry point for the pipeline stages."""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import pipeline
from .pipeline import PipelineConfig, apply_overrides


def _parse_sets(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _load_config(args, parser: argparse.ArgumentParser) -> PipelineConfig:
    """The config file's settings under the command line's; a config error
    exits through `parser.error`, with one line and status 2."""
    try:
        cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
        overrides = _parse_sets(args.set or [])
        if getattr(args, "output_dir", None):
            overrides["output_dir"] = args.output_dir
        if getattr(args, "cache_dir", None):
            overrides["cache_dir"] = args.cache_dir
        if getattr(args, "seed", None) is not None:
            overrides["seed"] = args.seed
        apply_overrides(cfg, overrides)
    except KeyError as exc:  # its str() would quote the message
        parser.error(exc.args[0])
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finkgqa",
        description="Knowledge-graph-augmented numerical QA over financial documents",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")

    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config key (dotted path)")
        p.add_argument("--output-dir")
        p.add_argument("--cache-dir")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("ingest", help="parse splits into the document store")
    common(p)

    p = sub.add_parser("extract", help="extract triplets into the store")
    common(p)

    p = sub.add_parser("train-retriever", help="fit the relevance filter")
    common(p)

    p = sub.add_parser("answer", help="answer questions for one split")
    common(p)
    p.add_argument("--split", default="test", choices=pipeline.SPLITS)
    p.add_argument("--mode", default="kg", choices=("vanilla", "kg"))

    p = sub.add_parser("evaluate", help="judge predictions and report accuracy")
    common(p)
    p.add_argument("--split", default="test", choices=pipeline.SPLITS)
    p.add_argument("--mode", default="kg", choices=("vanilla", "kg"))

    p = sub.add_parser("report", help="compare two run accuracies")
    common(p)
    p.add_argument("--baseline", required=True,
                   help="accuracy percentage or evaluation summary file")
    p.add_argument("--treatment", required=True,
                   help="accuracy percentage or evaluation summary file")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    cfg = _load_config(args, parser)

    if args.command == "ingest":
        counts = pipeline.cmd_ingest(cfg)
        print(json.dumps(counts))
        if counts["n_errors"]:  # the document store is written, but records were skipped
            return 1
    elif args.command == "extract":
        counts = pipeline.cmd_extract(cfg)
        print(json.dumps(counts))
        if counts["n_errors"]:  # the triplet store is written, but the run failed
            return 1
    elif args.command == "train-retriever":
        stats = pipeline.cmd_train_retriever(cfg)
        print(json.dumps(stats))
    elif args.command == "answer":
        counts = pipeline.cmd_answer(cfg, args.split, args.mode)
        print(json.dumps({**counts, "split": args.split, "mode": args.mode}))
        if counts["n_errors"]:  # the predictions file is written, but the run failed
            return 1
    elif args.command == "evaluate":
        summary = pipeline.cmd_evaluate(cfg, args.split, args.mode)
        print(json.dumps(summary))
    elif args.command == "report":
        print(pipeline.cmd_report(cfg, args.baseline, args.treatment), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
