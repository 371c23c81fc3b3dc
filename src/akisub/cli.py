"""Command-line entry point.

Subcommands: synth, label, featurize, train, embed, cluster, interpret,
evaluate, all. Global flags: --config PATH (JSON run config), --seed INT,
--out DIR, --t1 {24,48}, --force. Exit code 0 on success; on failure a
machine-readable JSON error line goes to stderr and the exit code maps the
error category (see errors.EXIT_CODES).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import EXIT_CODES, AkisubError
from .features import T1_HOURS
from .stages import STAGES, RunConfig, config_from_dict, load_config, run_all, run_stage


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="akisub",
        description="Synthetic-cohort AKI risk representation learning and "
                    "sub-phenotype discovery pipeline.")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON run config (defaults used when omitted)")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", metavar="DIR", help="override the output directory")
    parser.add_argument("--t1", type=int, choices=T1_HOURS,
                        help="override the observation window in hours")
    parser.add_argument("--force", action="store_true",
                        help="re-run stages even when manifests match")
    sub = parser.add_subparsers(dest="stage", required=True, metavar="STAGE")
    for stage in STAGES:
        sub.add_parser(stage, help=f"run the '{stage}' stage")
    sub.add_parser("all", help="run every stage in order")
    return parser


def resolve_config(args) -> RunConfig:
    if args.config:
        config = load_config(args.config)
    else:
        config = config_from_dict({})
    if args.seed is not None or args.t1 is not None:
        raw = config.to_dict()
        raw.pop("schema_version")
        if args.seed is not None:
            raw["seed"] = args.seed
            for section in ("cohort", "model", "cluster", "evaluate"):
                raw[section]["seed"] = args.seed
        if args.t1 is not None:
            raw["t1_hours"] = args.t1
        config = config_from_dict(raw)
    if args.out is not None:
        config.out_dir = args.out
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        if args.stage == "all":
            manifests = run_all(config, force=args.force)
        else:
            manifests = [run_stage(args.stage, config, force=args.force)]
        for manifest in manifests:
            print(f"[{manifest['stage']}] ok: "
                  + ", ".join(sorted(manifest["outputs"])))
        return 0
    except AkisubError as e:
        print(json.dumps({"error": e.category, "message": str(e)}), file=sys.stderr)
        return EXIT_CODES.get(e.category, 1)


if __name__ == "__main__":
    sys.exit(main())
