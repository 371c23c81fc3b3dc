"""Command-line entry point.

Subcommands: synth, label, featurize, train, embed, cluster, interpret,
evaluate, all. Global flags: --config PATH (JSON run config), --seed INT,
--out DIR, --t1 {24,48}, --force. --seed, --t1 and --out are written into the
config's JSON before its one parse, so they are checked like the file's own
values. Exit code 0 on success; on failure a machine-readable JSON error line
goes to stderr and the exit code maps the error category (see
errors.EXIT_CODES).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import EXIT_CODES, AkisubError, ConfigError
from .features import T1_HOURS
from .stages import STAGES, RunConfig, config_from_dict, run_all, run_stage


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
    """The run config of --config (the defaults when omitted), with --seed, --t1 and
    --out written into its JSON before the one parse. Every seed must equal the run's,
    so --seed also replaces each seed a section of the file sets."""
    raw = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_bytes())
        except OSError as e:
            raise ConfigError(f"{args.config}: cannot read ({e.strerror})") from None
        except ValueError as e:  # not UTF-8 JSON
            raise ConfigError(f"{args.config}: invalid JSON ({e})") from None
    if isinstance(raw, dict):
        flags = {"seed": args.seed, "t1_hours": args.t1, "out_dir": args.out}
        raw.update({key: value for key, value in flags.items() if value is not None})
        if args.seed is not None:
            raw.update({key: {**section, "seed": args.seed} for key, section in raw.items()
                        if isinstance(section, dict) and "seed" in section})
    return config_from_dict(raw)


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
