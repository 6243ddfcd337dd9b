"""Command line entry point: riesz-she <kind> --config PATH [...]."""

import argparse
import sys

from .config import KINDS, ConfigError, load_config
from .engine import DegenerateSigmaError, InstabilityError
from .noise import EmbeddingError
from .runner import (EXIT_CONFIG, EXIT_DEGENERATE, EXIT_INSTABILITY,
                     emit_results, run_experiment)


def build_parser():
    p = argparse.ArgumentParser(
        prog="riesz-she",
        description="Monte Carlo experiments for spatial averages of the "
                    "stochastic heat equation with Riesz-correlated noise.")
    p.add_argument("kind", choices=KINDS,
                   help="experiment to run (overrides kind in the config)")
    p.add_argument("--config", required=True, help="config file path")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", default=None, help="override seed")
    p.add_argument("--replicas", default=None, help="override replica count")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes")
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 on --help
        return EXIT_CONFIG if exc.code else 0
    if args.workers < 1:
        print("config error: --workers must be at least 1, got %d"
              % args.workers, file=sys.stderr)
        return EXIT_CONFIG
    overrides = {"kind": args.kind, "seed": args.seed,
                 "n_replicas": args.replicas}
    try:
        cfg = load_config(args.config, {k: v for k, v in overrides.items()
                                        if v is not None})
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG

    try:
        rs = run_experiment(cfg, workers=args.workers)
    except DegenerateSigmaError as exc:
        print("degenerate: %s" % exc, file=sys.stderr)
        return EXIT_DEGENERATE
    except InstabilityError as exc:
        print("numerical instability: %s" % exc, file=sys.stderr)
        return EXIT_INSTABILITY
    except EmbeddingError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG

    for rep in rs.reports:
        row = rep.as_row()
        print("%-32s %-40s est=%-12.6g target=%-12.6g %s"
              % (row["metric"], row["params"], rep.estimate, rep.target,
                 "PASS" if rep.passed else "FAIL"))
    print("wall %.1f s; %d/%d metrics passed"
          % (rs.wall_seconds, sum(r.passed for r in rs.reports),
             len(rs.reports)))
    if args.out:
        try:
            written = emit_results(rs, args.out)
        except OSError as exc:
            print("config error: cannot write %s: %s"
                  % (args.out, exc.strerror or exc), file=sys.stderr)
            return EXIT_CONFIG
        for path in written:
            print("wrote %s" % path)
    return rs.exit_code


if __name__ == "__main__":
    sys.exit(main())
