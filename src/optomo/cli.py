"""Command-line interface.

Commands: ``simulate --config FILE [--threads N] [--dry-run]``,
``verify SUITE [options]``, ``emit-plotdata --from RESULT``.  Exit codes:
0 success, 2 config error, 3 numerical error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import sys

from optomo.errors import ConfigError, NumericalError, VerificationFailure
from optomo.pipeline import emit_plotdata, load_config_or_preset, run_simulate, run_verify

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optomo",
        description="Entanglement-assisted tomography of quantum operations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a simulate -> estimate pipeline")
    sim.add_argument("--config", required=True,
                     help="config file path or preset name (fig2_top, "
                          "fig2_bottom, fig2_bottom_scaled)")
    sim.add_argument("--threads", type=int, default=1,
                     help="worker pool size; results are independent of it")
    sim.add_argument("--dry-run", action="store_true",
                     help="print resolved config and theory targets, no sampling")
    sim.add_argument("--out-dir", default=".")

    ver = sub.add_parser("verify", help="run an oracle verification suite")
    ver.add_argument("suite", help="unbiasedness | choi | kernels | sampler-moments")
    ver.add_argument("--eta", type=float, default=None,
                     help="restrict the kernels suite to one efficiency")
    ver.add_argument("--seed", type=int, default=None)

    emit = sub.add_parser("emit-plotdata", help="plot files from a result document")
    emit.add_argument("--from", dest="result", required=True,
                      help="path to a .result.txt document")
    emit.add_argument("--out-dir", default=".")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            if args.threads < 1:
                raise ConfigError(f"--threads must be at least 1, got "
                                  f"{args.threads}")
            cfg = load_config_or_preset(args.config)
            result = run_simulate(cfg, threads=args.threads,
                                  dry_run=args.dry_run, out_dir=args.out_dir)
            if args.dry_run:
                print(f"dry run: {args.config} (no outputs written)")
                for line in result.dry_report or []:
                    print(line)
            for p in result.paths:
                print(f"wrote {p}")
            print(f"wall-clock {result.wall_seconds:.2f} s")
        elif args.command == "verify":
            kwargs = {}
            if args.seed is not None:
                if args.suite == "kernels":
                    raise ConfigError("--seed does not apply to the kernels "
                                      "suite, which draws no random numbers")
                if args.seed < 0:
                    raise ConfigError(f"--seed = {args.seed} is negative")
                kwargs["seed"] = args.seed
            if args.eta is not None:
                if args.suite != "kernels":
                    raise ConfigError("--eta applies to the kernels suite only")
                if not 0.5 < args.eta <= 1.0:  # also rejects nan
                    raise ConfigError(f"--eta = {args.eta} outside (0.5, 1]")
                kwargs["etas"] = (args.eta,)
            lines = run_verify(args.suite, **kwargs)
            print("\n".join(lines))
        elif args.command == "emit-plotdata":
            for p in emit_plotdata(args.result, out_dir=args.out_dir):
                print(f"wrote {p}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VerificationFailure as exc:
        print(str(exc), file=sys.stderr)
        print("verification failed", file=sys.stderr)
        return EXIT_VERIFY
    except NumericalError as exc:
        print(f"numerical error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
