"""Command-line front end.

Subcommands: ``qt`` (quantumness series to CSV), ``dq`` (degree report),
``sweep`` (parameter sweep of the degree to CSV), ``verify`` (run the
acceptance suite).  Exit codes: 0 success, 1 failed verification,
2 configuration/parse error (a value that fails to parse included),
3 model error (a non-finite or out-of-range value included), 4 bound
violation, 5 degenerate stationary state.  ``--seed`` and ``--mode``
apply before the [run] checks: a seed where the mode needs one, and a
given seed or n_paths in range for every type and mode.
"""

import argparse
import dataclasses
import functools
import sys

from . import config, quantumness, stochastic
from .config import ConfigError
from .qcore import BoundViolationError, DegenerateSteadyStateError

EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_MODEL = 3
EXIT_BOUND = 4
EXIT_DEGENERATE = 5

# exception class -> exit code of a failed qt/dq/sweep run; the first match
# wins, so the RuntimeError subclasses come before RuntimeError
EXIT_CODES = (
    (ConfigError, EXIT_PARSE),
    (BoundViolationError, EXIT_BOUND),
    (DegenerateSteadyStateError, EXIT_DEGENERATE),
    (ValueError, EXIT_MODEL),
    (RuntimeError, EXIT_MODEL),
    (KeyError, EXIT_MODEL),
)


def compute_qt(cfg):
    """Quantumness series for any configured model type."""
    kind, obj = config.build_model(cfg)
    rho0 = config.resolve_initial_state(cfg, kind, obj)
    return kind.qt(obj, rho0, cfg.times(), cfg)


def cmd_qt(cfg, out_path):
    series = compute_qt(cfg)
    _write(out_path, quantumness.csv_text("t,Q", series.times, series.values))
    return 0


def cmd_dq(cfg, out_path):
    kind, obj = config.build_model(cfg)
    if kind.lines is not None:
        lines = kind.lines(obj)
    elif kind.report is not None:
        lines = config.report_lines(kind.report(obj))
    else:
        raise ValueError(f"dq report is not defined for {cfg.model_type} blocks")
    _write(out_path, "".join(f"{key} = {value}\n" for key, value in lines))
    return 0


def cmd_sweep(cfg, out_path):
    kind, obj = config.build_model(cfg)
    if kind.sweep is None:
        raise ConfigError("sweep needs a builtin model")
    param = cfg.sweep_param
    if param is None:
        raise ConfigError("sweep needs a [sweep] section with param and values")
    if param not in {f.name for f in dataclasses.fields(obj)}:
        raise ConfigError(f"unknown sweep parameter {param!r} for {cfg.model_type}")
    values = cfg.sweep_values or []
    names, point = kind.sweep
    rows = [point(dataclasses.replace(obj, **{param: v})) for v in values]
    columns = [[row[i] for row in rows] for i in range(len(names))]
    _write(out_path, quantumness.csv_text(",".join((param,) + names), values, *columns))
    return 0


def cmd_verify(out_dir, fast=False):
    from . import acceptance

    results = acceptance.run_all(out_dir=out_dir, fast=fast)
    for r in results:
        print(acceptance.format_result(r))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} acceptance criteria passed")
    return 0 if not failed else EXIT_VERIFY_FAILED


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


@functools.cache
def build_parser():
    """The argument parser, built once: a batch runs cli.run once per config."""
    parser = argparse.ArgumentParser(prog="envq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("qt", "dq", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mode", choices=stochastic.MODES, default=None)
    v = sub.add_parser("verify")
    v.add_argument("--out", default=None)
    v.add_argument("--fast", action="store_true")
    return parser


def run(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args.out, fast=args.fast)
    try:
        cfg = config.load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.mode is not None:
            cfg.mode = args.mode
        if cfg.needs_seed() and cfg.seed is None:
            raise ConfigError("stochastic runs need a seed in [run] or --seed")
        # a given value is checked whether or not this type and mode read it
        if cfg.seed is not None:
            stochastic.require_seed(cfg.seed)
        if cfg.n_paths is not None:
            stochastic._path_blocks(cfg.n_paths)
        out_path = args.out if args.out is not None else cfg.output
        if args.command == "qt":
            return cmd_qt(cfg, out_path)
        if args.command == "dq":
            return cmd_dq(cfg, out_path)
        return cmd_sweep(cfg, out_path)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
