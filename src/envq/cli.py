"""Command-line front end.

Subcommands: ``qt`` (quantumness series to CSV), ``dq`` (degree report),
``sweep`` (parameter sweep of the degree to CSV), ``verify`` (run the
acceptance suite).  Exit codes: 0 success, 1 failed verification,
2 configuration/parse error (a value that fails to parse included),
3 model error (a non-finite or out-of-range value included), 4 bound
violation, 5 degenerate stationary state.  ``--seed`` and ``--mode``
apply before the seed check.
"""

import argparse
import dataclasses
import sys

import numpy as np

from . import config, microscopic, models, qcore, quantumness, stochastic
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
    """Quantumness series for any configured model kind."""
    kind, obj = config.build_model(cfg)
    rho0 = config.resolve_initial_state(cfg, kind, obj)
    times = cfg.times()
    if kind == "nonmarkov-decay":
        sz0 = np.trace(qcore.sigma_z @ rho0.matrix).real
        values = models.nonmarkov_q(obj, sz0, times)
        return quantumness.QuantumnessSeries(times, values, rho0.dim)
    if kind == "oscillator":
        values = models.oscillator_q_numeric(obj, rho0, times)
        return quantumness.QuantumnessSeries(times, values, rho0.dim)
    if kind == "microscopic":
        values = [microscopic.quantumness_via_dual(obj, rho0, t) for t in times]
        return quantumness.QuantumnessSeries(times, values, rho0.dim)
    if kind == "collisional":
        return stochastic.collisional_q(
            obj, rho0, times, mode=cfg.mode, n_paths=cfg.n_paths or 1000, seed=cfg.seed
        )
    if kind == "stochastic":
        process, base_h = obj
        series, _ = stochastic.stochastic_q(
            process, base_h, rho0, times, cfg.n_paths or 200, cfg.seed
        )
        return series
    return quantumness.q_series(config.lindblad_for(kind, obj), rho0, times)


def cmd_qt(cfg, out_path):
    series = compute_qt(cfg)
    _write(out_path, quantumness.csv_text("t,Q", series.times, series.values))
    return 0


def _report_lines(kind, obj):
    lines = []
    if kind == "oscillator":
        stat = models.truncated_thermal_state(obj)
        lines.append(("dq_renormalized", f"{models.oscillator_dqr(obj):.12g}"))
        lines.append(("optimal_state_max_occupation", "0"))
        lines.append(("stationary_max_eigenvalue",
                      f"{quantumness.renormalized_degree(stat):.12g}"))
        return lines
    report = config.degree_report(kind, obj)
    if report is None:
        raise ValueError(f"dq report is not defined for {kind} blocks")
    lines.append(("dq", f"{report.dq:.12g}"))
    lines.append(("q_infinity", f"{report.q_infinity:.12g}"))
    lines.append(("optimal_state", qcore.format_matrix_text(report.optimal_state.matrix, digits=12)))
    lines.append(("stationary_state", qcore.format_matrix_text(report.stationary.matrix, digits=12)))
    if report.stationary.dim == 4:
        lines.append(("concurrence", f"{qcore.concurrence(report.optimal_state.matrix):.12g}"))
    return lines


def cmd_dq(cfg, out_path):
    kind, obj = config.build_model(cfg)
    lines = _report_lines(kind, obj)
    text = "".join(f"{key} = {value}\n" for key, value in lines)
    _write(out_path, text)
    return 0


# closed-form sweep columns of each builtin kind, after the swept parameter:
# their names, and their values at one point
SWEEP_COLUMNS = {
    "thermal-tls": (("dq",), lambda p: (models.thermal_dq(p),)),
    "fluorescence": (("dq",), lambda p: (models.fluorescence_dq(p)[0],)),
    "two-qubit": (("dq", "concurrence"),
                  lambda p: (models.twoqubit_dq(p), models.twoqubit_concurrence(p))),
    "nonmarkov-decay": (("dq",), lambda p: (models.nonmarkov_dq(p),)),
    "oscillator": (("dq",), lambda p: (models.oscillator_dqr(p),)),
}


def cmd_sweep(cfg, out_path):
    kind, obj = config.build_model(cfg)
    if kind not in SWEEP_COLUMNS:
        raise ConfigError("sweep needs a builtin model")
    param = cfg.sweep_param
    if param is None:
        raise ConfigError("sweep needs a [sweep] section with param and values")
    if param not in {f.name for f in dataclasses.fields(obj)}:
        raise ConfigError(f"unknown sweep parameter {param!r} for {kind}")
    values = cfg.sweep_values or []
    names, point = SWEEP_COLUMNS[kind]
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


def build_parser():
    parser = argparse.ArgumentParser(prog="envq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("qt", "dq", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mode", choices=("series", "monte-carlo"), default=None)
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
