"""Run configuration files.

Plain-text format with bracketed section headers and ``key = value``
lines (INI grammar, long values may continue on indented lines).
Matrices are written in the shared text format "rows cols" followed by
row-major "re+imi" entries, e.g. ``2 2 1+0i 0+0i 0+0i 1-0i``.

Sections
--------
[model]          type = builtin name or {lindblad, microscopic,
                 collisional, stochastic}; remaining keys are the model
                 parameters: a builtin's are the fields of its parameter
                 dataclass, a str field read as its text and every other
                 one as a float (nonmarkov-decay: kernel = lorentzian |
                 single-mode, with coupling for single-mode); numbered
                 keys jump_1.., kraus_1.. hold a block's operator lists.
[initial_state]  kind = optimal | maximally-mixed | pure | matrix;
                 pure takes theta/phi, matrix takes matrix = <text>.
[times]          t_max, steps (grid linspace(0, t_max, steps)).
[run]            seed, output, mode (series | monte-carlo), n_paths.
[sweep]          param, values (whitespace or comma separated).

A value that fails to convert (a number, an integer or a matrix text),
a missing [model] key, a section or key not listed above, or an
[initial_state] key that its kind does not read (checked when the state
is resolved) raises ConfigError, which the command line reports as exit
2; a value that converts but is non-finite or out of range, or a
[model] key that the type does not read, is a model error (ValueError,
exit 3).  Stochastic and Monte Carlo runs need a seed; the command line
checks that, and the seed and n_paths values wherever they are given,
once, after ``--seed`` and ``--mode`` have been applied to the loaded
RunConfig.

``KINDS``, at the end of this module, is the one place that decides
what each model type does: its system dimension, its Q_t route, its
degree report and dq lines, its closed-form sweep columns, the run
modes that need a seed and, for a builtin, its parameter dataclass.  A
new builtin is one ``KINDS`` entry; a new block type is one entry plus
the branch of ``build_model`` that parses its [model] section.
"""

import configparser
import dataclasses

import numpy as np

from . import dynamics, microscopic, models, qcore, quantumness, stochastic
from .qcore import QuantumState


class ConfigError(Exception):
    """Anything wrong with the configuration text itself."""


# the keys each [initial_state] kind reads, besides kind itself
INITIAL_STATE_KEYS = {"optimal": (), "maximally-mixed": (), "pure": ("theta", "phi"),
                      "matrix": ("matrix",)}
# the keys of every section but [model], whose keys depend on its type (see build_model)
SECTION_KEYS = {"initial_state": {"kind"}.union(*INITIAL_STATE_KEYS.values()),
                "times": {"t_max", "steps"}, "run": {"seed", "output", "mode", "n_paths"},
                "sweep": {"param", "values"}}


@dataclasses.dataclass
class RunConfig:
    model_type: str
    model_params: dict
    initial_state: dict
    t_max: float
    steps: int
    seed: int = None
    output: str = None
    mode: str = "series"
    n_paths: int = None
    sweep_param: str = None
    sweep_values: list = None

    def times(self):
        return np.linspace(0.0, self.t_max, self.steps)

    def needs_seed(self):
        return self.mode in KINDS[self.model_type].seeded


class _Section(dict):
    """A [model] section that records which keys have been read."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _parse(convert, text, what):
    """convert(text), with a failed conversion raised as ConfigError."""
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {what}: {text!r} ({exc})") from exc


def _optional(convert, section, key):
    """The parsed value of ``section[key]``, or None when the key is absent."""
    if key not in section:
        return None
    return _parse(convert, section[key], key)


def _matrix(section, key):
    return _parse(qcore.parse_matrix_text, section[key], key)


def _numbered_values(section, prefix):
    out = []
    k = 1
    while f"{prefix}_{k}" in section:
        out.append(_matrix(section, f"{prefix}_{k}"))
        k += 1
    return out


def load_config(path):
    """Parse a config file into a RunConfig; the seed check is the caller's."""
    # no header names the default section "", so a [DEFAULT] is one more unknown section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), default_section="")
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "model" not in parser:
        raise ConfigError("config needs exactly one [model] section")
    for name in [s for s in parser.sections() if s != "model"]:
        if name not in SECTION_KEYS:
            raise ConfigError(f"unknown section [{name}]")
        unknown = set(parser[name]) - SECTION_KEYS[name]
        if unknown:
            raise ConfigError(f"unknown [{name}] keys: {sorted(unknown)}")
    model = dict(parser["model"])
    if "type" not in model:
        raise ConfigError("[model] needs a type")
    mtype = model.pop("type").strip()
    if mtype not in KINDS:
        raise ConfigError(f"unknown model type {mtype!r}")

    init = dict(parser["initial_state"]) if "initial_state" in parser else {"kind": "optimal"}

    times_sec = parser["times"] if "times" in parser else {}
    t_max = _parse(float, times_sec.get("t_max", 10.0), "t_max")
    steps = _parse(int, times_sec.get("steps", 101), "steps")
    if t_max <= 0 or steps < 2:
        raise ConfigError("[times] needs t_max > 0 and steps >= 2")

    run = parser["run"] if "run" in parser else {}
    mode = run.get("mode", "series")
    if mode not in stochastic.MODES:
        raise ConfigError(f"unknown mode {mode!r}")

    sweep_param = sweep_values = None
    if "sweep" in parser:
        sweep = parser["sweep"]
        sweep_param = sweep.get("param")
        if sweep_param is None:
            raise ConfigError("[sweep] needs a param")
        tokens = sweep.get("values", "").replace(",", " ").split()
        sweep_values = [_parse(float, tok, "sweep value") for tok in tokens]

    return RunConfig(mtype, model, init, t_max, steps, seed=_optional(int, run, "seed"),
                     output=run.get("output"), mode=mode,
                     n_paths=_optional(int, run, "n_paths"),
                     sweep_param=sweep_param, sweep_values=sweep_values)


def build_model(cfg):
    """Instantiate the configured model object.

    Returns a pair (kind, object): the type's KINDS entry, and the
    builtin parameter set, the constructed LindbladModel / JointModel /
    CollisionalModel, or the pair (NoiseProcess, base Hamiltonian) of a
    stochastic block.  A [model] key that the type does not read is a
    model error, raised before the model is constructed.
    """
    mtype = cfg.model_type
    if mtype not in KINDS:
        raise ConfigError(f"unknown model type {mtype!r}")
    kind, section = KINDS[mtype], _Section(cfg.model_params)
    try:
        if kind.params is not None:
            # a required field is read even when absent, so that it is reported missing
            values = {f.name: section[f.name].strip() if f.type is str
                      else _parse(float, section[f.name], f"{mtype} parameter {f.name!r}")
                      for f in dataclasses.fields(kind.params)
                      if f.name in section or f.default is dataclasses.MISSING}
            make = lambda: kind.params(**values)
        elif mtype == "lindblad":
            h_bar, jumps = _matrix(section, "h_bar"), _numbered_values(section, "jump")
            rates = _optional(qcore.parse_matrix_text, section, "rates")
            if rates is not None and 1 in rates.shape:
                rates = rates.reshape(-1)
            make = lambda: dynamics.LindbladModel(h_bar, jumps, rates=rates)
        elif mtype == "microscopic":
            h_s, h_e, h_i, sigma0 = (_matrix(section, key) for key in ("h_s", "h_e", "h_i", "sigma0"))
            make = lambda: microscopic.JointModel(h_s, h_e, h_i, QuantumState(sigma0))
        elif mtype == "collisional":
            family = section["waiting_family"].strip()
            waiting = {key: _optional(float, section, f"waiting_{key}")
                       for key in ("rate", "shape", "period")}
            h_free, kraus = _matrix(section, "free_hamiltonian"), _numbered_values(section, "kraus")
            make = lambda: stochastic.CollisionalModel(
                h_free, kraus, stochastic.WaitingTime(family, **waiting))
        else:  # stochastic
            family = section["family"].strip()
            amplitude = _parse(float, section["amplitude"], "amplitude")
            correlation_time = _optional(float, section, "correlation_time") or 0.0
            coupling, base_h = _matrix(section, "coupling"), _matrix(section, "base_h")
            make = lambda: (stochastic.NoiseProcess(
                family, amplitude, correlation_time, coupling), base_h)
    except KeyError as exc:
        raise ConfigError(f"missing {mtype} key {exc.args[0]!r}") from exc
    unread = set(section) - section.read
    if unread:
        raise ValueError(f"unknown parameters for {mtype}: {sorted(unread)}")
    return kind, make()


def resolve_initial_state(cfg, kind, obj):
    """Initial system state from the [initial_state] section.

    ``optimal`` resolves to the kind's own optimal state or else to the
    report's ``propagation_state()``, the initial condition whose
    propagated series reaches the reported q_infinity.
    """
    spec = cfg.initial_state
    kind_key = spec.get("kind", "optimal").strip()
    if kind_key not in INITIAL_STATE_KEYS:
        raise ConfigError(f"unknown initial_state kind {kind_key!r}")
    unread = set(spec) - {"kind", *INITIAL_STATE_KEYS[kind_key]}
    if unread:
        raise ConfigError(f"initial_state kind={kind_key} does not read {sorted(unread)}")
    dim = kind.dim(obj)
    if kind_key == "maximally-mixed":
        return QuantumState.maximally_mixed(dim)
    if kind_key == "pure":
        if dim != 2:
            raise ConfigError("pure(theta, phi) initial states are for qubits")
        theta = _parse(float, spec.get("theta", 0.0), "theta")
        phi = _parse(float, spec.get("phi", 0.0), "phi")
        return QuantumState.pure(qcore.bloch_vector_state(theta, phi))
    if kind_key == "matrix":
        if "matrix" not in spec:
            raise ConfigError("initial_state kind=matrix needs a matrix entry")
        state = QuantumState(_matrix(spec, "matrix"))
        if state.dim != dim:
            raise ConfigError(f"initial state dimension {state.dim} != system dimension {dim}")
        return state
    if kind.optimal is not None:  # kind = optimal
        return kind.optimal(obj)
    if kind.report is None:
        raise ConfigError(f"optimal initial state is not defined for {cfg.model_type} blocks")
    return kind.report(obj).propagation_state()


@dataclasses.dataclass(frozen=True)
class Kind:
    """What the front end does with one model type.

    Each route looks its function up on the module when it runs, so a
    function swapped on its module is the one that is called.
    """

    qt: object                  # (model object, rho0, times, cfg) -> QuantumnessSeries
    dim: object = lambda obj: obj.dim   # object -> system dimension
    report: object = None       # object -> QuantumnessReport, for dq and kind = optimal
    lines: object = None        # object -> dq report lines, in place of report_lines(report)
    optimal: object = None      # object -> optimal initial state, for a type without a report
    sweep: tuple = None         # (column names, params -> row) of the closed-form sweep
    seeded: tuple = ()          # run modes that need a seed
    params: type = None         # a builtin's parameter dataclass, whose fields [model] sets


def _lindblad_backed(params=None, sweep=None, model_of=lambda p: p.lindblad_model()):
    """Entry of a type whose dynamics is the LindbladModel ``model_of(object)``."""
    return Kind(qt=lambda obj, rho0, times, cfg: quantumness.q_series(model_of(obj), rho0, times),
                report=lambda obj: quantumness.degree_of_quantumness(model_of(obj)),
                sweep=sweep, params=params)


def _values(route):
    """qt route that wraps ``route(object, rho0, times)``'s values in a series."""
    return lambda obj, rho0, times, cfg: quantumness.QuantumnessSeries(
        times, route(obj, rho0, times), rho0.dim)


def report_lines(report):
    """The (key, value) lines of ``envq dq`` for a QuantumnessReport."""
    return [("dq", f"{report.dq:.12g}"),
            ("q_infinity", f"{report.q_infinity:.12g}"),
            ("optimal_state", qcore.format_matrix_text(report.optimal_state.matrix, digits=12)),
            ("stationary_state", qcore.format_matrix_text(report.stationary.matrix, digits=12))]


def _twoqubit_lines(p):
    report = KINDS["two-qubit"].report(p)
    concurrence = qcore.concurrence(report.optimal_state.matrix)
    return report_lines(report) + [("concurrence", f"{concurrence:.12g}")]


def _oscillator_lines(p):
    stat = models.truncated_thermal_state(p)
    return [("dq_renormalized", f"{models.oscillator_dqr(p):.12g}"),
            ("optimal_state_max_occupation", "0"),
            ("stationary_max_eigenvalue", f"{quantumness.renormalized_degree(stat):.12g}")]


def _n_paths(cfg, default):
    """The configured path count; ``default`` only when [run] has no n_paths."""
    return default if cfg.n_paths is None else cfg.n_paths


# the one place that decides each [model] type; load_config accepts exactly these
KINDS = {
    "thermal-tls": _lindblad_backed(
        models.ThermalTlsParams, (("dq",), lambda p: (models.thermal_dq(p),))),
    "nonmarkov-decay": Kind(
        qt=_values(lambda p, rho0, times: models.nonmarkov_q(
            p, quantumness.trace_pairing(rho0.matrix, qcore.sigma_z), times)),
        report=lambda p: models.nonmarkov_report(p),
        sweep=(("dq",), lambda p: (models.nonmarkov_dq(p),)),
        params=models.NonMarkovParams),
    "fluorescence": _lindblad_backed(
        models.FluorescenceParams, (("dq",), lambda p: (models.fluorescence_dq(p)[0],))),
    "two-qubit": dataclasses.replace(_lindblad_backed(
        models.TwoQubitParams,
        (("dq", "concurrence"), lambda p: (models.twoqubit_dq(p), models.twoqubit_concurrence(p)))),
        lines=_twoqubit_lines),
    "oscillator": Kind(
        qt=_values(lambda p, rho0, times: models.oscillator_q_numeric(p, rho0, times)),
        lines=_oscillator_lines,
        # the ground state |0>, real, so time reversal is moot: the top
        # eigenprojector of the oscillator's thermal ladder
        optimal=lambda p: QuantumState.pure(qcore.ket(p.dim, 0)),
        sweep=(("dq",), lambda p: (models.oscillator_dqr(p),)),
        params=models.OscillatorParams),
    "lindblad": _lindblad_backed(model_of=lambda model: model),
    "microscopic": Kind(
        dim=lambda model: model.dim_s,
        qt=_values(lambda model, rho0, times: [
            microscopic.quantumness_via_dual(model, rho0, t) for t in times])),
    "collisional": Kind(
        qt=lambda model, rho0, times, cfg: stochastic.collisional_q(
            model, rho0, times, mode=cfg.mode, n_paths=_n_paths(cfg, 1000), seed=cfg.seed),
        seeded=("monte-carlo",)),
    "stochastic": Kind(
        dim=lambda obj: obj[1].shape[0],
        qt=lambda obj, rho0, times, cfg: stochastic.stochastic_q(
            *obj, rho0, times, _n_paths(cfg, 200), cfg.seed)[0],
        seeded=stochastic.MODES),
}
