"""Run configuration files.

Plain-text format with bracketed section headers and ``key = value``
lines (INI grammar, long values may continue on indented lines).
Matrices are written in the shared text format "rows cols" followed by
row-major "re+imi" entries, e.g. ``2 2 1+0i 0+0i 0+0i 1-0i``.

Sections
--------
[model]          type = builtin name or {lindblad, microscopic,
                 collisional, stochastic}; remaining keys are the model
                 parameters (numbered keys jump_1.., kraus_1.. for
                 operator lists).
[initial_state]  kind = optimal | maximally-mixed | pure | matrix;
                 pure takes theta/phi, matrix takes matrix = <text>.
[times]          t_max, steps (grid linspace(0, t_max, steps)).
[run]            seed, output, mode (series | monte-carlo), n_paths.
[sweep]          param, values (whitespace or comma separated).

A value that fails to convert (a number, an integer or a matrix text)
raises ConfigError, which the command line reports as exit 2; a value
that converts but is non-finite or out of range is a model error
(ValueError, exit 3).  Stochastic and Monte Carlo runs need a seed; the
command line checks that once, after ``--seed`` and ``--mode`` have
been applied to the loaded RunConfig.
"""

import configparser
import dataclasses

import numpy as np

from . import dynamics, microscopic, models, qcore, quantumness, stochastic
from .qcore import QuantumState


class ConfigError(Exception):
    """Anything wrong with the configuration text itself."""


BUILTIN_TYPES = tuple(models.BUILTIN_PARAMS)
BLOCK_TYPES = ("lindblad", "microscopic", "collisional", "stochastic")


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
        return self.model_type == "stochastic" or (
            self.model_type == "collisional" and self.mode == "monte-carlo"
        )


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
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "model" not in parser:
        raise ConfigError("config needs exactly one [model] section")
    model = dict(parser["model"])
    if "type" not in model:
        raise ConfigError("[model] needs a type")
    mtype = model.pop("type").strip()
    if mtype not in BUILTIN_TYPES + BLOCK_TYPES:
        raise ConfigError(f"unknown model type {mtype!r}")

    init = dict(parser["initial_state"]) if "initial_state" in parser else {"kind": "optimal"}

    times_sec = parser["times"] if "times" in parser else {}
    t_max = _parse(float, times_sec.get("t_max", 10.0), "t_max")
    steps = _parse(int, times_sec.get("steps", 101), "steps")
    if t_max <= 0 or steps < 2:
        raise ConfigError("[times] needs t_max > 0 and steps >= 2")

    run = parser["run"] if "run" in parser else {}
    mode = run.get("mode", "series")
    if mode not in ("series", "monte-carlo"):
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

    Returns a pair (kind, object): builtin parameter sets keep their
    registry name as kind; explicit blocks return the constructed
    LindbladModel / JointModel / CollisionalModel, or the pair
    (NoiseProcess, base Hamiltonian) of a stochastic block.
    """
    mtype = cfg.model_type
    section = cfg.model_params
    try:
        if mtype in BUILTIN_TYPES:
            numbers = {key: _parse(float, value, f"{mtype} parameter {key!r}")
                       for key, value in section.items()}
            return mtype, models.builtin_params(mtype, numbers)
        if mtype == "lindblad":
            h_bar = _matrix(section, "h_bar")
            jumps = _numbered_values(section, "jump")
            rates = _matrix(section, "rates") if "rates" in section else None
            if rates is not None and 1 in rates.shape:
                rates = rates.reshape(-1)
            return mtype, dynamics.LindbladModel(h_bar, jumps, rates=rates)
        if mtype == "microscopic":
            return mtype, microscopic.JointModel(
                _matrix(section, "h_s"),
                _matrix(section, "h_e"),
                _matrix(section, "h_i"),
                QuantumState(_matrix(section, "sigma0")),
            )
        if mtype == "collisional":
            waiting = stochastic.WaitingTime(
                section["waiting_family"].strip(),
                rate=_optional(float, section, "waiting_rate"),
                shape=_optional(float, section, "waiting_shape"),
                period=_optional(float, section, "waiting_period"),
            )
            return mtype, stochastic.CollisionalModel(
                _matrix(section, "free_hamiltonian"),
                _numbered_values(section, "kraus"),
                waiting,
            )
        if mtype == "stochastic":
            process = stochastic.NoiseProcess(
                section["family"].strip(),
                _parse(float, section["amplitude"], "amplitude"),
                _parse(float, section.get("correlation_time", 0.0), "correlation_time"),
                _matrix(section, "coupling"),
            )
            return mtype, (process, _matrix(section, "base_h"))
    except KeyError as exc:
        raise ConfigError(f"missing {mtype} key {exc.args[0]!r}") from exc
    raise ConfigError(f"unknown model type {mtype!r}")


def system_dimension(kind, obj):
    if kind == "microscopic":
        return obj.dim_s
    if kind == "stochastic":
        process, base_h = obj
        return base_h.shape[0]
    return obj.dim


def lindblad_for(kind, obj):
    """Lindblad model behind a kind, or None (the oscillator uses its ladder)."""
    if kind == "lindblad":
        return obj
    if kind in ("thermal-tls", "fluorescence", "two-qubit"):
        return obj.lindblad_model()
    return None


def degree_report(kind, obj):
    """QuantumnessReport behind a kind, for ``envq dq`` and kind = optimal, or None."""
    if kind == "nonmarkov-decay":
        # zero-temperature decay relaxes every state to the ground state |1><1|
        return quantumness.stationary_degree(QuantumState(np.diag([0.0, 1.0])))
    model = lindblad_for(kind, obj)
    if model is None:
        return None
    return quantumness.degree_of_quantumness(model)


def resolve_initial_state(cfg, kind, obj):
    """Initial system state from the [initial_state] section.

    ``optimal`` resolves to the report's ``propagation_state()``, the
    initial condition whose propagated series reaches the reported
    q_infinity.
    """
    spec = cfg.initial_state
    kind_key = spec.get("kind", "optimal").strip()
    dim = system_dimension(kind, obj)
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
    if kind_key == "optimal":
        if kind == "oscillator":
            # the ground state |0>, real, so time reversal is moot: the top
            # eigenprojector of the oscillator's thermal ladder
            return QuantumState.pure(qcore.ket(dim, 0))
        report = degree_report(kind, obj)
        if report is None:
            raise ConfigError(f"optimal initial state is not defined for {kind} blocks")
        return report.propagation_state()
    raise ConfigError(f"unknown initial_state kind {kind_key!r}")
