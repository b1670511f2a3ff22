"""Experiment configuration: the dataclass, and its flat text format.

A configuration fixes the data-generating federation, the communication
schedule, the run length (either a round count or a target observation count),
the replications and the inference methods; ``ExperimentConfig`` rejects bad
input when it is built.

``_KEYS`` is the one description of the text format: each config key names
its field and its value type, and a value type is the parser, the writer and
what a value that does not parse is not.  ``parse_config_text`` reads the
format, naming the line and key of a value that does not parse, and
``config_text`` writes it: one ``key = value`` line per set key, in table
order, floats by ``repr``, so that ``parse_config_text(config_text(c)) == c``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from pathlib import Path

from . import models, schedules

__all__ = ["METHODS", "ExperimentConfig", "parse_config_text", "config_text", "load_config"]

# The inference methods, in their default order.
METHODS = PLUGIN, RSCALE = ("plugin", "rscale")

_BOOL = {"on": True, "true": True, "1": True, "off": False, "false": False, "0": False}


def _parse_bool(value: str) -> bool:
    return _BOOL[value.lower()]


def _parse_methods(value: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in value.split(",") if m.strip())


def _parse_x0(value: str) -> tuple[float, ...] | str:
    if value in ("zeros", "optimum"):
        return value
    return tuple(float(v) for v in value.split(","))


def _write_text(value: str) -> str:
    # The parser cuts a line at '#', splits lines and strips each value.
    if "#" in value or "".join(value.splitlines()) != value or value.strip() != value:
        raise ValueError(f"{value!r} cannot be written as a config value")
    return value


def _write_x0(value: tuple[float, ...] | str) -> str:
    return value if isinstance(value, str) else ",".join(map(repr, value))


# A value type: (parser, writer, what a value that the parser rejects is not).
_INT = (int, str, "an integer")
_FLOAT = (float, lambda value: repr(float(value)), "a number")
_ON_OFF = (_parse_bool, lambda value: "on" if value else "off", "on/off")
_TEXT = (str, _write_text, "text")
_LIST = (_parse_methods, ",".join, "a list")
_X0 = (_parse_x0, _write_x0, "'zeros', 'optimum' or a vector")

# Config key -> (field, value type); a "schedule." field is the schedule's.
_KEYS = {
    "model": ("model", _TEXT),
    "dimension": ("dimension", _INT),
    "clients": ("clients", _INT),
    "noise_scale": ("noise_scale", _FLOAT),
    "heterogeneity": ("heterogeneity", _ON_OFF),
    "schedule": ("schedule.kind", _TEXT),
    "schedule_base": ("schedule.base", _INT),
    "schedule_exponent": ("schedule.exponent", _FLOAT),
    "gamma0": ("schedule.gamma0", _FLOAT),
    "alpha": ("schedule.alpha", _FLOAT),
    "warmup_fraction": ("schedule.warmup_fraction", _FLOAT),
    "rounds": ("rounds", _INT),
    "target_observations": ("target_observations", _INT),
    "replications": ("replications", _INT),
    "seed": ("seed", _INT),
    "methods": ("methods", _LIST),
    "alpha_level": ("alpha_level", _FLOAT),
    "coordinate": ("coordinate", _INT),
    "x0": ("x0", _X0),
    "critical_values": ("critical_values", _TEXT),
}

_INTEGER_FIELDS = tuple(f for f, kind in _KEYS.values() if kind is _INT and "." not in f)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: the federation, the schedule, the run length, the
    replications and the inference methods.  Bad input raises ``ValueError``
    when the config is built, and a vector ``x0`` is stored as a tuple of
    floats, so that configs compare, hash and read back by value.

    A logistic config loads the sigmoid (``models.sigmoid``, from
    scipy.special, most of a cold import's time) when it is built, and no
    other kind loads it.  Building the config comes before ``run_experiment``,
    and so before its pool forks: forked workers inherit the loaded module,
    and neither ``build_federation`` nor the first replication pays for the
    import.
    """

    model: str = "linear"
    dimension: int = 5
    clients: int = 10
    noise_scale: float = 1.0
    heterogeneity: bool = True
    schedule: schedules.CommunicationSchedule = schedules.CommunicationSchedule(
        kind="constant", base=1, warmup_fraction=0.05
    )
    rounds: int | None = None
    target_observations: int | None = 10000
    replications: int = 1000
    seed: int = 0
    methods: tuple[str, ...] = METHODS
    alpha_level: float = 0.05
    coordinate: int = 0
    x0: tuple[float, ...] | str = "zeros"
    critical_values: str | None = None

    def __post_init__(self) -> None:
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if value is not None:
                try:
                    operator.index(value)
                except TypeError:
                    raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.model not in models.KERNELS:
            raise ValueError(f"unknown model {self.model!r}")
        if not isinstance(self.schedule, schedules.CommunicationSchedule):
            raise ValueError(f"schedule must be a CommunicationSchedule, got {self.schedule!r}")
        if self.dimension < 1 or self.clients < 1:
            raise ValueError("dimension and clients must be >= 1")
        if not 0.0 <= self.noise_scale < math.inf:
            raise ValueError("noise_scale must be nonnegative and finite")
        if self.model == "logistic":
            if self.heterogeneity:
                raise ValueError("logistic runs do not support heterogeneity; set it off")
            models.sigmoid  # noqa: B018  (loads scipy.special now; see the docstring)
        if (self.rounds is None) == (self.target_observations is None):
            raise ValueError("set exactly one of rounds / target_observations")
        if self.rounds is not None and self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.target_observations is not None and self.target_observations < 1:
            raise ValueError("target_observations must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.methods or any(m not in METHODS for m in self.methods):
            raise ValueError(f"methods must be a nonempty subset of {METHODS}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"methods must not repeat, got {self.methods}")
        if not 0.0 < self.alpha_level < 1.0:
            raise ValueError("alpha_level must lie in (0, 1)")
        if not 0 <= self.coordinate < self.dimension:
            raise ValueError("coordinate out of range (0-based)")
        if isinstance(self.x0, str):
            if self.x0 not in ("zeros", "optimum"):
                raise ValueError("x0 must be 'zeros', 'optimum' or a vector")
        elif len(self.x0) != self.dimension or not all(map(math.isfinite, self.x0)):
            raise ValueError(f"x0 must be a finite vector of length {self.dimension}")
        else:
            object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat ``key = value`` configuration format (# for comments).

    Setting ``rounds`` clears the default ``target_observations``.  A value
    that does not parse raises ``ValueError`` naming its line and key.
    """
    raw: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = lineno, value

    unknown = set(raw) - set(_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    kwargs: dict = {}
    sched_kwargs: dict = {}
    for key, (lineno, value) in raw.items():
        field, (parse, _, noun) = _KEYS[key]
        scope, _, name = field.rpartition(".")
        try:
            (sched_kwargs if scope else kwargs)[name] = parse(value)
        except (ValueError, KeyError):
            raise ValueError(f"line {lineno}: {key}: {value!r} is not {noun}") from None
    if "rounds" in raw:
        kwargs.setdefault("target_observations", None)
    kwargs["schedule"] = replace(ExperimentConfig.schedule, **sched_kwargs)

    return ExperimentConfig(**kwargs)


def config_text(config: ExperimentConfig) -> str:
    """The config in the text format, which ``parse_config_text`` reads back
    to an equal config: one ``key = value`` line per key whose value is not
    None, in table order.  A value that the parser would read differently
    raises ``ValueError``: a ``critical_values`` path holding '#' or a line
    break, or with leading or trailing blanks."""
    values = vars(config) | {f"schedule.{k}": v for k, v in vars(config.schedule).items()}
    return "".join(
        f"{key} = {write(values[field])}\n"
        for key, (field, (_, write, _)) in _KEYS.items()
        if values[field] is not None
    )


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())
