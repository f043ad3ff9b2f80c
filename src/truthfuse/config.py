"""Run configuration: every tunable constant of the pipeline, a config-file
form that round-trips losslessly, and environment-variable overrides.

Precedence: CLI flags > environment (TRUTHFUSE_<SECTION>__<KEY>) > config
file > defaults. The pipeline is seedless-deterministic: nothing here (or
anywhere else) consults the clock or unseeded randomness for any selection
or report value.
"""

from __future__ import annotations

import configparser
import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path

from .model import Kind, LoadError

ENV_PREFIX = "TRUTHFUSE_"


@dataclass(frozen=True)
class FusionConfig:
    """Constants of the fusion engine, the normalization layer and the
    copy likelihood: the one ledger of every constant they share.

    ``alpha`` and ``time_tolerance_minutes`` fill blank schema cells
    (``default_tolerance``); ``n_false`` and ``trust_clamp`` serve the
    accuracy votes and the copy posteriors alike. Every field is settable
    via config file, environment, or CLI flag.
    """

    alpha: float = 0.01                  # relative tolerance factor
    time_tolerance_minutes: float = 10.0
    sim_decay_width_multiplier: float = 10.0   # numeric similarity: zero at k*tau
    sim_time_zero_at: float = 60.0             # time similarity: zero at this gap
    rho: float = 0.5                     # similarity-boost weight
    w_fmt: float = 0.5                   # formatting partial-provider credit
    n_false: int = 10                    # assumed false-value domain size
    invest_exponent: float = 1.2
    pooled_exponent: float = 1.4
    cosine_damping: float = 0.8          # weight of the old trust
    cosine_trust_power: float = 3.0
    truthfinder_gamma: float = 0.3
    init_trust_bayes: float = 0.8        # T0 for truthfinder and accu family
    init_value_trust: float = 0.9        # T0(v), order-3 estimates
    epsilon: float = 1e-6                # convergence threshold on trust change
    round_cap: int = 100
    trust_clamp: float = 1e-4            # keeps logs and odds finite
    attr_min_gold: int = 5               # per-attribute sampling fallback

    def __post_init__(self):
        if self.alpha <= 0:
            raise LoadError("alpha must be > 0")
        if self.time_tolerance_minutes < 0:
            raise LoadError("time_tolerance_minutes must be >= 0")
        if self.sim_decay_width_multiplier <= 0:
            raise LoadError("sim_decay_width_multiplier must be > 0")
        if self.sim_time_zero_at <= 0:
            raise LoadError("sim_time_zero_at must be > 0")
        if not (0.0 <= self.rho <= 1.0):
            raise LoadError("rho must be in [0, 1]")
        if self.w_fmt < 0:
            raise LoadError("w_fmt must be >= 0")
        if self.n_false < 1:
            raise LoadError("n_false must be >= 1")
        if self.epsilon <= 0 or self.round_cap < 1:
            raise LoadError("epsilon must be > 0 and round_cap >= 1")
        if not (0.0 < self.trust_clamp < 0.5):
            raise LoadError("trust_clamp must be in (0, 0.5)")
        if not (0.0 <= self.cosine_damping < 1.0):
            raise LoadError("cosine_damping must be in [0, 1)")

    def default_tolerance(self, kind: Kind) -> float:
        """The tolerance parameter of an attribute whose schema cell is
        blank: ``alpha`` for numbers, the minute tolerance for times."""
        return {Kind.NUMBER: self.alpha,
                Kind.TIME_OF_DAY: self.time_tolerance_minutes,
                Kind.TEXT: 0.0}[kind]


@dataclass(frozen=True)
class CopyParams:
    """Parameters of pairwise copy-probability estimation.

    ``prior_copy_prob`` is the prior that one source copies another in a
    given direction (so the independence prior is 1 - 2 * prior).
    ``copy_rate`` is the probability a copier copies any given item. The
    false-value domain size and the trust clamp of the copy likelihood are
    the engine's (``FusionConfig.n_false``, ``trust_clamp``).
    """

    prior_copy_prob: float = 0.1
    copy_rate: float = 0.8
    group_threshold: float = 0.5         # pair prob above which CLI groups

    def __post_init__(self):
        if not (0.0 < self.prior_copy_prob < 0.5):
            raise LoadError("prior_copy_prob must be in (0, 0.5)")
        if not (0.0 < self.copy_rate <= 1.0):
            raise LoadError("copy_rate must be in (0, 1]")


@dataclass(frozen=True)
class RunConfig:
    """Full pipeline configuration."""

    fusion: FusionConfig = FusionConfig()
    copy: CopyParams = CopyParams()
    delimiter: str = ","


SECTIONS = {
    "fusion": FusionConfig,
    "copy": CopyParams,
}
_RUN_KEYS = ("delimiter",)


def save_config(cfg: RunConfig, path: str | Path) -> None:
    parser = configparser.ConfigParser()
    for section, cls in SECTIONS.items():
        parser[section] = {
            f.name: repr(getattr(getattr(cfg, section), f.name))
            for f in dataclasses.fields(cls)}
    parser["run"] = {"delimiter": cfg.delimiter}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def load_config(path: str | Path | None = None,
                env: dict[str, str] | None = None,
                overrides: dict[str, dict[str, object]] | None = None,
                ) -> RunConfig:
    """Build a RunConfig from file, environment, and explicit overrides.

    ``overrides`` maps section -> {key: value} and wins over everything;
    unknown sections or keys are rejected by name.
    """
    env = os.environ if env is None else env
    values: dict[str, dict[str, str]] = {s: {} for s in SECTIONS}
    values["run"] = {}

    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path, encoding="utf-8")
        if not read:
            raise LoadError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in values:
                raise LoadError(f"unknown config section [{section}]")
            for key, raw in parser[section].items():
                _check_key(section, key)
                values[section][key] = raw

    for name in sorted(n for n in env
                       if n.startswith(ENV_PREFIX) and "__" in n):
        section, key = name[len(ENV_PREFIX):].lower().split("__", 1)
        if section not in values:
            raise LoadError(f"unknown config section in env var {name}")
        _check_key(section, key)
        values[section][key] = env[name]

    parsed: dict[str, dict[str, object]] = {
        section: {key: _coerce(section, key, raw)
                  for key, raw in kv.items()}
        for section, kv in values.items()}
    for section, kv in (overrides or {}).items():
        if section not in parsed:
            raise LoadError(f"unknown config section {section!r}")
        for key, value in kv.items():
            if value is None:
                continue
            _check_key(section, key)
            parsed[section][key] = value

    try:
        fusion = FusionConfig(**parsed["fusion"])
        copy = CopyParams(**parsed["copy"])
        run_kv = parsed["run"]
        return RunConfig(fusion=fusion, copy=copy,
                         delimiter=str(run_kv.get("delimiter", ",")))
    except TypeError as exc:
        raise LoadError(f"invalid config: {exc}") from exc


def _check_key(section: str, key: str) -> None:
    if section == "run":
        if key not in _RUN_KEYS:
            raise LoadError(f"unknown config key [run] {key!r}")
        return
    names = {f.name for f in dataclasses.fields(SECTIONS[section])}
    if key not in names:
        raise LoadError(f"unknown config key [{section}] {key!r} "
                        f"(valid: {sorted(names)})")


def setting_type(f: dataclasses.Field) -> type:
    """The type a setting's text is read as: ``int`` for counts, else
    ``float``; config files, the environment and CLI flags all read it."""
    return int if "int" in str(f.type) else float


def _coerce(section: str, key: str, raw: object):
    if not isinstance(raw, str) or section == "run":
        return raw
    field = {f.name: f for f in dataclasses.fields(SECTIONS[section])}[key]
    return setting_type(field)(raw)
