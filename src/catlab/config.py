"""INI-backed experiment configuration.

Each run mode reads exactly one section named after itself; keys outside
the mode's allow-list `_MODE_KEYS` and empty values are hard errors, so
typos do not silently fall back to defaults. `_PARSERS` maps every key to
its one parser. `load_config` checks the mode's `_REQUIRED` keys, parses
each given key once, folds jx, jy, jz into j and betah into beta = betah / h
(never both beta and betah), then applies the mode's cross-key `_RULES`.
Defaults live only in `ExperimentConfig`, except the two `_MODE_DEFAULTS`.
"""
from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, replace

from .analysis import FeasibilityInput
from .errors import UsageError
from .indices import FIXTURE_KINDS, SEARCH_RESOLUTION
from .thermal import BOUNDARIES

MODES = ("convert", "sweep", "interval", "fit", "verify", "feasibility", "oracle")

_MODE_KEYS = {
    "convert": {"n", "beta", "betah", "h", "jx", "jy", "jz", "boundary",
                "outcome", "m", "m_lo", "m_hi", "shots", "seed", "ground"},
    "sweep": {"n_list", "beta", "betah", "h", "jx", "jy", "jz", "boundary",
              "m", "source", "resolution", "seed"},
    "interval": {"n", "beta", "betah", "h", "intervals"},
    "fit": {"input_csv", "value_column", "floor"},
    "verify": {"n", "m", "beta", "betah", "h"},
    "feasibility": {"tau_single", "n_spins", "distance_r", "sensitivity",
                    "duty_fraction"},
    "oracle": {"families", "inject_fault", "max_n", "seed"},
}

_REQUIRED = {"convert": ("n",), "sweep": ("n_list",), "interval": ("n", "intervals"),
             "fit": ("input_csv",), "verify": ("n", "m")}

# where the ExperimentConfig default None means "not given" to other modes
_MODE_DEFAULTS = {"sweep": {"m": 0}, "oracle": {"seed": 0}}

_GIBBS_ONLY_SWEEP_KEYS = ("beta", "betah", "h", "jx", "jy", "jz", "boundary", "m")
_FIXTURE_ONLY_SWEEP_KEYS = ("resolution",)

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated parameters for one run; only the active mode's fields matter."""

    mode: str
    n: int | None = None
    n_list: tuple[int, ...] | None = None
    beta: float | None = None
    h: float = 1.0
    j: tuple[float, float, float] = (0.0, 0.0, 0.0)
    boundary: str = "periodic"
    outcome: str = "exact"
    m: int | None = None
    m_lo: int | None = None
    m_hi: int | None = None
    shots: int = 1
    seed: int | None = None
    ground: bool = False
    source: str = "gibbs"
    resolution: int = SEARCH_RESOLUTION
    intervals: tuple[tuple[int, int], ...] | None = None
    input_csv: str | None = None
    value_column: str = "c_dense"
    floor: bool = True
    tau_single: float = FeasibilityInput.tau_single
    n_spins: int = FeasibilityInput.n_spins
    distance_r: float = FeasibilityInput.distance_r
    sensitivity: float = FeasibilityInput.sensitivity
    duty_fraction: float = FeasibilityInput.duty_fraction
    families: tuple[str, ...] | None = None
    inject_fault: bool = False
    max_n: int = 8


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{key} must be an integer, got {raw!r}") from None


def _parse_size(raw: str, key: str) -> int:
    value = _parse_int(raw, key)
    if value < 1:
        raise UsageError(f"{key} must be a spin count of at least 1, got {value}")
    return value


def _parse_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise UsageError(f"{key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"{key} must be a finite number, got {raw!r}")
    return value


def _parse_bool(raw: str, key: str) -> bool:
    try:
        return _BOOL_WORDS[raw.strip().lower()]
    except KeyError:
        raise UsageError(f"{key} must be a boolean, got {raw!r}") from None


def _choice(*choices: str):
    def parse(raw: str, key: str) -> str:
        value = raw.strip().lower()
        if value not in choices:
            raise UsageError(f"{key} must be one of {sorted(choices)}, got {raw!r}")
        return value
    return parse


def _parse_source(raw: str, key: str) -> str:
    source = raw.strip().lower()
    if source != "gibbs" and source not in FIXTURE_KINDS:
        raise UsageError(
            f"source must be gibbs or one of {sorted(FIXTURE_KINDS)}, got {source!r}")
    return source


def _parse_n_list(raw: str, key: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise UsageError("n_list is empty")
    values = tuple(_parse_size(p, key) for p in parts)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise UsageError(f"n_list must be strictly increasing, got {raw!r}")
    if len(values) < 3:
        raise UsageError("n_list needs at least three sizes to fit an exponent")
    return values


def _parse_intervals(raw: str, key: str) -> tuple[tuple[int, int], ...]:
    out = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        lo, sep, hi = chunk.partition(":")
        if not sep:
            raise UsageError(f"interval {chunk!r} must look like lo:hi")
        out.append((_parse_int(lo.strip(), "interval bound"),
                    _parse_int(hi.strip(), "interval bound")))
    if not out:
        raise UsageError("intervals is empty")
    return tuple(out)


def _parse_families(raw: str, key: str) -> tuple[str, ...] | None:
    if raw.strip().lower() == "all":
        return None
    families = tuple(p.strip() for p in raw.split(",") if p.strip())
    if not families:
        raise UsageError("families is empty; use 'all' or a comma list")
    return families


_PARSERS = {
    "n": _parse_size, "n_list": _parse_n_list, "intervals": _parse_intervals,
    "families": _parse_families, "source": _parse_source,
    "boundary": _choice(*BOUNDARIES),
    "outcome": _choice("exact", "interval", "sampled"),
    **dict.fromkeys(("m", "m_lo", "m_hi", "shots", "seed", "resolution", "max_n",
                     "n_spins"), _parse_int),
    **dict.fromkeys(("beta", "betah", "h", "jx", "jy", "jz", "tau_single",
                     "distance_r", "sensitivity", "duty_fraction"), _parse_float),
    **dict.fromkeys(("ground", "floor", "inject_fault"), _parse_bool),
    **dict.fromkeys(("input_csv", "value_column"), lambda raw, key: raw.strip()),
}


def _resolve_temperature(values: dict, mode: str) -> None:
    """Replace betah by beta = betah / h in values and range-check beta."""
    if "beta" in values and "betah" in values:
        raise UsageError(f"[{mode}] sets both beta and betah; pick one")
    key = "beta"
    if "betah" in values:
        h = values.get("h", ExperimentConfig.h)
        if h == 0.0:
            raise UsageError("betah needs a nonzero field h")
        key, values["beta"] = "betah / h", values.pop("betah") / h
    beta = values.get("beta")
    if beta is not None and (beta < 0.0 or not math.isfinite(beta)):
        raise UsageError(f"inverse temperature {key} must be finite and "
                         f"nonnegative, got {beta}")


def load_config(path: str, mode: str, seed: int | None = None) -> ExperimentConfig:
    """Read the [mode] section of an INI file into an ExperimentConfig; a
    seed given here (--seed) replaces the section's before the _RULES run."""
    if mode not in MODES:
        raise UsageError(f"unknown mode {mode!r}; expected one of {MODES}")
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise UsageError(f"cannot parse {path}: {exc}") from None
    if mode not in parser:
        raise UsageError(f"{path} has no [{mode}] section")
    items = dict(parser[mode])
    unknown = sorted(set(items) - _MODE_KEYS[mode])
    if unknown:
        raise UsageError(f"unknown keys in [{mode}]: {', '.join(unknown)}")
    for key, raw in items.items():
        if raw.strip() == "":
            raise UsageError(f"key {key} in [{mode}] has an empty value")
    for key in _REQUIRED.get(mode, ()):
        if key not in items:
            example = ", e.g. intervals = -2:2, 0:4" if key == "intervals" else ""
            raise UsageError(f"[{mode}] needs {key}{example}")

    values = dict(_MODE_DEFAULTS.get(mode, {}))
    values.update((key, _PARSERS[key](raw, key)) for key, raw in items.items())
    if seed is not None:
        if "seed" not in _MODE_KEYS[mode]:
            raise UsageError(f"--seed has no effect in {mode} mode, which takes no seed")
        values["seed"] = seed
    if {"jx", "jy", "jz"} & values.keys():
        values["j"] = tuple(values.pop(key, default) for key, default
                            in zip(("jx", "jy", "jz"), ExperimentConfig.j))
    _resolve_temperature(values, mode)
    cfg = ExperimentConfig(mode=mode, **values)
    return _RULES[mode](cfg, items) if mode in _RULES else cfg


def _needs_temperature(cfg: ExperimentConfig, items: dict[str, str]) -> ExperimentConfig:
    if cfg.beta is None:
        raise UsageError(f"[{cfg.mode}] needs beta or betah")
    return cfg


def _reject(items: dict[str, str], keys, owner: str) -> None:
    stray = [k for k in keys if k in items]
    if stray:
        raise UsageError(
            f"{', '.join(stray)} only appl{'y' if len(stray) > 1 else 'ies'} to {owner}")


def _convert_rules(cfg: ExperimentConfig, items: dict[str, str]) -> ExperimentConfig:
    if cfg.ground:
        _reject(items, ("beta", "betah"), "thermal states, not to ground = true")
    else:
        _needs_temperature(cfg, items)
    if cfg.outcome == "exact" and cfg.m is None:
        raise UsageError("outcome=exact needs m")
    if cfg.outcome == "interval" and (cfg.m_lo is None or cfg.m_hi is None):
        raise UsageError("outcome=interval needs m_lo and m_hi")
    if cfg.outcome == "sampled":
        if cfg.seed is None:
            raise UsageError("outcome=sampled needs a seed")
        if cfg.shots < 1:
            raise UsageError("shots must be at least one")
    return cfg


def _sweep_rules(cfg: ExperimentConfig, items: dict[str, str]) -> ExperimentConfig:
    # only fixture sources run the observable search
    if cfg.source == "gibbs":
        _reject(items, _FIXTURE_ONLY_SWEEP_KEYS, "fixture sources")
        _needs_temperature(cfg, items)
    else:
        _reject(items, _GIBBS_ONLY_SWEEP_KEYS, "source=gibbs")
        cfg = replace(cfg, m=None)  # a fixture state has no measured outcome
    if cfg.resolution < 2:
        raise UsageError(f"resolution must be at least 2, got {cfg.resolution}")
    return cfg


_RULES = {"convert": _convert_rules, "sweep": _sweep_rules,
          "interval": _needs_temperature, "verify": _needs_temperature}
