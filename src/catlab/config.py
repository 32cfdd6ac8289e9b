"""INI-backed experiment configuration.

Each run mode reads exactly one section named after itself. Keys are
lower_snake; unknown keys are hard errors so typos do not silently fall
back to defaults. Temperature comes in either as beta (with an explicit
field h) or as the dimensionless betah, never both.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, replace

from .errors import UsageError
from .indices import FIXTURE_KINDS, SEARCH_RESOLUTION
from .thermal import BOUNDARIES

MODES = ("convert", "sweep", "interval", "fit", "verify", "feasibility", "oracle")

_MODE_KEYS = {
    "convert": {"n", "beta", "betah", "h", "jx", "jy", "jz", "boundary",
                "outcome", "m", "m_lo", "m_hi", "shots", "seed", "ground"},
    "sweep": {"n_list", "beta", "betah", "h", "jx", "jy", "jz", "boundary",
              "m", "source", "resolution", "seed", "on_capacity"},
    "interval": {"n", "beta", "betah", "h", "intervals", "closed_form_only"},
    "fit": {"input_csv", "value_column", "floor"},
    "verify": {"n", "m", "beta", "betah", "h"},
    "feasibility": {"tau_single", "n_spins", "distance_r", "sensitivity",
                    "duty_fraction", "rounded_constants"},
    "oracle": {"families", "inject_fault", "max_n", "seed"},
}

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
    on_capacity: str = "fail"
    intervals: tuple[tuple[int, int], ...] | None = None
    closed_form_only: str = "auto"
    input_csv: str | None = None
    value_column: str = "c_dense"
    floor: bool = True
    tau_single: float = 470e-6
    n_spins: int = 100
    distance_r: float = 3e-6
    sensitivity: float = 160e-18
    duty_fraction: float = 0.75
    rounded_constants: bool = False
    families: tuple[str, ...] | None = None
    inject_fault: bool = False
    max_n: int = 8


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{key} must be an integer, got {raw!r}") from None


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise UsageError(f"{key} must be a number, got {raw!r}") from None


def _parse_bool(raw: str, key: str) -> bool:
    try:
        return _BOOL_WORDS[raw.strip().lower()]
    except KeyError:
        raise UsageError(f"{key} must be a boolean, got {raw!r}") from None


def _parse_n_list(raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise UsageError("n_list is empty")
    values = tuple(_parse_int(p, "n_list") for p in parts)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise UsageError(f"n_list must be strictly increasing, got {raw!r}")
    return values


def _parse_intervals(raw: str) -> tuple[tuple[int, int], ...]:
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


def _parse_choice(raw: str, key: str, choices) -> str:
    value = raw.strip().lower()
    if value not in choices:
        raise UsageError(f"{key} must be one of {sorted(choices)}, got {raw!r}")
    return value


def _resolve_temperature(items: dict[str, str], mode: str,
                         required: bool) -> tuple[float | None, float]:
    if "beta" in items and "betah" in items:
        raise UsageError(f"[{mode}] sets both beta and betah; pick one")
    h = _parse_float(items["h"], "h") if "h" in items else 1.0
    if "beta" in items:
        beta = _parse_float(items["beta"], "beta")
    elif "betah" in items:
        if h == 0.0:
            raise UsageError("betah needs a nonzero field h")
        beta = _parse_float(items["betah"], "betah") / h
    else:
        beta = None
    if beta is not None and (beta < 0.0 or beta != beta):
        raise UsageError("inverse temperature must be finite and nonnegative")
    if required and beta is None:
        raise UsageError(f"[{mode}] needs beta or betah")
    return beta, h


def load_config(path: str, mode: str) -> ExperimentConfig:
    """Read the [mode] section of an INI file into an ExperimentConfig."""
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

    cfg = ExperimentConfig(mode=mode)
    builder = getattr(_Builders, mode)
    return builder(cfg, items)


class _Builders:
    @staticmethod
    def convert(cfg: ExperimentConfig, items: dict[str, str]) -> ExperimentConfig:
        if "n" not in items:
            raise UsageError("[convert] needs n")
        ground = _parse_bool(items["ground"], "ground") if "ground" in items else False
        beta, h = _resolve_temperature(items, "convert", required=not ground)
        outcome = _parse_choice(items.get("outcome", "exact"), "outcome",
                                {"exact", "interval", "sampled"})
        cfg = replace(
            cfg,
            n=_parse_int(items["n"], "n"),
            beta=beta, h=h, ground=ground, outcome=outcome,
            j=(_parse_float(items.get("jx", "0"), "jx"),
               _parse_float(items.get("jy", "0"), "jy"),
               _parse_float(items.get("jz", "0"), "jz")),
            boundary=_parse_choice(items.get("boundary", "periodic"),
                                   "boundary", set(BOUNDARIES)),
            shots=_parse_int(items.get("shots", "1"), "shots"),
            seed=_parse_int(items["seed"], "seed") if "seed" in items else None,
            m=_parse_int(items["m"], "m") if "m" in items else None,
            m_lo=_parse_int(items["m_lo"], "m_lo") if "m_lo" in items else None,
            m_hi=_parse_int(items["m_hi"], "m_hi") if "m_hi" in items else None,
        )
        if outcome == "exact" and cfg.m is None:
            raise UsageError("outcome=exact needs m")
        if outcome == "interval" and (cfg.m_lo is None or cfg.m_hi is None):
            raise UsageError("outcome=interval needs m_lo and m_hi")
        if outcome == "sampled":
            if cfg.seed is None:
                raise UsageError("outcome=sampled needs a seed")
            if cfg.shots < 1:
                raise UsageError("shots must be at least one")
        return cfg

    @staticmethod
    def sweep(cfg: ExperimentConfig, items: dict[str, str]) -> ExperimentConfig:
        if "n_list" not in items:
            raise UsageError("[sweep] needs n_list")
        n_list = _parse_n_list(items["n_list"])
        if len(n_list) < 3:
            raise UsageError("n_list needs at least three sizes to fit an exponent")
        source = items.get("source", "gibbs").strip().lower()
        if source != "gibbs" and source not in FIXTURE_KINDS:
            raise UsageError(
                f"source must be gibbs or one of {sorted(FIXTURE_KINDS)}, got {source!r}")
        # only fixture sources run the observable search
        if source == "gibbs":
            foreign, owner = _FIXTURE_ONLY_SWEEP_KEYS, "fixture sources"
        else:
            foreign, owner = _GIBBS_ONLY_SWEEP_KEYS, "source=gibbs"
        stray = [k for k in foreign if k in items]
        if stray:
            raise UsageError(
                f"{', '.join(stray)} only appl{'y' if len(stray) > 1 else 'ies'} to {owner}")
        if source == "gibbs":
            beta, h = _resolve_temperature(items, "sweep", required=True)
            m = _parse_int(items.get("m", "0"), "m")
        else:
            beta, h, m = None, 1.0, None
        resolution = _parse_int(items.get("resolution", str(SEARCH_RESOLUTION)),
                                "resolution")
        if resolution < 2:
            raise UsageError(f"resolution must be at least 2, got {resolution}")
        return replace(
            cfg,
            n_list=n_list, source=source, beta=beta, h=h, m=m,
            j=(_parse_float(items.get("jx", "0"), "jx"),
               _parse_float(items.get("jy", "0"), "jy"),
               _parse_float(items.get("jz", "0"), "jz")),
            boundary=_parse_choice(items.get("boundary", "periodic"),
                                   "boundary", set(BOUNDARIES)),
            resolution=resolution,
            seed=_parse_int(items["seed"], "seed") if "seed" in items else None,
            on_capacity=_parse_choice(items.get("on_capacity", "fail"),
                                      "on_capacity", {"skip", "fail"}),
        )

    @staticmethod
    def interval(cfg: ExperimentConfig, items: dict[str, str]) -> ExperimentConfig:
        if "n" not in items:
            raise UsageError("[interval] needs n")
        if "intervals" not in items:
            raise UsageError("[interval] needs intervals, e.g. intervals = -2:2, 0:4")
        beta, h = _resolve_temperature(items, "interval", required=True)
        return replace(
            cfg,
            n=_parse_int(items["n"], "n"),
            beta=beta, h=h,
            intervals=_parse_intervals(items["intervals"]),
            closed_form_only=_parse_choice(items.get("closed_form_only", "auto"),
                                           "closed_form_only",
                                           {"auto", "true", "false"}),
        )

    @staticmethod
    def fit(cfg: ExperimentConfig, items: dict[str, str]) -> ExperimentConfig:
        if "input_csv" not in items:
            raise UsageError("[fit] needs input_csv")
        return replace(
            cfg,
            input_csv=items["input_csv"].strip(),
            value_column=items.get("value_column", "c_dense").strip(),
            floor=_parse_bool(items["floor"], "floor") if "floor" in items else True,
        )

    @staticmethod
    def verify(cfg: ExperimentConfig, items: dict[str, str]) -> ExperimentConfig:
        for key in ("n", "m"):
            if key not in items:
                raise UsageError(f"[verify] needs {key}")
        beta, h = _resolve_temperature(items, "verify", required=True)
        return replace(cfg, n=_parse_int(items["n"], "n"),
                       m=_parse_int(items["m"], "m"), beta=beta, h=h)

    @staticmethod
    def feasibility(cfg: ExperimentConfig, items: dict[str, str]) -> ExperimentConfig:
        return replace(
            cfg,
            tau_single=_parse_float(items.get("tau_single", "470e-6"), "tau_single"),
            n_spins=_parse_int(items.get("n_spins", "100"), "n_spins"),
            distance_r=_parse_float(items.get("distance_r", "3e-6"), "distance_r"),
            sensitivity=_parse_float(items.get("sensitivity", "160e-18"),
                                     "sensitivity"),
            duty_fraction=_parse_float(items.get("duty_fraction", "0.75"),
                                       "duty_fraction"),
            rounded_constants=_parse_bool(items["rounded_constants"],
                                          "rounded_constants")
            if "rounded_constants" in items else False,
        )

    @staticmethod
    def oracle(cfg: ExperimentConfig, items: dict[str, str]) -> ExperimentConfig:
        families: tuple[str, ...] | None = None
        if "families" in items and items["families"].strip().lower() != "all":
            families = tuple(p.strip() for p in items["families"].split(",")
                             if p.strip())
            if not families:
                raise UsageError("families is empty; use 'all' or a comma list")
        return replace(
            cfg,
            families=families,
            inject_fault=_parse_bool(items["inject_fault"], "inject_fault")
            if "inject_fault" in items else False,
            max_n=_parse_int(items.get("max_n", "8"), "max_n"),
            seed=_parse_int(items.get("seed", "0"), "seed"),
        )
