"""The catlab command line.

Modes: convert (thermal state, one measurement), sweep (sizes to an
exponent fit), interval (windowed outcomes, closed forms at any size),
fit (re-fit an existing CSV), verify (dense against closed forms),
feasibility (readout estimate), oracle (invariant families).

Row-producing modes emit the fixed-schema CSV on stdout or --out; the
CSV bytes are independent of --workers and wall-clock, which live only
in the optional JSONL mirror. Exit codes: 0 success, 2 usage, 3 broken
invariant, 4 over the dense capacity or out of memory.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace

from .analysis import (FeasibilityInput, energy_moments_dense,
                       energy_moments_free_closed, feasibility_calc,
                       purity_bound_free, transverse_moments)
from .config import MODES, ExperimentConfig, load_config
from .errors import CapacityError, ContractViolationError, UsageError
from .indices import (c_closed_form_free, expect_c, fit_exponent,
                      fixture_states, i_function, interval_c_closed,
                      observable_search)
from .measure import (OutcomeSpec, outcome_distribution, outcome_probability,
                      post_state, sample_outcome)
from .oracle import run_families
from .records import (CSV_COLUMNS, append_jsonl, mix_seed, new_row, read_csv,
                      write_csv)
from .spincore import DENSE_CAP, snap_interval, total_magnetization
from .thermal import (SpinHamiltonian, gibbs_state, ground_state,
                      log_free_partition_eq, log_free_partition_post,
                      log_interval_partition_post)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catlab",
        description="thermal spin ensembles into measured cat states")
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="INI file with a [MODE] section")
    parser.add_argument("--out", metavar="PATH",
                        help="write the CSV to this file instead of stdout")
    parser.add_argument("--jsonl", metavar="PATH",
                        help="append rows as JSON objects with timing")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel workers for sweep rows")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured seed")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = None
    try:
        cfg = load_config(args.config, args.mode)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.workers < 1:
            raise UsageError("--workers must be at least one")
        handler = _HANDLERS[args.mode]
        return handler(cfg, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ContractViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        size = "?" if cfg is None else cfg.n_list or cfg.n
        print(f"error: out of memory at n={size}: the dense pipeline does not "
              "fit in this machine's memory", file=sys.stderr)
        return 4


def _defined(value: float) -> float | None:
    """None (an empty CSV cell, JSON null) for an undefined value."""
    return None if math.isnan(value) else value


def _emit(rows, args) -> None:
    write_csv(rows, args.out, stream=sys.stdout)
    if args.jsonl:
        append_jsonl(rows, args.jsonl)


def _no_rows(args, mode: str) -> None:
    if args.out or args.jsonl:
        raise UsageError(f"{mode} does not produce CSV rows; drop --out/--jsonl")


def _build_state(cfg: ExperimentConfig, n: int):
    ham = SpinHamiltonian(n=n, h=cfg.h, j=cfg.j, boundary=cfg.boundary)
    if cfg.ground:
        return ham, ground_state(ham)
    return ham, gibbs_state(ham, cfg.beta)


def _measured_row(cfg: ExperimentConfig, state, lo: int, hi: int,
                  start: float) -> dict:
    """One fully diagnosed record: project the built (ham, rho), then every
    per-outcome scalar; wall_ms counts from start."""
    ham, rho = state
    n = ham.n
    betah = math.inf if cfg.ground else cfg.beta * cfg.h
    spec = OutcomeSpec.exact(lo) if lo == hi else OutcomeSpec.interval(lo, hi)
    prob = outcome_probability(rho, spec)
    out = post_state(rho, spec)
    proj = spec.projector(n)
    c_dense = expect_c(out, total_magnetization("x", n), proj)
    moments = energy_moments_dense(out, ham)
    row = new_row()
    row.update(
        n=n, m_lo=lo, m_hi=hi,
        beta=None if cfg.ground else cfg.beta,
        h=cfg.h, jx=cfg.j[0], jy=cfg.j[1], jz=cfg.j[2],
        prob=prob, c_dense=c_dense, purity=out.purity,
        e_mean=moments.mean, e_var=moments.variance,
        mx2=transverse_moments(out)[2],
        i_value=i_function(n, lo, hi),
        seed=cfg.seed,
    )
    if ham.is_free:
        row["c_closed"] = (c_closed_form_free(n, lo, betah) if lo == hi
                           else interval_c_closed(n, lo, hi, betah))
        if not cfg.ground:
            row["purity_bound"] = math.exp(
                log_interval_partition_post(n, lo, hi, 2.0 * betah)
                - 2.0 * log_interval_partition_post(n, lo, hi, betah))
    row["wall_ms"] = (time.perf_counter() - start) * 1e3
    return row


def run_convert(cfg: ExperimentConfig, args) -> int:
    n = cfg.n
    if cfg.outcome == "exact":
        windows = [(cfg.m, cfg.m, cfg.seed)]
    elif cfg.outcome == "interval":
        lo, hi = snap_interval(n, cfg.m_lo, cfg.m_hi)
        windows = [(lo, hi, cfg.seed)]
    start = time.perf_counter()
    state = _build_state(cfg, n)
    if cfg.outcome == "sampled":
        dist = outcome_distribution(state[1])
        windows = []
        for index in range(cfg.shots):
            record_seed = mix_seed(cfg.seed, index)
            m = sample_outcome(dist, record_seed)
            windows.append((m, m, record_seed))
    rows = []
    cache: dict[tuple[int, int], dict] = {}
    for index, (lo, hi, record_seed) in enumerate(windows):
        if (lo, hi) not in cache:
            # the shared build is charged to the first row
            cache[(lo, hi)] = _measured_row(cfg, state, lo, hi, start)
            start = time.perf_counter()
        row = dict(cache[(lo, hi)])
        row["seed"] = record_seed
        rows.append(row)
        print(f"record {index}: window=[{lo},{hi}] prob={row['prob']:.6g} "
              f"c_dense={row['c_dense']:.6g}", file=sys.stderr)
    _emit(rows, args)
    return 0


def _sweep_row(payload) -> dict:
    cfg, n = payload
    start = time.perf_counter()
    if cfg.source == "gibbs":
        return _measured_row(cfg, _build_state(cfg, n), cfg.m, cfg.m, start)
    rho = fixture_states(cfg.source, n)
    report = observable_search(rho, resolution=cfg.resolution)
    row = new_row()
    row.update(n=n, c_dense=report.c_value, purity=rho.purity, seed=cfg.seed,
               wall_ms=(time.perf_counter() - start) * 1e3)
    return row


def run_sweep(cfg: ExperimentConfig, args) -> int:
    payloads = []
    for n in cfg.n_list:
        if n > DENSE_CAP:
            if cfg.on_capacity == "fail":
                raise CapacityError(
                    f"n={n} exceeds the dense capacity {DENSE_CAP}")
            print(f"skipping n={n}: over the dense capacity {DENSE_CAP}",
                  file=sys.stderr)
            continue
        payloads.append((cfg, n))
    if len(payloads) < 3:
        raise UsageError("sweep needs at least three in-capacity sizes to fit")
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_sweep_row, payloads))
    else:
        rows = [_sweep_row(p) for p in payloads]
    q_fit, q_err = fit_exponent([(row["n"], row["c_dense"]) for row in rows])
    for row in rows:
        row["q_fit"] = q_fit
        row["q_fit_err"] = _defined(q_err)
    print(f"fit over {len(rows)} sizes: q_fit={q_fit:.6g} "
          f"q_fit_err={q_err:.3g}", file=sys.stderr)
    _emit(rows, args)
    return 0


def run_interval(cfg: ExperimentConfig, args) -> int:
    n = cfg.n
    betah = cfg.beta * cfg.h
    mode = cfg.closed_form_only
    use_dense = {"auto": n <= DENSE_CAP, "true": False, "false": True}[mode]
    if use_dense and n > DENSE_CAP:
        raise CapacityError(
            f"closed_form_only=false needs n <= {DENSE_CAP}, got {n}")
    dense_ctx = None
    if use_dense:
        ham = SpinHamiltonian(n=n, h=cfg.h)
        dense_ctx = (ham, gibbs_state(ham, cfg.beta))
    rows = []
    for raw_lo, raw_hi in cfg.intervals:
        start = time.perf_counter()
        lo, hi = snap_interval(n, raw_lo, raw_hi)
        row = new_row()
        row.update(
            n=n, m_lo=lo, m_hi=hi, beta=cfg.beta, h=cfg.h,
            jx=0.0, jy=0.0, jz=0.0,
            prob=math.exp(log_interval_partition_post(n, lo, hi, betah)
                          - log_free_partition_eq(n, betah)),
            c_closed=interval_c_closed(n, lo, hi, betah),
            i_value=i_function(n, lo, hi),
            purity_bound=math.exp(
                log_interval_partition_post(n, lo, hi, 2.0 * betah)
                - 2.0 * log_interval_partition_post(n, lo, hi, betah)),
        )
        if dense_ctx is not None:
            ham, rho = dense_ctx
            spec = OutcomeSpec.interval(lo, hi)
            out = post_state(rho, spec)
            moments = energy_moments_dense(out, ham)
            row.update(c_dense=expect_c(out, total_magnetization("x", n),
                                        spec.projector(n)),
                       purity=out.purity, e_mean=moments.mean,
                       e_var=moments.variance, mx2=transverse_moments(out)[2])
        row["wall_ms"] = (time.perf_counter() - start) * 1e3
        rows.append(row)
        print(f"window [{lo},{hi}]: prob={row['prob']:.6g} "
              f"c_closed={row['c_closed']:.6g}", file=sys.stderr)
    _emit(rows, args)
    return 0


def run_fit(cfg: ExperimentConfig, args) -> int:
    if args.jsonl:
        raise UsageError("fit does not produce records; drop --jsonl")
    if cfg.value_column not in CSV_COLUMNS:
        raise UsageError(f"value_column {cfg.value_column!r} is not a CSV column")
    try:
        table = read_csv(cfg.input_csv)
    except OSError as exc:
        raise UsageError(f"cannot read {cfg.input_csv}: {exc}") from None
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    points = [(row["n"], row[cfg.value_column]) for row in table
              if row["n"] is not None and row[cfg.value_column] is not None]
    q_fit, q_err = fit_exponent(points, floor=cfg.floor)
    q_err = _defined(q_err)
    print(json.dumps({"points": len(points), "value_column": cfg.value_column,
                      "floor": cfg.floor, "q_fit": q_fit, "q_fit_err": q_err}))
    if args.out:
        row = new_row()
        row.update(q_fit=q_fit, q_fit_err=q_err)
        write_csv([row], args.out)
    return 0


def run_verify(cfg: ExperimentConfig, args) -> int:
    _no_rows(args, "verify")
    n, m, h = cfg.n, cfg.m, cfg.h
    betah = cfg.beta * h
    row = _measured_row(cfg, _build_state(cfg, n), m, m, time.perf_counter())
    closed = energy_moments_free_closed(n, m, betah, h)
    t2 = math.tanh(betah) ** 2

    checks = [
        ("sector_probability", row["prob"],
         math.exp(log_free_partition_post(n, m, betah)
                  - log_free_partition_eq(n, betah)), 1e-10),
        ("catness_value", row["c_dense"], c_closed_form_free(n, m, betah), 1e-10),
        ("energy_mean", row["e_mean"], 0.0, 1e-11),
        ("energy_variance", row["e_var"], closed.variance, 1e-10),
        ("transverse_second_moment", row["mx2"],
         n + 0.5 * (n * n - m * m) * t2, 1e-10),
        ("purity_bound", min(purity_bound_free(n, m, betah) - row["purity"], 0.0),
         0.0, 1e-12),
    ]
    failed = 0
    for name, got, want, tol in checks:
        residual = abs(got - want) / max(abs(want), 1.0)
        ok = residual <= tol
        failed += 0 if ok else 1
        print(f"check={name} residual={residual:.3e} status={'ok' if ok else 'fail'}")
    return 0 if failed == 0 else 3


def run_feasibility(cfg: ExperimentConfig, args) -> int:
    _no_rows(args, "feasibility")
    inp = FeasibilityInput(tau_single=cfg.tau_single, n_spins=cfg.n_spins,
                           distance_r=cfg.distance_r, sensitivity=cfg.sensitivity,
                           duty_fraction=cfg.duty_fraction)
    payload = {
        "selected": "rounded" if cfg.rounded_constants else "precise",
        "precise": asdict(feasibility_calc(inp, rounded_constants=False)),
        "rounded": asdict(feasibility_calc(inp, rounded_constants=True)),
    }
    print(json.dumps(payload, indent=2))
    return 0


def run_oracle(cfg: ExperimentConfig, args) -> int:
    _no_rows(args, "oracle")
    results = run_families(names=cfg.families, max_n=cfg.max_n,
                           seed=cfg.seed if cfg.seed is not None else 0,
                           inject_fault=cfg.inject_fault)
    failed = 0
    for res in results:
        status = "ok" if res.passed else "fail"
        failed += 0 if res.passed else 1
        print(f"family={res.name} status={status} checks={res.checks} "
              f"elapsed_ms={res.elapsed_ms:.1f}")
        for line in res.failures:
            print(f"  failed: {line}")
    print(f"families={len(results)} failed={failed}")
    return 0 if failed == 0 else 3


_HANDLERS = {
    "convert": run_convert,
    "sweep": run_sweep,
    "interval": run_interval,
    "fit": run_fit,
    "verify": run_verify,
    "feasibility": run_feasibility,
    "oracle": run_oracle,
}


if __name__ == "__main__":
    sys.exit(main())
