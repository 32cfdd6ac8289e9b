"""catlab benchmark: closed-loop runs of real catlab operations.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from src/ as is,
nothing is built or installed. One client sends one op at a time; every op
runs in a fresh interpreter (perfbench/child.py) under a memory ceiling and
a time limit. Inputs and correctness references come from the seed, and
the references are computed before timing without catlab code. Ops start
while the next one is expected to end nearer the S-second mark than the
last one did, and at least MIN_OPS ops run.

--trace 0 prints the end-to-end metrics: setup_s (fresh interpreter through
`import catlab.cli`), wall_s (call into catlab until it returns), and
peak_rss_mb (VmHWM of the op's process), each the median over the run.
Both times are scaled to a reference core speed by the speed probe that
runs in the op's process (see speed.py). --trace 1 alternates untraced and
traced ops and prints the per-layer metrics from the traced ones (see
spans.py). A failed op, meaning a non-zero exit, a hit limit or a failed
correctness check, is charged the op time limit plus the time its process
ran, so it never reads as fast.

Every run writes .perfbench_out/results/<workload>_seed<N>_trace<T>.json
with a provenance header, every op, the metric sample counts and quartiles,
and, when traced, per-op span aggregates by (name, n). The last stdout line
is the JSON result.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import refs
from spans import MODULES
from speed import REF_S

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

OP_LIMIT_S = 60.0             # an op still running after this is killed and failed
# RLIMIT_AS of every op's process, bytes. One op this large at a time leaves
# an 8 GB machine room for the harness and the system. A child maps about
# 0.25 GiB after `import catlab.cli`, which leaves room for about 15 dense
# 4096 x 4096 complex matrices: about twice what a lean n = 12 pipeline needs.
MEMORY_CEILING = 4 * 2**30
MIN_OPS = 2                   # per run, however long they take: medians need samples
# one BLAS thread: on the shared 2-core box, two threads made the dense
# sweep faster but much less steady and the search slower
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
MAPPED_EXITS = {0, 2, 3, 4}   # catlab's documented exit codes

# Spans whose inclusive time is reported as a per-layer metric. The share
# of an op they do not cover is reported as trace.uncovered_frac.
NAMED_SPANS = (
    "thermal.SpinHamiltonian.realize", "thermal.gibbs_state",
    "measure.outcome_probability", "measure.post_state",
    "measure.OutcomeSpec.projector", "indices.expect_c",
    "indices.observable_search", "indices.fixture_states",
    "indices.fit_exponent", "analysis.energy_moments_dense",
    "analysis.transverse_moments", "records.write_csv", "config.load_config",
)
ORACLE_FAMILIES = (
    "pauli_algebra", "projector_algebra", "herm_expm_roundtrip", "cyclic_trace",
    "partition_free", "closed_form_c", "post_state_props", "purity_energy",
    "interval_machinery", "xyz_expansion", "witness_machinery", "vcm_pfit",
    "fixtures", "double_projection", "averaged_identity", "time_evolution",
    "pauli_decomposition", "sampling", "feasibility", "sufficiency",
)
PER_LAYER = (
    *(f"{name}.ms" for name in NAMED_SPANS), "cli.main.ms",
    *(f"oracle.{family}.ms" for family in ORACLE_FAMILIES), "oracle.checks_total",
    *(f"{module}.self_ms" for module in MODULES),
    "spincore.pauli_site.cache_entries", "spincore.pauli_site.cache_mb",
    "records.write_csv.bytes", "proc.cpu_s", "cli.failed_frac",
    "cli.unmapped_failures", "trace.calls", "trace.uncovered_frac",
    "trace.overhead_s", "host.probe_s",
)


class Workload:
    """Inputs, the op request and the correctness gate of one workload.

    The default op is `catlab <mode>` on the INI text of config(), and the
    default gate compares its CSV rows with self.want, set by references().
    """

    mode = None
    writes_csv = True

    def __init__(self, seed: int, run_dir: Path, dr):
        self.seed = seed
        self.run_dir = run_dir
        self.dr = dr
        self.rng = random.Random(seed)

    def config(self) -> str:
        raise NotImplementedError

    def request(self, out: Path | None) -> dict:
        ini = self.run_dir / "op.ini"
        ini.write_text(self.config(), encoding="utf-8")
        argv = [self.mode, "--config", str(ini), "--seed", str(self.seed)]
        return {"kind": "cli", "argv": argv + (["--out", str(out)] if out else [])}

    def references(self) -> None:
        """Untimed; runs once per run, before the first op."""

    def check(self, op: dict, out: Path | None) -> str | None:
        """None when the op's output is right, else the reason it is not."""
        rows = _csv_rows(out)
        if sorted(int(r["n"]) for r in rows) != sorted(self.want):
            return f"rows for n={[r['n'] for r in rows]}, want {sorted(self.want)}"
        for row in rows:
            n = int(row["n"])
            if int(row["seed"]) != self.seed:
                return f"n={n}: seed column {row['seed']} != {self.seed}"
            for key, value in self.want[n].items():
                if not refs.close(float(row[key]), value):
                    return f"n={n}: {key}={row[key]} but the reference is {value!r}"
        return None


def _csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _n_list(sizes) -> str:
    return ", ".join(map(str, sizes))


class SweepGibbs(Workload):
    """catlab sweep over a periodic XYZ ring: the dense pipeline at d <= 1024."""

    mode = "sweep"
    N_LIST = (6, 8, 10)

    def __init__(self, seed, run_dir, dr):
        super().__init__(seed, run_dir, dr)
        self.betah = self.rng.uniform(0.8, 1.2)
        self.jx = self.rng.uniform(0.15, 0.25)
        self.jz = self.rng.uniform(0.05, 0.15)

    def config(self):
        return (f"[sweep]\nn_list = {_n_list(self.N_LIST)}\nh = 1.0\n"
                f"betah = {self.betah!r}\njx = {self.jx!r}\njz = {self.jz!r}\n"
                "m = 0\nboundary = periodic\n")

    def references(self):
        self.want = {n: refs.measured_rows(self.dr, n, self.betah,
                                           (self.jx, 0.0, self.jz), (0,))[0]
                     for n in self.N_LIST}


class RepeatedSearch(Workload):
    """c_value must repeat across ops and reach the best dense axis witness."""

    first = None

    def check_values(self, values: list[float]) -> str | None:
        for key, value, floor in zip(self.keys, values, self.floors):
            if value < floor - 1e-9 * max(1.0, abs(floor)):
                return f"{key}: c_value {value!r} below the axis witness {floor!r}"
        if self.first is None:
            self.first = values
        for key, value, first in zip(self.keys, values, self.first):
            if not refs.close(value, first, 1e-10):
                return f"{key}: c_value {value!r} differs from the first op's {first!r}"
        return None


class SearchPost(RepeatedSearch):
    """README quick-start through the API: searches on rank <= 20 states, d = 64."""

    writes_csv = False
    N, MS = 6, (0, 2, 4, 6)

    def __init__(self, seed, run_dir, dr):
        super().__init__(seed, run_dir, dr)
        self.params = {"n": self.N, "ms": list(self.MS),
                       "betah": self.rng.uniform(0.8, 1.2),
                       "jx": self.rng.uniform(0.15, 0.25),
                       "jz": self.rng.uniform(0.05, 0.15)}
        self.keys = [f"m={m}" for m in self.MS]

    def request(self, out):
        return {"kind": "api", "params": self.params}

    def references(self):
        p, dr, n = self.params, self.dr, self.N
        rho = dr.gibbs(dr.hamiltonian(n, 1.0, (p["jx"], 0.0, p["jz"]), "periodic"),
                       p["betah"])
        self.floors = [refs.axis_witness(dr, dr.project(rho, dr.sector_projector(n, m, m))[0], n)
                       for m in self.MS]

    def check(self, op, out):
        return self.check_values(op["report"]["result"]["c_values"])


class SearchFixture(RepeatedSearch):
    """catlab sweep of the rho_ex1 fixture: rank-n states at d up to 1024."""

    mode = "sweep"
    N_LIST = (6, 8, 10)

    def __init__(self, seed, run_dir, dr):
        super().__init__(seed, run_dir, dr)
        self.keys = [f"n={n}" for n in self.N_LIST]

    def config(self):
        return f"[sweep]\nn_list = {_n_list(self.N_LIST)}\nsource = rho_ex1\n"

    def references(self):
        self.floors = [refs.axis_witness(self.dr, refs.rho_ex1(n), n)
                       for n in self.N_LIST]

    def check(self, op, out):
        rows = {int(r["n"]): float(r["c_dense"]) for r in _csv_rows(out)}
        if sorted(rows) != list(self.N_LIST):
            return f"rows for n={sorted(rows)}"
        return self.check_values([rows[n] for n in self.N_LIST])


class Oracle(Workload):
    """catlab oracle, all 20 families at max_n = 8, seeded from the run seed."""

    mode = "oracle"
    writes_csv = False

    def config(self):
        return "[oracle]\nmax_n = 8\n"

    def check(self, op, out):
        lines = op["stdout"].splitlines()
        want = f"families={len(ORACLE_FAMILIES)} failed=0"
        if not lines or lines[-1] != want:
            return f"last line {lines[-1] if lines else ''!r}, want {want!r}"
        return None


class CapRow(Workload):
    """catlab convert at n = DENSE_CAP = 12, free ring, checked by closed forms."""

    mode = "convert"
    N, M, BETAH = 12, 0, 1.0

    def config(self):
        return f"[convert]\nn = {self.N}\nbetah = {self.BETAH!r}\nm = {self.M}\n"

    def references(self):
        self.want = {self.N: refs.free_row(self.N, self.M, self.BETAH)}


WORKLOADS = {
    "sweep_gibbs": SweepGibbs,
    "search_post": SearchPost,
    "search_fixture": SearchFixture,
    "oracle": Oracle,
    "cap_row": CapRow,
}


def run_child(request: dict, op_dir: Path) -> dict:
    """Start child.py on one request and wait for it under the op time limit."""
    op_dir.mkdir(parents=True)
    req_path, report_path = op_dir / "request.json", op_dir / "report.json"
    req_path.write_text(json.dumps(dict(request, memory_ceiling=MEMORY_CEILING)),
                        encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
    with open(op_dir / "stdout", "wb") as out, open(op_dir / "stderr", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(req_path), str(report_path)],
            stdout=out, stderr=err, env=env, cwd=ROOT)
        deadline = spawned + OP_LIMIT_S
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                timed_out = True
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):  # none, or cut short by the kill
        report = None
    stderr = (op_dir / "stderr").read_text(encoding="utf-8", errors="replace")
    stdout = (op_dir / "stdout").read_text(encoding="utf-8", errors="replace")
    return {
        "exit_code": proc.returncode,
        "timed_out": timed_out,
        "lifetime_s": ended - spawned,
        "raw_setup_s": report["imported"] - spawned if report else None,
        # wait4's ru_maxrss also counts the image of this process, which the
        # child was forked from, so it is only the fallback for a child
        # killed before it read VmHWM
        "peak_rss_mb": (report["peak_rss_kb"] if report and report.get("peak_rss_kb")
                        else usage.ru_maxrss) / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "report": report,
        "stdout": stdout,
        "last_line": (stderr.strip().splitlines() or stdout.strip().splitlines() or [""])[-1],
    }


def run_op(workload: Workload, index: int, traced: bool, run_dir: Path) -> dict:
    op_dir = run_dir / f"op{index:03d}"
    out = op_dir / "rows.csv" if workload.writes_csv else None
    request = workload.request(out)
    request["trace"] = traced
    op = run_child(request, op_dir)
    report = op["report"]
    failure = None
    if op["timed_out"]:
        failure = f"killed after the {OP_LIMIT_S:g} s op limit"
        op["error_class"] = "Timeout"
    elif op["exit_code"] != 0:
        failure = f"exit {op['exit_code']}: {op['last_line']}"
        op["error_class"] = (report or {}).get("error") or (
            f"signal {-op['exit_code']}" if op["exit_code"] < 0
            else f"exit {op['exit_code']}")
    else:
        try:
            failure = workload.check(op, out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failure = f"unreadable output: {exc!r}"
        op["error_class"] = "IncorrectOutput" if failure else None
    finished = not op["timed_out"]
    # exit 3 is catlab reporting a broken invariant of its own: a wrong result
    op.update(index=index, traced=traced, failure=failure,
              incorrect=failure is not None and finished and op["exit_code"] in (0, 3),
              unmapped=finished and op["exit_code"] not in MAPPED_EXITS,
              csv_bytes=out.stat().st_size if out and out.exists() else 0)
    # the probe runs after set-up and after an op that did not raise; the op's
    # times are scaled by REF_S over their mean
    probes = (report or {}).get("probe_s") or []
    op["probe_s"] = statistics.fmean(probes) if probes else None
    scale = REF_S / op["probe_s"] if probes else 1.0
    op["setup_s"] = op["raw_setup_s"] * scale if op["raw_setup_s"] is not None else None
    op["raw_wall_s"] = report["wall_s"] if failure is None else None
    op["wall_s"] = (op["raw_wall_s"] * scale if failure is None
                    else OP_LIMIT_S + op["lifetime_s"])
    if traced and report and report.get("spans"):
        op["layers"] = layer_values(op)
        op["span_table"] = span_table(op)
    return op


# ---------------------------------------------------------------- metrics

def _median(values):
    return statistics.median(values) if values else 0.0


def _summary(values) -> dict:
    values = sorted(values)
    out = {"samples": len(values)}
    if values:
        out.update(median=statistics.median(values), min=values[0], max=values[-1])
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def _dim(n):
    return 1 << n if n is not None and 0 <= n < 63 else None


def _union_ns(intervals) -> int:
    total, end = 0, None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def layer_values(op: dict) -> dict:
    """Per-layer values of one traced op, from its spans."""
    report = op["report"]
    spans = [s for s in report["spans"] if s is not None]
    by_id = {s[0]: s for s in spans}
    named = set(NAMED_SPANS) | {f"oracle.{f}" for f in ORACLE_FAMILIES} | {"cli.main"}
    inclusive = {name: 0 for name in named}
    module_self = {mod: 0 for mod in MODULES}
    covered = []
    for span_id, parent, name, n, t0, t1, self_ns, rss, ok in spans:
        module = name.split(".", 1)[0]
        if module in module_self:
            module_self[module] += self_ns
        if name in named:
            outer = parent
            while outer is not None and by_id[outer][2] != name:
                outer = by_id[outer][1]
            if outer is None:  # count recursive calls once
                inclusive[name] += t1 - t0
            if name != "cli.main":
                covered.append((t0, t1))
    root = next(s for s in spans if s[2] == "op")
    op_ns = root[5] - root[4]
    values = {f"{name}.ms": ns / 1e6 for name, ns in inclusive.items()}
    values.update({f"{mod}.self_ms": ns / 1e6 for mod, ns in module_self.items()})
    pauli = report["pauli_site"]
    values.update({
        "spincore.pauli_site.cache_entries": pauli["cache_entries"],
        "spincore.pauli_site.cache_mb": pauli["cache_mb"],
        "records.write_csv.bytes": op["csv_bytes"],
        "oracle.checks_total": sum(int(word.split("=", 1)[1])
                                   for line in op["stdout"].splitlines()
                                   if line.startswith("family=")
                                   for word in line.split() if word.startswith("checks=")),
        "trace.uncovered_frac": 1.0 - _union_ns(covered) / op_ns if op_ns else 0.0,
        "trace.calls": sum(s[2].split(".", 1)[0] in MODULES for s in spans),
    })
    return values


def span_table(op: dict) -> list[dict]:
    """Spans of one op aggregated by (name, n): calls, inclusive and self ms,
    and the peak-RSS high-water mark after the last call."""
    table = {}
    for _, _, name, n, t0, t1, self_ns, rss, ok in filter(None, op["report"]["spans"]):
        row = table.setdefault((name, n), {"name": name, "n": n, "d": _dim(n),
                                           "calls": 0, "failed": 0, "ms": 0.0,
                                           "self_ms": 0.0, "rss_mb_after": 0.0})
        row["calls"] += 1
        row["failed"] += 0 if ok else 1
        row["ms"] += (t1 - t0) / 1e6
        row["self_ms"] += self_ns / 1e6
        row["rss_mb_after"] = max(row["rss_mb_after"], rss / 1024.0)
    return sorted(table.values(), key=lambda r: -r["self_ms"])


def write_spans(op: dict, args) -> None:
    """Every span of one traced op, one JSON object per line; the root span
    "op" is the parent of the op's outermost calls."""
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    path = spans_dir / f"{args.workload}_seed{args.seed}_op{op['index']}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, parent, name, n, t0, t1, self_ns, rss, ok in filter(None, op["report"]["spans"]):
            fh.write(json.dumps({
                "id": span_id, "parent": parent, "name": name, "n": n, "d": _dim(n),
                "start_ns": t0, "end_ns": t1, "self_ms": self_ns / 1e6,
                "rss_mb_after": rss / 1024.0, "ok": ok}) + "\n")


def per_layer_units(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------- provenance

def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "catlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else None
        else:
            commit = ref
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def header(args, provenance: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace),
        **source_identity(),
        **provenance,
        "child_env": CHILD_ENV,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "memory_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "platform": platform.platform(),
        "op_limit_s": OP_LIMIT_S,
        "speed_probe_ref_s": REF_S,
        "memory_ceiling_mb": MEMORY_CEILING / 2**20,
        "loop": "closed, one client, one op at a time, one process per op",
        "harness_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------- main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/catlab/__init__.py", "src/catlab/cli.py", "tests/denseref.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from the root of a catlab checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    run_dir = OUT / "runs" / f"{args.workload}_seed{args.seed}_trace{args.trace}_{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        result, record = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float), encoding="utf-8")
    for line in record["summary_lines"]:
        print(line)
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def measure(args, run_dir: Path):
    dr = refs.load_denseref(ROOT)
    workload = WORKLOADS[args.workload](args.seed, run_dir, dr)
    workload.references()

    # untimed warm-up: byte-compiles the package and fills the page cache
    warm = run_child({"kind": "probe"}, run_dir / "warmup")
    if warm["report"] is None:
        raise SystemExit(f"cannot import catlab from {ROOT / 'src'}: {warm['last_line']}")
    provenance = warm["report"]["provenance"]
    if not Path(provenance["catlab_file"]).is_relative_to(ROOT / "src"):
        raise SystemExit(f"catlab was imported from {provenance['catlab_file']}, "
                         f"not {ROOT / 'src'}")

    start = time.monotonic()
    ops = []
    while len(ops) < MIN_OPS or (
            time.monotonic() - start + _median([op["lifetime_s"] for op in ops]) / 2
            < args.seconds):
        traced = bool(args.trace) and len(ops) % 2 == 1
        op = run_op(workload, len(ops), traced, run_dir)
        if "layers" in op and not any("layers" in o for o in ops):
            write_spans(op, args)
        # spans of one op take tens of MB; a large harness would also make
        # the ru_maxrss fallback and the spans' RSS marks of later ops read high
        op.pop("report")
        ops.append(op)
    measured_s = time.monotonic() - start

    setups = [op["setup_s"] for op in ops if op["setup_s"] is not None]
    plain = [op for op in ops if not op["traced"]]
    traced_ops = [op for op in ops if op["traced"]]
    failed = [op for op in ops if op["failure"]]
    e2e = {
        "setup_s": _summary(setups),
        "wall_s": _summary([op["wall_s"] for op in plain]),
        "peak_rss_mb": _summary([op["peak_rss_mb"] for op in plain]),
    }
    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

    layers = {}
    with_layers = [op for op in traced_ops if "layers" in op]
    if args.trace:
        run_level = {
            "proc.cpu_s": _median([op["cpu_s"] for op in plain]),
            "cli.failed_frac": len(failed) / len(ops),
            "cli.unmapped_failures": sum(op["unmapped"] for op in failed),
            "trace.overhead_s": (_median([op["wall_s"] for op in traced_ops])
                                 - _median([op["wall_s"] for op in plain])),
            "host.probe_s": _median([op["probe_s"] for op in ops if op["probe_s"]]),
        }
        layers = {k: run_level[k] if k in run_level
                  else _median([op["layers"][k] for op in with_layers])
                  for k in PER_LAYER}
        metrics = {k: {"value": v, "unit": per_layer_units(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": e2e[k].get("median", 0.0), "unit": units[k]} for k in e2e}
    result = {
        "correct": not any(op["incorrect"] for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }

    lines = [f"{args.workload} seed={args.seed} trace={args.trace}: {len(ops)} ops "
             f"in {measured_s:.1f} s, {len(failed)} failed"]
    for key, summ in e2e.items():
        if summ["samples"]:
            lines.append(f"  {key}: median {summ['median']:.4g} {units[key]} "
                         f"over {summ['samples']} samples "
                         f"(min {summ['min']:.4g}, max {summ['max']:.4g})")
    probes = [op["probe_s"] for op in ops if op["probe_s"]]
    if probes:
        lines.append(f"  speed probe: median {_median(probes):.4g} s (min {min(probes):.4g}, "
                     f"max {max(probes):.4g}); the times above are scaled to {REF_S:g} s")
    for op in failed:
        lines.append(f"  op {op['index']} failed: {op['error_class']}: {op['failure']}")
    for op in with_layers:
        lines.append(f"  op {op['index']} traced: {op['layers']['trace.calls']} calls, "
                     f"{op['layers']['trace.uncovered_frac']:.2%} of the op outside named spans")
    for op in ops:
        op["stdout"] = op["stdout"][-2000:]
    record = {
        "header": header(args, provenance),
        "result": result,
        "end_to_end": e2e,
        "unscaled": {
            "setup_s": _summary([op["raw_setup_s"] for op in ops
                                 if op["raw_setup_s"] is not None]),
            "wall_s": _summary([op["raw_wall_s"] for op in plain
                                if op["raw_wall_s"] is not None]),
        },
        "per_layer": layers,
        "failures": {
            "attempted": len(ops), "failed": len(failed),
            "failed_frac": len(failed) / len(ops),
            "unmapped_exit_codes": sum(op["unmapped"] for op in failed),
            "by_exit_code": Counter(str(op["exit_code"]) for op in failed),
            "by_error_class": Counter(op["error_class"] for op in failed),
        },
        "measured_s": measured_s,
        "ops": ops,
        "summary_lines": lines,
    }
    return result, record


if __name__ == "__main__":
    sys.exit(main())
