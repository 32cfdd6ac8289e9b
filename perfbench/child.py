"""One benchmark op in a fresh interpreter, the way a user runs catlab.

    python3 perfbench/child.py REQUEST.json REPORT.json

The parent starts this with PYTHONPATH pointing at the checkout's src/.
The request sets the memory ceiling (RLIMIT_AS) of this process. Set-up
ends when `import catlab.cli` returns; the op is timed from the
call into catlab until it returns. The speed probe (speed.py) runs right
after set-up and, unless the op raised, right after the op, outside both
timings. The report (timestamps, probe times, exit code or exception
class, op result, peak resident set, and spans when traced) is written even
when the op raises; the exception then propagates, so the exit code and
stderr are those of the `catlab` command.
"""
import contextlib
import json
import resource
import sys
import time

from spans import Tracer, peak_rss_kb


def search_post(params) -> dict:
    """README quick-start: one Gibbs state, then a search per outcome m."""
    import catlab

    ham = catlab.SpinHamiltonian(n=params["n"], h=1.0,
                                 j=(params["jx"], 0.0, params["jz"]))
    rho = catlab.gibbs_state(ham, beta=params["betah"])
    values = []
    for m in params["ms"]:
        rho_m = catlab.post_state(rho, catlab.OutcomeSpec.exact(m))
        values.append(catlab.observable_search(rho_m).c_value)
    return {"c_values": values}


def provenance() -> dict:
    import ctypes
    import glob
    import os
    import platform

    import catlab
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            threads = int(get())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": threads,
        "catlab_file": catlab.__file__,
    }


def main() -> int:
    request_path, report_path = sys.argv[1:3]
    with open(request_path, encoding="utf-8") as fh:
        request = json.load(fh)
    # set before catlab and its libraries map anything, so that the parent
    # starts this process without a hook run between fork and exec
    ceiling = request["memory_ceiling"]
    resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))
    import catlab.cli  # noqa: F401 - the end of set-up

    report = {"imported": time.monotonic()}
    with open("/proc/self/status", "rb", buffering=0) as status:
        return run(request, report, report_path, status.fileno())


def run(request, report, report_path, status_fd) -> int:
    if request["kind"] == "probe":
        report["provenance"] = provenance()
        report["peak_rss_kb"] = peak_rss_kb(status_fd)
        _write(report_path, report)
        return 0

    import speed

    report["probe_s"] = [speed.probe()]
    _write(report_path, report)  # set-up is known even if the op is killed
    tracer = None
    if request.get("trace"):
        tracer = Tracer(status_fd)
        tracer.install()
    rc, result = 0, None
    start = time.perf_counter()
    try:
        with tracer.span("op") if tracer else contextlib.nullcontext():
            rc, result = _call(request)
    except BaseException as exc:
        report["error"] = f"{type(exc).__module__}.{type(exc).__qualname__}"
        raise
    finally:
        report["wall_s"] = time.perf_counter() - start
        report["rc"] = rc
        report["result"] = result
        report["peak_rss_kb"] = peak_rss_kb(status_fd)
        if "error" not in report:
            report["probe_s"].append(speed.probe())
        if tracer is not None:
            report["spans"] = tracer.spans
            cached = tracer.originals["spincore.pauli_site"].cache_info().currsize
            sizes = [_n_of_key(key) for key in tracer.keys["spincore.pauli_site"]]
            report["pauli_site"] = {
                "cache_entries": cached,
                "distinct_calls": len(sizes),
                "cache_mb": sum(16 * 4**n for n in sizes) / 2**20,
            }
        _write(report_path, report)
    return rc


def _call(request):
    """(exit code, result) of the requested op."""
    import catlab.cli

    if request["kind"] == "cli":
        return catlab.cli.main(request["argv"]), None
    return 0, search_post(request["params"])


def _n_of_key(key) -> int:
    args, kwargs = key
    return dict(kwargs).get("n", args[2] if len(args) > 2 else 0)


def _write(path, report) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
