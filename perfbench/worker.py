"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE

run.py starts this script once per repetition, so the package's factor
cache and sympy's caches start cold, as they do for a CLI call or a test
session.  MODE is one of
  plain    build the inputs and references, then compute and check them;
  traced   the same, with the layer spans of spans.py installed first;
  corrupt  plain, with the first case's first reference replaced by a value
           no computation can equal (the self-test expects one failure);
  setup    build the inputs and references only.
The last line of stdout is a JSON record: the perf_counter reading at the
end of set-up (CLOCK_MONOTONIC, comparable with the parent's), the time of
the calibration kernel run right after it, and the environment.  Except in
setup mode it also holds wall_s, each case's time and top_case_s, in
reference seconds (calibrate.py), raw_wall_s in seconds, peak_rss_mb, the
number of cases, the names of failed cases and, when traced, the per-layer
metrics.
"""

import json
import os
import resource
import sys
import time
import traceback

from calibrate import SIDE, Speedometer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_package():
    """Import matchgen from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "matchgen", "__init__.py")):
        sys.exit(f"no matchgen sources under {SRC}")
    sys.path.insert(0, SRC)
    import sympy  # noqa: F401
    import matchgen
    import matchgen.cli  # noqa: F401
    if os.path.dirname(os.path.dirname(os.path.abspath(matchgen.__file__))) \
            != SRC:
        sys.exit(f"matchgen imported from {matchgen.__file__}, not {SRC}")


def _environment():
    import importlib.util
    import platform
    import sympy
    from sympy.external import gmpy
    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "ground_types": gmpy.GROUND_TYPES,
            "gmpy2": importlib.util.find_spec("gmpy2") is not None}


def run_cases(name, cases, check, corrupt, speed):
    """Compute and check every case; a mismatch or an exception fails it.

    The calibration kernel runs between cases, at most every EVERY_S, and
    each case's time is scaled by the kernel samples on either side of it.
    The largest case gets SIDE fresh samples on each side.
    """
    failed, spans = [], []
    for i, case in enumerate(cases):
        if case.top:
            for _ in range(SIDE):
                speed.sample()
        c0 = time.perf_counter()
        try:
            pairs = case.run()
            if corrupt and i == 0:
                pairs[0] = (pairs[0][0], ("deliberately wrong", pairs[0][1]))
            ok = all([check(got, want) for got, want in pairs])
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            failed.append(case.name)
            print(f"FAILED {name} {case.name}", file=sys.stderr)
        spans.append((c0, time.perf_counter()))
        if case.top:
            for _ in range(SIDE):
                speed.sample()
        speed.maybe_sample()
    for _ in range(SIDE):
        speed.sample()
    case_s = [speed.scale(c0, c1) for c0, c1 in spans]
    top = [s for case, s in zip(cases, case_s) if case.top]
    return {
        "wall_s": sum(case_s),
        "raw_wall_s": sum(c1 - c0 for c0, c1 in spans),
        "top_case_s": top[0] if top else None,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "case_s": case_s,
        "attempted": len(cases),
        "failed": failed,
    }


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    if mode not in ("plain", "traced", "corrupt", "setup"):
        sys.exit(f"unknown mode {mode!r}")
    _import_package()
    tracer = None
    if mode == "traced":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads
    cases = workloads.build(name, seed)
    setup_end = time.perf_counter()
    speed = Speedometer()
    kernel_s = sum(speed.sample() for _ in range(SIDE)) / SIDE
    record = {"setup_end": setup_end, "setup_kernel_s": kernel_s,
              "env": _environment()}
    if mode != "setup":

        def check(got, want):
            return got == want

        if tracer is not None:
            check = tracer.wrap("check", check)
        record.update(run_cases(name, cases, check, mode == "corrupt",
                                speed))
    if tracer is not None:
        record["layers"] = tracer.report(exclude_s=speed.spent)
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
