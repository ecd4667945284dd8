"""matchgen benchmark: three exact-value workloads, timed from a cold start.

    python3 perfbench/run.py --workload checkered-orbit --seed 1 \\
        --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40
    python3 perfbench/run.py --self-test

Each repetition runs one workload in a fresh single-threaded worker process
(worker.py) with PYTHONHASHSEED and the workload seed fixed, so every
repetition pays the cold caches a CLI call pays.  Processes run one at a
time, back to back, for about --seconds: first SETUP_SAMPLES set-up-only
processes, then at least MIN_REPS full repetitions.

--trace 0 reports the end-to-end metrics:
  setup_s      time from starting the interpreter to having imported
               matchgen, matchgen.cli and sympy and built the inputs and
               references, median over every process of the run;
  wall_s       time to compute and check every case, each case at its
               median over the run's repetitions;
  top_case_s   time to the checked value of the largest instance, median
               over the repetitions;
  peak_rss_mb  median peak resident memory of a repetition.
Times are in reference seconds (calibrate.py): each piece of work is timed
and divided by the mean time of a fixed calibration kernel run just before
and just after it, then multiplied by a fixed nominal kernel time.
Other tenants of a shared host slowed whole repetitions by up to a half for
minutes at a time, and the kernel slows with them; raw seconds are printed
beside each metric.  fail_ratio is printed per workload and carried by the
`attempted` and `failed` fields, because its value at a correct commit is 0.

--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (spans.py): exact call counts, and
medians of self time and of the share of traced time, together with
trace.overhead_ratio, the median traced wall_s over the median untraced one.

Every case is checked by exact canonical equality against an independent
reference.  A case that mismatches or raises counts in `failed` and the
command exits 1; a worker that cannot run at all (no sources, a crash, a
hang) makes it exit 2 without a result.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from calibrate import REF_KERNEL_S, SIDE, time_kernel

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("dungeon-expand", "checkered-orbit", "oracle-crosscheck")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("top_case_s", "s"),
              ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 8
MIN_REPS = 3
# a run must end within 180 s; stop waiting for a worker well before that
HARD_LIMIT_S = 165


class BenchError(RuntimeError):
    """A worker could not run the workload (missing sources, crash, hang)."""


def run_worker(name, seed, mode, deadline):
    """One worker process; returns its record with setup_s filled in."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2 ** 32))
    args = [sys.executable, WORKER, name, str(seed), mode]
    kernel_s = sum(time_kernel() for _ in range(SIDE)) / SIDE
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(args, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: worker did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: worker exited with {proc.returncode}")
    try:
        record = json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{name}: unreadable worker output") from None
    record["raw_setup_s"] = record.pop("setup_end") - spawned
    record["setup_s"] = (record["raw_setup_s"] * REF_KERNEL_S * 2
                         / (kernel_s + record.pop("setup_kernel_s")))
    return record


def run_workload(name, seed, seconds, trace):
    """Run the workload's processes; returns set-up samples and the
    untraced and traced repetitions.

    Without trace, SETUP_SAMPLES set-up-only processes come first.  A round
    is one repetition, or with trace one untraced and one traced
    repetition; another round starts only if one as long as the last still
    fits in `seconds`.
    """
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    setups = [] if trace else [run_worker(name, seed, "setup", deadline)
                               for _ in range(SETUP_SAMPLES)]
    modes = ("plain", "traced") if trace else ("plain",)
    min_rounds = -(-MIN_REPS // len(modes))
    plain, traced = [], []
    while True:
        t0 = time.perf_counter()
        for mode in modes:
            record = run_worker(name, seed, mode, deadline)
            (traced if mode == "traced" else plain).append(record)
        now = time.perf_counter()
        if len(plain) >= min_rounds and now - start + (now - t0) > seconds:
            return setups, plain, traced


def end_to_end(setups, plain):
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in setups + plain),
        "wall_s": sum(statistics.median(times)
                      for times in zip(*(r["case_s"] for r in plain))),
        "top_case_s": statistics.median(r["top_case_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    return {metric: {"value": values[metric], "unit": unit}
            for metric, unit in END_TO_END}


def layer_unit(metric):
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("_s"):
        return "s"
    return "ratio"


def per_layer(plain, traced):
    out = {}
    for metric in traced[0]["layers"]:
        values = [r["layers"][metric] for r in traced]
        if metric.endswith(".calls"):
            if len(set(values)) > 1:
                print(f"warning: {metric} differs between traced "
                      f"repetitions: {values}", file=sys.stderr)
            value = statistics.median_low(values)
        else:
            value = statistics.median(values)
        out[metric] = {"value": value, "unit": layer_unit(metric)}
    out["trace.overhead_ratio"] = {
        "value": statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain),
        "unit": "ratio"}
    return out


def summarize(name, setups, plain, traced):
    """Result object for one workload, plus human-readable lines."""
    records = plain + traced
    attempted = sum(r["attempted"] for r in records)
    failed = sum(len(r["failed"]) for r in records)
    metrics = per_layer(plain, traced) if traced else end_to_end(setups,
                                                                  plain)
    lines = []
    for metric, m in metrics.items():
        line = f"{name} {metric} {m['value']:.6g} {m['unit']}"
        if not traced:
            samples = setups + plain if metric == "setup_s" else plain
            values = sorted(r[metric] for r in samples)
            line += (f" (per process, {len(values)} processes: "
                     f"min {values[0]:.6g}, "
                     f"median {statistics.median(values):.6g}, "
                     f"max {values[-1]:.6g})")
            if metric in ("setup_s", "wall_s"):
                raw = statistics.median(r["raw_" + metric] for r in samples)
                line += f"; raw median {raw:.6g} s"
        lines.append(line)
    lines.append(f"{name} fail_ratio {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted} cases)")
    for r in records:
        for case in r["failed"]:
            lines.append(f"{name} FAILED {case}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def git_commit():
    """HEAD of the checkout's git repository, read from .git, if any."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(record):
    env = dict(record["env"])
    env["nproc"] = len(os.sched_getaffinity(0))
    env["commit"] = git_commit()
    return env


def self_test():
    """A deliberately wrong reference must count as a failed case, and the
    metric names and units must match BENCHMARK.json."""
    name = "oracle-crosscheck"
    deadline = time.perf_counter() + HARD_LIMIT_S
    corrupt = run_worker(name, 1, "corrupt", deadline)
    result, _ = summarize(name, [], [corrupt], [])
    caught = result["failed"] == 1 and not result["correct"]
    print(f"self-test wrong reference: {result['failed']} of "
          f"{result['attempted']} cases failed -> "
          f"{'ok' if caught else 'NOT DETECTED'}")
    plain = run_worker(name, 1, "plain", deadline)
    traced = run_worker(name, 1, "traced", deadline)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names_ok = True
    for key, produced in (("end_to_end", end_to_end([], [plain])),
                          ("per_layer", per_layer([plain], [traced]))):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in produced.items()}
        if declared != got:
            names_ok = False
            print(f"  {key}: only declared "
                  f"{sorted(set(declared.items()) - set(got.items()))}, "
                  f"only produced "
                  f"{sorted(set(got.items()) - set(declared.items()))}")
    print(f"self-test metric names match BENCHMARK.json: "
          f"{'ok' if names_ok else 'MISMATCH'}")
    return 0 if caught and names_ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        setups, plain, traced = run_workload(name, args.seed, args.seconds,
                                             args.trace == 1)
        results[name], lines = summarize(name, setups, plain, traced)
        if len(results) == 1:
            print("env " + json.dumps(environment(plain[0])))
        print("\n".join(lines))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
