"""Benchmark of ``perfloc evaluate``, end to end and layer by layer.

    python3 perfbench/run.py --workload exec-heavy --seed 1 --seconds 36 \\
        --trace 0

Run from the repository root. The workload's corpus is assembled under
``.perfbench/`` from ``corpus/`` and the seed, and perfloc runs from the
in-tree ``src`` (no install).

``--trace 0`` alternates fresh set-up processes with ``python -m
perfloc.cli evaluate`` processes, one at a time, for about ``--seconds``
seconds, checks every report set, and prints the medians of the
end-to-end metrics. ``--trace 1`` makes one round of an untraced
evaluate, traced in-process evaluates at ``--jobs 1`` and ``--jobs
$(nproc)`` (see ``tracer.py``) and an engine throughput probe, and prints
the per-layer metrics. Either way the last line of stdout is one JSON
object; the exit code is 0 only if every output check passed.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import selftest
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_LIMIT_S = 170          # every process of a run is killed after this
ROTATE_S = 0.25
SETUP_SAMPLES = 3          # at least, so setup_s is a median of three
SETUP_CODE = """\
import sys
import perfloc.cli
from perfloc.corpus import load_problem
from perfloc.runtime import ENGINE_NAME
for directory in sys.argv[1:]:
    load_problem(directory)
print(ENGINE_NAME)
"""


class Run:
    """Child processes of one benchmark run, all bounded by one deadline."""

    def __init__(self, work):
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.env.pop("PERFLOC_SEED", None)

    def spawn(self, args, stdout=subprocess.DEVNULL, rotate=True):
        """Run ``python3 args``; returns (exit code, wall s, user+sys CPU s
        and peak RSS MiB of the process tree). Its process group is killed
        at the run's deadline. ``rotate`` is for single-process children
        only: a pool forked while the parent is pinned would inherit the
        pin."""
        log = open(os.path.join(self.work, "stderr.log"), "ab")
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=self.env,
                                cwd=ROOT, stdout=stdout, stderr=log,
                                start_new_session=True)
        timer = threading.Timer(max(self.deadline - time.monotonic(), 0),
                                _kill_group, (proc.pid,))
        timer.start()
        stop = threading.Event()
        rotator = threading.Thread(target=_rotate, args=(proc.pid, stop))
        if rotate:
            rotator.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            stop.set()
            timer.cancel()
            if rotate:
                rotator.join()
            log.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # wait4 on Linux folds in the descendants the child reaped.
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024)

    def setup(self, dirs):
        """One fresh set-up process: (wall s, engine name)."""
        out = os.path.join(self.work, "engine.txt")
        with open(out, "wb") as fh:
            code, wall, _, _ = self.spawn(["-c", SETUP_CODE, *dirs], fh)
        if code != 0:
            raise BenchError(f"set-up process exited {code}")
        with open(out, encoding="utf-8") as fh:
            return wall, fh.read().strip()

    def evaluate(self, corpus, out, jobs, seed, tracer_out=None):
        cli = ["evaluate", "--corpus", corpus, "--out", out,
               "--jobs", str(jobs), "--seed", str(seed)]
        if tracer_out is None:
            return self.spawn(["-m", "perfloc.cli", *cli], rotate=jobs == 1)
        return self.spawn([os.path.join(HERE, "tracer.py"), "trace",
                           tracer_out, *cli], rotate=jobs == 1)


class BenchError(Exception):
    pass


def _rotate(pid, stop):
    """Move a child round the CPUs, to the next one every ROTATE_S. Each
    vCPU of a VM can drift in speed on its own (on the 2-vCPU VM these
    figures were tuned on, their 5 s speeds correlated at -0.26), so a
    process left on one vCPU times that vCPU; rotating averages them."""
    cpus = sorted(os.sched_getaffinity(0))
    turn = 0
    while len(cpus) > 1 and not stop.wait(ROTATE_S):
        try:
            os.sched_setaffinity(pid, {cpus[turn % len(cpus)]})
        except OSError:         # the child has exited
            return
        turn += 1


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Reports:
    """Checks each evaluate's reports and keeps their digests."""

    def __init__(self, workload, seed, n_nodes):
        self.n_nodes = n_nodes
        self.expected = None
        if seed == workloads.DEFAULT_SEED:
            with open(os.path.join(HERE, "digests.json"),
                      encoding="utf-8") as fh:
                self.expected = json.load(fh).get(workload)
        self.errors = []

    def check(self, label, code, out):
        """Errors of one evaluate (exit code, checks, digest); returns
        (ok, variants generated)."""
        if code != 0:
            errors, variants = [f"exit code {code}"], 0
        else:
            errors, variants = checks.check_reports(out, self.n_nodes)
        if not errors:
            found = checks.digest(out)
            if self.expected is None:
                self.expected = found
            elif found != self.expected:
                errors.append(f"reports differ: digest {found[:12]}, "
                              f"expected {self.expected[:12]}")
        self.errors += [f"{label}: {e}" for e in errors]
        return not errors, variants


def nproc():
    return len(os.sched_getaffinity(0))


def commit():
    """HEAD's commit, read from .git without running git; the benchmark may
    run from a copy that is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def describe(values):
    if not values:
        return "no samples"
    return (f"median of {len(values)}, min {min(values):.4g}, "
            f"max {max(values):.4g}")


def measure(run, args, spec, dirs, reports):
    """End-to-end metrics from rounds of one set-up sample and one evaluate,
    repeated while the next round should end within ``--seconds`` (at least
    one round), then closing set-up samples up to SETUP_SAMPLES.
    Interleaving the set-up samples spreads them over the same window as
    the evaluates, so a drift in host speed moves both alike."""
    engine = run.setup(dirs)[1]     # warm-up: fills the bytecode caches
    jobs = nproc() if spec["parallel"] else 1
    seed = workloads.evaluate_seed(args.workload, args.seed)
    corpus = os.path.dirname(dirs[0])
    samples = {"evaluate_s": [], "variants_per_s": [], "cpu_s": [],
               "peak_rss_mb": [], "setup_s": []}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        samples["setup_s"].append(run.setup(dirs)[0])
        out = os.path.join(run.work, f"out-{attempted}")
        code, wall, cpu, rss = run.evaluate(corpus, out, jobs, seed)
        attempted += 1
        ok, variants = reports.check(f"evaluate {attempted}", code, out)
        shutil.rmtree(out, ignore_errors=True)
        if ok:
            samples["evaluate_s"].append(wall)
            samples["variants_per_s"].append(variants / wall)
            samples["cpu_s"].append(cpu)
            samples["peak_rss_mb"].append(rss)
        else:
            failed += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        samples["setup_s"].append(run.setup(dirs)[0])
    units = {"evaluate_s": "s", "variants_per_s": "1/s", "cpu_s": "s",
             "peak_rss_mb": "MiB", "setup_s": "s"}
    metrics = {name: (statistics.median(values), units[name])
               for name, values in samples.items() if values}
    notes = [f"{name}: {describe(values)}" for name, values in samples.items()]
    notes.append(f"jobs={jobs}  reports sha256={reports.expected}")
    return engine, attempted, failed, metrics, notes


def trace(run, args, spec, dirs, reports):
    """Per-layer metrics from one traced round (see the module docstring)."""
    import layers
    n = nproc()
    jobs = n if spec["parallel"] else 1
    seed = workloads.evaluate_seed(args.workload, args.seed)
    corpus = os.path.dirname(dirs[0])
    attempted = failed = 0

    def evaluate(label, jobs, traced):
        nonlocal attempted, failed
        out = os.path.join(run.work, f"out-{label}")
        path = os.path.join(run.work, f"{label}.json") if traced else None
        code, wall, _, _ = run.evaluate(corpus, out, jobs, seed, path)
        attempted += 1
        ok, _ = reports.check(label, code, out)
        failed += not ok
        if not ok:
            raise BenchError(f"{label} failed")
        if not traced:
            return wall, None
        with open(path, encoding="utf-8") as fh:
            return wall, json.load(fh)

    # The traced run at the workload's own job count goes straight after the
    # untraced one, so that host drift between the pair stays small.
    untraced_wall, _ = evaluate(f"untraced-jobs{jobs}", jobs, False)
    order = [jobs] + [j for j in sorted({1, n}) if j != jobs]
    traced = {j: evaluate(f"traced-jobs{j}", j, True) for j in order}
    layer_trace = traced[1][1]
    metrics, absent = layers.metrics(layer_trace, traced[n][1], n)
    metrics["trace_overhead_s"] = (traced[jobs][0] - untraced_wall, "s")

    engines_path = os.path.join(run.work, "engines.json")
    code = run.spawn([os.path.join(HERE, "tracer.py"), "engines",
                      engines_path, *dirs])[0]
    notes = [f"engine={layer_trace['engine']}  traced wall "
             f"{layer_trace['wall_s']:.3f} s at jobs 1"]
    if code == 0:
        with open(engines_path, encoding="utf-8") as fh:
            probe = json.load(fh)
        reports.errors += probe["disagreements"]
        for label, rate in probe["msteps_per_s"].items():
            notes.append(f"runtime.exec.msteps_per_s[{label} engine, "
                         f"originals only] {rate:.4g} Msteps/s")
    else:
        notes.append(f"engine throughput probe absent (exit {code})")
    notes += layers.notes(layer_trace)
    if absent:
        notes.append("absent (probe not found): " + ", ".join(absent))
    return layer_trace["engine"], attempted, failed, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "perfloc", "cli.py")) or \
            not os.path.isdir(os.path.join(ROOT, "corpus")):
        print(f"perfbench: no perfloc source or corpus under {ROOT}",
              file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        run = Run(work)
        errors = selftest.run(os.path.join(work, "selftest"))
        dirs = workloads.materialise(ROOT, args.workload, args.seed,
                                     os.path.join(work, "corpus"))
        reports = Reports(args.workload, args.seed,
                          checks.node_counts(dirs, workloads.NODE_COUNTS))
        step = trace if args.trace else measure
        try:
            engine, attempted, failed, metrics, notes = step(
                run, args, spec, dirs, reports)
        except BenchError as exc:
            errors.append(str(exc))
            engine, attempted, failed, metrics, notes = "?", 1, 1, {}, []
        errors += reports.errors
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} engine={engine} "
          f"commit={commit()} nproc={nproc()} "
          f"python={platform.python_version()}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:14.6g} {unit}")
    # Not a BENCHMARK.json metric, whose metrics must never read 0.
    print(f"{'failed_share':<34} {failed / attempted:14.6g} ratio "
          f"({failed}/{attempted})")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    correct = not errors and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
