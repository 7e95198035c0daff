"""bardina2d benchmark: whole CLI commands timed from outside, plus a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of workloads.WORKLOADS, or `all` to interleave every workload in
one run (metric names then carry the workload as a prefix).

--trace 0 runs rounds until about S seconds are used (at least MIN_ROUNDS).
Each round runs, for every workload, its command sequence as fresh
`python -m bardina2d.cli` processes and SETUP_PROBES set-up probes, with the
host-speed kernel timed before, between and after them; the order of
workloads, and of probes against sequence, alternates between rounds.  It
reports the end-to-end metrics:

    wall_s       median sequence wall time, corrected for host speed
    setup_s      median set-up probe wall time, corrected for host speed
    peak_rss_mb  largest ru_maxrss of any command process
    pass_frac    commands that exited 0 and passed every output check,
                 over commands attempted

A time is corrected by the factor hostspeed.NOMINAL_S / (mean kernel time just
before and just after it); the raw samples are printed too.

--trace 1 runs one untraced sequence and TRACED_REPEATS traced sequences, in
which perfbench/traced_cli.py wraps the layer functions before calling
`cli.main`.  It reports per-layer calls, self time and the extra figures of
tracing.HOOKS, and checks that every count repeats exactly between the
traced sequences.

Configs and outputs live in a scratch directory under the checkout that is
removed on exit.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import tracing
from workloads import WORKLOADS, program_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_PARENT = os.path.join(ROOT, ".perfbench_work")
CLAIMS = os.path.join(HERE, "claims.json")

# the variables bardina2d.cli pins to 1 before numpy loads
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

MIN_ROUNDS = 2
SETUP_PROBES = 3
TRACED_REPEATS = 2


# ---------------------------------------------------------------------------
# processes


@dataclass(frozen=True)
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


class Launcher:
    """Runs children through perfbench/spawner.py, which is started before this
    process loads numpy, so their ru_maxrss is their own (see spawner.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv, env, log_path):
        request = {"argv": argv, "env": env, "cwd": ROOT, "log_path": log_path}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit("error: the child launcher exited")
        return Proc(**json.loads(reply))

    def close(self, abort=False):
        if abort:
            self.proc.terminate()
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def _log_tail(path, lines=5):
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            return " | ".join(fh.read().splitlines()[-lines:])
    except OSError:
        return ""


# ---------------------------------------------------------------------------
# the library, imported from the checkout for output checks


class Library:
    """bardina2d from this checkout's src/, for snapshot checks; plans are cached."""

    def __init__(self):
        # check_source has put this checkout's src/ first on sys.path
        from bardina2d import config, snapshot
        from bardina2d.errors import ModelError

        self.config, self.snapshot, self.ModelError = config, snapshot, ModelError
        self._realized = {}

    def realize(self, config_path):
        if config_path not in self._realized:
            with open(config_path, "r", encoding="utf-8") as fh:
                spec = self.config.parse_config(fh.read())
            plan = self.config.build_plan(spec)
            self._realized[config_path] = (spec, plan, self.config.model_params(plan, spec))
        return self._realized[config_path]


def check_source():
    """Refuse to run unless the package in this checkout's src/ is the one imported."""
    init = os.path.join(SRC, "bardina2d", "__init__.py")
    if not os.path.isfile(os.path.join(SRC, "bardina2d", "cli.py")):
        raise SystemExit(f"error: no bardina2d package under {SRC}; run from a checkout root")
    sys.path.insert(0, SRC)
    import bardina2d

    if os.path.realpath(bardina2d.__file__) != os.path.realpath(init):
        raise SystemExit(f"error: bardina2d imports from {bardina2d.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# one workload's state inside a run


@dataclass
class Tally:
    seq_wall: list = field(default_factory=list)  # (raw, host-corrected) seconds
    setup: list = field(default_factory=list)  # (raw, host-corrected) seconds
    host: list = field(default_factory=list)  # reference kernel seconds
    peak_rss: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


class Bench:
    def __init__(self, work, seed, env, launcher=None):
        self.launcher = launcher
        self.work = work
        self.seed = seed
        self.env = dict(env)
        path = [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        self.env["PYTHONPATH"] = os.pathsep.join(path)
        self.config_dir = os.path.join(work, "configs")
        os.makedirs(self.config_dir)
        self.log = os.path.join(work, "children.log")
        self._library = None
        self._runs = 0
        self.tally = {}

    @property
    def library(self):
        if self._library is None:
            self._library = Library()
        return self._library

    def prepare(self, workload):
        pseed = program_seed(workload.name, self.seed)
        for name, doc in workload.configs.items():
            with open(os.path.join(self.config_dir, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
        probe = dict(workload.configs[workload.setup_config], seed=pseed)
        path = os.path.join(self.config_dir, f"setup_{workload.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(probe, fh, indent=1)
        self.tally[workload.name] = Tally()

    def setup_probe(self, workload):
        config = os.path.join(self.config_dir, f"setup_{workload.name}.json")
        argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), config]
        proc = self.launcher.run(argv, self.env, self.log)
        if proc.code != 0:
            raise SystemExit(f"error: set-up probe failed: {_log_tail(self.log)}")
        return proc.wall_s

    def sequence(self, workload, traced=False):
        """Run the workload's commands once, check them; returns (procs, traces)."""
        self._runs += 1
        run_dir = os.path.join(self.work, f"run{self._runs}")
        pseed = program_seed(workload.name, self.seed)
        commands = workload.sequence(self.config_dir, run_dir, pseed)
        procs, traces = [], []
        for k, cmd in enumerate(commands):
            if traced:
                trace_path = os.path.join(run_dir, f"trace{k}.json")
                os.makedirs(run_dir, exist_ok=True)
                argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_path, *cmd.argv]
            else:
                argv = [sys.executable, "-m", "bardina2d.cli", *cmd.argv]
            procs.append(self.launcher.run(argv, self.env, self.log))
            if traced and procs[-1].code == 0:
                with open(trace_path, "r", encoding="utf-8") as fh:
                    traces.append(json.load(fh))
        self.judge(workload, commands, procs)
        shutil.rmtree(run_dir, ignore_errors=True)
        return procs, traces

    def judge(self, workload, commands, procs):
        """Count every command that exited non-zero or failed its output check."""
        tally = self.tally[workload.name]
        for cmd, proc in zip(commands, procs):
            tally.attempted += 1
            if proc.code != 0:
                problems = [f"exit {proc.code}: {_log_tail(self.log)}"]
            else:
                problems = cmd.check(cmd.out, self.library)
            if problems:
                tally.failed += 1
                tally.problems.extend(f"{workload.name} {cmd.label}: {p}" for p in problems)


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics


def measure(bench, workloads, seconds):
    import hostspeed  # loads numpy: only after main has pinned this process's pools

    reference = hostspeed.Reference()
    start = time.perf_counter()
    rounds = 0
    while True:
        flip = rounds % 2 == 1
        for w in workloads[::-1] if flip else workloads:
            tally = bench.tally[w.name]
            before = reference.seconds()
            tally.host.append(before)
            for part in ("sequence", "probes") if flip else ("probes", "sequence"):
                if part == "probes":
                    raw, samples = [bench.setup_probe(w) for _ in range(SETUP_PROBES)], tally.setup
                else:
                    procs, _ = bench.sequence(w)
                    raw, samples = [sum(p.wall_s for p in procs)], tally.seq_wall
                    tally.peak_rss = max([tally.peak_rss] + [p.rss_mb for p in procs])
                after = reference.seconds()
                tally.host.append(after)
                scale = hostspeed.NOMINAL_S / (0.5 * (before + after))
                samples.extend((x, x * scale) for x in raw)
                before = after
        rounds += 1
        elapsed = time.perf_counter() - start
        # start another round only if it should end within half a round of the budget
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 0.5) / rounds > seconds:
            return rounds


def end_to_end(tally):
    return {
        "wall_s": (statistics.median(c for _, c in tally.seq_wall), "s"),
        "setup_s": (statistics.median(c for _, c in tally.setup), "s"),
        "peak_rss_mb": (tally.peak_rss, "MB"),
        "pass_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }


def raw_lines(name, tally):
    """The uncorrected samples behind the end-to-end times, for the reader."""
    import hostspeed

    def describe(pairs):
        raw = [r for r, _ in pairs]
        return f"median {statistics.median(raw):.4f} min {min(raw):.4f} of {len(raw)}: " + " ".join(
            f"{r:.4f}" for r in raw
        )

    host = tally.host
    return [
        f"# {name} raw wall_s {describe(tally.seq_wall)}",
        f"# {name} raw setup_s {describe(tally.setup)}",
        f"# {name} host kernel s min {min(host):.4f} median {statistics.median(host):.4f} "
        f"max {max(host):.4f} (nominal {hostspeed.NOMINAL_S})",
    ]


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics


def _merge(traces):
    """Sum one sequence's per-command traces into one set of figures."""
    combine = {key: fn for key, _, fn in tracing.HOOKS.values()}
    spans = {name: {"calls": 0, "self_s": 0.0} for name in tracing.SPAN_NAMES}
    extras = {}
    for trace in traces:
        for name, rec in trace["spans"].items():
            if name in spans:
                spans[name]["calls"] += rec["calls"]
                spans[name]["self_s"] += rec["self_s"]
        for key, value in trace["extras"].items():
            combine[key](extras, key, value)
    return spans, extras


def count_figures(spans, extras):
    """Figures that must repeat exactly between two traced runs."""
    out = {f"{name}.calls": rec["calls"] for name, rec in spans.items()}
    out.update({k: v for k, v in extras.items() if k != "lyapunov.gs_min_scale"})
    return out


def traced(bench, workload):
    tally = bench.tally[workload.name]
    ref, _ = bench.sequence(workload)
    runs = [bench.sequence(workload, traced=True) for _ in range(TRACED_REPEATS)]
    merged = [_merge(traces) for _, traces in runs]
    counts = [count_figures(*m) for m in merged]
    mismatches = sorted(
        key for key in set().union(*counts) if len({c.get(key) for c in counts}) != 1
    )
    for key in mismatches:
        tally.problems.append(
            f"{workload.name}: count {key} differs between traced runs: "
            + ", ".join(str(c.get(key)) for c in counts)
        )
    spans, extras = merged[0]
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = (spans[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (statistics.median(m[0][name]["self_s"] for m in merged), "s")
    units = {"lyapunov.gs_min_scale": "ratio", "snapshot.bytes": "B", "cli.bytes_written": "B"}
    for key in tracing.EXTRA_NAMES:
        # no renormalization ran: report 0 rather than an infinite scale
        metrics[key] = (extras.get(key, 0), units.get(key, "count"))
    metrics["process.cpu_over_wall"] = (
        sum(p.cpu_s for p in ref) / sum(p.wall_s for p in ref),
        "ratio",
    )
    traced_wall = statistics.median(sum(p.wall_s for p in procs) for procs, _ in runs)
    metrics["trace.overhead_s"] = (traced_wall - sum(p.wall_s for p in ref), "s")
    children = [t for _, traces in runs for t in traces]
    return metrics, mismatches, children[0] if children else {}


def crosscheck(name, metrics):
    """Compare counts with the values the seed commit produced (claims.json)."""
    with open(CLAIMS, "r", encoding="utf-8") as fh:
        expected = json.load(fh)["count_crosschecks"].get(name, {})
    lines = []
    for key, want in expected.items():
        have = metrics[key][0]
        verdict = "same" if have == want else "DIFFERS"
        lines.append(f"# crosscheck {name} {key} = {have} (seed commit {want}): {verdict}")
    return lines


# ---------------------------------------------------------------------------
# environment record


def _cache_sizes():
    base = "/sys/devices/system/cpu/cpu0/cache"

    def read(entry, name):
        with open(os.path.join(base, entry, name), "r", encoding="utf-8") as fh:
            return fh.read().strip()

    out = {}
    try:
        for entry in sorted(os.listdir(base)):
            if entry.startswith("index"):
                kind = read(entry, "type")[0].lower()
                out[f"L{read(entry, 'level')}{kind}"] = read(entry, "size")
    except OSError:
        pass
    return out


def _git_sha():
    # a checkout may be a plain copy; never let git look above it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "bardina2d")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def environment(bench, child_trace):
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": _cache_sizes(),
        "thread_vars_passed": {v: bench.env.get(v) for v in THREAD_VARS},
        "thread_vars_child_saw": child_trace.get("threads_seen"),
        "thread_vars_after_pin": child_trace.get("threads_pinned"),
    }


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_source()
    # children get the caller's environment; this process keeps its own numpy
    # (output checks, host-speed kernel) on one thread so it never competes
    child_env = dict(os.environ)
    os.environ.update({var: "1" for var in THREAD_VARS})
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    launcher = Launcher()

    chosen = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    os.makedirs(WORK_PARENT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_PARENT)
    results, notes, mismatched, child_trace = {}, [], False, {}
    finished = False
    try:
        bench = Bench(work, args.seed, child_env, launcher)
        for w in chosen:
            bench.prepare(w)
        if args.trace:
            for w in chosen:
                metrics, mismatches, trace = traced(bench, w)
                results[w.name] = metrics
                notes += crosscheck(w.name, metrics)
                mismatched = mismatched or bool(mismatches)
                child_trace = child_trace or trace
        else:
            rounds = measure(bench, chosen, args.seconds)
            notes.append(f"# rounds {rounds}")
            for w in chosen:
                results[w.name] = end_to_end(bench.tally[w.name])
                notes += raw_lines(w.name, bench.tally[w.name])
        env = environment(bench, child_trace)
        finished = True
    finally:
        launcher.close(abort=not finished)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_PARENT)
        except OSError:
            pass

    attempted = sum(t.attempted for t in bench.tally.values())
    failed = sum(t.failed for t in bench.tally.values())
    metrics = {}
    print("# env " + json.dumps(env, sort_keys=True))
    for line in notes:
        print(line)
    for name, tally in bench.tally.items():
        for problem in tally.problems:
            print(f"# FAIL {problem}")
        if not args.trace:
            print(
                f"# {name} failed_frac {tally.failed / tally.attempted:.6g} ratio "
                f"({tally.failed} of {tally.attempted} commands)"
            )
    for name, figures in results.items():
        prefix = f"{name}." if len(results) > 1 else ""
        for key, (value, unit) in figures.items():
            print(f"# {name} {key} {value:.6g} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
    result = {
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
