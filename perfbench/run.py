"""recbench benchmark: end-to-end CLI timings, or a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from the seed into a scratch directory
inside the checkout; the program receives only those files. The load is a
closed loop with one client: one recbench process at a time.

``--trace 0`` makes one untimed warm-up set-up, then repeats, until S
seconds are used, a cycle of fresh processes: ``recbench run``, then rounds
of the fold-invariant set-up (``setup_probe.py``) and ``recbench compare`` on
the run just written, as many rounds as take about half a run's time. It
reports the median of each timing over the whole measurement and the median
peak RSS of ``recbench run``.

``--trace 1`` repeats a traced ``run`` and ``compare`` (``traced.py``), an
untraced ``run`` and a bare ``import recbench.cli``, and reports per-layer
times and counts (medians over the cycles).

Every operation is checked: its exit code, the run directory's digest and
the compare output against the first operation of the invocation and, for
seeds listed in ``recorded.json``, against the recorded values; the last run
directory is also checked user by user against brute-force oracles
(``checks.py``). A fixed calibration job, timed before every process, records
the machine's speed over the run (printed, not gated). The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

RECORDED = HERE / "recorded.json"
ORACLE_SAMPLE = {"sparse-content": 2, "dense-cf": 6, "dense-content": 6}
MODULES = ("cli", "corpus", "textproc", "recommenders", "metrics", "harness")
ALGORITHMS = ("cf", "sup", "upa")
SHORT_SHARE = 0.5  # time for set-up and compare rounds, as a share of one run's time
SPEED = []  # calibrate() times, one taken before each process is started


def spawn(argv, cwd):
    """Run one process to completion; return (wall s, exit code, peak RSS MB, stdout).

    Output goes to files beside ``cwd`` rather than pipes, so the child can be
    reaped with ``wait4``, which gives this child's own peak RSS.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    SPEED.append(calibrate())
    io_dir = Path(cwd).parent
    with open(io_dir / "stdout", "w+", encoding="utf-8") as out, \
            open(io_dir / "stderr", "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        text, errors = out.read(), err.read()
    if proc.returncode != 0:
        print(f"exit {proc.returncode}: {' '.join(argv)}\n{errors[-2000:]}", file=sys.stderr)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, text


def tree_digest(directory):
    """sha256 over every file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            h.update(path.relative_to(directory).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


def calibrate():
    """Time of a fixed pure-Python job shaped like recbench's own work
    (tokenising, counting in dicts, scoring, top-k sorting): the machine's
    speed right now. It runs no repository code, so no change to the program
    can move it."""
    start = time.perf_counter()
    counts = {}
    for n in range(4000):
        for token in f"t{n % 97}_{n % 13} w{n % 251} x{n % 7}_{n}".split():
            for part in token.split("_"):
                counts[part] = counts.get(part, 0) + 1
    scores = {}
    for n in range(20000):
        key = (n * 7919) % 3001
        scores[key] = scores.get(key, 0.0) + 1.0 / (1 + n % 17)
    sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:100]
    return time.perf_counter() - start


class Gate:
    """Counts operations and failures, checking each output against the
    first one of this invocation and against the recorded value, if any."""

    def __init__(self, recorded):
        self.recorded = recorded
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, op, rc, outputs, problems=()):
        self.attempted += 1
        problems = list(problems) + ([] if rc == 0 else [f"{op} exited with {rc}"])
        for key, value in outputs.items():
            first = self.seen.setdefault(key, value)
            if value != first:
                problems.append(f"{op}: {key} differs from the first {key} of this invocation")
            if key in self.recorded and value != self.recorded[key]:
                problems.append(f"{op}: {key} differs from the recorded {key}")
        if problems:
            self.failed += 1
            self.problems += problems


class Workload:
    """One generated workload and the commands that operate on it."""

    def __init__(self, name, seed, directory):
        self.dir = directory
        workloads.write_workload(name, seed, directory)
        self.inputs_sha256 = tree_digest(directory)
        (alg_a, sel_a), (alg_b, sel_b), k = workloads.COMPARES[name]
        self.compare_args = [
            "compare", "--run-a", "run", "--run-b", "run", "--k", str(k),
            "--algorithm-a", alg_a, "--selection-a", sel_a,
            "--algorithm-b", alg_b, "--selection-b", sel_b,
        ]
        self.run_args = ["run", "--config", workloads.CONFIG, "--out", "run"]

    def fresh_out(self):
        shutil.rmtree(self.dir / "run", ignore_errors=True)

    def setup(self):
        return spawn([sys.executable, str(HERE / "setup_probe.py")], self.dir)

    def cli(self, args):
        return spawn([sys.executable, "-m", "recbench.cli", *args], self.dir)

    def traced(self, args, spans_file):
        argv = [sys.executable, str(HERE / "traced.py"), spans_file, *args]
        return spawn(argv, self.dir)


def cycles(seconds, body):
    """Call ``body`` until the next call would end after ``seconds``; at least once."""
    start = time.perf_counter()
    n = 0
    while True:
        t = time.perf_counter()
        body()
        n += 1
        took = time.perf_counter() - t
        if time.perf_counter() - start + took > seconds:
            return n


def end_to_end(wl, gate, seconds):
    """Time ``run`` once per cycle, then ``setup`` and ``compare`` in rounds.

    Set-up and compare are short processes, so one sample of each per run is
    too few for a steady median; the rounds after each run give them about
    ``SHORT_SHARE`` of the run's time, spread over the whole measurement.
    """
    samples = {"setup_s": [], "run_s": [], "compare_s": [], "peak_rss_mb": []}
    rounds = []

    def setup():
        wall, rc, _, out = wl.setup()
        gate.check("setup", rc, {"setup_stdout": out})
        return wall

    def compare():
        wall, rc, _, out = wl.cli(wl.compare_args)
        gate.check("compare", rc, {"compare_stdout": out})
        return wall

    def cycle():
        wl.fresh_out()
        wall, rc, rss, _ = wl.cli(wl.run_args)
        gate.check("run", rc, {"run_sha256": tree_digest(wl.dir / "run")})
        samples["run_s"].append(wall)
        samples["peak_rss_mb"].append(rss)
        for _ in range(rounds[0] if rounds else 1):
            samples["setup_s"].append(setup())
            samples["compare_s"].append(compare())
        if not rounds:
            short = samples["setup_s"][0] + samples["compare_s"][0]
            rounds.append(max(1, round(SHORT_SHARE * wall / short)))

    setup()  # warm-up, untimed: byte-compiles the package on a fresh checkout
    n = cycles(seconds, cycle)
    units = {"setup_s": "s", "run_s": "s", "compare_s": "s", "peak_rss_mb": "MB"}
    print(f"cycles: {n}, each a run and then {rounds[0]} round(s) of setup and compare")
    return {name: (statistics.median(v), units[name], v) for name, v in samples.items()}


def layer_metrics(trace, artifact_bytes):
    """Per-layer times and counts of one traced run plus its compare."""
    dur, self_t, mod_self = {}, {}, dict.fromkeys(MODULES, 0.0)
    spans = trace["spans"]
    child = [0.0] * len(spans)
    in_run = [False] * len(spans)  # inside a harness.run span; parents precede children
    run_parts = [0.0, 0.0]  # self time within harness.run: [trace bookkeeping, layers]
    for n, (name, parent, start, end) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
        in_run[n] = name == "harness.run" or (parent >= 0 and in_run[parent])
    for n, ((name, _, start, end), inner) in enumerate(zip(spans, child)):
        dur[name] = dur.get(name, 0.0) + end - start
        self_t[name] = self_t.get(name, 0.0) + (end - start - inner)
        module = name.split(".")[0]
        if module in mod_self:
            mod_self[module] += end - start - inner
        if in_run[n]:
            run_parts[module in mod_self] += end - start - inner
    c = trace["counts"]
    calls = c.get("topk_calls", 0)
    m = {
        "corpus.load_s": (dur.get("corpus.load", 0.0), "s"),
        "corpus.split_s": (dur.get("corpus.split", 0.0), "s"),
        "corpus.split_calls": (c.get("split_calls", 0), "count"),
        "corpus.test_users": (c.get("test_users", 0), "count"),
        "textproc.index_s": (dur.get("textproc.index", 0.0), "s"),
        "textproc.vocab_terms": (c.get("vocab_terms", 0), "count"),
        "textproc.empty_vectors": (c.get("empty_vectors", 0), "count"),
        "textproc.topk_s": (self_t.get("textproc.topk", 0.0), "s"),
        "textproc.topk_calls": (calls, "count"),
        "textproc.topk_candidates": (c.get("topk_candidates", 0) / calls if calls else 0.0, "count"),
        "textproc.topk_fill": (c.get("topk_pairs", 0) / c["topk_k"] if calls else 0.0, "ratio"),
        "textproc.voter_reuse": (
            c["voter_calls"] / c["distinct_voters"] if c.get("distinct_voters") else 0.0, "ratio"
        ),
        "recommenders.cf_fit_s": (dur.get("recommenders.cf_fit", 0.0), "s"),
        "recommenders.cf_neighbors_s": (dur.get("recommenders.cf_neighbors", 0.0), "s"),
        "recommenders.cf_s": (
            dur.get("recommenders.cf_fit", 0.0) + dur.get("recommenders.cf", 0.0), "s"
        ),
        "recommenders.cf_no_neighbors": (c.get("cf_no_neighbors", 0), "count"),
        "recommenders.sup_s": (
            self_t.get("recommenders.sup_fit", 0.0) + self_t.get("recommenders.sup", 0.0), "s"
        ),
        "recommenders.upa_s": (
            self_t.get("recommenders.upa_fit", 0.0) + self_t.get("recommenders.upa", 0.0), "s"
        ),
        "metrics.evaluate_s": (dur.get("metrics.evaluate", 0.0), "s"),
        "metrics.pairwise_s": (dur.get("metrics.pairwise", 0.0), "s"),
        "harness.run_s": (dur.get("harness.run", 0.0), "s"),
        "harness.run_self_s": (self_t.get("harness.run", 0.0), "s"),
        "harness.write_s": (dur.get("harness.write", 0.0), "s"),
        "harness.read_s": (dur.get("harness.read", 0.0), "s"),
        "harness.artifact_bytes": (artifact_bytes, "bytes"),
    }
    for alg in ALGORITHMS:
        for kind in ("lists", "empty_lists", "short_lists"):
            m[f"recommenders.{kind}.{alg}"] = (c.get(f"{kind}.{alg}", 0), "count")
    for module in MODULES:
        m[f"{module}.self_s"] = (mod_self[module], "s")
    return m, dur.get("harness.run", 0.0), run_parts


def traced_layers(wl, gate, seconds):
    per_cycle, traced_run, plain_run, startup = [], [], [], []
    unmeasured = set()

    def cycle():
        wl.fresh_out()
        wall, rc, _, _ = wl.traced(wl.run_args, "spans_run.json")
        gate.check("traced run", rc, {"run_sha256": tree_digest(wl.dir / "run")})
        traced_run.append(wall)
        artifact_bytes = sum(p.stat().st_size for p in (wl.dir / "run").rglob("*") if p.is_file())
        _, rc_compare, _, out = wl.traced(wl.compare_args, "spans_compare.json")
        gate.check("traced compare", rc_compare, {"compare_stdout": out})
        trace = {"spans": [], "counts": {}}
        for part in ("spans_run.json", "spans_compare.json") if rc == rc_compare == 0 else ():
            with open(wl.dir / part, encoding="utf-8") as fh:
                loaded = json.load(fh)
            offset = len(trace["spans"])
            trace["spans"] += [
                [n, p + offset if p >= 0 else -1, s, e] for n, p, s, e in loaded["spans"]
            ]
            for key, value in loaded["counts"].items():
                trace["counts"][key] = trace["counts"].get(key, 0) + value
            unmeasured.update(loaded["unmeasured"])
        per_cycle.append(layer_metrics(trace, artifact_bytes))
        wl.fresh_out()
        wall, rc, _, _ = wl.cli(wl.run_args)
        gate.check("run", rc, {"run_sha256": tree_digest(wl.dir / "run")})
        plain_run.append(wall)
        wall, rc, _, _ = spawn([sys.executable, "-c", "import recbench.cli"], wl.dir)
        gate.check("import", rc, {})
        startup.append(wall)

    n = cycles(seconds, cycle)
    metrics = {}
    for name, (_, unit) in per_cycle[0][0].items():
        values = [m[name][0] for m, _, _ in per_cycle]
        metrics[name] = (statistics.median(values), unit, values)
    metrics["cli.startup_s"] = (statistics.median(startup), "s", startup)
    overhead = statistics.median(traced_run) - statistics.median(plain_run)
    metrics["trace.overhead_s"] = (overhead, "s", [overhead])
    _, run_span, (bookkeeping, layers) = per_cycle[-1]
    print(f"cycles: {n} (traced run + compare, untraced run, import per cycle)")
    print(
        f"harness.run span {run_span:.4f} s = layer self times {layers:.4f} s "
        f"+ trace bookkeeping {bookkeeping:.4f} s; trace.overhead_s {overhead:.4f} s"
    )
    if unmeasured:
        print("unmeasured (wrapped name no longer exists; reported as 0): " + ", ".join(sorted(unmeasured)))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "recbench" / "cli.py").is_file():
        print(f"error: no recbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no reference oracles at {ROOT / 'tests' / 'oracles.py'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the oracle check tokenizes as the package does
    with open(RECORDED, encoding="utf-8") as fh:
        recorded = json.load(fh)["runs"].get(args.workload, {}).get(str(args.seed), {})

    scratch = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = Workload(args.workload, args.seed, scratch / "in")
        gate = Gate(recorded)
        gate.check("generate", 0, {"inputs_sha256": wl.inputs_sha256})
        if args.trace:
            metrics = traced_layers(wl, gate, args.seconds)
        else:
            metrics = end_to_end(wl, gate, args.seconds)
        try:
            mismatches = checks.check_lists(ROOT, wl.dir, wl.dir / "run", ORACLE_SAMPLE[args.workload])
        except OSError as exc:
            mismatches = [f"oracle check could not read the run: {exc}"]
        gate.check("oracle check", 0, {}, mismatches)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    print(
        f"env: python {platform.python_version()} nproc {os.cpu_count()} "
        f"calibration_s median {statistics.median(SPEED):.6f} min {min(SPEED):.6f} "
        f"max {max(SPEED):.6f} n={len(SPEED)} recorded_seed {bool(recorded)}"
    )
    for problem in gate.problems:
        print(f"FAILED: {problem}")
    for name, (value, unit, values) in metrics.items():
        spread = f"  n={len(values)} min={min(values):.4g} max={max(values):.4g}" if len(values) > 1 else ""
        print(f"{name:32s} {value:14.6g} {unit}{spread}")
    print(f"error_rate {gate.failed / gate.attempted:.4f} ({gate.failed} failed / {gate.attempted} attempted)")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
