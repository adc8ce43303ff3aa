"""Record the reference outputs the benchmark checks against.

Usage (from the repository root):

    python3 perfbench/record.py --seeds 50

For every workload and every seed in ``range(--seeds)``, generates the
inputs, runs the set-up probe, ``recbench run`` and ``recbench compare``
once, checks a sample of users against the oracles, and stores the input
digest, the set-up summary, the run directory's digest and the compare
output in ``recorded.json``. For seed 0 it also makes one traced run and
stores the workload-property counters that explain why each workload was
chosen. Refuses to record anything if an operation fails or a list differs
from its oracle. Re-record only when a change is meant to alter outputs.
"""

import argparse
import json
import platform
import shutil
import sys

import run as bench


def record_seed(name, seed, scratch):
    wl = bench.Workload(name, seed, scratch / "in")
    entry = {"inputs_sha256": wl.inputs_sha256}
    _, rc, _, entry["setup_stdout"] = wl.setup()
    if rc != 0:
        raise SystemExit(f"{name} seed {seed}: set-up probe exited with {rc}")
    _, rc, _, _ = wl.cli(wl.run_args)
    if rc != 0:
        raise SystemExit(f"{name} seed {seed}: recbench run exited with {rc}")
    entry["run_sha256"] = bench.tree_digest(wl.dir / "run")
    _, rc, _, entry["compare_stdout"] = wl.cli(wl.compare_args)
    if rc != 0:
        raise SystemExit(f"{name} seed {seed}: recbench compare exited with {rc}")
    mismatches = bench.checks.check_lists(bench.ROOT, wl.dir, wl.dir / "run", bench.ORACLE_SAMPLE[name])
    if mismatches:
        raise SystemExit(f"{name} seed {seed}: " + "; ".join(mismatches))
    return wl, entry


PROPERTIES = (
    "textproc.topk_calls",
    "textproc.topk_candidates",
    "textproc.voter_reuse",
    "recommenders.cf_no_neighbors",
    *(f"recommenders.{kind}.{alg}" for alg in bench.ALGORITHMS
      for kind in ("lists", "empty_lists", "short_lists")),
)


def properties(wl):
    """Property counters of one traced run, with the shares of the traced
    ``harness.run`` span that the hot layers take."""
    gate = bench.Gate({})
    metrics = bench.traced_layers(wl, gate, seconds=0)
    if gate.failed:
        raise SystemExit(f"traced run failed: {gate.problems}")
    m = {name: metrics[name][0] for name in PROPERTIES}
    run_span = metrics["harness.run_s"][0]
    for name in ("textproc.topk_s", "recommenders.cf_s", "corpus.split_s", "harness.write_s"):
        m[f"share.{name}"] = round(metrics[name][0] / run_span, 4)
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True, help="record seeds 0 .. SEEDS-1")
    args = parser.parse_args()
    sys.path.insert(0, str(bench.ROOT / "src"))
    runs, props = {}, {}
    scratch = bench.ROOT / ".perfbench_work" / "record"
    try:
        for name in sorted(bench.workloads.GENERATORS):
            runs[name] = {}
            for seed in range(args.seeds):
                shutil.rmtree(scratch, ignore_errors=True)
                wl, runs[name][str(seed)] = record_seed(name, seed, scratch)
                if seed == 0:
                    props[name] = properties(wl)
                print(f"{name} seed {seed}: {runs[name][str(seed)]['run_sha256'][:16]}", flush=True)
    finally:
        shutil.rmtree(bench.ROOT / ".perfbench_work", ignore_errors=True)
    with open(bench.RECORDED, "w", encoding="utf-8") as fh:
        json.dump(
            {"python": platform.python_version(), "properties": props, "runs": runs},
            fh, indent=1, sort_keys=True,
        )
        fh.write("\n")


if __name__ == "__main__":
    main()
