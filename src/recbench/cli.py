"""Command-line interface: dataset statistics, experiment runs, and
comparison of saved runs.

Exit codes: 0 on success, 1 for configuration or input-validation problems,
2 for runtime failures.
"""

import argparse
import logging
import sys

from .corpus import compute_stats, load_interactions
from .errors import RecbenchError
from .harness import ExperimentConfig, read_run_lists, run_experiment, write_run_dir
from .metrics import hit_intersection, jaccard_list_similarity


class _Parser(argparse.ArgumentParser):
    # usage mistakes are validation errors (exit 1), not runtime failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="recbench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", parents=[], help="print descriptive statistics for an interaction file")
    p_stats.add_argument("--interactions", required=True, help="tab-separated activity file")
    p_stats.add_argument(
        "--implicit", action="store_true",
        help="treat the file as implicit feedback (no rating column)",
    )

    p_run = sub.add_parser("run", help="run a configured experiment and write its reports")
    p_run.add_argument("--config", required=True, help="JSON experiment configuration")
    p_run.add_argument("--out", required=True, help="directory to write the run artifacts into")

    p_cmp = sub.add_parser("compare", help="compare the ranked lists of two saved runs")
    p_cmp.add_argument("--run-a", required=True, help="first run directory")
    p_cmp.add_argument("--run-b", required=True, help="second run directory")
    p_cmp.add_argument("--k", required=True, type=int, help="list cutoff for the comparison")
    p_cmp.add_argument("--algorithm-a", help="algorithm from run A (needed when the run holds several)")
    p_cmp.add_argument("--selection-a", help="attribute selection label from run A")
    p_cmp.add_argument("--algorithm-b", help="algorithm from run B")
    p_cmp.add_argument("--selection-b", help="attribute selection label from run B")
    return parser


def _cmd_stats(args) -> int:
    ds = load_interactions(args.interactions, format="implicit" if args.implicit else "explicit")
    stats = compute_stats(ds)
    rows = [
        ("n_users", str(stats.n_users)),
        ("n_items", str(stats.n_items)),
        ("n_activities", str(stats.n_activities)),
        ("items_per_user_ratio", f"{stats.items_per_user_ratio:.6f}"),
        ("avg_items_per_user", f"{stats.avg_items_per_user:.6f}"),
        ("avg_users_per_item", f"{stats.avg_users_per_item:.6f}"),
        ("max_items_per_user", str(stats.max_items_per_user)),
        ("min_items_per_user", str(stats.min_items_per_user)),
        ("max_users_per_item", str(stats.max_users_per_item)),
        ("min_users_per_item", str(stats.min_users_per_item)),
        ("sparsity", f"{stats.sparsity:.6f}"),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    return 0


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    result = run_experiment(config)
    written = write_run_dir(result, config, args.out)
    for name in written:
        print(f"wrote {args.out}/{name}")
    return 0


def _pick(lists, algorithm, selection, side, run_dir):
    keys = sorted(lists)
    matches = [
        key for key in keys
        if (algorithm is None or key[0] == algorithm) and (selection is None or key[1] == selection)
    ]
    if len(matches) != 1:
        available = ", ".join(f"{a}/{s}" for a, s in keys)
        raise RecbenchError(
            f"run {run_dir} holds {len(matches) or len(keys)} matching list sets "
            f"({available}); pick one with --algorithm-{side}/--selection-{side}"
        )
    return matches[0]


def _cmd_compare(args) -> int:
    if args.k < 1:
        raise RecbenchError("--k must be >= 1")
    lists_a_all, hidden_a = read_run_lists(args.run_a)
    lists_b_all, hidden_b = read_run_lists(args.run_b)
    key_a = _pick(lists_a_all, args.algorithm_a, args.selection_a, "a", args.run_a)
    key_b = _pick(lists_b_all, args.algorithm_b, args.selection_b, "b", args.run_b)
    lists_a, lists_b = lists_a_all[key_a], lists_b_all[key_b]
    for run_dir, lists in ((args.run_a, lists_a), (args.run_b, lists_b)):
        run_k = min(lst.target_k for lst in lists.values())
        if args.k > run_k:
            raise RecbenchError(
                f"--k {args.k} exceeds the largest k of run {run_dir} ({run_k}); "
                "its lists were cut there"
            )
    common = sorted(set(lists_a) & set(lists_b))
    if not common:
        raise RecbenchError("the two runs share no evaluated users")
    mismatched = [u for u in common if hidden_a.get(u) != hidden_b.get(u)]
    if mismatched:
        raise RecbenchError(
            f"hidden sets differ for {len(mismatched)} shared users "
            "(the runs must use the same dataset, protocol and seed)"
        )
    sub_a = {u: lists_a[u] for u in common}
    sub_b = {u: lists_b[u] for u in common}
    hidden = {u: hidden_a[u] for u in common}
    overlap = jaccard_list_similarity(sub_a, sub_b, args.k)
    report = hit_intersection(sub_a, sub_b, hidden, args.k)
    print(f"run_a: {args.run_a} algorithm={key_a[0]} attribute_selection={key_a[1]}")
    print(f"run_b: {args.run_b} algorithm={key_b[0]} attribute_selection={key_b[1]}")
    print(f"users_compared: {len(common)}")
    print(f"jaccard@{args.k}: {overlap!r}")
    print(f"exclusive_a: {report.exclusive_a}")
    print(f"exclusive_b: {report.exclusive_b}")
    print(f"common: {report.common}")
    return 0


_HANDLERS = {"stats": _cmd_stats, "run": _cmd_run, "compare": _cmd_compare}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (RecbenchError, OSError) as exc:
        # bad configuration or unreadable/missing input: the user can fix it
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - report runtime failures as exit 2
        print(f"runtime failure: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
