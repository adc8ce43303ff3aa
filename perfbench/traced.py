"""Run one recbench CLI command with spans around the calls into each layer.

Usage: python3 traced.py SPANS_JSON COMMAND [ARGS...]

COMMAND and ARGS are passed to ``recbench.cli.main`` unchanged. Before the
call, the public functions that ``recbench.harness``, ``recbench.recommenders``
and ``recbench.cli`` call are replaced, in every ``recbench`` module that
imported them, by wrappers that record a span (name, parent, start, end).
A few wrappers also count properties of the call's inputs and outputs; that
bookkeeping runs after the span has closed and is recorded as a
``trace.accounting`` span, so it never counts toward a layer's time.
Spans and counts stay in memory and are written to SPANS_JSON when the
command ends. A wrapped name that no longer exists is listed as unmeasured
and the run goes on without it. The wrappers return what the wrapped call
returned, so the run's artifacts are byte-identical to an untraced run.
"""

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# (module under recbench, attribute, span name); the span name's prefix is
# the layer the call belongs to.
TARGETS = (
    ("harness", "run_experiment", "harness.run"),
    ("harness", "write_run_dir", "harness.write"),
    ("harness", "read_run_lists", "harness.read"),
    ("corpus", "load_interactions", "corpus.load"),
    ("corpus", "load_content", "corpus.load"),
    ("corpus", "plan_splits", "corpus.plan"),
    ("corpus", "materialize_split", "corpus.split"),
    ("textproc", "default_stopwords", "textproc.stopwords"),
    ("textproc", "build_index", "textproc.index"),
    ("textproc", "top_k_similar", "textproc.topk"),
    ("recommenders", "fit_cf", "recommenders.cf_fit"),
    ("recommenders", "CFModel.neighbors", "recommenders.cf_neighbors"),
    ("recommenders", "recommend_cf", "recommenders.cf"),
    ("recommenders", "fit_sup", "recommenders.sup_fit"),
    ("recommenders", "recommend_sup", "recommenders.sup"),
    ("recommenders", "fit_upa", "recommenders.upa_fit"),
    ("recommenders", "recommend_upa", "recommenders.upa"),
    ("metrics", "evaluate", "metrics.evaluate"),
    ("metrics", "jaccard_list_similarity", "metrics.pairwise"),
    ("metrics", "hit_intersection", "metrics.pairwise"),
)


class Tracer:
    """In-memory spans ``[name, parent index, start, end]`` plus counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.voters = set()
        self.unmeasured = []

    def call(self, name, fn, args, kwargs):
        rec = [name, self.stack[-1] if self.stack else -1, perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = perf_counter()
            self.stack.pop()

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrapper(self, name, fn, observe):
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if observe is not None:
                start = perf_counter()
                observe(self, result, *args, **kwargs)
                parent = self.stack[-1] if self.stack else -1
                self.spans.append(["trace.accounting", parent, start, perf_counter()])
            return result
        return traced

    def install(self):
        loaded = [m for n, m in sys.modules.items() if n == "recbench" or n.startswith("recbench.")]
        for module_name, attr, span in TARGETS:
            owner_path, _, last = attr.rpartition(".")
            try:
                owner = importlib.import_module(f"recbench.{module_name}")
            except ImportError:
                owner = None
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            original = getattr(owner, last, None)
            if original is None:
                self.unmeasured.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrapper(span, original, OBSERVERS.get(span))
            if owner_path:
                setattr(owner, last, wrapped)
                continue
            for module in loaded:
                if getattr(module, last, None) is original:
                    setattr(module, last, wrapped)


def _observe_split(tracer, split, *args, **kwargs):
    tracer.counts["split_calls"] += 1
    tracer.counts["test_users"] += len(split.hidden)


def _observe_index(tracer, index, *args, **kwargs):
    tracer.counts["vocab_terms"] += len(index.vocabulary)
    tracer.counts["empty_vectors"] += len(index.empty_item_ids)


def _observe_topk(tracer, pairs, index, query, k, *args, **kwargs):
    tracer.counts["topk_calls"] += 1
    tracer.counts["topk_k"] += k
    tracer.counts["topk_pairs"] += len(pairs)
    candidates = set()
    for t in query.entries:
        candidates.update(item_id for item_id, _ in index.postings(t))
    tracer.counts["topk_candidates"] += len(candidates)
    if tracer.parent_name() == "recommenders.sup":
        # a sup voter's query is the voter item's own vector, held by the index
        tracer.counts["voter_calls"] += 1
        tracer.voters.add((id(index), id(query)))


def _observe_neighbors(tracer, neighbors, *args, **kwargs):
    if not neighbors:
        tracer.counts["cf_no_neighbors"] += 1


def _list_observer(algorithm):
    def observe(tracer, recs, *args, **kwargs):
        tracer.counts[f"lists.{algorithm}"] += 1
        if not recs.entries:
            tracer.counts[f"empty_lists.{algorithm}"] += 1
        elif len(recs.entries) < recs.target_k:
            tracer.counts[f"short_lists.{algorithm}"] += 1
    return observe


OBSERVERS = {
    "corpus.split": _observe_split,
    "textproc.index": _observe_index,
    "textproc.topk": _observe_topk,
    "recommenders.cf_neighbors": _observe_neighbors,
    "recommenders.cf": _list_observer("cf"),
    "recommenders.sup": _list_observer("sup"),
    "recommenders.upa": _list_observer("upa"),
}


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    import recbench.cli

    tracer = Tracer()
    tracer.install()
    code = tracer.call("cli.main", recbench.cli.main, (cli_args,), {})
    tracer.counts["distinct_voters"] = len(tracer.voters)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"spans": tracer.spans, "counts": dict(tracer.counts), "unmeasured": tracer.unmeasured},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
