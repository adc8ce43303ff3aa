"""Brute-force reference implementations used to cross-check the package.

Everything here works on plain dicts keyed by term *string* / item id and
scores every candidate exhaustively — no inverted index, no shared code
with the package internals. Sums are accumulated in ascending key order,
the same canonical order the package documents, so agreement can be checked
to full float precision.
"""

import math


def oracle_tfidf(doc_tokens):
    """Expected vectors for tokenized documents.

    ``doc_tokens`` maps item id -> list of (already filtered) tokens.
    Returns (sorted vocabulary terms, {item: {term: weight}}).
    """
    n_docs = len(doc_tokens)
    df = {}
    for tokens in doc_tokens.values():
        for t in set(tokens):
            df[t] = df.get(t, 0) + 1
    vocab = sorted(t for t, d in df.items() if d >= 2)
    vectors = {}
    for item, tokens in doc_tokens.items():
        counts = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        entries = {}
        for t in vocab:
            if t in counts:
                w = counts[t] * math.log(n_docs / df[t])
                if w != 0.0:
                    entries[t] = w
        vectors[item] = entries
    return vocab, vectors


def oracle_norm(entries):
    s = 0.0
    for t in sorted(entries):
        w = entries[t]
        s += w * w
    return math.sqrt(s)


def oracle_cosine(a, b):
    if not a or not b:
        return 0.0
    dot = 0.0
    for t in sorted(set(a) & set(b)):
        dot += a[t] * b[t]
    if dot == 0.0:
        return 0.0
    return dot / (oracle_norm(a) * oracle_norm(b))


def oracle_top_k(vectors, query, k, exclude=frozenset()):
    """Score every document against ``query``, drop zero scores, rank."""
    scored = []
    for item in vectors:
        if item in exclude:
            continue
        s = oracle_cosine(query, vectors[item])
        if s > 0.0:
            scored.append((item, s))
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:k]


def oracle_upa(vectors, profile_ids, budget, k):
    aggregated = {}
    for item in sorted(profile_ids):
        for t in sorted(vectors.get(item, {})):
            aggregated[t] = aggregated.get(t, 0.0) + vectors[item][t]
    if not aggregated:
        return []
    ranked = sorted(aggregated.items(), key=lambda kv: (-kv[1], kv[0]))
    query = dict(ranked[:budget])
    return oracle_top_k(vectors, query, k, exclude=set(profile_ids))


def oracle_sup(vectors, profile_ids, votes_per_item, k):
    exclude = set(profile_ids)
    votes = {}
    for item in sorted(profile_ids):
        entries = vectors.get(item, {})
        if not entries:
            continue
        for candidate, s in oracle_top_k(vectors, entries, votes_per_item, exclude=exclude):
            votes[candidate] = votes.get(candidate, 0.0) + s
    ranked = sorted(votes.items(), key=lambda e: (-e[1], e[0]))
    return ranked[:k]


def oracle_cf_similarity(ratings, user, other, metric):
    """User-user similarity from ``ratings`` ({user: {item: rating}}).

    The common items are listed in ``user``'s ascending item order. Cosine
    divides their dot product by the two profiles' norms (0 for a zero dot);
    pearson is the clamped correlation over at least two common items (0 when
    either side has no variance).
    """
    a, b = ratings[user], ratings[other]
    common = [i for i in sorted(a) if i in b]
    if metric == "cosine":
        dot = 0.0
        for i in common:
            dot += a[i] * b[i]
        if dot == 0.0:
            return 0.0
        return dot / (oracle_norm(a) * oracle_norm(b))
    if len(common) < 2:
        return 0.0
    sum_a = sum_b = 0.0
    for i in common:
        sum_a += a[i]
        sum_b += b[i]
    mean_a, mean_b = sum_a / len(common), sum_b / len(common)
    cov = var_a = var_b = 0.0
    for i in common:
        da, db = a[i] - mean_a, b[i] - mean_b
        cov += da * db
        var_a += da * da
        var_b += db * db
    if var_a == 0.0 or var_b == 0.0:
        return 0.0
    return max(-1.0, min(1.0, cov / math.sqrt(var_a * var_b)))


def oracle_cf_neighbors(ratings, user, neighborhood_size, metric):
    """Every other user scored exhaustively; the positive ones ranked by
    ``(-similarity, id)`` and cut at ``neighborhood_size``."""
    sims = []
    for v in ratings:
        if v != user:
            s = oracle_cf_similarity(ratings, user, v, metric)
            if s > 0.0:
                sims.append((v, s))
    sims.sort(key=lambda e: (-e[1], e[0]))
    return sims[:neighborhood_size]


def oracle_cf(ratings, user, neighborhood_size, k, metric):
    """User-based CF: each candidate outside the user's profile sums
    similarity times rating over the neighbours, taken in ascending id."""
    own = ratings[user]
    scores = {}
    for v, sim in sorted(oracle_cf_neighbors(ratings, user, neighborhood_size, metric)):
        for i in sorted(ratings[v]):
            if i not in own:
                scores[i] = scores.get(i, 0.0) + sim * ratings[v][i]
    ranked = sorted(((i, s) for i, s in scores.items() if s > 0.0), key=lambda e: (-e[1], e[0]))
    return ranked[:k]


def oracle_ap(ranked_ids, hidden, k):
    """Average precision, recomputing precision from scratch at every rank."""
    prefix = list(ranked_ids)[:k]
    total = 0.0
    for r in range(1, len(prefix) + 1):
        if prefix[r - 1] in hidden:
            hits_up_to_r = sum(1 for i in prefix[:r] if i in hidden)
            total += hits_up_to_r / r
    return total / min(len(hidden), k)


def oracle_map(lists, hidden, k):
    users = sorted(lists)
    total = 0.0
    for u in users:
        total += oracle_ap(lists[u], hidden[u], k)
    return total / len(users)


def oracle_ucov(lists, k):
    users = sorted(lists)
    total = 0.0
    for u in users:
        total += min(len(lists[u]), k) / k
    return total / len(users)


def oracle_ccov(lists, catalog, k):
    union = set()
    for u in lists:
        union.update(list(lists[u])[:k])
    return len(union) / len(catalog)


def oracle_jaccard(lists_a, lists_b, k):
    users = sorted(set(lists_a) & set(lists_b))
    total = 0.0
    for u in users:
        a = set(list(lists_a[u])[:k])
        b = set(list(lists_b[u])[:k])
        if not a and not b:
            continue
        total += len(a & b) / len(a | b)
    return total / len(users)


def oracle_hits(lists, hidden, k):
    return {(u, i) for u in lists for i in list(lists[u])[:k] if i in hidden[u]}
