"""Naive brute-force analytics used as an independent oracle.

Everything here is written with explicit loops and plain set algebra
over record fields, independently of the library's metric code paths.
"""


def oracle_concept_set(record, model):
    out = set()
    if model in record.models:
        for category, term in record.models[model].concepts:
            out.add((category, term))
    return out


def oracle_triple_set(record, model):
    out = set()
    if model in record.models:
        for s, p, o in record.models[model].triples:
            out.add((s, p, o))
    return out


def oracle_model_names(corpus):
    names = set()
    for record in corpus.values():
        for name in record.models:
            names.add(name)
    return sorted(names)


def oracle_disagreement(record):
    concepts = set()
    triples = set()
    for name in record.models:
        concepts = concepts | oracle_concept_set(record, name)
        triples = triples | oracle_triple_set(record, name)
    return len(concepts), len(triples)


def oracle_jaccard(a, b):
    if len(a) == 0 and len(b) == 0:
        return 1.0
    union = a | b
    inter = a & b
    return len(inter) / len(union)


def oracle_pair_means(corpus, kind):
    """dict (model_a, model_b) -> mean per-slide jaccard, a < b."""
    getter = oracle_concept_set if kind == "concepts" else oracle_triple_set
    models = oracle_model_names(corpus)
    keys = sorted(corpus)
    means = {}
    for i in range(len(models)):
        for j in range(i + 1, len(models)):
            values = {}
            for key in keys:
                record = corpus[key]
                values[key] = oracle_jaccard(getter(record, models[i]), getter(record, models[j]))
            total = 0.0
            for key in keys:
                total += values[key]
            means[(models[i], models[j])] = (total / len(keys), values)
    return means


def oracle_lecture_means(corpus):
    per_lecture = {}
    for key in sorted(corpus):
        d_concept, d_triple = oracle_disagreement(corpus[key])
        per_lecture.setdefault(key.lecture_id, []).append((d_concept, d_triple))
    out = {}
    for lecture_id, values in per_lecture.items():
        c_total = 0
        t_total = 0
        for d_concept, d_triple in values:
            c_total += d_concept
            t_total += d_triple
        out[lecture_id] = (c_total / len(values), t_total / len(values))
    return out


def oracle_percentile(values, q):
    """Linear interpolation between closest order statistics."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def oracle_stability(corpus):
    keys = sorted(corpus)
    d_values = [oracle_disagreement(corpus[key])[0] for key in keys]
    q1 = oracle_percentile(d_values, 0.25)
    q3 = oracle_percentile(d_values, 0.75)
    labels = {}
    for key, d in zip(keys, d_values):
        if d <= q1:
            labels[key] = "Stable"
        elif d > q3:
            labels[key] = "Unstable"
        else:
            labels[key] = "Moderate"
    return labels, (q1, q3)


def oracle_median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2


def oracle_coverage(corpus, baseline):
    losses = {}
    for key in sorted(corpus):
        record = corpus[key]
        concept_union = set()
        triple_union = set()
        for name in record.models:
            concept_union |= oracle_concept_set(record, name)
            triple_union |= oracle_triple_set(record, name)
        base_c = oracle_concept_set(record, baseline)
        base_t = oracle_triple_set(record, baseline)
        missed_c = 0
        for element in concept_union:
            if element not in base_c:
                missed_c += 1
        missed_t = 0
        for element in triple_union:
            if element not in base_t:
                missed_t += 1
        c_loss = missed_c / len(concept_union) if concept_union else 0.0
        t_loss = missed_t / len(triple_union) if triple_union else 0.0
        losses[key] = (c_loss, t_loss)
    return losses


def oracle_footprint(corpus):
    models = oracle_model_names(corpus)
    keys = sorted(corpus)
    out = {}
    for model in models:
        c_total = 0
        t_total = 0
        for key in keys:
            record = corpus[key]
            if model in record.models:
                c_total += len(record.models[model].concepts)
                t_total += len(record.models[model].triples)
        out[model] = (c_total / len(keys), t_total / len(keys))
    return out
