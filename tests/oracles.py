"""Independent reference implementations used only to cross-check the library.

Everything here is deliberately brute-force and written against the math, not
against the library code: pure-Python loops, exact rational arithmetic where
the checked quantity is rational, and no shared helpers with src/.
"""

import math
from fractions import Fraction


def jacobi_eigh_oracle(a, tol=1e-13, max_rotations=100000):
    """Classical Jacobi eigensolver with largest-off-diagonal pivoting.

    Takes a symmetric matrix as a list of lists (or ndarray), returns
    (eigenvalues, eigenvectors-as-columns) sorted by descending eigenvalue.
    """
    n = len(a)
    m = [[float(a[i][j]) for j in range(n)] for i in range(n)]
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    scale = max(abs(m[i][j]) for i in range(n) for j in range(n)) or 1.0

    for _ in range(max_rotations):
        p, q, biggest = 0, 0, 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                if abs(m[i][j]) >= biggest:
                    biggest = abs(m[i][j])
                    p, q = i, j
        if biggest <= tol * scale:
            break
        apq = m[p][q]
        theta = (m[q][q] - m[p][p]) / (2.0 * apq)
        t = (1.0 if theta >= 0 else -1.0) / (abs(theta) + math.sqrt(theta * theta + 1.0))
        c = 1.0 / math.sqrt(t * t + 1.0)
        s = t * c
        for k in range(n):
            mkp, mkq = m[k][p], m[k][q]
            m[k][p] = c * mkp - s * mkq
            m[k][q] = s * mkp + c * mkq
        for k in range(n):
            mpk, mqk = m[p][k], m[q][k]
            m[p][k] = c * mpk - s * mqk
            m[q][k] = s * mpk + c * mqk
        m[p][q] = m[q][p] = 0.0
        for k in range(n):
            vkp, vkq = v[k][p], v[k][q]
            v[k][p] = c * vkp - s * vkq
            v[k][q] = s * vkp + c * vkq

    order = sorted(range(n), key=lambda i: -m[i][i])
    eigvals = [m[i][i] for i in order]
    eigvecs = [[v[r][i] for i in order] for r in range(n)]
    return eigvals, eigvecs


def gram_eigvals_oracle(matrix):
    """Descending eigenvalues of M^T M computed with the brute-force solver."""
    rows = [[float(x) for x in row] for row in matrix]
    n = len(rows)
    d = len(rows[0])
    gram = [
        [math.fsum(rows[k][i] * rows[k][j] for k in range(n)) for j in range(d)]
        for i in range(d)
    ]
    eigvals, _ = jacobi_eigh_oracle(gram)
    return eigvals


def average_precision_oracle(ranked_ids, relevant):
    """Exact AP as a Fraction via an O(n^2) precision-at-k scan."""
    relevant = set(relevant)
    total = Fraction(0)
    for k in range(1, len(ranked_ids) + 1):
        if ranked_ids[k - 1] in relevant:
            hits_at_k = sum(1 for i in range(k) if ranked_ids[i] in relevant)
            total += Fraction(hits_at_k, k)
    return total / len(relevant)


def ap_fixed_point_oracle(positions, bits=128):
    """t = sum over k of floor(k 2^bits / p_k), in Python integers."""
    return sum((k << bits) // p for k, p in enumerate(positions, start=1))


def _power_of_two_scaled(vec):
    """vec as floats divided by a power of two (exact, short of underflow) that
    brings its largest magnitude into [0.5, 1), so no square or product overflows."""
    vec = [float(a) for a in vec]
    exponent = math.frexp(max(map(abs, vec), default=0.0))[1]
    return [math.ldexp(a, -exponent) for a in vec]


def cosine_oracle(u, v):
    """fsum cosine of u and v, taken of their power-of-two prescaled copies."""
    u, v = _power_of_two_scaled(u), _power_of_two_scaled(v)
    dot = math.fsum(a * b for a, b in zip(u, v))
    nu = math.sqrt(math.fsum(a * a for a in u))
    nv = math.sqrt(math.fsum(b * b for b in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return dot / (nu * nv)


def rank_oracle(query_vec, candidates, score=cosine_oracle):
    """O(n^2) comparison sort of (id, vec) pairs by descending score(query_vec,
    vec), by default the fsum cosine."""
    scored = [(cid, score(query_vec, vec)) for cid, vec in candidates]
    out = list(scored)
    # selection sort, greatest score first, ascending id on ties
    for i in range(len(out)):
        best = i
        for j in range(i + 1, len(out)):
            if (-out[j][1], out[j][0]) < (-out[best][1], out[best][0]):
                best = j
        out[i], out[best] = out[best], out[i]
    return [cid for cid, _ in out]


def logistic_gd_oracle(features, labels, lr, epochs, l2=0.0):
    """Pure-Python full-batch gradient descent from zero initialization."""
    n = len(features)
    d = len(features[0])
    w = [0.0] * d
    b = 0.0
    for _ in range(epochs):
        grad_w = [0.0] * d
        grad_b = 0.0
        for row, y in zip(features, labels):
            z = math.fsum(w[j] * row[j] for j in range(d)) + b
            p = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
            resid = p - y
            for j in range(d):
                grad_w[j] += resid * row[j]
            grad_b += resid
        for j in range(d):
            w[j] -= lr * (grad_w[j] / n + l2 * w[j])
        b -= lr * grad_b / n
    return w + [b]


def logistic_loss_oracle(features, labels, weights, l2=0.0):
    """Mean log-loss plus (l2/2)||w||^2 over the weights (bias unpenalized),
    weights being w + [b] as logistic_gd_oracle returns them."""
    *w, b = (float(v) for v in weights)
    total = []
    for row, y in zip(features, labels):
        z = math.fsum(wj * float(xj) for wj, xj in zip(w, row)) + b
        # log(1 + exp(-z)) for class 1, log(1 + exp(z)) for class 0, without overflow
        t = -z if y == 1 else z
        total.append(max(t, 0.0) + math.log1p(math.exp(-abs(t))))
    return math.fsum(total) / len(total) + 0.5 * l2 * math.fsum(wj * wj for wj in w)


def source_fingerprint_oracle(lang, rows):
    """A basis's source fingerprint: the first 16 hex digits of the sha256 of
    the UTF-8 tag, n and d as little-endian uint64, and the float64 rows in C order."""
    import hashlib
    import struct

    n, d = len(rows), len(rows[0])
    values = struct.pack(f"<{n * d}d", *(float(x) for row in rows for x in row))
    return hashlib.sha256(lang.encode("utf-8") + struct.pack("<QQ", n, d) + values).hexdigest()[:16]


def read_embeddings_oracle(path):
    """The record-at-a-time .lire reader: one EmbeddingRecord per record as it
    is decoded, then one collection check over the records.

    It shares lir's header parsing and record types, which define what a
    valid file is; the record loop is its own, so a columnar decoder can be
    checked against it: the same records, or the same error class and text.
    """
    import numpy as np

    from lir.core import EmbeddingRecord, check_collection
    from lir.errors import FormatError, TruncatedFile
    from lir.io import EMBEDDING_MAGIC, _check_remaining, _header_int, _header_str, _read_header

    with open(path, "rb") as f:
        header = _read_header(f, EMBEDDING_MAGIC)
        count = _header_int(header, "count")
        dim = _header_int(header, "dim", minimum=1)
        lang = _header_str(header, "lang")
        if header.get("dtype") != "f32":
            raise FormatError(f"unsupported dtype {header.get('dtype')!r}")
        _check_remaining(f, count * (2 + 4 * dim), f"{count} records")
        data = f.read()
    records, pos = [], 0
    for idx in range(count):
        id_at = pos + 2
        vec_at = id_at + int.from_bytes(data[pos:id_at], "little")
        if vec_at > len(data):
            part = "id length" if id_at > len(data) else "id"
            raise TruncatedFile(f"file ends inside record {idx} {part}")
        try:
            rec_id = data[id_at:vec_at].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"record {idx} id is not valid UTF-8") from exc
        pos = vec_at + 4 * dim
        if pos > len(data):
            raise TruncatedFile(f"file ends inside record {idx} values")
        vec = np.frombuffer(data, dtype="<f4", count=dim, offset=vec_at).astype(np.float64)
        records.append(EmbeddingRecord(id=rec_id, lang=lang, vec=vec))
    if pos != len(data):
        raise FormatError("trailing data after the declared record count")
    check_collection(records)
    return records


def read_collection_oracle(target):
    """The file-by-file directory read: each .lire file read on its own by
    read_embeddings_oracle (so each is checked as a collection), then every
    file's rows concatenated and checked as one collection. Returns the
    collection's ids, languages and float64 rows.
    """
    from pathlib import Path

    import numpy as np

    from lir.core import _check_collection
    from lir.errors import FormatError

    path = Path(target)
    files = sorted(path.glob("*.lire")) if path.is_dir() else [path]
    if not files:
        raise FormatError(f"no .lire files found in {path}")
    per_file = [read_embeddings_oracle(file) for file in files]
    records = [r for file_records in per_file for r in file_records]
    _check_collection([r.id for r in records], [r.dim for r in records])
    rows = np.array([r.vec for r in records]) if records else np.empty((0, 0))
    return [r.id for r in records], [r.lang for r in records], rows


def read_table_oracle(*paths):
    """The whole-file .lire table reader that the streamed one replaced: each
    file's bytes read at once, its records framed in one loop and its values
    gathered in one step, then the rows decoded so far checked on an error.
    Returns an EmbeddingTable, or raises what it raises.

    The streamed reader must return the same ids, languages and rows, or
    raise the same error class with the same text, whatever its buffer size.
    """
    import numpy as np

    from lir.core import EmbeddingTable, _check_collection, _check_rows
    from lir.errors import FormatError, LirError, TruncatedFile
    from lir.io import _lire_head, _lire_header

    def utf8(raw):
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            return None

    def frame(data, count, dim):
        width, size = 4 * dim, len(data)
        starts, offsets, pos, error = [], [], 0, None
        for idx in range(count):
            start = pos + 2
            if start > size:
                error = TruncatedFile(f"file ends inside record {idx} id length")
                break
            at = start + (data[pos] | data[pos + 1] << 8)
            pos = at + width
            if pos > size:
                if at > size:
                    error = TruncatedFile(f"file ends inside record {idx} id")
                elif utf8(data[start:at]) is None:
                    error = FormatError(f"record {idx} id is not valid UTF-8")
                else:
                    error = TruncatedFile(f"file ends inside record {idx} values")
                break
            starts.append(start)
            offsets.append(at)
        else:
            if pos != size:
                error = FormatError("trailing data after the declared record count")
        ids = [utf8(data[a:b]) for a, b in zip(starts, offsets)]
        if None in ids:  # an earlier record's id, which fails first
            del ids[ids.index(None) :], offsets[len(ids) :]
            error = FormatError(f"record {len(ids)} id is not valid UTF-8")
        return ids, offsets, error

    def decode(path, block):
        with open(path, "rb") as f:
            count, dim, lang = _lire_header(f)
            data = f.read()
        ids, offsets, error = frame(data, count, dim)
        fits = block is not None and block.shape[1] == dim and len(block) >= count
        rows = block[: len(ids)] if fits else np.empty((len(ids), dim))
        if ids:
            windows = np.lib.stride_tricks.sliding_window_view(np.frombuffer(data, np.uint8), 4 * dim)
            rows[...] = windows[np.array(offsets)].view("<f4")
        if error is not None:
            _check_rows(ids, [lang.strip()] * len(ids), rows)
            raise error
        return ids, lang, rows

    heads = list(filter(None, map(_lire_head, paths)))
    dims = {dim for _, dim, _ in heads}
    block = np.empty((sum(n for n, _, _ in heads), dims.pop())) if len(dims) == 1 else None
    parts, at = [], 0
    try:
        for path in paths:
            parts.append(decode(path, None if block is None else block[at:]))
            at += len(parts[-1][0])
        ids = [rid for file_ids, _, _ in parts for rid in file_ids]
        langs = [lang for file_ids, lang, _ in parts for _ in file_ids]
        matrices = [rows for _, _, rows in parts]
        if block is not None and at == len(block) and all(m.base is block for m in matrices):
            rows = block
        else:
            widths = [m.shape[1] for m in matrices]
            _check_collection(ids, np.repeat(widths, [len(m) for m in matrices]))
            rows = np.concatenate([m for m in matrices if len(m)] or matrices[:1])
        return EmbeddingTable(ids=ids, langs=langs, rows=rows)
    except (LirError, OSError):
        for ids, lang, rows in parts:
            EmbeddingTable(ids=ids, langs=[lang] * len(ids), rows=rows)
        raise


def sigmoid_oracle(z):
    """The logistic function with boolean-mask indexing: 1 / (1 + exp(-z))
    where z >= 0 and exp(z) / (1 + exp(z)) elsewhere, so nothing overflows."""
    import numpy as np

    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def generate_oracle(config):
    """The record-at-a-time synthetic generator: one EmbeddingRecord per row,
    each summed as offset + topic + noise on its own, plus its own copy of the
    two-pass classical Gram-Schmidt, one vector at a time against a list of the
    unit vectors kept so far, with einsum products and norms. It shares lir's
    config and record types only, so the matrix-form `generate` can be checked
    against it bit for bit.
    """
    import math
    from types import SimpleNamespace

    import numpy as np

    from lir.core import EmbeddingRecord
    from lir.errors import ConfigError
    from lir.synth import TOPIC_PARITY

    def extend(kept, vectors, floor, on_degenerate):
        # Each vector loses its projection on the kept ones twice, then is kept
        # normalized, or as on_degenerate() if too little of it is left.
        for vec in vectors:
            vec = vec.copy()
            for _ in range(2):
                prior = np.array(kept).reshape(len(kept), vec.size).T
                vec -= np.einsum("ij,j->i", prior, np.einsum("ij,i->j", prior, vec))
            nrm = math.sqrt(np.einsum("i,i->", vec, vec))
            kept.append(vec / nrm if nrm > floor else on_degenerate())
        return kept

    def no_room():
        raise ConfigError(
            "cannot orthogonalize language offsets against the topic span; "
            "increase dim or reduce topics"
        )

    rng = np.random.Generator(np.random.PCG64(config.seed))
    langs = config.languages
    n_lang, n_topic, per, dim = (
        len(langs),
        config.topics,
        config.per_topic_per_lang,
        config.dim,
    )

    raw_topics = rng.standard_normal((n_topic, dim))
    topic_norms = np.linalg.norm(raw_topics, axis=1)
    if np.any(topic_norms < 1e-12):
        raise ConfigError("degenerate topic draw; use a different seed")
    units = raw_topics / topic_norms[:, None]
    topics = config.semantic_scale * units

    raw_offsets = rng.standard_normal((n_lang, dim))
    noise = config.noise_scale * rng.standard_normal((n_lang * n_topic * per, dim))

    topic_basis = extend([], units, 1e-10, lambda: np.zeros(dim))
    directions = extend(list(topic_basis), raw_offsets, 1e-8, no_room)[n_topic:]

    if config.skew > 0.0:
        basis = np.array(topic_basis).T
        tilted = []
        for i, direction in enumerate(directions):
            in_span = np.einsum("ij,j->i", basis, np.einsum("ij,i->j", basis, raw_offsets[i]))
            nrm = math.sqrt(np.einsum("i,i->", in_span, in_span))
            if nrm > 0.0:
                direction = direction + config.skew * in_span / nrm
                direction = direction / math.sqrt(np.einsum("i,i->", direction, direction))
            tilted.append(direction)
        directions = tilted

    offsets = {lang: config.bias_scale * directions[i] for i, lang in enumerate(langs)}

    records = []
    query_ids = set()
    by_topic_candidates = {t: [] for t in range(n_topic)}
    labels = {} if config.label_rule == TOPIC_PARITY else None
    row = 0
    for li, lang in enumerate(langs):
        base = offsets[lang]
        for t in range(n_topic):
            for j in range(per):
                rec_id = f"{lang}-t{t:04d}-{j:04d}"
                vec = base + topics[t] + noise[row]
                row += 1
                records.append(EmbeddingRecord(id=rec_id, lang=lang, vec=vec))
                if j == 0:
                    query_ids.add(rec_id)
                else:
                    by_topic_candidates[t].append(rec_id)
                if labels is not None:
                    labels[rec_id] = t % 2

    qrels = {
        rec_id: frozenset(by_topic_candidates[t])
        for t in range(n_topic)
        for rec_id in (f"{lang}-t{t:04d}-0000" for lang in langs)
    }

    return SimpleNamespace(
        records=tuple(records),
        query_ids=frozenset(query_ids),
        qrels=qrels,
        labels=labels,
        ground_truth=offsets,
    )


def qrels_bytes_oracle(qrels):
    """The qrels.jsonl bytes of a query -> relevant-ids mapping, each query's
    relevant ids sorted and encoded on their own, by json.dumps."""
    import json

    lines = [
        json.dumps({"query_id": q, "relevant": sorted(qrels[q])}, sort_keys=True, separators=(",", ":"))
        for q in sorted(qrels)
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def synth_files_oracle(config, out):
    """Write the files `lir synth` writes for config into out, the way it did
    before its sub-tables were views: each language's corpus, queries and
    candidates built as full EmbeddingTables, each checked again on
    construction, and qrels sorted per query."""
    import dataclasses
    import json
    from pathlib import Path

    import numpy as np

    from lir.core import EmbeddingTable, corpus_fingerprint
    from lir.io import write_embeddings, write_labels
    from lir.synth import generate

    def take(table, index):
        pick = index.tolist()
        return EmbeddingTable([table.ids[i] for i in pick], [table.langs[i] for i in pick],
                              table.rows[index])

    result = generate(config)
    out, per = Path(out), config.per_topic_per_lang
    block = np.arange(config.topics * per)
    fingerprints = {}
    for lang, start in zip(config.languages, range(0, len(result.table), block.size)):
        corpus = take(result.table, start + block)
        fingerprints[lang] = corpus_fingerprint(corpus)
        parts = (corpus, take(corpus, block[::per]), take(corpus, block[block % per > 0]))
        for sub, table in zip(("corpus", "queries", "candidates"), parts):
            (out / sub).mkdir(parents=True, exist_ok=True)
            write_embeddings(out / sub / f"{lang}.lire", table)
    (out / "qrels.jsonl").write_bytes(qrels_bytes_oracle(result.qrels))
    if result.labels is not None:
        write_labels(out / "labels.jsonl", dict(result.labels))
    manifest = {
        "config": dataclasses.asdict(config),
        "counts": {
            "candidates": len(result.table) - len(result.query_ids),
            "queries": len(result.query_ids),
            "records": len(result.table),
        },
        "fingerprints": fingerprints,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def evaluate_retrieval_oracle(dataset, bases=None, mode=None):
    """The per-query retrieval loop: every query scored against every
    candidate with the einsum kernel that defines the ranks, a full stable
    sort per query, and AP as one exact integer ratio over lcm(positions).
    It shares the library's removal, scoring kernel and report types, so
    evaluate_retrieval's report can be checked against it byte for byte. The
    recorded rank is the number of basis columns removed (0 without bases).
    """
    import numpy as np

    from lir.core import EvalReport, corpus_fingerprint
    from lir.evaluation import _cosine_scores, _features
    from lir.removal import DEFAULT_MODE

    mode = DEFAULT_MODE if mode is None else mode
    removed = {basis.basis.shape[1] for basis in (bases or {}).values()}
    assert len(removed) <= 1, "bases of mixed ranks make no report"
    queries, candidates = dataset.queries, dataset.candidates
    qmat = _features(queries, bases, mode)
    # Candidates stacked in id order, so the stable sort breaks ties by id.
    order = sorted(range(len(candidates)), key=candidates.ids.__getitem__)
    cmat = _features(candidates, bases, mode)[order]
    with np.errstate(over="ignore"):
        cnorms = np.linalg.norm(cmat, axis=1)
    ids = [candidates.ids[i] for i in order]
    by_lang = {}
    for qid, lang, qvec in zip(queries.ids, queries.langs, qmat):
        order = np.argsort(-_cosine_scores(cmat, cnorms, qvec), kind="stable")
        relevant = dataset.qrels[qid]
        positions = [pos for pos, i in enumerate(order.tolist(), start=1) if ids[i] in relevant]
        d = math.lcm(*positions)
        ap = sum(k * (d // p) for k, p in enumerate(positions, start=1)) / (d * len(positions))
        by_lang.setdefault(lang, []).append(ap)
    aps = [ap for lang_aps in by_lang.values() for ap in lang_aps]
    return EvalReport(
        overall_map=math.fsum(aps) / len(aps),
        per_language_map={lang: math.fsum(v) / len(v) for lang, v in sorted(by_lang.items())},
        query_count=len(queries),
        config={
            "candidates_fingerprint": corpus_fingerprint(candidates),
            "mode": mode.value,
            "queries_fingerprint": corpus_fingerprint(queries),
            "rank": removed.pop() if removed else 0,
            "similarity": "cosine",
        },
    )
