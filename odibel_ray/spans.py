"""Exact cross-document duplicate-substring spans at corpus scale.

The missing dedup modality next to MinHash/SimHash (document-level) and
chunk hashing (fixed-boundary): find every maximal substring of length
>= ``min_len`` BYTES shared verbatim by two documents, with byte positions
— the operation behind "exact substring deduplication" in Lee et al. 2022
("Deduplicating Training Data Makes Language Models Better"), which builds
a corpus-wide suffix array. A suffix array is the wrong shape for a
streaming shuffle engine; this module gets the SAME exact answer with a
winnowing-sampled fingerprint index (Schleimer et al. 2003, "Winnowing:
Local Algorithms for Document Fingerprinting"):

1. **Fingerprint** (``map_batches``, vectorized): per document, 64-bit
   polynomial rolling hashes of every ``window``-byte gram (wraparound
   mod 2^64 — one cumsum + two vector multiplies, no per-byte Python),
   then winnowing selects the minimum hash of each ``k`` consecutive
   grams (``k = min_len - window + 1``). Winnowing's guarantee is exact:
   ANY shared substring of length >= ``min_len`` contains a selected
   fingerprint in BOTH documents. Index size is ~2/(k+1) of corpus bytes,
   not O(corpus bytes).
2. **Anchor** (``groupby(hash)``): fingerprint buckets with more than one
   document emit candidate anchor pairs (uncapped by default — house
   pair-API policy; ``max_bucket`` opt-in caps degenerate buckets, e.g.
   boilerplate headers shared by millions of docs, marking survivors
   ``capped``).
3. **Extend** (two ``bucketed_join`` text attachments + a batch kernel):
   each anchor is verified byte-for-byte (hash collisions die here — the
   output is exact, not probabilistic) and extended left/right to the
   MAXIMAL equal run, vectorized across the pair axis like
   ``er.levenshtein_batch`` (the loop is over extension distance, every
   step one O(pairs) numpy compare). Multiple anchors inside one shared
   span all extend to the same maximal span; one exact dedup collapses
   them.

Output: one row per maximal shared span, ``(doc_a, doc_b, a_start,
b_start, span_len)`` with ``doc_a < doc_b``, ``span_len >= min_len``,
0-based byte offsets — deterministic and bit-equal to the all-pairs
gaps-and-islands SQL over every ``window``-gram (the registry oracle),
because spans >= ``min_len`` are guaranteed anchored and extension is
byte-exact. Spans in ``[window, min_len)`` are deliberately NOT emitted
(winnowing only samples them); ``min_len`` is the contract.

Reference analog: none — the reference's dedup surface stops at content
hashing (``utils/WikiUtil.scala:13-30``); this is part of the
training-data suite mandated by the build brief.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

import numpy as np
import pyarrow as pa

if TYPE_CHECKING:  # pragma: no cover
    import ray.data

#: Rolling-hash base (odd => invertible mod 2^64, so inverse powers exist).
_BASE = np.uint64(0x9E3779B97F4A7C15)
_INV_BASE = np.uint64(pow(int(_BASE), -1, 1 << 64))


def _rolling_hashes(b: np.ndarray, window: int) -> np.ndarray:
    """64-bit polynomial hashes of every ``window``-gram of byte vector
    ``b`` (wraparound arithmetic): H[i] = sum_m b[i+m] * BASE^(window-1-m).
    Fully vectorized — cumsum of b[j]*BASE^-j, then one rescale multiply."""
    n = len(b)
    if n < window:
        return np.empty(0, np.uint64)
    with np.errstate(over="ignore"):
        inv_pows = np.empty(n, np.uint64)
        inv_pows[0] = np.uint64(1)
        pows = np.empty(n, np.uint64)
        pows[0] = np.uint64(1)
        if n > 1:
            np.multiply.accumulate(
                np.full(n - 1, _INV_BASE, np.uint64), out=inv_pows[1:]
            )
            np.multiply.accumulate(np.full(n - 1, _BASE, np.uint64), out=pows[1:])
        s = np.zeros(n + 1, np.uint64)
        np.cumsum(b.astype(np.uint64) * inv_pows, out=s[1:])
        i = np.arange(n - window + 1)
        return (s[i + window] - s[i]) * pows[i + window - 1]


def _winnow(h: np.ndarray, k: int) -> np.ndarray:
    """Positions selected by winnowing: the index of the minimum hash in
    every window of ``k`` consecutive gram hashes (leftmost min on ties),
    deduplicated. Guarantee: any run of >= k grams contributes a pick."""
    if len(h) == 0:
        return np.empty(0, np.int64)
    if len(h) <= k or k <= 1:
        return np.unique(np.argmin(h, keepdims=True)).astype(np.int64) if k > 1 else np.arange(len(h), dtype=np.int64)
    win = np.lib.stride_tricks.sliding_window_view(h, k)
    picks = win.argmin(axis=1) + np.arange(len(win), dtype=np.int64)
    return np.unique(picks)


class _Fingerprinter:
    """Batch kernel: (doc_id, text) -> (fp, doc_id, pos) winnowed anchors."""

    def __init__(self, window: int, k: int, id_col: str, text_col: str):
        self.window, self.k = window, k
        self.id_col, self.text_col = id_col, text_col

    def __call__(self, t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        ids = t[self.id_col].to_numpy(zero_copy_only=False)
        out_f: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        out_p: list[np.ndarray] = []
        for did, s in zip(ids, t[self.text_col].to_pylist()):
            if not s:
                continue
            b = np.frombuffer(s.encode(), dtype=np.uint8)
            h = _rolling_hashes(b, self.window)
            if len(h) == 0:
                continue
            picks = _winnow(h, self.k)
            out_f.append(h[picks])
            out_d.append(np.full(len(picks), did, np.int64))
            out_p.append(picks)
        if not out_f:
            return pa.table(
                {"fp": pa.array([], pa.uint64()),
                 "doc_id": pa.array([], pa.int64()),
                 "pos": pa.array([], pa.int64())}
            )
        return pa.table(
            {"fp": pa.array(np.concatenate(out_f)),
             "doc_id": pa.array(np.concatenate(out_d)),
             "pos": pa.array(np.concatenate(out_p).astype(np.int64))}
        )


def _anchor_pairs_bucketed(
    t: pa.Table, max_bucket: int | None, cross_parity: bool = False
) -> pa.Table:
    """Cross-document anchor pairs for ONE hash bucket of fingerprints
    (many fingerprint values per call — per-fingerprint ``map_groups``
    would pay per-group overhead for every sampled gram in the corpus;
    here equal-fp segments are found by one lexsort and only the
    duplicated segments are visited). doc_a < doc_b; same-doc repeats
    excluded; ``max_bucket`` caps a degenerate fingerprint's rows with the
    ``capped`` marker (deterministic first-(doc,pos) survivors)."""
    t = t.combine_chunks()
    fp = t["fp"].to_numpy(zero_copy_only=False)
    docs = t["doc_id"].to_numpy(zero_copy_only=False)
    pos = t["pos"].to_numpy(zero_copy_only=False)
    cols: dict = {
        "doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()),
        "pos_a": pa.array([], pa.int64()), "pos_b": pa.array([], pa.int64()),
    }
    if max_bucket is not None:
        cols["capped"] = pa.array([], pa.bool_())
    if len(fp) < 2:
        return pa.table(cols)
    order = np.lexsort((pos, docs, fp))
    fp, docs, pos = fp[order], docs[order], pos[order]
    new = np.ones(len(fp), bool)
    new[1:] = fp[1:] != fp[:-1]
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, len(fp)))
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    out_pa: list[np.ndarray] = []
    out_pb: list[np.ndarray] = []
    out_cap: list[np.ndarray] = []
    for s0, sz in zip(starts[sizes >= 2], sizes[sizes >= 2]):
        d = docs[s0:s0 + sz]
        p = pos[s0:s0 + sz]
        if (d == d[0]).all():
            continue
        capped = max_bucket is not None and sz > max_bucket
        if capped:
            d, p = d[:max_bucket], p[:max_bucket]
        ia, ib = np.triu_indices(len(d), k=1)
        if cross_parity:
            # pairs across the two parity-tagged sides only; the even
            # (left) side is always doc_a
            keep = (d[ia] & 1) != (d[ib] & 1)
            ia, ib = ia[keep], ib[keep]
            swap = (d[ia] & 1) == 1
        else:
            keep = d[ia] != d[ib]
            ia, ib = ia[keep], ib[keep]
            swap = d[ia] > d[ib]
        ia2 = np.where(swap, ib, ia)
        ib2 = np.where(swap, ia, ib)
        out_a.append(d[ia2])
        out_b.append(d[ib2])
        out_pa.append(p[ia2])
        out_pb.append(p[ib2])
        if max_bucket is not None:
            out_cap.append(np.full(len(ia2), capped))
    if not out_a:
        return pa.table(cols)
    out = {
        "doc_a": pa.array(np.concatenate(out_a).astype(np.int64)),
        "doc_b": pa.array(np.concatenate(out_b).astype(np.int64)),
        "pos_a": pa.array(np.concatenate(out_pa).astype(np.int64)),
        "pos_b": pa.array(np.concatenate(out_pb).astype(np.int64)),
    }
    if max_bucket is not None:
        out["capped"] = pa.array(np.concatenate(out_cap))
    return pa.table(out)


def _extend_anchors(t: pa.Table, *, window: int, min_len: int) -> pa.Table:
    """Verify + maximally extend a batch of anchors, vectorized across the
    pair axis: encode both texts to padded byte matrices once, then walk
    left/right with whole-batch compares (each step one O(pairs) numpy op,
    loop length = longest extension in the batch)."""
    t = t.combine_chunks()
    npairs = len(t)
    base_cols = ["doc_a", "doc_b", "a_start", "b_start", "span_len"]
    has_capped = "capped" in t.column_names

    def _empty() -> pa.Table:
        cols = {c: pa.array([], pa.int64()) for c in base_cols}
        if has_capped:
            cols["capped"] = pa.array([], pa.bool_())
        return pa.table(cols)

    if npairs == 0:
        return _empty()
    enc_a = [s.encode() for s in t["_t_a"].to_pylist()]
    enc_b = [s.encode() for s in t["_t_b"].to_pylist()]
    la = np.array([len(e) for e in enc_a], np.int64)
    lb = np.array([len(e) for e in enc_b], np.int64)
    ma = np.zeros((npairs, int(la.max()) if npairs else 0), np.uint8)
    mb = np.zeros((npairs, int(lb.max()) if npairs else 0), np.uint8)
    for i, e in enumerate(enc_a):
        ma[i, : len(e)] = np.frombuffer(e, np.uint8)
    for i, e in enumerate(enc_b):
        mb[i, : len(e)] = np.frombuffer(e, np.uint8)
    pa_ = t["pos_a"].to_numpy(zero_copy_only=False).astype(np.int64)
    pb_ = t["pos_b"].to_numpy(zero_copy_only=False).astype(np.int64)
    rows = np.arange(npairs)

    # verify the anchor window byte-for-byte (hash collisions die here)
    ok = np.ones(npairs, bool)
    for m in range(window):
        ok &= (pa_ + m < la) & (pb_ + m < lb)
        idx = np.where(ok)[0]
        if len(idx) == 0:
            break
        ok[idx] &= ma[idx, pa_[idx] + m] == mb[idx, pb_[idx] + m]
    rows, pa_, pb_ = rows[ok], pa_[ok], pb_[ok]
    if len(rows) == 0:
        return _empty()
    la, lb = la[ok], lb[ok]
    sel_a = ma[ok]
    sel_b = mb[ok]
    n = len(rows)

    # extend left: largest d with bytes equal at (pa-d, pb-d)
    left = np.zeros(n, np.int64)
    active = np.arange(n)
    while len(active):
        d = left[active] + 1
        i, j = pa_[active] - d, pb_[active] - d
        okl = (i >= 0) & (j >= 0)
        okl[okl] = (
            sel_a[active[okl], i[okl]] == sel_b[active[okl], j[okl]]
        )
        left[active[okl]] += 1
        active = active[okl]
    # extend right past the window end
    right = np.zeros(n, np.int64)
    active = np.arange(n)
    while len(active):
        i = pa_[active] + window + right[active]
        j = pb_[active] + window + right[active]
        okr = (i < la[active]) & (j < lb[active])
        okr[okr] = (
            sel_a[active[okr], i[okr]] == sel_b[active[okr], j[okr]]
        )
        right[active[okr]] += 1
        active = active[okr]

    a0 = pa_ - left
    b0 = pb_ - left
    ln = left + window + right
    keep = ln >= min_len
    cols = {
        "doc_a": t["doc_a"].take(pa.array(rows[keep])),
        "doc_b": t["doc_b"].take(pa.array(rows[keep])),
        "a_start": pa.array(a0[keep]),
        "b_start": pa.array(b0[keep]),
        "span_len": pa.array(ln[keep]),
    }
    if "capped" in t.column_names:  # recall-reduced-bucket marker survives
        cols["capped"] = t["capped"].take(pa.array(rows[keep]))
    out = pa.table(cols)
    if len(out) > 1:
        # local pre-fold: anchors inside one shared span all extend to the
        # same row — dedup here shrinks the global dedup exchange payload
        key = np.column_stack(
            [out[c].to_numpy(zero_copy_only=False) for c in base_cols]
        )
        order = np.lexsort(key.T[::-1])
        srt = key[order]
        first = np.ones(len(out), bool)
        first[1:] = (srt[1:] != srt[:-1]).any(axis=1)
        out = out.take(pa.array(np.sort(order[first])))
    return out


def duplicate_spans(
    docs: "ray.data.Dataset",
    *,
    min_len: int = 64,
    window: int = 48,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_bucket: int | None = None,
    num_partitions: int | None = None,
    batch_size: int = 4096,
) -> "ray.data.Dataset":
    """All maximal cross-document duplicate substrings of ``>= min_len``
    bytes: ``(doc_a, doc_b, a_start, b_start, span_len)`` with
    ``doc_a < doc_b``, 0-based byte offsets. Exact — see module docstring
    for the winnowing guarantee and the scale shape."""
    if window < 4 or min_len < window:
        raise ValueError("need min_len >= window >= 4")
    k = min_len - window + 1
    anchors = docs.select_columns([id_col, text_col]).map_batches(
        _Fingerprinter(window, k, id_col, text_col),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    from odibel_ray.tuning import default_num_buckets

    nb_fp = default_num_buckets(num_partitions)

    def add_fb(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        fb = t["fp"].to_numpy(zero_copy_only=False) % np.uint64(nb_fp)
        return t.append_column("_fb", pa.array(fb.astype(np.int64)))

    # one group per HASH BUCKET of fingerprints, not per fingerprint —
    # per-fp map_groups would pay per-group overhead for every sampled gram
    pairs = anchors.map_batches(add_fb, batch_format="pyarrow").groupby(
        "_fb"
    ).map_groups(
        partial(_anchor_pairs_bucketed, max_bucket=max_bucket),
        batch_format="pyarrow",
    )
    return _pairs_to_spans(
        pairs, docs, id_col=id_col, text_col=text_col, window=window,
        min_len=min_len, max_bucket=max_bucket,
        num_partitions=num_partitions, batch_size=batch_size,
    )


def _pairs_to_spans(
    pairs: "ray.data.Dataset",
    docs: "ray.data.Dataset",
    *,
    id_col: str,
    text_col: str,
    window: int,
    min_len: int,
    max_bucket: int | None,
    num_partitions: int | None,
    batch_size: int,
) -> "ray.data.Dataset":
    """Attach both texts to the anchor-pair stream (two keyed joins, never
    a corpus broadcast), byte-verify + maximally extend, dedup spans."""
    from odibel_ray.ops.relational import bucketed_join, exact_dedup

    pair_schema = pa.schema(
        [("doc_a", pa.int64()), ("doc_b", pa.int64()),
         ("pos_a", pa.int64()), ("pos_b", pa.int64())]
    )
    if max_bucket is not None:
        pair_schema = pair_schema.append(pa.field("capped", pa.bool_()))
    txt = docs.select_columns([id_col, text_col])
    side = lambda c, tc: pa.schema([(c, pa.int64()), (tc, pa.string())])  # noqa: E731
    p = bucketed_join(
        pairs,
        txt.rename_columns({id_col: "doc_a", text_col: "_t_a"}),
        "doc_a",
        num_buckets=num_partitions,
        left_schema=pair_schema,
        right_schema=side("doc_a", "_t_a"),
        # same anchor pair can surface from several fingerprint buckets
        # inside one shared span — dedup in-bucket for free
        left_distinct=["doc_a", "doc_b", "pos_a", "pos_b"],
        left_distinct_max=(["capped"] if max_bucket is not None else None),
    )
    p = bucketed_join(
        p,
        txt.rename_columns({id_col: "doc_b", text_col: "_t_b"}),
        "doc_b",
        num_buckets=num_partitions,
        left_schema=pair_schema.append(pa.field("_t_a", pa.string())),
        right_schema=side("doc_b", "_t_b"),
    )
    spans = p.map_batches(
        partial(_extend_anchors, window=window, min_len=min_len),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    # every anchor inside one maximal span extends to the same span row
    return exact_dedup(
        spans, ["doc_a", "doc_b", "a_start", "b_start", "span_len"]
    )


def cross_duplicate_spans(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    min_len: int = 64,
    window: int = 48,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_bucket: int | None = None,
    num_partitions: int | None = None,
    batch_size: int = 4096,
) -> "ray.data.Dataset":
    """Maximal substrings >= ``min_len`` bytes shared verbatim BETWEEN two
    corpora — span-level train/test decontamination (the exact-substring
    upgrade of n-gram overlap counting: a 13-gram collision policy flags
    probabilistically, this pins the actual contaminated byte ranges).
    Output: ``(doc_id, contaminant_id, a_start, b_start, span_len)`` —
    ``doc_id``/``a_start`` on the LEFT (train) side, ``contaminant_id``/
    ``b_start`` on the RIGHT (test) side. Within-corpus duplicates are NOT
    reported.

    Scale shape identical to :func:`duplicate_spans`; the two corpora are
    parity-tagged into one surrogate id space (``doc_id*2 + side``), so
    the fingerprint index, anchor buckets, text joins and extension all
    run unchanged — only the pair rule differs (cross-side only)."""
    if window < 4 or min_len < window:
        raise ValueError("need min_len >= window >= 4")
    k = min_len - window + 1

    def tag(side_bit: int):
        def f(t: pa.Table) -> pa.Table:
            t = t.combine_chunks()
            ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            if len(ids) and (ids < 0).any():
                raise ValueError("cross_duplicate_spans: ids must be >= 0")
            sid = ids * 2 + side_bit
            return pa.table(
                {id_col: pa.array(sid), text_col: t[text_col]}
            )

        return f

    union = left.select_columns([id_col, text_col]).map_batches(
        tag(0), batch_format="pyarrow"
    ).union(
        right.select_columns([id_col, text_col]).map_batches(
            tag(1), batch_format="pyarrow"
        )
    )
    anchors = union.map_batches(
        _Fingerprinter(window, k, id_col, text_col),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    from odibel_ray.tuning import default_num_buckets

    nb_fp = default_num_buckets(num_partitions)

    def add_fb(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        fb = t["fp"].to_numpy(zero_copy_only=False) % np.uint64(nb_fp)
        return t.append_column("_fb", pa.array(fb.astype(np.int64)))

    pairs = anchors.map_batches(add_fb, batch_format="pyarrow").groupby(
        "_fb"
    ).map_groups(
        partial(
            _anchor_pairs_bucketed, max_bucket=max_bucket, cross_parity=True
        ),
        batch_format="pyarrow",
    )
    spans = _pairs_to_spans(
        pairs, union, id_col=id_col, text_col=text_col, window=window,
        min_len=min_len, max_bucket=max_bucket,
        num_partitions=num_partitions, batch_size=batch_size,
    )

    def decode(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        cols = {
            "doc_id": pa.array(
                t["doc_a"].to_numpy(zero_copy_only=False) // 2
            ),
            "contaminant_id": pa.array(
                t["doc_b"].to_numpy(zero_copy_only=False) // 2
            ),
            "a_start": t["a_start"],
            "b_start": t["b_start"],
            "span_len": t["span_len"],
        }
        if "capped" in t.column_names:
            cols["capped"] = t["capped"]
        return pa.table(cols)

    return spans.map_batches(decode, batch_format="pyarrow")


def cut_duplicate_spans(
    docs: "ray.data.Dataset",
    *,
    min_len: int = 64,
    window: int = 48,
    id_col: str = "doc_id",
    text_col: str = "text",
    **kw,
) -> "ray.data.Dataset":
    """Exact-substring dedup as a shipped corpus transform (Lee et al. 2022
    policy): every byte of a document that also appears in a LOWER-id
    document as part of a ``>= min_len`` duplicate span is removed; the
    lowest-id document keeps its copy verbatim. Returns every corpus row as
    ``(doc_id, text, n_cut_bytes)`` — untouched docs pass through with
    ``n_cut_bytes = 0``.

    Deterministic keep rule: spans are cut only from the ``doc_b`` side of
    the pairwise span table (``doc_a < doc_b`` always), so a span chain
    1→2→3 keeps doc 1's copy and cuts docs 2 and 3. Cut positions are byte
    offsets; the corpus contract is single-byte text (ASCII) — a cut can
    otherwise split a multi-byte sequence.

    Scale shape: merged cut intervals are a per-duplicated-doc-sized table
    (two int64 lists per doc) attached to the corpus by the guarded
    broadcast join (automatic bucketed fallback above the byte budget); the
    cut kernel is a numpy mask per doc."""
    spans = duplicate_spans(
        docs, min_len=min_len, window=window, id_col=id_col,
        text_col=text_col, **kw,
    )

    def b_side(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        s = t["b_start"].to_numpy(zero_copy_only=False)
        ln = t["span_len"].to_numpy(zero_copy_only=False)
        return pa.table(
            {id_col: t["doc_b"],
             "start": pa.array(s.astype(np.int64)),
             "end": pa.array((s + ln).astype(np.int64))}
        )

    intervals = spans.map_batches(b_side, batch_format="pyarrow")
    return cut_intervals(docs, intervals, id_col=id_col, text_col=text_col)


def cut_intervals(
    docs: "ray.data.Dataset",
    intervals: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> "ray.data.Dataset":
    """Remove byte ``intervals`` (``id_col, start, end`` rows) from a text
    corpus: intervals merge per doc (union), travel as one packed int64
    blob through the guarded broadcast join, and the cut is a numpy byte
    mask per doc. Returns every corpus row as
    ``(id_col, text_col, n_cut_bytes)``. Offsets are UTF-8 byte offsets: a
    cut that splits a multi-byte sequence raises ``ValueError`` naming the
    document (the corpus contract is single-byte, ASCII text)."""
    from odibel_ray.ops.relational import broadcast_hash_join

    def merge_lists(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        s = t["start"].to_numpy(zero_copy_only=False)
        e = t["end"].to_numpy(zero_copy_only=False)
        order = np.argsort(s, kind="stable")
        s, e = s[order], e[order]
        run_e = np.maximum.accumulate(e)
        new = np.ones(len(s), bool)
        new[1:] = s[1:] > run_e[:-1]
        seg_s = s[new].astype("<i8")
        seg_e = np.maximum.reduceat(e, np.flatnonzero(new)).astype("<i8")
        # packed (starts || ends) int64 blob — Arrow's hash join does not
        # carry list-typed payload columns, a single binary cell does fine
        blob = np.concatenate([seg_s, seg_e]).tobytes()
        return pa.table(
            {id_col: t[id_col][:1],
             "_cuts": pa.array([blob], pa.binary())}
        )

    cuts = intervals.groupby(id_col).map_groups(
        merge_lists, batch_format="pyarrow"
    )

    joined = broadcast_hash_join(
        docs.select_columns([id_col, text_col]),
        cuts,
        id_col,
        how="left",
        small_schema=pa.schema(
            [(id_col, pa.int64()), ("_cuts", pa.binary())]
        ),
    )

    def cut(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        texts = t[text_col].to_pylist()
        blobs = t["_cuts"].to_pylist()
        out_t: list[str] = []
        out_n: list[int] = []
        for i, (s, blob) in enumerate(zip(texts, blobs)):
            if not blob:
                out_t.append(s)
                out_n.append(0)
                continue
            iv = np.frombuffer(blob, "<i8")
            starts, ends = iv[: len(iv) // 2], iv[len(iv) // 2:]
            b = np.frombuffer(s.encode(), np.uint8)
            keep = np.ones(len(b), bool)
            for s0, e0 in zip(starts, ends):
                keep[s0:e0] = False
            try:
                out_t.append(b[keep].tobytes().decode())
            except UnicodeDecodeError as e:
                doc = t[id_col][i].as_py()
                raise ValueError(
                    f"cut_intervals: a cut in {id_col}={doc!r} splits a multi-byte "
                    "UTF-8 sequence; cut offsets are byte offsets, so the corpus "
                    f"must be single-byte (ASCII) text ({e})"
                ) from None
            out_n.append(int((~keep).sum()))
        return pa.table(
            {id_col: t[id_col],
             text_col: pa.array(out_t, pa.string()),
             "n_cut_bytes": pa.array(out_n, pa.int64())}
        )

    return joined.map_batches(cut, batch_format="pyarrow")


def cut_contaminated_spans(
    train: "ray.data.Dataset",
    test: "ray.data.Dataset",
    *,
    min_len: int = 64,
    window: int = 48,
    id_col: str = "doc_id",
    text_col: str = "text",
    **kw,
) -> "ray.data.Dataset":
    """Span-level decontamination as a shipped transform: every byte of a
    TRAIN document that appears verbatim (>= ``min_len``) in any TEST
    document is removed; the test corpus is untouched. Returns every train
    row as ``(id_col, text_col, n_cut_bytes)`` — the cut complement of
    :func:`cross_duplicate_spans`'s flagging."""
    spans = cross_duplicate_spans(
        train, test, min_len=min_len, window=window, id_col=id_col,
        text_col=text_col, **kw,
    )

    def a_side(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        s = t["a_start"].to_numpy(zero_copy_only=False)
        ln = t["span_len"].to_numpy(zero_copy_only=False)
        return pa.table(
            {id_col: t["doc_id"],
             "start": pa.array(s.astype(np.int64)),
             "end": pa.array((s + ln).astype(np.int64))}
        )

    intervals = spans.map_batches(a_side, batch_format="pyarrow")
    return cut_intervals(train, intervals, id_col=id_col, text_col=text_col)


def _self_repeat_doc(
    b: np.ndarray, window: int, min_len: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal within-doc repeats of one byte vector: equal gram hashes
    nominate candidate diagonals (a repeat of length >= min_len >= window
    implies equal grams at its period, so coverage is complete); each
    nominated diagonal gets ONE vectorized byte scan (A[:-d] == A[d:]) and
    run-length extraction. Exact — the hashes only choose diagonals, the
    runs come from the bytes."""
    h = _rolling_hashes(b, window)
    if len(h) < 2:
        return (np.empty(0, np.int64),) * 3
    order = np.argsort(h, kind="stable")
    hs = h[order]
    new = np.ones(len(hs), bool)
    new[1:] = hs[1:] != hs[:-1]
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, len(hs)))
    diags: set[int] = set()
    for s0, sz in zip(starts[sizes >= 2], sizes[sizes >= 2]):
        p = np.sort(order[s0:s0 + sz])
        # ALL pairwise distances between equal-gram occurrences — adjacent
        # diffs alone miss higher multiples of a periodic region's period
        # (a d=3q repeat whose grams recur every q). O(m²) per group is the
        # honest cost: m is per-gram occurrence count (tiny for natural
        # text; degenerate periodic docs inflate the PRODUCT itself, not
        # just this step).
        d2 = (p[None, :] - p[:, None])[np.triu_indices(len(p), k=1)]
        diags.update(np.unique(d2).tolist())
    out_a: list[int] = []
    out_b: list[int] = []
    out_l: list[int] = []
    n = len(b)
    for d in sorted(x for x in diags if x > 0):
        m = b[: n - d] == b[d:]
        if not m.any():
            continue
        idx = np.flatnonzero(m)
        brk = np.ones(len(idx), bool)
        brk[1:] = np.diff(idx) != 1
        run_start = idx[brk]
        run_len = np.diff(np.append(np.flatnonzero(brk), len(idx)))
        keep = run_len >= min_len
        for s0, ln in zip(run_start[keep], run_len[keep]):
            out_a.append(int(s0))
            out_b.append(int(s0 + d))
            out_l.append(int(ln))
    return (
        np.array(out_a, np.int64),
        np.array(out_b, np.int64),
        np.array(out_l, np.int64),
    )


def self_repeat_spans(
    docs: "ray.data.Dataset",
    *,
    min_len: int = 64,
    window: int = 48,
    id_col: str = "doc_id",
    text_col: str = "text",
    batch_size: int = 4096,
) -> "ray.data.Dataset":
    """All maximal WITHIN-document repeated substrings >= ``min_len``
    bytes: ``(doc_id, a_start, b_start, span_len)`` with
    ``a_start < b_start`` (the same maximal run per (doc, period) reported
    once). The within-doc half of exact-substring dedup — long internal
    repetition is the strongest boilerplate/degeneration signal
    (`text.repetition_stats` measures gram RATES; this pins the actual
    byte spans).

    Scale shape: ZERO shuffles — repeats of one document are a per-row
    computation, so the whole operator is one ``map_batches`` pass
    (embarrassingly parallel at any corpus size). Per doc: gram hashes
    nominate candidate periods, one vectorized byte scan per period."""
    if window < 4 or min_len < window:
        raise ValueError("need min_len >= window >= 4")

    def f(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        ids = t[id_col].to_numpy(zero_copy_only=False)
        out_d: list[np.ndarray] = []
        out = {"a": [], "b": [], "l": []}  # type: dict[str, list[np.ndarray]]
        for did, s in zip(ids, t[text_col].to_pylist()):
            if not s:
                continue
            a, bb, ln = _self_repeat_doc(
                np.frombuffer(s.encode(), np.uint8), window, min_len
            )
            if len(a):
                out_d.append(np.full(len(a), did, np.int64))
                out["a"].append(a)
                out["b"].append(bb)
                out["l"].append(ln)
        if not out_d:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "a_start": pa.array([], pa.int64()),
                 "b_start": pa.array([], pa.int64()),
                 "span_len": pa.array([], pa.int64())}
            )
        return pa.table(
            {"doc_id": pa.array(np.concatenate(out_d)),
             "a_start": pa.array(np.concatenate(out["a"])),
             "b_start": pa.array(np.concatenate(out["b"])),
             "span_len": pa.array(np.concatenate(out["l"]))}
        )

    return docs.select_columns([id_col, text_col]).map_batches(
        f, batch_format="pyarrow", batch_size=batch_size
    )


def duplicate_span_coverage(
    docs: "ray.data.Dataset",
    *,
    min_len: int = 64,
    window: int = 48,
    id_col: str = "doc_id",
    text_col: str = "text",
    **kw,
) -> "ray.data.Dataset":
    """Per-document duplicated-byte totals: ``(doc_id, dup_bytes,
    n_spans)`` where ``dup_bytes`` is the size of the UNION of this doc's
    duplicate-span intervals (both sides of every pair contribute). The
    per-doc signal exact-substring dedup policies cut on (Lee et al. 2022
    drop one copy of each duplicated span; a doc mostly covered by spans
    is boilerplate)."""
    spans = duplicate_spans(
        docs, min_len=min_len, window=window, id_col=id_col,
        text_col=text_col, **kw,
    )

    def to_intervals(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        ln = t["span_len"].to_numpy(zero_copy_only=False)
        d = np.concatenate(
            [t["doc_a"].to_numpy(zero_copy_only=False),
             t["doc_b"].to_numpy(zero_copy_only=False)]
        )
        s = np.concatenate(
            [t["a_start"].to_numpy(zero_copy_only=False),
             t["b_start"].to_numpy(zero_copy_only=False)]
        )
        return pa.table(
            {"doc_id": pa.array(d.astype(np.int64)),
             "start": pa.array(s.astype(np.int64)),
             "end": pa.array((s + np.concatenate([ln, ln])).astype(np.int64))}
        )

    def merge_doc(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        doc = t["doc_id"].to_numpy(zero_copy_only=False)
        s = t["start"].to_numpy(zero_copy_only=False)
        e = t["end"].to_numpy(zero_copy_only=False)
        order = np.lexsort((s, doc))
        doc, s, e = doc[order], s[order], e[order]
        # classic interval union, vectorized per group via running max
        out_d, out_b, out_n = [], [], []
        uniq, starts = np.unique(doc, return_index=True)
        bounds = np.append(starts, len(doc))
        for gi, d0 in enumerate(uniq):
            gs, ge = s[bounds[gi]:bounds[gi + 1]], e[bounds[gi]:bounds[gi + 1]]
            run_e = np.maximum.accumulate(ge)
            new = np.ones(len(gs), bool)
            new[1:] = gs[1:] > run_e[:-1]
            seg = np.cumsum(new) - 1
            seg_start = gs[new]
            seg_end = np.maximum.reduceat(ge, np.flatnonzero(new))
            out_d.append(d0)
            out_b.append(int((seg_end - seg_start).sum()))
            out_n.append(int(seg.max()) + 1)
        return pa.table(
            {"doc_id": pa.array(out_d, pa.int64()),
             "dup_bytes": pa.array(out_b, pa.int64()),
             "n_spans": pa.array(out_n, pa.int64())}
        )

    iv = spans.map_batches(to_intervals, batch_format="pyarrow")
    return iv.groupby("doc_id").map_groups(merge_doc, batch_format="pyarrow")
