"""odibel_ray — a from-scratch Ray-Data-native CDC / incremental-ingest engine.

Re-expresses the query and data-processing capabilities of the ScaDS/ODIBEL
reference (temporal change replay + relational operator library, see
/root/repo/SURVEY.md) as idiomatic Ray Data pipelines:

- ``odibel_ray.datagen``    — deterministic synthetic transcript change logs
- ``odibel_ray.oracle``     — single-threaded dict-based oracle replay (golden)
- ``odibel_ray.cdc``        — the replay core and the lakehouse layer: schema
                              evolution + DDL, LWW apply, write-audit-publish /
                              merge-on-read sinks, snapshots & time travel,
                              change feeds, derived/materialized/join views +
                              DAG orchestration, DML & MERGE, expectations,
                              clustering/zone-maps/blooms, analyze/maintain,
                              checkpoint/resume, tailing
- ``odibel_ray.sources``    — JSON/CSV/N-Triples/Gradoop/raw-dump/stdin-stream
                              readers with codec autodetect; Debezium envelopes
- ``odibel_ray.ops``        — relational (joins incl. bucketed/broadcast-guarded
                              /bloom-filtered, dedup, sampling, top-k), temporal
                              (as-of/range join, sessionize, windows, LAG/cumsum),
                              aggregates, sketches, cron
- ``odibel_ray.dedup``      — exact / MinHash-LSH / SimHash / chunk-level dedup,
                              decontamination, n-gram dup profiling, end-to-end
                              verified corpus dedup (``corpus_dedup_survivors``)
- ``odibel_ray.spans``      — exact duplicate-substring spans (winnowing
                              anchors + byte-exact extension): cross-doc,
                              within-doc, cross-corpus decontamination, span
                              cutting transforms
- ``odibel_ray.classifier`` — trainable fastText-style hashed-n-gram linear
                              classifier (broadcast-weight GD, scoring pass)
- ``odibel_ray.sim``        — ANN (brute/IVF), k-means, SemDeDup, cosine pairs
- ``odibel_ray.text``       — lang-ID, quality, tokens, templates, chunking,
                              redaction, normalization, fingerprints
- ``odibel_ray.lm``/``bpe``/``selection``/``retrieval`` — perplexity filtering,
                              corpus-trained BPE, DSIR weighting, BM25 scoring
- ``odibel_ray.rdf``        — triple parse/serialize, typing joins, subgraphs
- ``odibel_ray.benchmark``  — Benchmark/BenchmarkBuilder, ER/fusion evaluators
- ``odibel_ray.state``      — distributed connected components, cluster manager
- ``odibel_ray.graph``      — PageRank, exact triangle counting
- ``odibel_ray.multimodal`` — image/audio/video decode + feature plumbing
- ``odibel_ray.pipelines``  — the query registry (queries()/oracle_sql()),
                              corpus curation, training feed
- ``odibel_ray.monitor``/``tuning``/``enrich``/``evaluate``/``entity``/``cli``
                            — heartbeat metrics, cluster-aware defaults, remote
                              enrichment, profile evaluators, entity model, CLI

No module in this package calls ``ray.init``/``ray.shutdown``; sessions are
owned by the CLI, the benchmark (``perfbench/``) and the test fixture.
"""

__version__ = "0.1.0"
