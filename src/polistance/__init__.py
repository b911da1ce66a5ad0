"""Political-orientation mining for election tweet corpora.

Modules:
    corpus      JSONL ingestion, tokenization, entity extraction
    annotation  inter-annotator agreement (Cohen's kappa) and majority resolution
    features    TF-IDF matrices, party lexicons, per-user feature vectors
    metrics     confusion matrices and per-class precision/recall/F
    forest      random forest classifier with deterministic training
    graph       interaction graphs, modularity, Louvain community detection
    analytics   tweet-volume series, activity matrices, hashtag rankings
    synth       synthetic corpus generation for testing and benchmarks
    pipeline    end-to-end experiment runner with reproducible artifacts
    cli         command-line entry point
"""

__version__ = "0.1.0"
