"""Ensemble topic labeling and relevancy scoring for free-text corpora."""

from .agreement import (
    AgreementResult,
    OutlierReport,
    RatingMatrix,
    bin_scores,
    bootstrap_ci,
    build_rating_matrix,
    detect_outliers,
    fleiss_kappa,
    gwet_ac1,
    percent_agreement,
)
from .annotator import (
    Decoding,
    ModelBackend,
    RawResponse,
    ResponseCache,
    TopicAnnotation,
    annotate_corpus,
    build_prompt,
    parse_response,
    query_backend,
)
from .corpus import (
    CorpusView,
    TextItem,
    Topic,
    TopicSet,
    load_corpus,
    load_corpus_view,
    load_topics,
)
from .ensemble import (
    EnsembleDecision,
    ScoreEnsemble,
    ScoreMatrix,
    ensemble_topic,
    intersection_label,
    optimal_threshold,
    pca_first_component,
    union_label,
)
from .evaluation import (
    ConfusionMetrics,
    GroupSummary,
    auprc,
    compare_raters,
    confusion,
    group_summary,
)
from .relevancy import (
    Embedder,
    EmbeddingBackend,
    RelevancyRecord,
    aggregate_subtopics,
    cosine_similarity,
    relevancy_score,
    score_annotations,
    truncate_words,
)

__version__ = "0.1.0"
