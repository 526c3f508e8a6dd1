"""swati: skill- and willingness-aware volunteer task assignment.

The pipeline: canonicalize skills out of unstructured volunteer and task
documents, score pairwise skill/content similarity and willingness, run a
deterministic capacity-constrained greedy matcher against baselines, and
commit the result to a tamper-evident hash-chained ledger.
"""

__version__ = "0.1.0"

from .assignment import (
    Assignment,
    AssignedPair,
    CapacityMap,
    EpochResult,
    METHODS,
    UtilityForm,
    UtilityMatrix,
    UtilityParams,
    assign,
    assign_random,
    assign_skill_only,
    assign_swati,
    match_market,
    similarity_components,
    utility_matrix_from_components,
)
from .config import EngineConfig, build_config, load_config
from .corpus import (
    Corpus,
    Document,
    SyntheticConfig,
    corpus_stats,
    generate_synthetic,
    generate_synthetic_history,
    load_corpus,
    save_corpus,
    save_history,
)
from .extraction import (
    ExtractionResult,
    Market,
    PreferenceCues,
    Profile,
    RemoteExtractorConfig,
    SkillMention,
    TaskSpec,
    build_market,
    extract_corpus,
    extract_remote,
    extraction_stats,
    validate_extraction,
)
from .ledger import Ledger, LedgerRecord, TaskState, VerifyResult, load_ledger, save_ledger, verify
from .metrics import QualityReport, TimingReport, bench_scaling, quality, utility_cdf
from .ontology import Ontology, SkillEntry, load_builtin_ontology, load_ontology
from .similarity import (
    SparseRows,
    VectorizerModel,
    VectorizerSettings,
    cosine_matrix,
    fit_vectorizer,
    jaccard_matrix,
)
from .willingness import (
    History,
    HistoryColumns,
    WillingnessParams,
    cue_score_matrix,
    histories_from_records,
    load_history,
    raw_willingness,
    smooth,
    tendency_matrix,
    willingness_matrix,
)
