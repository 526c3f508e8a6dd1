import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swati import similarity
from swati.corpus import Corpus, Document, SyntheticConfig, generate_synthetic
from swati.errors import EmptyCorpusError
from swati.extraction import build_market
from swati.similarity import (
    SparseRows,
    VectorizerModel,
    VectorizerSettings,
    cosine_matrix,
    count_terms,
    fit_vectorizer,
    jaccard_matrix,
    skill_postings,
    term_vectors,
    tokenize,
)

import python_reference as ref
from conftest import TEST_MARKET_SHAPE, row_list, sparse_rows, vectorize

# Hand-evaluated from idf(t) = ln((1 + n_docs) / (1 + df)) + 1 on the
# three-document micro-corpus below (independent of the implementation).
IDF_APPLE = 1.0
IDF_BANANA = 1.2876820724517808
IDF_RARE = 1.6931471805599454


def _micro_corpus():
    return Corpus(
        volunteers=(
            Document(id="v1", kind="volunteer", text="apple banana"),
            Document(id="v2", kind="volunteer", text="apple cherry"),
        ),
        tasks=(Document(id="t1", kind="task", text="apple banana damson"),),
    )


def _fit(corpus):
    return fit_vectorizer(count_terms(doc.text for doc in corpus.documents()))


def test_tokenize_rules():
    assert tokenize("Hello, ML-world! a of pipelines") == ["hello", "ml", "world", "pipelines"]
    assert tokenize("x y z") == []  # single-char tokens dropped
    settings = VectorizerSettings(use_stopwords=False)
    assert "of" in tokenize("of the pipelines", settings)


def test_idf_term_in_every_doc_is_one():
    model = _fit(_micro_corpus())
    assert model.idf[model.vocabulary["apple"]] == pytest.approx(IDF_APPLE, abs=1e-9)


def test_idf_term_in_one_of_three_docs():
    model = _fit(_micro_corpus())
    assert model.idf[model.vocabulary["cherry"]] == pytest.approx(IDF_RARE, abs=1e-9)
    assert model.idf[model.vocabulary["banana"]] == pytest.approx(IDF_BANANA, abs=1e-9)


def test_micro_corpus_tfidf_weights_hand_computed():
    model = _fit(_micro_corpus())
    vec = vectorize(model, "apple banana damson")
    dense = {i: w for i, w in zip(vec.indices.tolist(), vec.weights.tolist())}
    norm = math.sqrt(IDF_APPLE**2 + IDF_BANANA**2 + IDF_RARE**2)
    assert dense[model.vocabulary["apple"]] == pytest.approx(IDF_APPLE / norm, abs=1e-9)
    assert dense[model.vocabulary["banana"]] == pytest.approx(IDF_BANANA / norm, abs=1e-9)
    assert dense[model.vocabulary["damson"]] == pytest.approx(IDF_RARE / norm, abs=1e-9)


def test_fit_empty_corpus_rejected():
    with pytest.raises(EmptyCorpusError):
        _fit(Corpus(volunteers=(), tasks=()))


def test_vectorize_single_term_unit_weight():
    model = _fit(_micro_corpus())
    vec = vectorize(model, "apple")
    assert vec.weights.tolist() == [1.0]


def test_vectorize_all_oov_is_empty():
    model = _fit(_micro_corpus())
    vec = vectorize(model, "zebra quagga")
    assert vec.offsets.tolist() == [0, 0]


def test_vectorize_hand_example_tf_weighting():
    model = VectorizerModel(
        vocabulary={"ml": 0, "vision": 1},
        idf=np.array([1.0, 2.0]),
        settings=VectorizerSettings(use_stopwords=False),
    )
    vec = vectorize(model, "ml ml vision")
    # tf*idf = (2, 2) -> normalized to 1/sqrt(2) each
    assert vec.weights.tolist() == pytest.approx(
        [0.7071067811865475, 0.7071067811865475], abs=1e-9
    )


def skill_sim(a, b):
    return jaccard_matrix([frozenset(a)], [frozenset(b)])[0, 0]


def _row(indices, weights):
    return SparseRows(np.array(indices, dtype=np.int64), np.array(weights), [0, len(indices)])


def content_sim(a, b):
    return cosine_matrix(a, b)[0, 0]


@pytest.mark.parametrize(
    "volunteers, tasks, expected",
    [
        (
            ["AB", "", "ABCZ"],
            ["A", "BC", ""],
            [[1 / 2, 1 / 3, 0.0], [0.0, 0.0, 0.0], [1 / 4, 2 / 4, 0.0]],
        ),
        # an empty side: a (1, 0) result is a row block of no cells
        (["A"], [], np.empty((1, 0))),
        ([], ["A"], np.empty((0, 1))),
        ([], [], np.empty((0, 0))),
        # no task names a skill, so every skill is looked up in the empty postings row
        (["AB", ""], ["", ""], [[0.0, 0.0], [0.0, 0.0]]),
    ],
)
def test_jaccard_matrix_is_pairwise(volunteers, tasks, expected):
    matrix = jaccard_matrix(list(map(frozenset, volunteers)), list(map(frozenset, tasks)))
    assert matrix.shape == np.shape(expected)
    assert matrix.tolist() == np.asarray(expected).tolist()


@given(st.lists(st.frozensets(st.sampled_from("abcde"), max_size=4), max_size=6))
def test_skill_postings_list_each_skills_tasks_in_order(task_skills):
    ids, ptr, cols = skill_postings(task_skills)
    assert set(ids) == set().union(*task_skills)
    for name in "abcdef":  # f is required by no task
        k = ids.get(name, len(ids))
        assert cols[ptr[k] : ptr[k + 1]].tolist() == [
            j for j, skills in enumerate(task_skills) if name in skills
        ]


def test_skill_sim_examples():
    assert skill_sim({"A", "B"}, {"A", "B"}) == 1.0
    assert skill_sim({"A", "B"}, {"C"}) == 0.0
    assert skill_sim({"A", "B", "C"}, {"B", "C", "D"}) == pytest.approx(0.5, abs=1e-9)


def test_skill_sim_both_empty_is_zero():
    assert skill_sim(set(), set()) == 0.0


def test_content_sim_self_similarity():
    model = _fit(_micro_corpus())
    vec = vectorize(model, "apple banana")
    assert content_sim(vec, vec) == pytest.approx(1.0, abs=1e-9)


def test_content_sim_disjoint_supports():
    a = _row([0], [1.0])
    b = _row([1], [1.0])
    assert content_sim(a, b) == 0.0


def test_content_sim_hand_example():
    a = _row([0, 1], [0.6, 0.8])
    b = _row([0], [1.0])
    assert content_sim(a, b) == pytest.approx(0.6, abs=1e-9)


def test_content_sim_empty_is_zero():
    a = _row([], [])
    b = _row([0], [1.0])
    assert content_sim(a, b) == 0.0
    assert content_sim(b, a) == 0.0


_SKILLS = st.sets(st.sampled_from("ABCDEFGH"), max_size=6)


@given(_SKILLS, _SKILLS)
def test_skill_sim_symmetric(a, b):
    assert skill_sim(a, b) == skill_sim(b, a)


@given(_SKILLS, _SKILLS)
def test_skill_sim_bounded(a, b):
    assert 0.0 <= skill_sim(a, b) <= 1.0


@given(_SKILLS, _SKILLS)
def test_adding_shared_skill_never_decreases(a, b):
    before = skill_sim(a, b)
    assert skill_sim(a | {"Z"}, b | {"Z"}) >= before - 1e-12


@given(
    st.lists(st.floats(0.1, 5.0), min_size=1, max_size=5),
    st.lists(st.floats(0.1, 5.0), min_size=1, max_size=5),
)
def test_content_sim_symmetric(wa, wb):
    a_raw = np.array(wa)
    b_raw = np.array(wb)
    a = _row(np.arange(len(wa)), a_raw / np.linalg.norm(a_raw))
    b = _row(np.arange(len(wb)), b_raw / np.linalg.norm(b_raw))
    assert content_sim(a, b) == content_sim(b, a)


def test_vectorize_norm_invariant_over_corpus(builtin_ontology):
    corpus = generate_synthetic(
        SyntheticConfig(seed=2, n_volunteers=15, n_tasks=10, **TEST_MARKET_SHAPE),
        builtin_ontology,
    )
    model = _fit(corpus)
    for doc in corpus.documents():
        vec = vectorize(model, doc.text)
        if vec.indices.size:
            assert abs(np.linalg.norm(vec.weights) - 1.0) <= 1e-9


def _vectorize_per_document(model, text):
    """The vectorizer's formula on one text: raw counts times idf, L2-normalized."""
    counts = {}
    for term in tokenize(text, model.settings):
        if term in model.vocabulary:
            counts[model.vocabulary[term]] = counts.get(model.vocabulary[term], 0) + 1
    if not counts:
        return _row([], [])
    indices = np.array(sorted(counts), dtype=np.int64)
    weights = np.array([counts[i] for i in indices], dtype=np.float64) * model.idf[indices]
    return _row(indices, weights / np.linalg.norm(weights))


def test_build_market_tokenizes_each_document_once(builtin_ontology, monkeypatch):
    corpus = generate_synthetic(
        SyntheticConfig(seed=3, n_volunteers=12, n_tasks=9, **TEST_MARKET_SHAPE),
        builtin_ontology,
    )
    seen = []

    def counting_tokenize(text, settings=VectorizerSettings()):
        seen.append(text)
        return tokenize(text, settings)

    monkeypatch.setattr(similarity, "tokenize", counting_tokenize)
    market = build_market(corpus, builtin_ontology)
    monkeypatch.undo()
    assert sorted(seen) == sorted(doc.text for doc in corpus.documents())
    model = _fit(corpus)
    built = [*row_list(market.volunteer_vectors), *row_list(market.task_vectors)]
    for doc, vector in zip(corpus.documents(), built, strict=True):
        expected = _vectorize_per_document(model, doc.text)
        assert np.array_equal(vector.indices, expected.indices)
        assert vector.weights.tobytes() == expected.weights.tobytes()


def test_vectorize_drops_unknown_terms_and_keeps_counts():
    model = _fit(_micro_corpus())
    for text in ["zebra apple zebra banana apple", "quagga", "", "damson damson cherry"]:
        got, expected = vectorize(model, text), _vectorize_per_document(model, text)
        assert np.array_equal(got.indices, expected.indices)
        assert got.weights.tobytes() == expected.weights.tobytes()


_INVALID_VECTORS = [
    ([2, 1], [0.6, 0.8]),  # not increasing
    ([0, 1], [0.5, 0.5]),  # not unit norm
    ([0], [np.inf]),
    ([0, 1], [1.0]),  # not aligned
    ([-1], [1.0]),  # would read the last column of a dense row
    ([0.7, 1.2], [0.6, 0.8]),  # would be truncated to [0, 1]
]


def test_sparse_rows_invariants_enforced():
    for indices, weights in _INVALID_VECTORS:
        with pytest.raises(ValueError):
            SparseRows(np.array(indices), np.array(weights), [0, len(weights)])
        # the same checks hold for a row between two valid ones
        n = len(indices)
        with pytest.raises(ValueError):
            SparseRows(
                np.array([0, *indices, 0]), np.array([1.0, *weights, 1.0]), [0, 1, 1 + n, 2 + n]
            )


@pytest.mark.parametrize(
    "indices, weights, offsets",
    [
        ([0, 1, 2], [1.0, 0.6, 0.8], [0, 1, 2]),  # ends before the last entry
        ([0, 1], [0.6, 0.8], [0, 2, 1]),  # falls, and ends before the last entry
        ([0, 0], [1.0, 1.0], [0, 2, 1, 2]),  # falls: row 0 would repeat index 0
        ([0, 1], [0.6, 1.0], [1, 2]),  # starts after entry 0
        ([0, 1, 2], [1.0, 0.6, 0.8], [0.0, 1.0, 3.0]),  # not integers
        ([0, 1, 2], [1.0, 0.6, 0.8], [[0, 1, 3]]),  # not 1-D
        ([], [], []),  # no start
    ],
    ids=["short", "falling-short", "falling", "late-start", "float", "2-d", "empty"],
)
def test_sparse_rows_rejects_bad_offsets(indices, weights, offsets):
    with pytest.raises(ValueError, match="offsets"):
        SparseRows(np.array(indices, dtype=np.int64), np.array(weights), np.array(offsets))


def test_negative_index_is_rejected_before_the_cosine():
    # index -1 once scored two disjoint vectors as identical
    with pytest.raises(ValueError, match="non-negative"):
        cosine_matrix(_row([-1], [1.0]), _row([3], [1.0]))


def test_rows_allow_indices_to_fall_between_rows():
    rows = SparseRows(np.array([3, 0, 1]), np.array([1.0, 0.6, 0.8]), [0, 1, 1, 3])
    assert [r.indices.tolist() for r in row_list(rows)] == [[3], [], [0, 1]]
    assert [r.weights.tolist() for r in row_list(rows)] == [[1.0], [], [0.6, 0.8]]


@pytest.mark.parametrize("start, stop", [(0, 3), (1, 3), (0, 1), (2, 2), (3, 3)])
def test_rows_are_views_of_a_slice(start, stop):
    rows = SparseRows(np.array([3, 0, 1]), np.array([1.0, 0.6, 0.8]), [0, 1, 1, 3])
    part = rows.rows(start, stop)
    assert len(part) == stop - start
    assert part.offsets[0] == 0
    lo, hi = rows.offsets[start], rows.offsets[stop]
    assert part.offsets.tolist() == (rows.offsets[start : stop + 1] - lo).tolist()
    assert part.indices.tolist() == rows.indices[lo:hi].tolist()
    assert part.weights.tolist() == rows.weights[lo:hi].tolist()
    if hi > lo:
        assert np.shares_memory(part.indices, rows.indices)
        assert np.shares_memory(part.weights, rows.weights)


_UNIT_ROWS = st.lists(
    st.one_of(
        st.just(([], [])),
        st.lists(st.integers(0, 5000), min_size=1, max_size=6, unique=True).flatmap(
            lambda cols: st.lists(
                st.floats(0.01, 10.0), min_size=len(cols), max_size=len(cols)
            ).map(
                lambda w: (sorted(cols), (np.array(w) / np.linalg.norm(w)).tolist())
            )
        ),
    ),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(_UNIT_ROWS, _UNIT_ROWS)
@example([([], [])], [([], []), ([], [])])  # size 0: no row has an entry
@example([([0], [1.0])], [([4999], [1.0])])  # single rows, one at a large column
@example([([0, 1], [0.6, 0.8]), ([], [])], [])  # a side with no rows
def test_cosine_matrix_equals_the_row_by_row_operand_build(volunteers, tasks):
    volunteers, tasks = sparse_rows(volunteers), sparse_rows(tasks)
    got = cosine_matrix(volunteers, tasks)
    expected = ref.cosine_matrix(volunteers, tasks)
    assert got.shape == expected.shape == (len(volunteers), len(tasks))
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_vectorizer_model_rejects_bad_idf(bad):
    with pytest.raises(ValueError):
        VectorizerModel(vocabulary={"a": 0, "b": 1}, idf=np.array([1.0, bad]))


# --- the batch counts and vectors against the per-document reference ---------

_WORDS = st.sampled_from(
    ["apple", "Banana", "cherry", "apple", "the", "and", "of", "x", "a", "42",
     "café", "naïve", "ÜBER", "日本語", "mañana", "zebra", "quagga"]
)
_TEXTS = st.lists(
    st.lists(st.tuples(_WORDS, st.sampled_from([" ", ", ", "-", "\n", "\u00a0"])), max_size=12)
    .map(lambda parts: "".join(w + sep for w, sep in parts))
    | st.sampled_from(["", "the and of it", "x y z", "zebra quagga zebra", "apple apple apple"]),
    max_size=8,
)


def _same_vectors(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(row_list(got), expected):
        assert a.indices.tobytes() == b.indices.tobytes()
        assert a.weights.tobytes() == b.weights.tobytes()


@settings(max_examples=200, deadline=None)
@given(_TEXTS, _TEXTS, st.booleans())
def test_batch_counts_and_vectors_equal_per_document(fit_texts, other_texts, stopwords):
    vectorizer_settings = VectorizerSettings(use_stopwords=stopwords)
    got = count_terms(fit_texts, vectorizer_settings)
    expected = ref.count_terms(fit_texts, vectorizer_settings)
    assert got.terms == expected.terms
    assert np.array_equal(got.offsets, expected.offsets)
    n_terms = len(got.terms)
    assert np.array_equal(
        np.bincount(got.ids, minlength=n_terms), np.bincount(expected.ids, minlength=n_terms)
    )
    bounds = got.offsets.tolist()
    for start, stop in zip(bounds, bounds[1:]):
        pairs = [
            sorted(zip(c.ids[start:stop].tolist(), c.counts[start:stop].tolist()))
            for c in (got, expected)
        ]
        assert pairs[0] == pairs[1]
    if not fit_texts:
        return
    model = fit_vectorizer(got, vectorizer_settings)
    expected_model = fit_vectorizer(expected, vectorizer_settings)
    assert model.vocabulary == expected_model.vocabulary
    assert model.idf.tobytes() == expected_model.idf.tobytes()
    _same_vectors(term_vectors(model, got), ref.term_vectors(model, expected))
    # texts the model was not fitted on: out-of-vocabulary terms are dropped
    other = count_terms(other_texts, vectorizer_settings)
    expected_other = ref.count_terms(other_texts, vectorizer_settings)
    _same_vectors(term_vectors(model, other), ref.term_vectors(model, expected_other))


def test_corrupted_idf_still_fails_the_finite_check():
    terms = count_terms(["apple banana", "banana cherry"])
    model = fit_vectorizer(terms)
    model.idf[model.vocabulary["banana"]] = np.inf
    with pytest.raises(ValueError, match="weights must be finite"), np.errstate(invalid="ignore"):
        term_vectors(model, terms)
