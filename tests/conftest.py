import numpy as np
import pytest
from hypothesis import strategies as st

from swati.ontology import Ontology, SkillEntry, load_builtin_ontology
from swati.similarity import SparseRows, count_terms, term_vectors

# The shape of every generated test market: narrower skill ranges and denser
# cues than ``SyntheticConfig``'s defaults. Tests pass it explicitly, so their
# data does not move with the library's defaults.
TEST_MARKET_SHAPE = {
    "skills_per_volunteer": (3, 4),
    "skills_per_task": (2, 3),
    "cue_density": 0.7,
}

# Any JSON value: null, booleans, numbers (NaN and the infinities included),
# short strings, and small lists and objects of them.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def vectorize(model, text):
    """``text``'s content vector, built by the engine's batch path as a batch of one row."""
    return term_vectors(model, count_terms([text], model.settings))


def sparse_rows(rows):
    """One ``SparseRows`` of ``(indices, weights)`` pairs, a pair per row."""
    rows = list(rows)
    return SparseRows(
        np.array([i for indices, _ in rows for i in indices], dtype=np.int64),
        np.array([w for _, weights in rows for w in weights], dtype=np.float64),
        np.cumsum([0, *(len(indices) for indices, _ in rows)]),
    )


def row_list(rows):
    """Each row of a ``SparseRows`` as a ``SparseRows`` of its own."""
    return [rows.rows(r, r + 1) for r in range(len(rows))]


@pytest.fixture(scope="session")
def builtin_ontology():
    return load_builtin_ontology()


@pytest.fixture(scope="session")
def mini_ontology():
    return Ontology(
        [
            SkillEntry("Machine Learning", ("ml", "machine-learning")),
            SkillEntry("Computer Vision", ("CV", "computer-vision"), parent="Machine Learning"),
            SkillEntry("Object Detection", ("object recognition",), parent="Computer Vision"),
            SkillEntry("YOLO", ("yolov8", "yolo v8"), parent="Object Detection"),
            SkillEntry("Databases", ()),
            SkillEntry("SQL", ("structured query language",), parent="Databases"),
            SkillEntry("Java", ()),
            SkillEntry("Data Structures", ()),
        ]
    )
