import pytest

from swati.ontology import Ontology, SkillEntry, load_builtin_ontology
from swati.similarity import count_terms, term_vectors

# The shape of every generated test market: narrower skill ranges and denser
# cues than ``SyntheticConfig``'s defaults. Tests pass it explicitly, so their
# data does not move with the library's defaults.
TEST_MARKET_SHAPE = {
    "skills_per_volunteer": (3, 4),
    "skills_per_task": (2, 3),
    "cue_density": 0.7,
}


def vectorize(model, text):
    """``text``'s content vector, built by the engine's batch path as a batch of one."""
    return term_vectors(model, count_terms([text], model.settings))[0]


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
