"""Peak memory of the n x m scoring stages and of ``build_market``, counted by ``tracemalloc``.

``tracemalloc`` traces numpy's array buffers, so the peak of a call is the
most bytes its arrays ever held at once. Each stage fills the array it returns
one row block at a time, so beyond that array it may hold only a few blocks;
the content cosine, which is not blocked, holds its two dense operands.
``build_market`` scans the corpus text one chunk of documents at a time.
``swati match`` lets every n x m array go before its artifact stage.
"""

import json
import random
import tracemalloc

import numpy as np
import pytest

from swati import similarity, willingness
from swati.assignment import UtilityForm, UtilityParams, utility_matrix_from_components
from swati.cli import main
from swati.corpus import SyntheticConfig, generate_synthetic
from swati.extraction import PreferenceCues, Profile, TaskSpec, build_market
from swati.ledger import Ledger
from swati.similarity import cosine_matrix, jaccard_matrix
from swati.willingness import WillingnessParams, histories_from_records, willingness_matrix

from conftest import sparse_rows

# 400 x 400 cells are about ten blocks of the module's block size, so a stage
# that holds whole-matrix temporaries exceeds its bound several times over
N = M = 400
# blocks of temporaries a stage may hold beside the array it returns
BLOCKS = 4


@pytest.fixture(scope="module")
def market():
    rng = random.Random(5)
    names = "ABCDEFGH"
    profiles = [
        Profile(f"v{i}", frozenset(rng.sample(names, rng.randint(0, 3))),
                PreferenceCues(*(rng.random() for _ in range(5))))
        for i in range(N)
    ]
    tasks = [
        TaskSpec(f"t{j}", frozenset(rng.sample(names, rng.randint(0, 3))))
        for j in range(M)
    ]
    rows = [
        {"volunteer_id": f"v{i}", "task_skills": rng.sample(names + "XY", rng.randint(0, 2)),
         "accepted": rng.random() < 0.6}
        for i in range(0, N, 2)
        for _ in range(rng.randint(1, 20))
    ]
    return profiles, tasks, histories_from_records(rows)


def _traced_peak(call):
    """``call()``'s result and the most traced bytes above the call's start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - start


def _block_bytes():
    # a market of a few blocks could not tell a block from a whole matrix
    assert N * M >= 8 * similarity._BLOCK_CELLS
    return similarity._BLOCK_CELLS * 8


def test_jaccard_matrix_holds_its_output_and_a_few_blocks(market):
    profiles, tasks, _ = market
    out, peak = _traced_peak(
        lambda: jaccard_matrix([p.skills for p in profiles], [t.required_skills for t in tasks])
    )
    assert out.shape == (N, M)
    assert peak <= out.nbytes + BLOCKS * _block_bytes()


def test_willingness_matrix_holds_its_output_a_few_blocks_and_one_walk_block(market):
    profiles, tasks, histories = market
    overlap = jaccard_matrix([p.skills for p in profiles], [t.required_skills for t in tasks]) > 0
    out, peak = _traced_peak(
        lambda: willingness_matrix(profiles, tasks, histories, overlap, WillingnessParams())
    )
    assert out.shape == (N, M)
    # one tendency_matrix walk block: its (record, task) pairs, relevance and
    # counts, taken as two float64 arrays of _WALK_BLOCK rows of M cells
    walk_bytes = 2 * willingness._WALK_BLOCK * M * 8
    assert peak <= out.nbytes + BLOCKS * _block_bytes() + walk_bytes


def _unit_rows(rng, n_rows, vocabulary):
    """``n_rows`` rows of up to 40 random columns of ``vocabulary``, some of them empty."""
    rows = []
    for _ in range(n_rows):
        columns = sorted(rng.sample(range(vocabulary), rng.randint(0, 40)))
        weights = np.array([rng.random() + 0.1 for _ in columns])
        rows.append((columns, weights / np.linalg.norm(weights) if columns else weights))
    return sparse_rows(rows)


def test_cosine_matrix_holds_its_output_its_operands_and_a_row_index():
    rng = random.Random(11)
    vocabulary = 3000
    volunteers, tasks = _unit_rows(rng, N, vocabulary), _unit_rows(rng, M, vocabulary)
    size = int(max(volunteers.indices.max(), tasks.indices.max())) + 1
    out, peak = _traced_peak(lambda: cosine_matrix(volunteers, tasks))
    assert out.shape == (N, M)
    operands = (N + M) * size * 8
    # one int64 row index per stored entry, for the scatter into an operand
    row_index = (len(volunteers.indices) + len(tasks.indices)) * 8
    assert peak <= out.nbytes + operands + row_index


@pytest.mark.parametrize("form", list(UtilityForm))
def test_utility_matrix_holds_its_output_and_a_few_blocks(form):
    rng = np.random.default_rng(2)
    skill, content, willingness_ = (rng.uniform(size=(N, M)) for _ in range(3))
    ids = ([f"v{i}" for i in range(N)], [f"t{j}" for j in range(M)])
    matrix, peak = _traced_peak(
        lambda: utility_matrix_from_components(
            *ids, skill, content, willingness_, UtilityParams(form=form)
        )
    )
    assert peak <= matrix.utilities.nbytes + BLOCKS * _block_bytes()


# build_market's traced peak on the seed-1 400 x 400 corpus before the text
# stages were chunked, and the margin above it: whole-corpus token lists of
# the alias scan add about 2.5 MB of str
MARKET_PEAK_BYTES = 2_790_000
MARKET_MARGIN_BYTES = 1_000_000


def test_build_market_scans_text_in_bounded_chunks(builtin_ontology):
    corpus = generate_synthetic(
        SyntheticConfig(seed=1, n_volunteers=N, n_tasks=M), builtin_ontology
    )
    build_market(corpus, builtin_ontology)  # load what the first call loads
    market, peak = _traced_peak(lambda: build_market(corpus, builtin_ontology))
    assert len(market.profiles) == N
    assert peak <= MARKET_PEAK_BYTES + MARKET_MARGIN_BYTES


def test_match_frees_every_n_by_m_array_before_the_ledger(tmp_path, monkeypatch):
    gen = tmp_path / "gen"
    argv = ["gen", "--out", str(gen), "--seed", "1", "--n-volunteers", str(N),
            "--n-tasks", str(M)]
    assert main(argv) == 0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"history_path": str(gen / "history.jsonl")}))
    # array buffers of at least N * M bytes, an n x m array of the narrowest
    # dtype, alive at the ledger's first post_task
    live = []
    post_task = Ledger.post_task

    def first_post(self, *args, **kwargs):
        if not live:
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
            )
            live.append([trace.size for trace in snapshot.traces if trace.size >= N * M])
        return post_task(self, *args, **kwargs)

    monkeypatch.setattr(Ledger, "post_task", first_post)
    argv = ["match", "--config", str(config_path), "--corpus", str(gen / "corpus.jsonl"),
            "--out", str(tmp_path / "match")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
    finally:
        tracemalloc.stop()
    assert live == [[]]
