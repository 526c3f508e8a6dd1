"""Command-line driver: gen, extract, match, bench, verify.

Every command writes a ``manifest.json`` (config digest, input digests, seeds,
package version, resolved arguments). Its input digests cover the corpus and
the ontology a command reads, not the files that ``history_path`` and
``capacities.path`` name, so a manifest does not pin every input of ``match``.
Commands never mutate their inputs, randomness only flows through explicit
seeds, and failures exit nonzero with a machine-readable JSON error on stderr.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import json
import os
import string
import sys
from dataclasses import asdict, replace
from typing import Optional, Sequence

from . import __version__
from .assignment import METHODS, match_market
from .config import EngineConfig, input_digest, load_config
from .corpus import (
    corpus_stats,
    generate_synthetic,
    generate_synthetic_history,
    load_corpus,
    save_corpus,
    save_history,
)
from .errors import ConfigError, EngineError, write_jsonl
from .extraction import build_market, extract_corpus, extract_remote, extraction_stats
from .ledger import Ledger, export_ledger_text, load_ledger, save_ledger, verify
from .metrics import (
    bench_scaling,
    quality,
    write_cdf_csv,
    write_quality_csv,
    write_timing_csv,
)
from .willingness import load_history


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_manifest(out_dir: str, command: str, cfg: EngineConfig, **extra) -> None:
    _write_json(
        os.path.join(out_dir, "manifest.json"),
        {"command": command, "config_digest": cfg.digest(), "version": __version__, **extra},
    )


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _extractor(cfg: EngineConfig):
    """The configured extractor, ``extractor(docs, ontology)``, or None for the rule-based scan."""
    if cfg.extractor_kind == "remote":
        return lambda docs, ontology: [extract_remote(doc, cfg.remote, ontology) for doc in docs]
    return None


def cmd_gen(args) -> int:
    cfg = load_config(args.config)
    ontology = cfg.load_ontology()
    overrides = {
        key: getattr(args, key)
        for key in ("seed", "n_volunteers", "n_tasks")
        if getattr(args, key) is not None
    }
    syn_cfg = replace(cfg.synthetic, **overrides)  # SyntheticConfig checks the overrides too
    corpus = generate_synthetic(syn_cfg, ontology)
    out = _ensure_out(args.out)
    corpus_path = os.path.join(out, "corpus.jsonl")
    save_corpus(corpus, corpus_path)
    save_history(
        generate_synthetic_history(syn_cfg, corpus, ontology),
        os.path.join(out, "history.jsonl"),
    )
    stats = corpus_stats(corpus)
    _write_manifest(
        out,
        "gen",
        cfg,
        input_digests={"ontology": input_digest(cfg.ontology_path)},
        seeds={"synthetic": syn_cfg.seed},
        outputs={"corpus": "corpus.jsonl", "history": "history.jsonl"},
        stats=asdict(stats),
    )
    print(f"wrote {stats.n_volunteers} volunteers, {stats.n_tasks} tasks to {corpus_path}")
    return 0


def cmd_extract(args) -> int:
    cfg = load_config(args.config)
    ontology = cfg.load_ontology()
    corpus = load_corpus(args.corpus, strict=args.strict)
    docs = corpus.documents()
    results = (_extractor(cfg) or extract_corpus)(docs, ontology)
    out = _ensure_out(args.out)  # after extraction, so that a failed one leaves no directory
    records = [
        dict(asdict(result), kind=doc.kind, skills=sorted(result.skills))
        for doc, result in zip(docs, results)
    ]
    write_jsonl(os.path.join(out, "extraction.jsonl"), records)
    stats = extraction_stats(results)
    _write_json(os.path.join(out, "extraction_stats.json"), asdict(stats))
    _write_manifest(
        out,
        "extract",
        cfg,
        input_digests={
            "corpus": input_digest(args.corpus),
            "ontology": input_digest(cfg.ontology_path),
        },
        seeds={},
        outputs={"extraction": "extraction.jsonl", "stats": "extraction_stats.json"},
    )
    print(
        f"extracted {stats.total_skills} skills "
        f"({stats.unique_vocabulary} unique, {stats.avg_per_doc} avg/doc)"
    )
    return 0


def _score_match(args, cfg: EngineConfig, seed: Optional[int]):
    """Score the corpus's market: the ``assignment.jsonl`` rows, the assignment
    and the task ids in corpus order.

    The corpus, market, histories and epoch result, with its n x m arrays, die
    with this frame, so the artifact stage never holds them.
    """
    ontology = cfg.load_ontology()
    corpus = load_corpus(args.corpus, strict=args.strict)
    market = build_market(corpus, ontology, cfg.vectorizer, _extractor(cfg))
    histories = load_history(cfg.history_path) if cfg.history_path else None
    result = match_market(
        market, histories, cfg.capacities, cfg.utility, cfg.willingness,
        methods=(args.method,), epochs=args.epochs, seed=seed,
    )
    matrix = result.matrix
    assignment = result.assignments[args.method]
    rows = []
    for pair in assignment.pairs:
        i, j = matrix.position(pair.volunteer_id, pair.task_id)
        components = {
            name: float(getattr(matrix, name)[i, j])
            for name in ("skill", "content", "willingness")
        }
        rows.append({**vars(pair), "components": components})
    return rows, assignment, [task.id for task in corpus.tasks]


def cmd_match(args) -> int:
    # the assignment's epoch label, epochs - 1, goes into the ledger's u64 field
    if not 1 <= args.epochs <= 1 << 64:
        raise ConfigError(f"--epochs must lie in [1, 2^64], got {args.epochs}")
    cfg = load_config(args.config)
    seed = args.seed
    if seed is None and args.method == "random":
        seed = cfg.random_method_seed
    rows, assignment, task_ids = _score_match(args, cfg, seed)

    out = _ensure_out(args.out)
    write_jsonl(os.path.join(out, "assignment.jsonl"), rows)

    report = quality(assignment, len(task_ids), method=args.method)
    write_quality_csv(os.path.join(out, "quality.csv"), [report])

    ledger = Ledger()
    for task_id in task_ids:
        ledger.post_task(task_id, epoch=assignment.epoch)
    ledger.commit_assignment(assignment)
    save_ledger(ledger, os.path.join(out, "ledger.bin"))
    export_ledger_text(ledger, os.path.join(out, "ledger.txt"))

    _write_manifest(
        out,
        "match",
        cfg,
        input_digests={
            "corpus": input_digest(args.corpus),
            "ontology": input_digest(cfg.ontology_path),
        },
        seeds={"method": seed},
        method=args.method,
        epochs=args.epochs,
        outputs={
            "assignment": "assignment.jsonl",
            "quality": "quality.csv",
            "ledger": "ledger.bin",
        },
        ledger_head=ledger.head().hex(),
    )
    print(
        f"{args.method}: total={report.total_utility:.4f} "
        f"avg={report.avg_utility:.4f} coverage={report.coverage:.4f} "
        f"pairs={report.pair_count}"
    )
    return 0


def cmd_bench(args) -> int:
    cfg = load_config(args.config)
    if args.seed is None:
        raise ConfigError("bench needs a seed (--seed)")
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise ConfigError(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if not sizes:
        raise ConfigError("--sizes must name at least one market size")
    ontology = cfg.load_ontology()
    result = bench_scaling(
        sizes,
        METHODS,
        seed=args.seed,
        repetitions=args.repetitions,
        ontology=ontology,
        utility_params=cfg.utility,
        willingness_params=cfg.willingness,
    )
    out = _ensure_out(args.out)
    write_timing_csv(os.path.join(out, "timing.csv"), result.timings)
    with open(os.path.join(out, "quality.csv"), "w", encoding="utf-8") as fh:
        fh.write("size,method,total_utility,avg_utility,coverage,pairs\n")
        for size, report in result.quality:
            fh.write(
                f"{size},{report.method},{report.total_utility:.6f},"
                f"{report.avg_utility:.6f},{report.coverage:.6f},{report.pair_count}\n"
            )
    for size, per_method in result.cdf.items():
        write_cdf_csv(os.path.join(out, f"cdf_{size}.csv"), per_method)
    _write_manifest(
        out,
        "bench",
        cfg,
        input_digests={"ontology": input_digest(cfg.ontology_path)},
        seeds={"bench": args.seed},
        sizes=sizes,
        repetitions=args.repetitions,
        outputs={"timing": "timing.csv", "quality": "quality.csv"},
    )
    for report in result.timings:
        lo, med, hi = report.dispersion()
        print(
            f"size={report.market_size} method={report.method} "
            f"median={med:.4f}s (min={lo:.4f}s max={hi:.4f}s)"
        )
    return 0


def cmd_verify(args) -> int:
    head = args.expect_head  # "" is a head too, not "none given"
    if head is not None and (len(head) != 64 or not set(head) <= set(string.hexdigits)):
        raise ConfigError(f"--expect-head must be 64 hex digits, got {head!r}")
    ledger = load_ledger(args.ledger)
    result = verify(ledger, expected_head=None if head is None else bytes.fromhex(head))
    print(
        json.dumps(
            {
                "ok": result.ok,
                "first_bad_index": result.first_bad_index,
                "reason": result.reason,
                "records": len(ledger.records),
                "head": ledger.head().hex(),
            },
            sort_keys=True,
        )
    )
    return 0 if result.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swati",
        description="Skill- and willingness-aware volunteer task assignment engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, corpus=False):
        p.add_argument("--config", help="engine config JSON (defaults built in)")
        p.add_argument("--out", required=True, help="output directory")
        if corpus:
            p.add_argument("--corpus", required=True, help="corpus JSONL path")
            p.add_argument(
                "--strict", action="store_true", help="reject unknown corpus fields"
            )

    p_gen = sub.add_parser("gen", help="generate a synthetic corpus")
    common(p_gen)
    p_gen.add_argument("--seed", type=int, help="generation seed")
    p_gen.add_argument("--n-volunteers", type=int, dest="n_volunteers")
    p_gen.add_argument("--n-tasks", type=int, dest="n_tasks")
    p_gen.set_defaults(func=cmd_gen)

    p_extract = sub.add_parser("extract", help="extract skills and cues from a corpus")
    common(p_extract, corpus=True)
    p_extract.set_defaults(func=cmd_extract)

    p_match = sub.add_parser("match", help="compute an assignment and commit it")
    common(p_match, corpus=True)
    p_match.add_argument("--method", choices=METHODS, default="swati")
    p_match.add_argument("--epochs", type=int, default=1)
    p_match.add_argument("--seed", type=int, help="seed for method 'random'")
    p_match.set_defaults(func=cmd_match)

    p_bench = sub.add_parser("bench", help="benchmark methods across market sizes")
    common(p_bench)
    p_bench.add_argument("--sizes", required=True, help="comma-separated market sizes")
    p_bench.add_argument("--seed", type=int, help="benchmark corpus seed")
    p_bench.add_argument("--repetitions", type=int, default=3)
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify", help="verify a ledger file")
    p_verify.add_argument("ledger", help="path to ledger.bin")
    p_verify.add_argument("--expect-head", help="expected head digest, 64 hex digits")
    p_verify.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _freeze_gc_at_exit() -> None:
    """Let the interpreter exit without collecting what numpy and swati left tracked.

    atexit callbacks run before the interpreter's final collections, and those
    skip frozen objects. Registered once per process, on the first ``main``.
    """
    atexit.register(gc.freeze)


def main(argv: Optional[Sequence[str]] = None) -> int:
    _freeze_gc_at_exit()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EngineError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
