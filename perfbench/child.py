"""Run one ``swati`` CLI command in this process, optionally traced.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py [--spans FILE] <swati arguments...>

Without ``--spans`` this is exactly the ``swati`` console script: import
``swati.cli`` and exit with ``main()``'s return code. With ``--spans`` the
public functions that ``swati.cli`` calls into each layer are wrapped before
``main()`` runs. Every call records a span (name, start, end, parent) in
memory; the spans, the import time and a few counts read from the wrapped
calls' return values are written to FILE as JSON when the command ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute). A dotted attribute is a method on a class.
TRACED = (
    ("config.load_config", "swati.config", "load_config"),
    ("ontology.load_ontology", "swati.ontology", "load_ontology"),
    ("ontology.canonicalize_report", "swati.ontology", "Ontology.canonicalize_report"),
    ("corpus.load_corpus", "swati.corpus", "load_corpus"),
    ("extraction.build_market", "swati.extraction", "build_market"),
    ("extraction.extract_rule_based", "swati.extraction", "extract_rule_based"),
    ("extraction.build_profile", "swati.extraction", "build_profile"),
    ("extraction.build_taskspec", "swati.extraction", "build_taskspec"),
    ("similarity.fit_vectorizer", "swati.similarity", "fit_vectorizer"),
    ("willingness.load_history", "swati.willingness", "load_history"),
    ("assignment.run_epoch", "swati.assignment", "run_epoch"),
    ("assignment.similarity_components", "swati.assignment", "similarity_components"),
    ("assignment.willingness_matrix", "swati.assignment", "willingness_matrix"),
    (
        "assignment.utility_matrix_from_components",
        "swati.assignment",
        "utility_matrix_from_components",
    ),
    ("assignment.assign_swati", "swati.assignment", "assign_swati"),
    ("metrics.quality", "swati.metrics", "quality"),
    ("metrics.write_quality_csv", "swati.metrics", "write_quality_csv"),
    ("ledger.post_task", "swati.ledger", "Ledger.post_task"),
    ("ledger.commit_assignment", "swati.ledger", "Ledger.commit_assignment"),
    ("ledger.save_ledger", "swati.ledger", "save_ledger"),
    ("ledger.export_ledger_text", "swati.ledger", "export_ledger_text"),
    ("ledger.load_ledger", "swati.ledger", "load_ledger"),
    ("ledger.verify", "swati.ledger", "verify"),
    ("cli.main", "swati.cli", "main"),
)


class Tracer:
    """Wraps the traced functions and keeps their spans in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.missing: list[str] = []
        self._kept: dict[str, list] = {}
        self._pairs_scored = 0
        self._canonicalize_report = None

    def install(self) -> None:
        for name, module_name, attr in TRACED:
            module = sys.modules.get(module_name)
            owner_name, _, func_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, func_name, None)
            if owner is None or not callable(original):
                self.missing.append(name)
                continue
            if name == "ontology.canonicalize_report":
                self._canonicalize_report = original
            wrapper = self._wrap(name, original)
            if owner_name:
                setattr(owner, func_name, wrapper)
                continue
            # rebind every name in the package that refers to this function,
            # since ``from .x import f`` copies the binding into the importer
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "swati" or mod_name.startswith("swati.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name, func):
        spans, stack, observe = self.spans, self._stack, self._observe
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            observe(name, result)
            return result

        return wrapper

    def _observe(self, name, result) -> None:
        """Keep what the counts need; anything costly is computed in ``counts``."""
        if name == "assignment.utility_matrix_from_components":
            self._pairs_scored += result.utilities.size
        elif name in ("extraction.extract_rule_based", "extraction.build_profile",
                      "extraction.build_taskspec"):
            self._kept.setdefault(name, []).append(result)
        elif name == "assignment.run_epoch":
            self._kept[name] = [result.state]
        elif name == "assignment.similarity_components":
            self._kept[name] = [result[0]]
        elif name in ("corpus.load_corpus", "ontology.load_ontology",
                      "similarity.fit_vectorizer", "willingness.load_history"):
            self._kept[name] = [result]

    def counts(self) -> dict:
        kept = self._kept

        def last(name):
            values = kept.get(name)
            return values[-1] if values else None

        extractions = kept.get("extraction.extract_rule_based", [])
        ontology = last("ontology.load_ontology")
        unresolved = 0
        if ontology is not None and self._canonicalize_report is not None:
            for result in extractions:
                raws = [m.raw for m in result.mentions]
                unresolved += len(self._canonicalize_report(ontology, raws)[1])
        corpus = last("corpus.load_corpus")
        vectorizer = last("similarity.fit_vectorizer")
        history = last("willingness.load_history")
        state = last("assignment.run_epoch")
        skill = last("assignment.similarity_components")
        vectors = [p.content_vector for p in kept.get("extraction.build_profile", [])]
        vectors += [t.content_vector for t in kept.get("extraction.build_taskspec", [])]
        return {
            "corpus.docs": len(corpus.documents()) if corpus is not None else 0,
            "extraction.mentions": sum(len(r.mentions) for r in extractions),
            "extraction.unresolved": unresolved,
            "similarity.vocab_size": vectorizer.size if vectorizer is not None else 0,
            "similarity.empty_vectors": sum(1 for v in vectors if v.is_empty()),
            "willingness.history_records": (
                sum(len(h.records) for h in history.values()) if history else 0
            ),
            "willingness.state_pairs": len(state) if state is not None else 0,
            "assignment.pairs_scored": self._pairs_scored,
            "assignment.skill_overlap_ratio": (
                float((skill > 0).sum() / skill.size) if skill is not None else 0.0
            ),
        }


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    start = time.perf_counter()
    import swati.cli

    import_s = time.perf_counter() - start
    if spans_path is None:
        return swati.cli.main(argv)

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = swati.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "exit_code": code,
                    "import_s": import_s,
                    "missing": tracer.missing,
                    "counts": tracer.counts(),
                    "spans": tracer.spans,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
