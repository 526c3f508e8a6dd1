"""Pay the set-up every ``swati`` command pays before its first stage, then stop.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/setup_probe.py <config.json> <corpus.jsonl>

Imports ``swati.cli`` and loads the workload's config, ontology, corpus and,
when the config names one, its history. The caller times the process from
spawn to exit.
"""

from __future__ import annotations

import sys


def main(config_path: str, corpus_path: str) -> int:
    import swati.cli  # noqa: F401  (the import every CLI run pays)
    from swati.config import load_config
    from swati.corpus import load_corpus
    from swati.willingness import load_history

    cfg = load_config(config_path)
    cfg.load_ontology()
    load_corpus(corpus_path)
    if cfg.history_path:
        load_history(cfg.history_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
