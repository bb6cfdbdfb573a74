#!/usr/bin/env python3
"""Write tests/golden/corpus.json from the commands of tests/test_golden.py.

Run from the repository root, against the source tree:

    PYTHONPATH=src python tests/golden/regenerate.py

Each command runs through cli.main in a fresh temporary directory that holds
the matrix FILE, as the test runs it.
"""

import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(TESTS))

from test_golden import COMMANDS, CORPUS, INLINE_LIMIT, MATRIX_FILE, run, stored, write_matrix_file  # noqa: E402


def main() -> int:
    corpus = {}
    for name, argv, tolerances in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            write_matrix_file(Path(tmp) / MATRIX_FILE)
            result = run(argv, Path(tmp))
        for key, text in result["outputs"].items():
            if tolerances and len(text) > INLINE_LIMIT:
                raise SystemExit(f"{name}: {key} has tolerances, so it must be held inline")
        result["outputs"] = {key: stored(text) for key, text in result["outputs"].items()}
        corpus[name] = {"argv": argv, **result}
        print(f"{name}: exit {result['exit']}, {', '.join(result['outputs'])}")
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
