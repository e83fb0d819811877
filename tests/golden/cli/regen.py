"""Rewrite ``expected.txt`` from every corpus entry, run in process through
``ratindex.cli.main`` from this checkout's ``src/``:

    python tests/golden/cli/regen.py

``git diff`` then shows which entries moved.
"""

import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[3] / "src"))

import corpus  # noqa: E402

if __name__ == "__main__":
    # argparse wraps its usage messages to COLUMNS
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as directory:
        corpus.write_inputs(directory)
        corpus.write_expected(
            {name: corpus.run_in_process(argv, directory) for name, argv in corpus.ENTRIES.items()}
        )
