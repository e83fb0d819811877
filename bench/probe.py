"""Time one benchmark set-up in a fresh interpreter.

Reads the workload's text inputs as JSON on stdin, then times importing
ratindex from the source directory given as the only argument, parsing
every input and bringing each grammar to CNF.  Prints the time taken in
reference seconds (see spans.PassClock), from reference samples taken just
before and just after.  ``run.py`` starts this between rounds and reports
the median as ``setup_s``.
"""

import json
import sys
import time

from spans import REFERENCE_STEP_S, PassClock, Tracer
from workloads import parse_texts


def main() -> None:
    texts = json.load(sys.stdin)
    clock = PassClock()
    before = clock.sample()
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import ratindex  # noqa: F401  (the import is part of what is timed)

    parse_texts(texts, Tracer())
    elapsed = time.perf_counter() - start
    print(elapsed * 2 * REFERENCE_STEP_S / (before + clock.sample()))


if __name__ == "__main__":
    main()
