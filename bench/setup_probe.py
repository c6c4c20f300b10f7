"""Set-up probe, run by ``run.py`` in a fresh interpreter.

Reads a JSON list of problem documents on stdin, then times ``import jetham``
plus ``problem_from_dict`` on every document, bracketed by the reference
loop, and prints one JSON line: ``{"setup_s": seconds at the reference
speed, "wall_s": raw seconds, "module": path of the imported package}``.
"""

import json
import sys
import time

from calibrate import reference_seconds, scale


def main() -> None:
    docs = json.load(sys.stdin)
    reference_seconds()  # warm-up
    before = reference_seconds()
    t0 = time.perf_counter()
    import jetham

    for doc in docs:
        jetham.problem_from_dict(doc)
    elapsed = time.perf_counter() - t0
    after = reference_seconds()
    print(
        json.dumps(
            {
                "setup_s": scale(elapsed, before, after),
                "wall_s": elapsed,
                "module": jetham.__file__,
            }
        )
    )


if __name__ == "__main__":
    main()
