"""One cold start: import the package, build the workload, make one call.

Run in a fresh interpreter by ``run.py``::

    python3 perfbench/cold_start.py '<TrafficSpec kwargs as JSON>'

Prints one JSON line, ``{"import_s": ..., "build_s": ...}``, right after
the first protected call returns; the parent times the whole start from
spawning the interpreter to reading that line.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.workloads.traffic import TrafficEngine, TrafficSpec
    imported = time.perf_counter()
    engine = TrafficEngine(TrafficSpec(**json.loads(sys.argv[1]))).build()
    built = time.perf_counter()
    session = next(iter(engine.clients[0].sessions.values()))
    outcome = engine.extension.dispatcher.call(session, "getpid")
    if not outcome.ok:
        print(f"first protected call failed: {outcome.errno!r}",
              file=sys.stderr)
        return 1
    print(json.dumps({"import_s": imported - start,
                      "build_s": built - imported}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
