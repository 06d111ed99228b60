"""Record the outputs the benchmark checks runs against, in reference.json.

Usage, from the root of a checkout::

    python3 perfbench/record_reference.py

For the default seed and the check seed of ``spec.json`` it records each
prequential cell's ``deterministic_summary()`` on the first input draws of a
run, and the drifts, promotions and final active version of every serving
draw.  Record on the commit whose outputs are known good; a run whose outputs
differ from these fails its checks.  Nothing here is timed.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
#: Prequential draws recorded per seed: more than a run of the default
#: length gets through on the reference host; later draws are checked only
#: against the first pass and the invariants.
PREQUENTIAL_DRAWS = 12


def main() -> int:
    # The same single BLAS thread as the timed runs.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import preq
    import serve
    import stats

    spec = json.loads((HERE / "spec.json").read_text())
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    reference: dict[str, dict[str, object]] = {}
    for name, workload in spec["workloads"].items():
        recorded: dict[str, object] = {}
        for seed in (spec["default_seed"], spec["check_seed"]):
            if workload["kind"] == "serving":
                attempt = serve.play(
                    workload, serve.make_draws(workload, seed, out_dir), 1e9,
                    workload["draws"],
                )
                if attempt.problems:
                    raise RuntimeError(f"{name} seed {seed}: {attempt.problems[:3]}")
                for draw, (_, outcome) in attempt.served.items():
                    recorded[str(draw)] = outcome
            else:
                for draw in range(PREQUENTIAL_DRAWS):
                    result = preq.run_pass(workload, stats.draw_seed(seed, draw))
                    failed = {k: v for k, v in result.summaries.items() if isinstance(v, str)}
                    if failed:
                        raise RuntimeError(f"{name} seed {result.seed}: {failed}")
                    recorded[str(result.seed)] = result.summaries
            print(f"recorded {name} seed {seed}", flush=True)
        reference[name] = recorded
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
