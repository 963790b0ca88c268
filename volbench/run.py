"""volgraph benchmark: one workload, one seed, one fresh process.

    python3 volbench/run.py --workload small --seed 1 --seconds 30 --trace 0

Each run writes its seeded inputs to files, then times three phases:

* setup: files -> loaders -> labels -> quarter graphs -> prepared
  quarters -> model, repeated and reported as the median;
* train: ``pipeline.train`` for a fixed number of epochs, repeated from
  the same initial parameters, then a checkpoint save and load;
* score: a closed loop with one client; each request prepares one
  held-out quarter graph and predicts it with the reloaded model.

With ``--trace 0`` it prints every end-to-end metric by name and unit.
With ``--trace 1`` it makes a traced run of the same workload and seed
and prints the per-layer table with the tracing overhead. The last line
of standard output is one JSON object: correct, attempted, failed,
metrics. Correctness checks run inside the command and count toward
``failed``.
"""

import os

# One BLAS thread: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "volgraph" / "__init__.py").is_file():
        print(f"error: no volgraph source at {SRC / 'volgraph'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
