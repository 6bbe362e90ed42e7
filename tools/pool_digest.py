"""Digest every output of the benchmark's seeded request pools.

    python3 tools/pool_digest.py [--seed 1]

Run from any directory; the library is imported from ``src/`` and the
workloads from ``perfbench/workloads.py``.  For each workload, prints the
number of requests in ``build_pool(seed)`` and one sha256 over
``pickle.dumps(output)`` of every request, in pool order.  A change that
should leave every output bit for bit as it was keeps all three digests.
OpenBLAS runs single-threaded, as in the benchmark.
"""

import argparse
import hashlib
import os
import pickle
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import workloads  # noqa: E402


def pool_digest(workload, seed):
    """(request count, sha256 hex digest) of one workload's pool outputs."""
    pool = workload.build_pool(seed)
    digest = hashlib.sha256()
    for r in pool:
        digest.update(pickle.dumps(workload.request(r.inputs, r.reference)))
    return len(pool), digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    for name, workload in workloads.WORKLOADS.items():
        count, hexdigest = pool_digest(workload, seed)
        print(f"{name}  {count}  {hexdigest}")


if __name__ == "__main__":
    main()
