"""Print the jet kernel's work in one benchmark pass, one line per workload.

Usage: PYTHONPATH=src python3 tools/work_counts.py SEED

Builds each workload of bench/workloads.py with SEED, runs one warm-up
pass (which fills the caches a pass reuses), then counts, over a second
pass, where the coefficient products are made:

    einsum   every np.einsum call made in branelab/jets.py
    cauchy   every coefficient product that jets._cauchy sums (the terms
             of Jet.__mul__, jet_einsum, the degree recurrences of
             Jet._compose and jet_matinv), then the same terms split by
             the one of those four entry points that summed them
    peak_mib the tracemalloc peak of the counted pass, in MiB: the most
             Python-heap memory (numpy's arrays included) the pass held at
             once beyond what was allocated before it

and prints `<workload> einsum <calls> cauchy <terms> __mul__ <terms>
jet_einsum <terms> _compose <terms> jet_matinv <terms> peak_mib <MiB>`.
The counts and the peak are deterministic, so two trees compare by a diff
of their lines:

    PYTHONPATH=OLD/src python3 tools/work_counts.py 1 > old.txt
    PYTHONPATH=NEW/src python3 tools/work_counts.py 1 > new.txt

The library is the one on PYTHONPATH; the workloads are read from this
checkout's bench/ directory.  Like op_hashes.py, the script writes no
bytecode.

More calls and terms are not by themselves more work.  Contracting a
product background per factor (`Geometry.ambient_covariant`,
`Geometry.rframe`) splits each connection and curvature contraction into
one per curved factor: on `curved-high-order` einsum calls rise from 4366
to 4598 and Cauchy terms from 9004 to 9236, but on S2 x S2 each of those
contractions is a quarter (connection) to a half (curvature) of the dense
one, and the peak falls from 30.63 to 20.56 MiB.  Building each curvature
block from its legs' frame rows (`Geometry.rblock`), and det(gamma),
sqrt|gamma|, K^a_b^i, K^{ab}_i and the worldvolume connection at the
order their readers take, then brings `curved-high-order` to 4267 einsum
calls, 7816 terms and a 16.28 MiB peak.
"""
import os
import pathlib
import sys
import tracemalloc
from collections import Counter

sys.dont_write_bytecode = True      # before bench/ and the library load

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402
from branelab import jets  # noqa: E402


ENTRY_POINTS = ("__mul__", "jet_einsum", "_compose", "jet_matinv")


class _Counts:
    """numpy as jets.py sees it, with its einsum calls counted, and a
    counting stand-in for jets._cauchy."""

    def __init__(self):
        self.einsum_calls = 0
        self.cauchy_terms = Counter()
        self._sum = jets._cauchy

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, *args, **kwargs):
        self.einsum_calls += 1
        return np.einsum(*args, **kwargs)

    def cauchy(self, pairs, prod):
        # the innermost jets.py function of the four that called it
        frame = sys._getframe(1)
        while frame.f_code.co_name not in ENTRY_POINTS:
            frame = frame.f_back
        self.cauchy_terms[frame.f_code.co_name] += len(pairs)
        return self._sum(pairs, prod)


def main(argv):
    if len(argv) != 1 or not argv[0].lstrip("-").isdigit():
        sys.exit(__doc__.split("\n\n")[1])
    seed = int(argv[0])
    for name in workloads._BUILDERS:
        ops = workloads.build(name, seed)
        for op in ops:
            op.call()
        counts = _Counts()
        jets.np, jets._cauchy = counts, counts.cauchy
        tracemalloc.start()
        try:
            for op in ops:
                op.call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            jets.np, jets._cauchy = np, counts._sum
        terms = counts.cauchy_terms
        print(name, "einsum", counts.einsum_calls,
              "cauchy", sum(terms.values()),
              *(f"{entry} {terms[entry]}" for entry in ENTRY_POINTS),
              f"peak_mib {peak / 2**20:.2f}")


if __name__ == "__main__":
    main(sys.argv[1:])
