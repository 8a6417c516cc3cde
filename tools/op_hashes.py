"""Print the sha256 of every benchmark operation's result, one line per op.

Usage: PYTHONPATH=src python3 tools/op_hashes.py SEED

Builds each workload of bench/workloads.py with SEED, runs every
operation once, in order, and prints `<workload> <op> <sha256>`.  Floats
are hashed by their exact hex form and arrays by dtype, shape and bytes,
so two trees whose results agree bit for bit print the same lines:

    PYTHONPATH=OLD/src python3 tools/op_hashes.py 1 > old.txt
    PYTHONPATH=NEW/src python3 tools/op_hashes.py 1 > new.txt
    diff old.txt new.txt

The library is the one on PYTHONPATH; the workloads are read from this
checkout's bench/ directory.  The script writes no bytecode, so neither
bench/ nor the library's directory gains a __pycache__, and a checkout's
bytecode state (which shifts the benchmark's set-up time) stays as it was.
"""
import hashlib
import os
import pathlib
import sys

sys.dont_write_bytecode = True      # before bench/ and the library load

# one BLAS/OpenMP thread, as the benchmark pins it, before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


def _canonical(value, out):
    """Append an exact, type-tagged byte form of ``value`` to ``out``."""
    if isinstance(value, (tuple, list)):
        out.append(b"(%d" % len(value))
        for v in value:
            _canonical(v, out)
        out.append(b")")
    elif isinstance(value, np.ndarray):
        out.append(f"a{value.dtype.str}{value.shape}".encode())
        out.append(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (bool, int, np.integer)):
        out.append(b"i%d" % int(value))
    elif isinstance(value, (float, np.floating)):
        out.append(b"f" + float(value).hex().encode())
    elif isinstance(value, str):
        out.append(b"s%d:" % len(value) + value.encode())
    else:
        raise TypeError(f"cannot hash a result of type {type(value).__name__}")


def op_hash(value):
    parts = []
    _canonical(value, parts)
    return hashlib.sha256(b"".join(parts)).hexdigest()


def main(argv):
    if len(argv) != 1 or not argv[0].lstrip("-").isdigit():
        sys.exit(__doc__.split("\n\n")[1])
    seed = int(argv[0])
    for name in workloads._BUILDERS:
        for op in workloads.build(name, seed):
            print(name, op.name, op_hash(op.call()))


if __name__ == "__main__":
    main(sys.argv[1:])
