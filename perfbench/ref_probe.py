"""Time a fixed reference task in this fresh interpreter; print the seconds.

The task imports standard-library modules and builds a table of tuples,
as a fresh `verify` child does before its first unit, but runs no package
code, so no change to the package can move it.  Its time follows the
speed of the machine at the moment.
"""

import time

if __name__ == "__main__":
    start = time.perf_counter()
    import argparse  # noqa: F401
    import concurrent.futures.process  # noqa: F401
    import fractions  # noqa: F401
    import itertools
    import json  # noqa: F401
    import pathlib  # noqa: F401
    import statistics  # noqa: F401

    table = {p: sum(a > b for a, b in itertools.combinations(p, 2))
             for p in itertools.permutations(range(7))}
    assert len(table) == 5040
    print(time.perf_counter() - start)
