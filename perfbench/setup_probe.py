"""Time `import dualschubert.cli` in this fresh interpreter.

Prints the seconds taken.  Run with the package's `src` on PYTHONPATH.
"""

import time

if __name__ == "__main__":
    start = time.perf_counter()
    import dualschubert.cli  # noqa: F401

    print(time.perf_counter() - start)
