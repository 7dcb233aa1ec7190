"""Print the seconds taken to import valmon and build a dyadic depth-8
MonoidContext: the set-up every workload starts with.

Run as a script in a fresh interpreter; run.py starts several and reports
their median as setup_s.
"""

import sys
from pathlib import Path
from time import perf_counter


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = perf_counter()
    import valmon
    valmon.MonoidContext(valmon.dyadic_spec(), 8)
    print(perf_counter() - t0)


if __name__ == "__main__":
    main()
