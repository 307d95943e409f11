"""Set-up cost of bqsdc in a fresh interpreter, printed as one JSON line.

Times importing the package, deriving the GHZ transformation chart and the
swap collection chart (both are derived from the engine on first use and
cached), and building the GHZ-sample consistency sets. With --count it also
counts the calls into qcore.joint_distribution those steps make; the
timed probes run without it.

Run with the repository's src directory on PYTHONPATH:
    PYTHONPATH=src python3 bench/setup_probe.py [--count]
"""

import json
import sys
from time import perf_counter


def main() -> None:
    t0 = perf_counter()
    import bqsdc
    from bqsdc import checks, codebook, qcore, swap
    t1 = perf_counter()

    calls = [0]
    if "--count" in sys.argv:
        joint = qcore.joint_distribution

        def counted(*args, **kwargs):
            calls[0] += 1
            return joint(*args, **kwargs)

        qcore.joint_distribution = counted

    codebook.transform_label(bqsdc.GhzLabel.PSI0, bqsdc.CompositeOp.U0)
    t2 = perf_counter()
    swap.collection_table(bqsdc.GhzLabel.PSI0, bqsdc.GhzLabel.PSI0)
    t3 = perf_counter()
    for label in bqsdc.GhzLabel:
        for basis in (qcore.MeasBasis.Z, qcore.MeasBasis.X):
            checks.consistent_ghz_outcomes(label, basis)
    t4 = perf_counter()

    print(json.dumps({
        "setup_s": t4 - t0,
        "import_s": t1 - t0,
        "transform_chart_s": t2 - t1,
        "swap_chart_s": t3 - t2,
        "consistency_sets_s": t4 - t3,
        "joint_distribution_calls": calls[0],
    }))


if __name__ == "__main__":
    main()
