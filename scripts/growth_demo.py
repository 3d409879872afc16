#!/usr/bin/env python3
"""Evaluate the doubly exponential query family and print, for each
level, the result cardinality, the evaluation time, the time to print
the result as text and the process's peak resident set size so far.

The result is printed as the CLI prints it: its text chunks are made
whole, then written with one writelines call (here to the null device).
"""

import argparse
import os
import resource
import time

from nestql.ma import ast_size, eval_ma
from nestql.reductions import gen_doubly_exp
from nestql.values import SET, UNIT, print_chunks


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-max", type=int, default=4)
    a = ap.parse_args()

    print("%3s %10s %12s %8s %8s %9s"
          % ("m", "query size", "|result|", "eval", "print", "peak_rss"))
    with open(os.devnull, "w") as sink:
        for m in range(a.m_max + 1):
            q = gen_doubly_exp(m)
            t0 = time.perf_counter()
            out = eval_ma(q, UNIT, SET)
            t1 = time.perf_counter()
            sink.writelines(print_chunks(out))
            t2 = time.perf_counter()
            # kilobytes on Linux
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print("%3d %10d %12d %7.2fs %7.2fs %7.1fMB"
                  % (m, ast_size(q), len(out.elems), t1 - t0, t2 - t1, rss))


if __name__ == "__main__":
    main()
