#!/usr/bin/env python3
"""Evaluate the doubly exponential query family and print, for each
level, the result cardinality, the evaluation time and the time to print
the result as text.
"""

import argparse
import time

from nestql.ma import ast_size, eval_ma
from nestql.reductions import gen_doubly_exp
from nestql.values import SET, UNIT, print_value


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-max", type=int, default=4)
    a = ap.parse_args()

    print("%3s %10s %12s %8s %8s"
          % ("m", "query size", "|result|", "eval", "print"))
    for m in range(a.m_max + 1):
        q = gen_doubly_exp(m)
        t0 = time.perf_counter()
        out = eval_ma(q, UNIT, SET)
        t1 = time.perf_counter()
        print_value(out)
        t2 = time.perf_counter()
        print("%3d %10d %12d %7.2fs %7.2fs"
              % (m, ast_size(q), len(out.elems), t1 - t0, t2 - t1))


if __name__ == "__main__":
    main()
