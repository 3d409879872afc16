#!/usr/bin/env python3
"""Run the bundled machines through the generated acceptance queries
and compare each decision with the direct simulation over 2^K steps.

Each line gives the decision's time and, beside it, the time that
planning the same query takes on its own (ma.plan), which the decision
includes.
"""

import argparse
import time

from nestql.checks import TM_WORDS
from nestql.ma import plan
from nestql.reductions import (
    BUNDLED, MAX_CONFIG_PAIRS, decide_tm_query, gen_tm_query, simulate_ntm,
    tm_config_space, tm_query_sizes,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=1)
    ap.add_argument("--machine", choices=sorted(BUNDLED),
                    help="run one machine instead of all")
    ap.add_argument("--max-pairs", type=int, default=MAX_CONFIG_PAIRS,
                    help="skip machines whose configuration-pair "
                         "space is larger than this")
    a = ap.parse_args()

    names = [a.machine] if a.machine else sorted(BUNDLED)
    for name in names:
        tm = BUNDLED[name]
        space = tm_config_space(tm, a.k)
        if space > a.max_pairs:
            print("%s: skipped, configuration space %d > %d"
                  % (name, space, a.max_pairs))
            continue
        for word in TM_WORDS[name]:
            sizes = tm_query_sizes(tm, word, a.k)
            t0 = time.monotonic()
            got = decide_tm_query(tm, word, a.k)
            dt = time.monotonic() - t0
            q = gen_tm_query(tm, word, a.k)
            t0 = time.monotonic()
            plan(q)
            dp = time.monotonic() - t0
            want = simulate_ntm(tm, word, 2 ** a.k)
            mark = "ok" if got == want else "MISMATCH"
            print("%s on %-8r K=%d: query %-5s simulation %-5s %s "
                  "(%.3fs, plan %.3fs, sizes %d/%d)"
                  % (name, ",".join(word), a.k, got, want, mark, dt, dp,
                     sizes[0], sizes[1]))


if __name__ == "__main__":
    main()
