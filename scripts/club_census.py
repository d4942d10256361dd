"""Census of finite functions by minimal club.

Enumerates every function between finite ordinals up to a size bound, buckets
them by the smallest club containing them, and reports per-club membership
counts together with factorization statistics (chain length, generator mix).
Every chain counted is checked to recompose to its function; the script
exits non-zero if one does not.  The output is deterministic.

Usage: python3 scripts/club_census.py [--max-size N]
"""

import argparse
import itertools
import sys
from collections import Counter

from clubcomb import finord
from clubcomb.finord import Club


def census(max_size):
    universe = [
        finord.FinFun(m, n, table)
        for n in range(max_size + 1)
        for m in range(max_size + 1)
        for table in itertools.product(range(1, n + 1), repeat=m)
    ]
    minimal = Counter(finord.minimal_club(f) for f in universe)
    members = {c: [f for f in universe if finord.contains(c, f)] for c in Club}
    return universe, minimal, members


def chain_stats(functions, club):
    lengths = Counter()
    kinds = Counter()
    for f in functions:
        chain = finord.factor(f, club)
        if finord.recompose(chain, f.dom) != f:
            sys.exit(f"factor({finord.format_finfun(f)}, {club.display}) does not recompose")
        lengths[len(chain)] += 1
        for g in chain:
            kinds[g.kind] += 1
    longest = max(lengths) if lengths else 0
    total = sum(n * count for n, count in lengths.items())
    return longest, total, kinds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-size", type=int, default=4, metavar="N",
                        help="bound on dom and cod (default 4)")
    args = parser.parse_args()

    universe, minimal, members = census(args.max_size)
    print(f"functions with dom, cod <= {args.max_size}: {len(universe)}")
    print()
    header = f"{'club':6} {'required':30} {'minimal':>8} {'members':>8} " \
             f"{'longest':>8} {'gens':>6}"
    print(header)
    print("-" * len(header))
    for club in Club:
        req = finord.required_properties(club)
        required = ",".join(sorted(p for p, need in zip(req._fields, req) if need)) or "(none)"
        longest, total, kinds = chain_stats(members[club], club)
        print(
            f"{club.display:6} {required:30} {minimal.get(club, 0):>8} "
            f"{len(members[club]):>8} {longest:>8} {total:>6}"
        )
        if kinds:
            mix = "  ".join(
                f"{kind.value}={count}" for kind, count in sorted(
                    kinds.items(), key=lambda kv: kv[0].value
                )
            )
            print(f"{'':6} generator mix: {mix}")
    print()
    print("minimal counts sum to the universe:",
          sum(minimal.values()) == len(universe))


if __name__ == "__main__":
    main()
