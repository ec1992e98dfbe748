#!/usr/bin/env python3
"""Iteration/runtime comparison of the three implicit methods.

Runs every test case at the reference settings (n=17, tau=0.1, T=10,
tol=1e-6, k_max=20) with Newton, chord and modified Newton, and prints the
iterations per timestep, the last relative error, the LU factorizations
built and the total stepping time per run.
"""

import argparse

import hmfem as hm

METHODS = ("newton", "chord", "modified")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=17)
    ap.add_argument("--tau", type=float, default=0.1)
    ap.add_argument("--T", type=float, default=10.0)
    args = ap.parse_args()

    header = f"{'case':8s}" + "".join(
        f"{m + ' iter':>14s}{'relerr':>10s}{'LUs':>6s}{'time(s)':>10s}" for m in METHODS
    )
    print(header)
    print("-" * len(header))
    for tid in range(1, 6):
        spec = hm.preset(tid)
        cells = [f"test {tid}  "]
        for method in METHODS:
            cfg = hm.SolverConfig(tau=args.tau, tol=1e-6, k_max=20, method=method)
            res = hm.run(spec, cfg, T=args.T, snapshot_every=10**9, n=args.n)
            iters = sorted({r.iterations for r in res.reports})
            relerr = max(r.final_rel_err for r in res.reports)
            cells.append(
                f"{'/'.join(map(str, iters)):>14s}{relerr:>10.1e}"
                f"{res.total_factorizations():>6d}{res.total_wall_time():>10.3f}"
            )
        print("".join(cells))


if __name__ == "__main__":
    main()
