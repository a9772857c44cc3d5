"""Regenerate the frozen regression baselines, by default under tests/data/.

Runs the built-in scenarios at their default horizons and freezes:

  * ship_tracking.csv   -- |x - x_d| on the intervals where the
                           reference magnitude is at most 15 degrees,
                           decimated; the acceptance suite replays the
                           run and compares sample for sample;
  * delta1_envelope.csv -- the first disturbance estimation error
                           magnitude on the electromech scenario,
                           decimated the same way;
  * baselines.json      -- scalar monitors: total variation of the
                           input per controller over the comparison
                           window, run minima, and the sampling
                           parameters the tests should reuse.

Rerun after any change that is supposed to move the dynamics, and
commit the refreshed files together with that change.  To check that a
change leaves them as they are, write them elsewhere and compare:

    python3 tools/make_baselines.py /tmp/baselines
    diff -r /tmp/baselines tests/data
"""

import argparse
import json
import math
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from proxysafe import scenario as scenario_mod  # noqa: E402
from proxysafe import sim as sim_mod  # noqa: E402

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "data")
SHIP_STRIDE = 50
DELTA_STRIDE = 20
MASK_DEG = 15.0
TV_WINDOW = (5.0, 20.0)
TV_MIN_FACTOR = 1.5


def total_variation(ts, us, lo, hi):
    tv = 0.0
    for i in range(1, len(ts)):
        if lo - 1e-9 <= ts[i - 1] and ts[i] <= hi + 1e-9:
            tv += abs(us[i] - us[i - 1])
    return tv


def write_samples(path, header, samples):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for idx, t, value in samples:
            fh.write(f"{idx},{t:.17g},{value:.17g}\n")
    print(f"  wrote {path} ({len(samples)} rows)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out_dir", nargs="?", default=DATA_DIR,
                        help="directory to write the baselines to "
                             "(default: tests/data)")
    out_dir = parser.parse_args(argv).out_dir
    os.makedirs(out_dir, exist_ok=True)
    summary = {
        "ship_tracking": {"stride": SHIP_STRIDE, "mask_deg": MASK_DEG},
        "delta1": {"stride": DELTA_STRIDE},
        "tv": {"window": list(TV_WINDOW), "min_factor": TV_MIN_FACTOR},
    }

    print("ship run (full horizon) ...")
    ship = scenario_mod.load_builtin("ship")
    start = time.perf_counter()
    trace = sim_mod.simulate(ship)
    wall = time.perf_counter() - start
    print(f"  verdict={trace.verdict} min_h={trace.monitors['min_h']:.9e} "
          f"wall={wall:.1f}s")
    ts = trace.column("t")
    xs = trace.column("x")
    xd = trace.column("x_d")
    mask = math.radians(MASK_DEG) + 1e-12
    samples = [(i, ts[i], abs(xs[i] - xd[i]))
               for i in range(0, len(ts), SHIP_STRIDE)
               if abs(xd[i]) <= mask]
    write_samples(os.path.join(out_dir, "ship_tracking.csv"),
                  "index,t,abs_err", samples)
    errs = [v for _, _, v in samples]
    print(f"  tracking error inside the band: max={max(errs):.6e} "
          f"mean={sum(errs) / len(errs):.6e}")
    summary["ship_tracking"]["max_abs_err"] = max(errs)
    summary["ship"] = {"min_h": trace.monitors["min_h"],
                       "max_abs_e": max(abs(v) for v in trace.column("e"))}

    b0 = trace.column("b1_0")
    b1 = trace.column("b1_1")
    dt = ship.dt
    lam1 = ship.proxies[0].lambdas[0]
    scale = max(1.0, max(abs(v) for v in b0), max(abs(v) for v in b1))
    worst_fwd = worst_mid = math.inf
    for i in range(len(ts) - 1):
        fd = (b0[i + 1] - b0[i]) / dt
        worst_fwd = min(worst_fwd, fd + lam1 * b0[i] - b1[i])
        worst_mid = min(worst_mid,
                        fd + lam1 * 0.5 * (b0[i] + b0[i + 1])
                        - 0.5 * (b1[i] + b1[i + 1]))
    print(f"  chain margins: min b0={min(b0):.3e} min b1={min(b1):.3e} "
          f"scale={scale:.3f}")
    print(f"  step inequality slack: forward {worst_fwd:.6e} "
          f"midpoint {worst_mid:.6e} (allowance {1e-3 * scale:.3e})")
    summary["ship"]["chain"] = {"min_b0": min(b0), "min_b1": min(b1),
                                "scale": scale, "worst_fwd": worst_fwd,
                                "worst_mid": worst_mid}

    print("electromech runs (full horizon) ...")
    em = scenario_mod.load_builtin("electromech")
    tvs = {}
    for ctrl in ("dob_backstepping", "ppc"):
        start = time.perf_counter()
        tr = sim_mod.simulate(em, controller=ctrl)
        wall = time.perf_counter() - start
        ts_e = tr.column("t")
        us = tr.column("u")
        tvs[ctrl] = total_variation(ts_e, us, *TV_WINDOW)
        print(f"  {ctrl}: verdict={tr.verdict} "
              f"min_h={tr.monitors['min_h']:.9e} tv={tvs[ctrl]:.2f} "
              f"wall={wall:.1f}s")
        summary.setdefault("electromech", {})[ctrl] = {
            "min_h": tr.monitors["min_h"]}
        if ctrl == "dob_backstepping":
            d1 = tr.column("d1")
            dh1 = tr.column("dhat1")
            deltas = [(i, ts_e[i], abs(d1[i] - dh1[i]))
                      for i in range(0, len(ts_e), DELTA_STRIDE)]
            write_samples(os.path.join(out_dir, "delta1_envelope.csv"),
                          "index,t,abs_delta", deltas)
            half = [v for _, tt, v in deltas if tt >= ts_e[-1] / 2]
            first = [v for _, tt, v in deltas if tt < ts_e[-1] / 2]
            print(f"  delta1: max={max(v for _, _, v in deltas):.6e} "
                  f"first-half max={max(first):.6e} "
                  f"second-half max={max(half):.6e}")
            summary["delta1"]["max"] = max(v for _, _, v in deltas)
            summary["delta1"]["second_half_max"] = max(half)

    summary["tv"]["dob_backstepping"] = tvs["dob_backstepping"]
    summary["tv"]["ppc"] = tvs["ppc"]
    summary["tv"]["factor"] = tvs["ppc"] / tvs["dob_backstepping"]
    print(f"  tv factor ppc/dob = {summary['tv']['factor']:.3f}")

    path = os.path.join(out_dir, "baselines.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"  wrote {path}")


if __name__ == "__main__":
    main()
