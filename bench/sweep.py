"""Growth sweep: per-layer self time against size, with growth exponents.

    python3 bench/sweep.py [--family tri|torus]

Runs one traced pass (certify, then check) per size, over plane
triangulations (``d = 3``, 2.5k to 40k vertices) and toroidal grids
(``d = 4``, 40x40 to 160x160), both spanning 16x in vertex count.  For each
layer it prints the self time at the smallest and largest size and the
least-squares slope of log(time) on log(n): 1.0 is linear growth.  The
triangulations and the tori's labellings come from seed 1.  Not part of the
repeated workload runs; the table is also written to
``.bench_out/sweep-<family>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
STEPS = (1, 2, 4, 8, 16)          # vertex-count multipliers


def sizes(family, scale):
    if family == "tri":
        return [("tri", max(8, round(2500 * k * scale))) for k in STEPS]
    return [("torus", max(3, round(40 * math.sqrt(k * scale)))) for k in STEPS]


def growth(ns, ts):
    """Least-squares slope of log t on log n over the positive samples."""
    pts = [(math.log(n), math.log(t)) for n, t in zip(ns, ts) if t > 0]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return None
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def sweep(family, seed, scale=1.0):
    """-> (vertex counts, {layer metric: times per size}); raises on a
    failed instance."""
    import harness
    import tracing

    rng = random.Random(f"sweep-{family}/{seed}")
    ns, rows = [], []
    for kind, size in sizes(family, scale):
        inst = (harness.tri_instance(size, rng.getrandbits(32)) if kind == "tri"
                else harness.torus_instance(size, rng))
        ns.append(int(inst.text.split(None, 2)[1]))
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            res = harness.run_pass([inst], tracer)
        if res.failed:
            raise RuntimeError(f"{inst.name} failed the correctness gate")
        row = harness.pass_layer_times(res.trace)
        row["certify_s"] = res.certify_s
        row["verify_s"] = res.verify_s
        rows.append(row)
    return ns, {k: [r[k] for r in rows] for k in rows[0]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", choices=("tri", "torus"), action="append")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for family in args.family or ("tri", "torus"):
        ns, table = sweep(family, 1)
        print(f"{family}: n = {' '.join(str(n) for n in ns)}")
        print(f"  {'layer':44s} {'first s':>9s} {'last s':>9s} {'growth':>7s}")
        report = {"n": ns, "layers": {}}
        for name, ts in table.items():
            if name.endswith((".certify_s", ".check_s")) or not any(ts):
                continue
            g = growth(ns, ts)
            report["layers"][name] = {"seconds": ts, "growth": g}
            shown = f"{g:7.2f}" if g is not None else "      -"
            print(f"  {name:44s} {ts[0]:9.4f} {ts[-1]:9.4f} {shown}")
        (out_dir / f"sweep-{family}.json").write_text(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
