"""Run one framedprod benchmark workload and print its metrics.

    python3 bench/run.py --workload tri_large --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Before the result it prints one ``input``/``cert`` sha256 line
per instance, and it writes the run's record (digests, per-pass times) to
``.bench_out/``.  The last line of
standard output is the result: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "framedprod" / "__init__.py").is_file():
        print(f"no framedprod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import framedprod
    if pathlib.Path(framedprod.__file__).resolve().parent != SRC / "framedprod":
        print(f"framedprod was imported from {framedprod.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    result, record = harness.run(args.workload, args.seed, args.seconds,
                                 args.trace)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    for name, digest in record["inputs"].items():
        print(f"input {name} sha256:{digest}")
    for name, digest in record["certificates"].items():
        print(f"cert {name} sha256:{digest}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
