"""The program process of a simulator workload.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It builds the workload's fixed structures, reports the
monotonic time at which it is ready, runs timed units and prints one
JSON object per line on standard output:

* ``{"ready": <time.monotonic()>}`` once set-up is done;
* ``{"result": {...}}`` at the end: per-unit host time, reference-task
  time around the unit, items, digest, exact counters and failed checks,
  plus peak RSS and, in traced mode, the per-layer span totals.

Modes: ``setup`` exits after set-up; ``run`` times units for
``--seconds``; ``replay`` times exactly ``--units`` units; ``traced`` is
``run`` with the layer wrappers of ``tracing.py`` installed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import simworkloads  # noqa: E402
import tracing  # noqa: E402


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(simworkloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "replay", "traced"), default="run")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--units", type=int, default=0)
    ap.add_argument("--size", type=int, default=None,
                    help="requests per unit (serving) or cluster nodes (fabric-ep)")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    rec = undo = None
    if args.mode == "traced":
        rec = tracing.SpanRecorder()
        targets = (
            tracing.FABRIC_TARGETS if args.workload == "fabric-ep" else tracing.SERVING_TARGETS
        )
        undo = tracing.install(rec, targets)
    wl = simworkloads.WORKLOADS[args.workload](args.seed, args.size)
    wl.setup()
    emit({"ready": time.monotonic()})
    if args.mode == "setup":
        return 0

    units = []
    loop_start = time.perf_counter()
    index = 0
    ref_before = simworkloads.reference_seconds()
    while True:
        inp = wl.unit_input(index)
        t0 = time.perf_counter()
        if rec is None:
            out = wl.run(inp)
        else:
            with rec.span(tracing.UNIT):
                out = wl.run(inp)
        elapsed = time.perf_counter() - t0
        ref_after = simworkloads.reference_seconds()
        digest, counters, failures = wl.check(inp, out)
        units.append({
            "index": index,
            "host_s": elapsed,
            "ref_s": (ref_before + ref_after) / 2,
            "items": wl.items(out),
            "digest": digest,
            "counters": counters,
            "failures": failures,
        })
        del out
        ref_before = ref_after
        index += 1
        if args.mode == "replay":
            if index >= args.units:
                break
        elif time.perf_counter() - loop_start >= args.seconds:
            break

    result = {"units": units, "peak_rss_mb": simworkloads.peak_rss_mb()}
    if rec is not None:
        tracing.uninstall(undo)
        result["layers"] = rec.layer_times()
        result["refused"] = rec.refused
        if args.spans_out:
            rec.write(args.spans_out)
    emit({"result": result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
