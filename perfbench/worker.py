"""One measured run of the dpnls command line, in a fresh process.

Usage: worker.py RESULT_JSON [--import-only | --trace 0|1 --run-id ID
                              --spans SPANS_JSONL -- CLI_ARGS...]

Times ``import dpnls.cli`` (set-up), then ``dpnls.cli.main(CLI_ARGS)``
(wall), and writes both with the process's peak resident memory and the
exit code to RESULT_JSON.  With ``--trace 1`` it hooks the package first
(see ``tracer.py``), writes the spans as JSON lines to SPANS_JSONL and adds
the per-layer metrics.  ``--import-only`` stops after the set-up time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("result")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="")
    parser.add_argument("--spans", default=None)
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.cli_args = argv[split + 1:]

    t0 = time.perf_counter()
    import dpnls.cli
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy
    result = {"setup_s": setup_s, "dpnls": dpnls.cli.__file__,
              "python": sys.version.split()[0], "numpy": numpy.__version__,
              "scipy": scipy.__version__}
    if not args.import_only:
        result.update(run(args))
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))


def run(args) -> dict:
    import dpnls.cli

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(args.run_id)
        tracer.install()
    t0 = time.perf_counter()
    try:
        exit_code = dpnls.cli.main(args.cli_args)
    finally:
        wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    out = {"wall_s": wall_s, "exit_code": exit_code}
    if tracer is None:
        return out

    import dpnls.groundstate
    from layers import layer_metrics
    with open(args.spans, "w") as fh:
        for name, start, end, parent, info in tracer.spans:
            fh.write(json.dumps({"run": tracer.run_id, "name": name,
                                 "start": start, "end": end, "parent": parent,
                                 "info": info}, default=repr) + "\n")
    layers = layer_metrics(tracer.spans, getattr(
        dpnls.groundstate, "first_integral_amplitude", None))
    layers["trace.unattributed_s"] = wall_s - layers["trace.self_sum_s"]
    layers["trace.missing_hooks"] = len(tracer.missing)
    out.update(layers=layers, missing=tracer.missing, hooked=len(tracer.hooked))
    return out


if __name__ == "__main__":
    main()
