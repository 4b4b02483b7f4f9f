"""One benchmark process: resolve the config, then run mpisim's CLI in-process.

Usage: child.py RESULT_JSON MODE -- MPISIM_ARGS...

MODE is "run" (call mpisim.cli.main), "trace" (the same with spans around
every layer) or "setup" (stop once the config is resolved).  The result file
gets the CLOCK_MONOTONIC time at which the config was resolved, the exit
code, and in trace mode the spans and counts.
"""

import json
import sys
import time


def main(argv) -> int:
    result_path, mode, sep, *mpisim_argv = argv
    if sep != "--" or mode not in ("run", "trace", "setup"):
        raise SystemExit("usage: child.py RESULT_JSON run|trace|setup -- ARGS...")
    from mpisim import cli

    marks = {}
    load = cli.RunConfig.load.__func__

    def timed_load(cls, *args, **kwargs):
        cfg = load(cls, *args, **kwargs)
        marks.setdefault("config_resolved", time.monotonic())
        return cfg

    cli.RunConfig.load = classmethod(timed_load)
    tracer = None
    if mode == "setup":
        args = cli.build_parser().parse_args(mpisim_argv)
        cli.RunConfig.load(args.config, args.set)
        code = 0
    else:
        if mode == "trace":
            import tracer as tracer_mod

            tracer = tracer_mod.Tracer()
            tracer_mod.install(tracer)
        code = cli.main(mpisim_argv)
    result = {"exit_code": code, **marks}
    if tracer is not None:
        result["spans"] = [list(s) for s in tracer.spans]
        result["counts"] = dict(tracer.counts)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
