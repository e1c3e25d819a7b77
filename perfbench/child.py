"""Child-side runner: one critfin CLI invocation, timed and optionally traced.

    python perfbench/child.py RESULT_JSON TRACE CRITFIN_ARG...

TRACE is 0 or 1.  The runner imports ``critfin`` from ``PYTHONPATH``, wraps
the layer functions when TRACE is 1, calls ``critfin.cli.main`` with the
remaining arguments, and writes its monotonic timestamps (start of this
script, end of ``import critfin``, end of the command), the exit code and the
trace summary to RESULT_JSON.  It exits with the command's exit code.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[3:]
    import critfin.cli

    t_imported = time.monotonic()
    recorder = None
    if trace:
        import tracer  # sibling module: this script's directory is sys.path[0]

        recorder = tracer.Recorder()
        tracer.install(recorder)
    code = critfin.cli.main(argv)
    sys.stdout.flush()
    t_done = time.monotonic()
    payload = {"start": T_START, "imported": t_imported, "done": t_done, "code": code}
    if recorder is not None:
        payload["trace"] = recorder.summary()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
