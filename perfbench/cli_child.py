"""Run one relspin CLI invocation under the span tracer.

    python3 perfbench/cli_child.py STATS_PATH [relspin arguments...]

Imports relspin.cli, installs the tracer, runs the command and writes
the span counts to STATS_PATH as JSON.
The exit code is the command's.  Traced runs of cli-mix use this in
place of `python -m relspin.cli`.
"""

import json
import sys

if __name__ == "__main__":
    import relspin.cli
    from tracer import Tracer

    tracer = Tracer().install()
    rc = relspin.cli.main(sys.argv[2:])
    sys.stdout.flush()
    with open(sys.argv[1], "w") as fh:
        json.dump(tracer.snapshot(), fh)
    sys.exit(rc)
