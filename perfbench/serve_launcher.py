"""Start ``gsap serve`` with the per-layer probe installed.

Usage: ``python -m perfbench.serve_launcher STATS_JSON serve [ARGS...]``

The wrappers go in before ``repro.cli.main`` runs, so every job the
server executes is timed at the same names as an in-process run.  When
the server shuts down, the probe's totals are written to STATS_JSON.
"""

from __future__ import annotations

import json
import os
import sys

from perfbench.layers import Probe


def main(argv) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    from repro.cli import main as cli_main

    with Probe() as probe:
        code = cli_main(cli_args)
    tmp = stats_path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(dict(probe.totals), handle)
    os.replace(tmp, stats_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
