"""Traced command-line child for the ``cold-cli`` workload.

Usage: ``python bench/cli_worker.py STATS_JSON CLI_ARGS...``.  Installs the
layer wrappers, runs ``grlcodes.cli.main(CLI_ARGS)``, writes the span
aggregates to STATS_JSON and exits with the command's exit code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.tracer import Tracer  # noqa: E402


def main(argv):
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from grlcodes import cli
    try:
        rc = cli.main(cli_args)
    except SystemExit as exc:   # argparse usage errors
        rc = exc.code
    finally:
        tracer.uninstall()
        Path(stats_path).write_text(json.dumps(tracer.to_json()))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
