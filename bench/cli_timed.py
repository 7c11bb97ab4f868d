"""Untraced command-line child for the ``cold-cli`` workload.

Usage: ``python bench/cli_timed.py KERNEL_JSON CLI_ARGS...``.  Runs
``grlcodes.cli`` as ``python -m grlcodes.cli CLI_ARGS...`` would, while a
``KernelSampler`` times the reference kernel every ``SAMPLE_EVERY``
seconds of CPU time; then writes the kernel times and the time they took
to KERNEL_JSON and exits with the command's exit code.
"""

import json
import runpy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.harness import SAMPLE_EVERY, KernelSampler  # noqa: E402


def main(argv):
    stats_path, cli_args = argv[0], argv[1:]
    sys.argv = ["grlcodes.cli", *cli_args]
    sampler = KernelSampler(SAMPLE_EVERY)
    rc = 0
    try:
        with sampler:
            runpy.run_module("grlcodes.cli", run_name="__main__",
                             alter_sys=True)
    except SystemExit as exc:
        rc = exc.code
    finally:
        Path(stats_path).write_text(json.dumps(
            {"samples": sampler.samples, "spent": sampler.spent}))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
