"""Time one benchmark set-up in a fresh process and print the seconds.

Set-up is everything before the first timed command: importing numpy
and coringlab, generating the seeded inputs, loading and validating
them.  run.py starts this script several times and reports the median
as ``setup_s``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

import run  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    run.pin_environment()
    run.setup(args.workload, args.seed, args.workdir)
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main()
