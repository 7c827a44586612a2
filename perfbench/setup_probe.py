"""Set-up probe for the step-cost benchmark.

Does what ``run.py`` does before its first optimizer step (pin threads,
import salsa_opt, build the workload's problem and run list) and prints the
``time.monotonic()`` reading at that moment. ``run.py`` starts this script
several times, each right after a reference launch, and takes the median of
(printed reading - launch time), scaled by the reference, as ``setup_s``;
CLOCK_MONOTONIC is shared by all processes on the machine.

    python3 perfbench/setup_probe.py --workload quad-search --seed 1
"""

import argparse
import time

import bootstrap


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    bootstrap.pin_threads()
    bootstrap.import_program()
    import workloads
    workloads.build(args.workload, args.seed)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
