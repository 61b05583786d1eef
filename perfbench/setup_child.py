"""Time the benchmark's set-up in a fresh interpreter: import the package
and load every generated config. Prints the raw seconds and the seconds
at the reference speed (see speed.py).

Usage: python3 setup_child.py SRC_DIR CONFIG...
"""

import sys

import speed


def main(argv):
    meter = speed.SpeedMeter()
    with meter.measure():
        sys.path.insert(0, argv[0])
        from guided_dynamics import cli
        for path in argv[1:]:
            cli.load_config(path)
    print(repr(meter.raw), repr(meter.scaled))


if __name__ == "__main__":
    main(sys.argv[1:])
