"""Strategy-effectiveness study: cost the four control strategies at the
comparison default and across the gamma, kappa2, beta and t_f sweeps.

Writes one table per experiment (table.csv plus a JSON mirror) under the
output root; the sweep tables hold one row per (parameter value, strategy).
"""

import argparse
import sys

from marketopt.cli import main as cli_main
from marketopt.experiments import SWEEP_PARAMETERS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/effectiveness", help="output root")
    args = parser.parse_args()

    status = cli_main(
        ["compare", "--preset", "comparison-default", "--out", f"{args.out}/default"]
    )
    print(f"compare default: exit {status}")
    for parameter in SWEEP_PARAMETERS:
        code = cli_main(
            [
                "sweep",
                "--preset", "comparison-default",
                "--param", parameter,
                "--out", f"{args.out}/sweep-{parameter}",
            ]
        )
        print(f"sweep {parameter}: exit {code}")
        status = max(status, code)
    return status


if __name__ == "__main__":
    sys.exit(main())
