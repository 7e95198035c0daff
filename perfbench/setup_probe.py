"""Set-up probe: everything a bardina2d run does before its first step.

Usage: python perfbench/setup_probe.py CONFIG_JSON

Pins the thread pools as the CLI does, imports the package, parses the
config, builds the plan, the model parameters and the initial state, then
exits.  The benchmark times the whole process from outside, so interpreter
start and imports count, and no timed command ever finds a warm plan.
"""

import sys


def main(path):
    from bardina2d import cli

    cli._pin_thread_pools()
    from bardina2d import config

    with open(path, "r", encoding="utf-8") as fh:
        spec = config.parse_config(fh.read())
    plan = config.build_plan(spec)
    config.model_params(plan, spec)
    config.initial_state(plan, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
