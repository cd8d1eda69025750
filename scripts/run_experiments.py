#!/usr/bin/env python3
"""Run the shipped experiment configs and report one status line each.

Usage:
    python scripts/run_experiments.py            # run everything
    python scripts/run_experiments.py river      # configs matching 'river'
"""

import sys
from pathlib import Path

from isogeo import experiments
from isogeo.config import ConfigError, load_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def main(argv):
    pattern = argv[1] if len(argv) > 1 else ""
    configs = sorted(p for p in CONFIG_DIR.glob("*.ini") if pattern in p.name)
    if not configs:
        print(f"no configs matching {pattern!r} in {CONFIG_DIR}")
        return 2
    worst = 0
    for path in configs:
        try:
            config = load_config(path)
        except ConfigError as exc:
            print(f"{path.name}: CONFIG ERROR\n  " + "\n  ".join(exc.problems))
            worst = max(worst, 2)
            continue
        code = experiments.run(config)
        status = {0: "ok", 3: "stalled", 4: "internal error"}.get(code, f"exit {code}")
        print(f"{path.name}: {status} -> {config.output_dir}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv))
