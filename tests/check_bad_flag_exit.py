#!/usr/bin/env python3
"""Run a bench with a flag value it cannot honour and check it is refused
up front: exit code 2, nothing on stdout, and a "bad_flag" error JSON on
stderr.

Usage: check_bad_flag_exit.py <bench> [args...]
"""

import json
import subprocess
import sys


def main():
    proc = subprocess.run(sys.argv[1:], capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 2:
        sys.exit(f"expected exit 2, got {proc.returncode}\n{proc.stderr}")
    if proc.stdout:
        sys.exit(f"expected empty stdout, got:\n{proc.stdout}")
    err = json.loads(proc.stderr)
    if err.get("error") != "bad_flag":
        sys.exit(f"expected error 'bad_flag', got {err!r}")
    print(f"ok: exit 2, empty stdout, {err['what']}")


if __name__ == "__main__":
    main()
