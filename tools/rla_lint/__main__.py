"""Entry point so `python3 tools/rla_lint ...` runs the driver."""

import os
import sys

# Make `rla_lint.*` importable no matter how we were invoked.
_TOOLS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _TOOLS_DIR not in sys.path:
    sys.path.insert(0, _TOOLS_DIR)

from rla_lint.driver import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
