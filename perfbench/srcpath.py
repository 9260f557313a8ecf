"""Puts the checkout's ``src/`` on ``sys.path``; exits when it is missing.

The benchmark runs the program from source, so it needs the whole
checkout.  Importing this module first makes every benchmark entry point
fail fast -- with a non-zero exit and no result -- anywhere else.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no repro package under {SRC}; run from a full checkout")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
