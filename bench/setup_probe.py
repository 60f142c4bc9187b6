"""Set-up probe: import poakit and load the documents named on the command line.

Each argument is ``game=<path>`` or ``family=<path>``.  The benchmark times
a fresh interpreter running this file; it exits 0 once every document has
loaded and validated.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from poakit.decomposition import load_family  # noqa: E402
from poakit.game import load_game  # noqa: E402

LOADERS = {"game": load_game, "family": load_family}

for arg in sys.argv[1:]:
    kind, path = arg.split("=", 1)
    LOADERS[kind](Path(path).read_text(encoding="utf-8"))
