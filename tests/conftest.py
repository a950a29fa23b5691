import sys
from pathlib import Path

# Allow running pytest without installing the package first, and let tests
# import the helpers of scripts/ (such as tree_digests) as modules.
for path in ("src", "scripts"):
    path = Path(__file__).resolve().parent.parent / path
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
