import sys
from pathlib import Path

# The benchmark's tests import the package from this checkout's sources and
# the benchmark's modules from this directory.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))
