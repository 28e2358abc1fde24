import sys
from pathlib import Path

# allow acceptance tests to reuse the oracles defined in sibling test modules,
# and the accuracy scorer to import the benchmark's workloads (perfbench.workloads)
sys.path[:0] = [str(Path(__file__).parent), str(Path(__file__).parents[1])]
