"""Write one workload's scene directory: ``scene.py <workload> <scene seed> <dir>``.

Run as its own process so that the generator's memory does not count
towards the benchmark's peak resident memory.
"""

import sys

from workloads import WORKLOADS, generate_scene_dir

if __name__ == "__main__":
    name, scene_seed, out_dir = sys.argv[1:4]
    generate_scene_dir(WORKLOADS[name], int(scene_seed), out_dir)
