"""One cold set-up, timed in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py CONFIG SEED

Times importing geodistill, then generate_scene, render_gt_views and the
random student construction train-toy starts from, and prints
``{"setup_s": ...}``.  run.py starts several and reports the median.
"""

import json
import sys
import time

import env


def main(argv) -> int:
    config, seed = argv[0], int(argv[1])
    env.pin_threads()
    t0 = time.perf_counter()
    harness = env.load_package("geodistill.harness")
    cfg = harness.load_config(config)
    cfg.scene.seed = seed
    scene = harness.generate_scene(cfg.scene)
    views = harness.render_gt_views(scene)
    harness.random_student_inputs(cfg, scene, views)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
