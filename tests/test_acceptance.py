"""End-to-end acceptance checks.

Seven numbered checks cover the identity optimum, gradient correctness,
brute-force oracle equivalence, structural invariances, camera geometry,
the convergence demonstration, and bit-level determinism.  Each test
prints a single PASS/FAIL line (run with ``pytest -s`` to see them all).

Pinned convergence fixture (default config, seed 42, observed on the
reference machine): initial total 67.3014281939027, converged after
1657 of 2000 steps in about 3.5 seconds, with a 99.0007 percent loss
reduction, every per-target inter-keypoint Gram within 1 percent of the
teacher's, and raw per-target feature distances of 0.8 to 2.0 times the
teacher norm (relations match, raw features do not).  The total
criterion is met at step 626, and the depth block is frozen from that
step on.
"""

import json
import math
import time

import numpy as np

from geodistill import (
    BevFeatureMap,
    Box3D,
    CategoricalDepthMap,
    DepthBins,
    ForegroundDepthSet,
    ReferenceSelection,
    TargetKeypointFeatures,
    bev_distill_loss,
    bilinear_sample,
    build_gt_depth_map,
    default_config,
    evaluate_scene_losses,
    generate_scene,
    identity_student_inputs,
    inner_depth_loss,
    inter_channel_gram,
    inter_channel_loss,
    inter_keypoint_gram,
    inter_keypoint_loss,
    points_in_box,
    project_points,
    relative_depths,
    render_gt_views,
    run_gradcheck,
    run_train_toy,
    select_reference,
    unproject_pixel,
)
from geodistill.cli import main as cli_main
from geodistill.oracles import (
    bilinear_scalar,
    gram_channel_loops,
    gram_keypoint_loops,
    inner_depth_scalar,
    point_in_box_corners,
    smallest_error_scan,
)
from geodistill.rng import CounterRng


def report_line(num, label, ok, detail=""):
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal((n, n)))
    return q * np.sign(np.diag(r))


def make_fds(pixels, gt):
    return ForegroundDepthSet(
        target_index=0,
        pixels=np.asarray(pixels),
        gt_depth=np.asarray(gt, dtype=float),
        skipped=False,
    )


def expected_depths(rows, bins):
    """Continuous depths of bare logit rows via softmax expectation."""
    rows = np.asarray(rows, dtype=float)
    shifted = rows - rows.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    return probs @ bins.centers


class TestAcceptance:
    def test_1_identity_suite(self):
        """Exact-optimum student: relative-depth and both Gram losses are
        exactly zero with exactly zero gradients, in under a second."""
        t0 = time.perf_counter()
        cfg = default_config()
        scene = generate_scene(cfg.scene)
        views = render_gt_views(scene)
        maps, eff_views, student = identity_student_inputs(cfg, scene, views)
        res = evaluate_scene_losses(cfg, scene, eff_views, maps, student)
        elapsed = time.perf_counter() - t0
        zero_values = (
            res.components["inner_depth"] == 0.0
            and res.components["inter_channel"] == 0.0
            and res.components["inter_keypoint"] == 0.0
        )
        zero_grads = all(np.all(g == 0.0) for g in res.grad["depth_logits"]) and np.all(
            res.grad["bev_features"] == 0.0
        )
        ok = zero_values and zero_grads and elapsed < 1.0
        report_line(1, "identity suite", ok, f"{elapsed:.2f}s")
        assert zero_values, res.components
        assert zero_grads
        assert elapsed < 1.0, f"identity suite took {elapsed:.2f}s"

    def test_2_gradient_suite(self):
        """Analytic gradients of all five losses agree with central
        differences to 1e-5 over 100 seeded instances each, within 60 s."""
        cfg = default_config()
        rep = run_gradcheck(cfg)
        max_rel = rep.data["max_rel_error"]
        counts_ok = all(
            entry.get("instances", 0) >= 100 for entry in rep.data["losses"].values()
        )
        ok = rep.status == "passed" and max_rel <= 1e-5 and counts_ok and rep.wall_clock_s < 60.0
        report_line(2, "gradient suite", ok, f"max rel {max_rel:.2e}, {rep.wall_clock_s:.1f}s")
        assert rep.status == "passed"
        assert counts_ok, rep.data["losses"]
        assert max_rel <= 1e-5
        assert rep.wall_clock_s < 60.0

    def test_3_oracle_equivalence(self):
        """Gram matrices match triple loops within 1e-12 on 1000 draws,
        reference selection matches an exhaustive scan exactly on 1000
        draws, and bilinear sampling matches the 4-weight oracle."""
        rng = CounterRng(42)
        worst_gram = 0.0
        for i in range(1000):
            sub = rng.substream(f"acc-gram-{i}")
            n = 2 + int(sub.uniform(1)[0] * 15)
            c = 2 + int(sub.uniform(1)[0] * 15)
            f = sub.normal((n, c))
            d1 = np.max(np.abs(inter_channel_gram(f) - gram_channel_loops(f)))
            d2 = np.max(np.abs(inter_keypoint_gram(f) - gram_keypoint_loops(f)))
            worst_gram = max(worst_gram, float(d1), float(d2))
        sel = ReferenceSelection("all_to_adaptive_smallest_error")
        ref_mismatches = 0
        for i in range(1000):
            sub = rng.substream(f"acc-ref-{i}")
            n = 2 + int(sub.uniform(1)[0] * 10)
            order = np.sort(np.argsort(sub.uniform(144), kind="stable")[:n])
            pixels = np.stack([order % 12, order // 12], axis=1)
            gt = sub.uniform(n, 2.0, 40.0)
            pred = sub.uniform(n, 2.0, 40.0)
            fds = make_fds(pixels, gt)
            if select_reference(fds, pred, sel) != smallest_error_scan(gt, pred):
                ref_mismatches += 1
        worst_bilinear = 0.0
        for i in range(50):
            sub = rng.substream(f"acc-bilin-{i}")
            data = sub.normal((3, 7, 6))
            pts = np.column_stack([sub.uniform(20, -1.0, 7.5), sub.uniform(20, -1.0, 6.5)])
            got = bilinear_sample(data, pts)
            for k in range(20):
                want = bilinear_scalar(data, float(pts[k, 0]), float(pts[k, 1]))
                worst_bilinear = max(worst_bilinear, float(np.max(np.abs(got[k] - want))))
        ok = worst_gram <= 1e-12 and ref_mismatches == 0 and worst_bilinear <= 1e-12
        report_line(
            3,
            "oracle equivalence",
            ok,
            f"gram {worst_gram:.1e}, ref mismatches {ref_mismatches}, bilinear {worst_bilinear:.1e}",
        )
        assert worst_gram <= 1e-12
        assert ref_mismatches == 0
        assert worst_bilinear <= 1e-12

    def test_4_invariance_suite(self):
        """(a) additive gt shift with a fixed reference leaves the
        relative-depth loss bitwise unchanged (dyadic inputs); (b) the
        keypoint loss survives orthogonal channel mixing within 1e-9;
        (c) the channel loss is exactly zero under keypoint permutations;
        (d) box order moves the combined loss by at most 1e-12."""
        rng = CounterRng(42)
        bins = DepthBins(count=8, d_min=1.0, d_max=17.0)
        shift = 3.25
        shift_exact = True
        for i in range(100):
            sub = rng.substream(f"acc-shift-{i}")
            n = 2 + int(sub.uniform(1)[0] * 5)
            rows = [[float(v) for v in r] for r in 1.5 * sub.normal((n, 8))]
            gt = np.floor(sub.uniform(n, 8.0, 32.0) * 64.0) / 64.0
            ref = int(sub.uniform(1)[0] * n)
            a = inner_depth_scalar(rows, list(bins.centers), list(gt), ref)
            b = inner_depth_scalar(rows, list(bins.centers), list(gt + shift), ref)
            if a != b:
                shift_exact = False
        # library-level: instances built so the adaptive reference cannot
        # move when gt shifts; relative depths and loss stay bitwise equal
        sel = ReferenceSelection("all_to_adaptive_smallest_error")
        for i in range(50):
            sub = rng.substream(f"acc-shift-lib-{i}")
            n = 3 + int(sub.uniform(1)[0] * 3)
            order = np.sort(np.argsort(sub.uniform(30), kind="stable")[:n])
            pixels = np.stack([order % 6, order // 6], axis=1)
            logits = np.zeros((8, 5, 6))
            rows = 1.5 * sub.normal((n, 8))
            logits[:, pixels[:, 1], pixels[:, 0]] = rows.T
            dm = CategoricalDepthMap(logits)
            depths = expected_depths(rows, bins)
            gt = np.floor((depths + 8.0) * 64.0) / 64.0
            gt[0] = np.floor(depths[0] * 64.0) / 64.0  # near-zero error anchors pixel 0
            fds_a = make_fds(pixels, gt)
            fds_b = make_fds(pixels, gt + shift)
            assert select_reference(fds_a, depths, sel) == 0
            assert select_reference(fds_b, depths, sel) == 0
            la = inner_depth_loss([fds_a], dm, bins, sel)
            lb = inner_depth_loss([fds_b], dm, bins, sel)
            if la.value != lb.value or not np.array_equal(la.grad, lb.grad):
                shift_exact = False
            ra = relative_depths(fds_a, depths, 0)
            rb = relative_depths(fds_b, depths, 0)
            if not (np.array_equal(ra[0], rb[0]) and np.array_equal(ra[1], rb[1])):
                shift_exact = False

        worst_orth = 0.0
        for i in range(100):
            sub = rng.substream(f"acc-orth-{i}")
            ft = sub.normal((6, 5))
            q = random_orthogonal(sub, 5)
            val = inter_keypoint_loss([TargetKeypointFeatures(ft @ q, ft)]).value
            worst_orth = max(worst_orth, abs(val))
        orth_ok = worst_orth <= 1e-9

        perm_exact = True
        for i in range(100):
            sub = rng.substream(f"acc-perm-{i}")
            ft = sub.normal((7, 4))
            perm = np.argsort(sub.uniform(7), kind="stable")
            if inter_channel_loss([TargetKeypointFeatures(ft[perm], ft)]).value != 0.0:
                perm_exact = False

        cfg = default_config()
        scene = generate_scene(cfg.scene)
        boxes = scene.boxes
        noisy = CounterRng(7).normal(scene.teacher_bev.data.shape, sigma=0.2)
        student = BevFeatureMap(scene.teacher_bev.data + noisy, scene.grid)
        base = bev_distill_loss(student, scene.teacher_bev, boxes, g=4)
        worst_order = 0.0
        for perm in ([1, 0, 3, 2], [3, 2, 1, 0], [2, 3, 0, 1]):
            other = bev_distill_loss(
                student, scene.teacher_bev, [boxes[j] for j in perm], g=4
            )
            rel = abs(other.value - base.value) / max(abs(base.value), 1e-30)
            grad_rel = float(
                np.max(np.abs(other.grad - base.grad)) / max(np.max(np.abs(base.grad)), 1e-30)
            )
            worst_order = max(worst_order, rel, grad_rel)
        order_ok = worst_order <= 1e-12

        ok = shift_exact and orth_ok and perm_exact and order_ok
        report_line(
            4,
            "invariance suite",
            ok,
            f"shift exact {shift_exact}, orth {worst_orth:.1e}, "
            f"perm exact {perm_exact}, box order {worst_order:.1e}",
        )
        assert shift_exact
        assert orth_ok, worst_orth
        assert perm_exact
        assert order_ok, worst_order

    def test_5_geometry_suite(self):
        """Project/unproject round-trips stay within 1e-9 over 10^4
        in-frustum points, box containment matches the half-space oracle
        on 10^4 points, and constructed pixel collisions keep the
        minimum depth."""
        cfg = default_config()
        scene = generate_scene(cfg.scene)
        rng = CounterRng(42)
        worst_rt = 0.0
        per_cam = 10_000 // len(scene.cameras) + 1
        total = 0
        for ci, cam in enumerate(scene.cameras):
            sub = rng.substream(f"acc-rt-{ci}")
            us = sub.uniform(per_cam, 0.0, cam.width - 1e-6)
            vs = sub.uniform(per_cam, 0.0, cam.height - 1e-6)
            ds = sub.uniform(per_cam, cam.z_near + 0.4, 60.0)
            world = np.stack(
                [unproject_pixel(cam, u, v, d) for u, v, d in zip(us, vs, ds)]
            )
            proj = project_points(cam, world)
            if len(proj) != per_cam:
                worst_rt = math.inf
                break
            back = proj.index
            worst_rt = max(
                worst_rt,
                float(np.max(np.abs(proj.u - us[back]))),
                float(np.max(np.abs(proj.v - vs[back]))),
                float(np.max(np.abs(proj.depth - ds[back]))),
            )
            total += per_cam
        rt_ok = total >= 10_000 and worst_rt <= 1e-9

        box_mismatches = 0
        for bi in range(20):
            sub = rng.substream(f"acc-box-{bi}")
            center = sub.uniform(3, -8.0, 8.0)
            center[2] = abs(center[2]) / 4.0 + 0.5
            size = sub.uniform(3, 0.5, 5.0)
            yaw = float(sub.uniform(1, -math.pi, math.pi)[0])
            box = Box3D(center=center, size=size, yaw=yaw)
            pts = center + sub.uniform((500, 3), -4.0, 4.0)
            got = points_in_box(box, pts)
            for k in range(500):
                if bool(got[k]) != point_in_box_corners(box, pts[k]):
                    box_mismatches += 1
        box_ok = box_mismatches == 0

        cam = scene.cameras[0]
        collide = [(10.3, 7.8, [5.0, 3.0, 9.0]), (60.6, 40.2, [2.0, 2.5]), (30.9, 12.1, [7.0, 7.0, 6.5, 20.0])]
        pts = []
        for u, v, depths in collide:
            for d in depths:
                pts.append(unproject_pixel(cam, u, v, d))
        pts = np.stack(pts)
        depth_map, valid = build_gt_depth_map(cam, pts)
        proj = project_points(cam, pts)
        oracle_min = {}
        for u, v, d in zip(proj.u, proj.v, proj.depth):
            key = (int(v), int(u))
            oracle_min[key] = min(d, oracle_min.get(key, math.inf))
        zbuf_ok = len(oracle_min) == len(collide)
        for (u, v, depths) in collide:
            key = (int(v), int(u))
            if not valid[key]:
                zbuf_ok = False
                continue
            if depth_map[key] != oracle_min[key]:
                zbuf_ok = False
            if abs(depth_map[key] - min(depths)) > 1e-9:
                zbuf_ok = False

        ok = rt_ok and box_ok and zbuf_ok
        report_line(
            5,
            "geometry suite",
            ok,
            f"round trip {worst_rt:.1e} over {total} pts, "
            f"box mismatches {box_mismatches}, z-buffer {'ok' if zbuf_ok else 'bad'}",
        )
        assert rt_ok, worst_rt
        assert box_ok, box_mismatches
        assert zbuf_ok

    def test_6_convergence_demo(self):
        """Default toy training converges: at least 99 percent loss
        reduction within 2000 steps, every target's inter-keypoint Gram
        within 1 percent of the teacher's, raw features still far away,
        under 60 s."""
        cfg = default_config()
        rep = run_train_toy(cfg)
        d = rep.data
        ik_rels = [e["inter_keypoint_rel"] for e in d["gram_distances"]]
        raw_rels = [e["raw_feature_rel"] for e in d["gram_distances"]]
        converged = rep.status == "converged" and d["steps_run"] <= 2000
        reduced = d["loss_reduction"] >= 0.99
        grams_close = max(ik_rels) <= 0.01
        raw_far = min(raw_rels) > 0.05
        fast = rep.wall_clock_s < 60.0
        pinned = abs(d["initial_total"] - 67.3014281939027) <= 1e-6 * 67.3
        # the depth block freezes where the total criterion is first met
        frozen = d["depth_frozen_at"] is not None and d["total_met_step"] == d["depth_frozen_at"] < d["steps_run"]
        ok = converged and reduced and grams_close and raw_far and fast and pinned and frozen
        report_line(
            6,
            "convergence demo",
            ok,
            f"{rep.status} in {d['steps_run']} steps, reduction {d['loss_reduction']:.4f}, "
            f"worst ik rel {max(ik_rels):.4f}, min raw rel {min(raw_rels):.2f}, "
            f"total met at {d['total_met_step']}, depth frozen at {d['depth_frozen_at']}, "
            f"{rep.wall_clock_s:.1f}s",
        )
        assert converged, (rep.status, d["steps_run"])
        assert reduced, d["loss_reduction"]
        assert grams_close, ik_rels
        assert raw_far, raw_rels
        assert fast, rep.wall_clock_s
        assert pinned, d["initial_total"]
        assert frozen, (d["total_met_step"], d["depth_frozen_at"])

    def test_7_determinism(self, tmp_path):
        """Scene bytes and every report are bit-identical across four
        repeated runs (timing field excluded)."""
        small = {
            "scene": {
                "seed": 5,
                "num_boxes": 2,
                "num_cameras": 2,
                "points_per_box": 80,
                "ground_points": 300,
                "channels": 4,
                "grid": [-24.0, 24.0, -24.0, 24.0, 24, 24],
                "image_width": 48,
                "image_height": 32,
                "focal": 40.0,
            },
            "bins": {"count": 16},
            "keypoint_g": 3,
            "gradcheck": {"instances": 8},
            "optimizer": {"max_steps": 40},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(small))

        def normalized(path):
            with open(path) as fobj:
                data = json.load(fobj)
            data["wall_clock_s"] = 0.0
            return json.dumps(data, sort_keys=True)

        runs = []
        for run_idx in range(4):
            out = tmp_path / f"run{run_idx}"
            scene_code = cli_main(
                ["gen-scene", "--config", "default", "--out", str(out)]
            )
            assert scene_code == 0
            for cmd in (
                ["eval-losses", "--config", str(cfg_path), "--out", str(out)],
                ["gradcheck", "--config", str(cfg_path), "--out", str(out)],
                ["train-toy", "--config", str(cfg_path), "--out", str(out)],
            ):
                code = cli_main(cmd)
                assert code in (0, 1)  # train-toy hits max_steps by design
            runs.append(
                {
                    "scene": (out / "scene.scn").read_bytes(),
                    "teacher": (out / "teacher_bev.tsr").read_bytes(),
                    "eval": normalized(out / "eval_report.json"),
                    "gradcheck": normalized(out / "gradcheck_report.json"),
                    "train": normalized(out / "train_report.json"),
                }
            )
        ok = all(runs[0] == other for other in runs[1:])
        report_line(7, "determinism", ok, "4 runs")
        for key in ("scene", "teacher", "eval", "gradcheck", "train"):
            for other in runs[1:]:
                assert runs[0][key] == other[key], f"{key} differs across runs"
