"""Metric catalogue and the per-layer figures taken from a traced pass.

END_TO_END and PER_LAYER are the metrics every workload emits with
``--trace 0`` and ``--trace 1``; ``BENCHMARK.json`` lists the same names
(``test_perfbench.py`` checks that).  Each per-layer entry records which
end-to-end figure it should move, and on which workload, so a change to
one layer can be checked against the trace.

VERIFY_LAYERS are the layers only the verify workload exercises; they
are reported in its result file rather than on the result line, where a
time that is zero on the training workloads would read the same on
every run.
"""

from __future__ import annotations

import os
from typing import Dict, List, NamedTuple

import numpy as np


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("unit_ms", "ms", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)

_TRAIN = "steps_per_s/unit_ms on converge-default, little on bev-heavy"
_DEPTH = "steps_per_s on converge-default; eval_losses_ms and gradcheck_s on verify"
_BEV = "steps_per_s on bev-heavy first, then on converge-default"
_SETUP = "setup_s on every workload, and eval_losses_ms on verify"

PER_LAYER = (
    Metric("harness.train_self_s", "s", "lower", _TRAIN),
    Metric("harness.train_self_ms_per_step", "ms", "lower", _TRAIN),
    Metric("depth_supervision.select_reference_s", "s", "lower", _DEPTH),
    Metric("depth_supervision.select_reference_calls", "count", "lower", _DEPTH),
    Metric("depth_supervision.absolute_depth_loss_s", "s", "lower", _DEPTH),
    Metric("depth_supervision.inner_depth_loss_s", "s", "lower", _DEPTH),
    Metric("depth_supervision.bin_cells_per_step", "count", "lower", _DEPTH),
    Metric("bev_distillation.bev_distill_terms_s", "s", "lower", _BEV),
    Metric("bev_distillation.bev_distill_terms_calls", "count", "lower", _BEV),
    Metric("bev_distillation.bev_distill_terms_ms_per_step", "ms", "lower", _BEV),
    Metric("bev_distillation.sample_keypoints_s", "s", "lower", _BEV),
    Metric("bev_distillation.bilinear_sample_s", "s", "lower", _BEV),
    Metric("bev_distillation.bilinear_sample_backward_s", "s", "lower", _BEV),
    Metric("bev_distillation.inter_channel_gram_s", "s", "lower", _BEV),
    Metric("bev_distillation.inter_keypoint_gram_s", "s", "lower", _BEV),
    Metric("bev_distillation.keypoint_features_per_step", "count", "lower", _BEV),
    Metric("bev_distillation.clipped_lattices", "count", "lower", _BEV),
    Metric(
        "bev_distillation.teacher_gram_reuse", "ratio", "higher",
        "steps_per_s on bev-heavy; peak_rss_mb should not move",
    ),
    Metric("numerics.matmul_s", "s", "lower", "steps_per_s on bev-heavy"),
    Metric("numerics.matmul_calls", "count", "lower", "steps_per_s on bev-heavy"),
    Metric("numerics.matmul_k_iters", "count", "lower", "steps_per_s on bev-heavy"),
    Metric("scenegen.generate_scene_s", "s", "lower", _SETUP),
    Metric("scenegen.render_gt_views_s", "s", "lower", _SETUP),
    Metric("geometry.build_gt_depth_map_s", "s", "lower", _SETUP),
    Metric("geometry.foreground_pixel_sets_s", "s", "lower", _SETUP),
    Metric("rng.normal_s", "s", "lower", _SETUP),
    Metric("rng.draws", "count", "lower", _SETUP),
    Metric("harness.random_student_inputs_s", "s", "lower", _SETUP),
    Metric("cli.write_report_s", "s", "lower", "run_s on every workload"),
    Metric("cli.report_bytes", "bytes", "lower", "run_s on every workload"),
    Metric("trace.overhead_ratio", "ratio", "lower", "none: the cost of tracing itself"),
)

VERIFY_LAYERS = (
    Metric("numerics.finite_difference_gradient_s", "s", "lower", "gradcheck_s on verify"),
    Metric("numerics.fd_function_evals", "count", "lower", "gradcheck_s on verify"),
    Metric("harness.run_gradcheck_s", "s", "lower", "gradcheck_s on verify"),
    Metric("harness.gradcheck_kept_ratio", "ratio", "higher", "gradcheck_s on verify"),
    Metric("oracles.run_oracle_suite_s", "s", "lower", "oracle_s on verify"),
)

# Per-layer time metrics read straight off the span summary:
# metric name -> (span name, "total_s" or "self_s").
_SPAN_TIMES = {
    "harness.train_self_s": ("harness.run_train_toy", "self_s"),
    "depth_supervision.select_reference_s": ("depth_supervision.select_reference", "total_s"),
    "depth_supervision.absolute_depth_loss_s": ("depth_supervision.absolute_depth_loss", "total_s"),
    "depth_supervision.inner_depth_loss_s": ("depth_supervision.inner_depth_loss", "total_s"),
    "bev_distillation.bev_distill_terms_s": ("bev_distillation.bev_distill_terms", "total_s"),
    "bev_distillation.sample_keypoints_s": ("bev_distillation.sample_keypoints", "total_s"),
    "bev_distillation.bilinear_sample_s": ("bev_distillation.bilinear_sample", "total_s"),
    "bev_distillation.bilinear_sample_backward_s": (
        "bev_distillation.bilinear_sample_backward", "total_s"),
    "bev_distillation.inter_channel_gram_s": ("bev_distillation.inter_channel_gram", "total_s"),
    "bev_distillation.inter_keypoint_gram_s": ("bev_distillation.inter_keypoint_gram", "total_s"),
    "numerics.matmul_s": ("numerics.matmul", "total_s"),
    "scenegen.generate_scene_s": ("scenegen.generate_scene", "total_s"),
    "scenegen.render_gt_views_s": ("scenegen.render_gt_views", "total_s"),
    "geometry.build_gt_depth_map_s": ("geometry.build_gt_depth_map", "total_s"),
    "geometry.foreground_pixel_sets_s": ("geometry.foreground_pixel_sets", "total_s"),
    "rng.normal_s": ("rng.normal", "total_s"),
    "harness.random_student_inputs_s": ("harness.random_student_inputs", "total_s"),
    # write_report is defined in harness and called only by the CLI
    "cli.write_report_s": ("harness.write_report", "total_s"),
    "numerics.finite_difference_gradient_s": ("numerics.finite_difference_gradient", "total_s"),
    "harness.run_gradcheck_s": ("harness.run_gradcheck", "total_s"),
    "oracles.run_oracle_suite_s": ("oracles.run_oracle_suite", "total_s"),
}

_DISTILL = "bev_distillation.bev_distill_terms"


def _count_k(tracer, args, kwargs):
    tracer.counters["matmul_k_iters"] += np.shape(args[0])[1]


def _count_fd(tracer, args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    tracer.counters["fd_function_evals"] += 2 * np.size(x)


def _teacher_key(teacher) -> tuple:
    data = teacher.data
    return data.shape, data.ravel()[::97].tobytes()


def _count_distill(tracer, args, kwargs):
    """Record each distinct (teacher map, box, lattice) whose two teacher
    Grams a call needs."""
    teacher, boxes = args[1], args[2]
    lattice = (
        kwargs.get("g", args[3] if len(args) > 3 else 6),
        kwargs.get("enlarge", args[4] if len(args) > 4 else 1.25),
        kwargs.get("normalization", args[5] if len(args) > 5 else "none"),
    )
    key = _teacher_key(teacher)
    for box in boxes:
        box_key = (box.center.tobytes(), box.size.tobytes(), float(box.yaw))
        tracer.distinct["teacher_grams"].add((key, box_key, lattice))


def _count_teacher_gram(tracer, args, kwargs):
    # Student Grams inside bev_distill_terms go through matmul directly,
    # so every Gram-function call under it computes a teacher Gram.
    if tracer.in_span(_DISTILL):
        tracer.counters["teacher_gram_calls"] += 1


def _count_clipped(tracer, args, kwargs, result):
    if result.clipped:
        tracer.counters["clipped_lattices"] += 1


def _count_report(tracer, args, kwargs, result):
    tracer.counters["report_bytes"] += os.path.getsize(args[0])


def _count_draws(tracer, n):
    tracer.counters["rng_draws"] += n


HOOKS = {
    "numerics.matmul": (_count_k, None),
    "numerics.finite_difference_gradient": (_count_fd, None),
    _DISTILL: (_count_distill, None),
    "bev_distillation.inter_channel_gram": (_count_teacher_gram, None),
    "bev_distillation.inter_keypoint_gram": (_count_teacher_gram, None),
    "bev_distillation.sample_keypoints": (None, _count_clipped),
    "harness.write_report": (None, _count_report),
    "rng.next_u64": _count_draws,
}


def layer_metrics(
    tracer,
    spans: Dict[str, Dict[str, float]],
    steps: int,
    bin_cells: int,
    keypoint_features: int,
    overhead_ratio: float,
    gradcheck_kept_ratio: float,
) -> Dict[str, float]:
    """Every PER_LAYER and VERIFY_LAYERS figure of one traced pass.

    ``spans`` is ``tracer.summary()``; ``steps`` counts optimizer steps in
    the pass; the two ``_per_step`` inputs are computed from the
    workload's scene and config.
    """

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0.0)

    out = {m: span(*src) for m, src in _SPAN_TIMES.items()}
    counters = tracer.counters
    distill_calls = span(_DISTILL, "calls")
    teacher_calls = counters["teacher_gram_calls"]
    needed = 2 * len(tracer.distinct["teacher_grams"])
    out.update(
        {
            "harness.train_self_ms_per_step": 1000.0 * out["harness.train_self_s"] / max(steps, 1),
            "depth_supervision.select_reference_calls": span(
                "depth_supervision.select_reference", "calls"),
            "depth_supervision.bin_cells_per_step": bin_cells,
            "bev_distillation.bev_distill_terms_calls": distill_calls,
            "bev_distillation.bev_distill_terms_ms_per_step": (
                1000.0 * out["bev_distillation.bev_distill_terms_s"] / max(distill_calls, 1)),
            "bev_distillation.keypoint_features_per_step": keypoint_features,
            "bev_distillation.clipped_lattices": counters["clipped_lattices"],
            # teacher Grams needed over teacher Grams computed; 1.0 when
            # none is computed inside bev_distill_terms (cached elsewhere)
            "bev_distillation.teacher_gram_reuse": needed / teacher_calls if teacher_calls else 1.0,
            "numerics.matmul_calls": span("numerics.matmul", "calls"),
            "numerics.matmul_k_iters": counters["matmul_k_iters"],
            "numerics.fd_function_evals": counters["fd_function_evals"],
            "rng.draws": counters["rng_draws"],
            "cli.report_bytes": counters["report_bytes"],
            "trace.overhead_ratio": overhead_ratio,
            "harness.gradcheck_kept_ratio": gradcheck_kept_ratio,
        }
    )
    return out


def catalogue() -> List[Metric]:
    return list(END_TO_END) + list(PER_LAYER) + list(VERIFY_LAYERS)
