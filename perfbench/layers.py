"""Per-layer metrics of a traced run, and the end-to-end metric each moves.

Span metrics are self times: a span's duration minus its child spans. Each
metric is the median over traced ops of its per-op total; set-up metrics
(``phantoms.*``) are the median over set-up repetitions. A layer that is not
on a workload's path reports 0.
"""

from __future__ import annotations

import statistics

# (name prefix or prefixes, the end-to-end metric it should move on which
# workloads); the first match wins
MOVES = (
    (("volumeio.decoded_mb", "radiomics.roi_voxels", "radiomics.mesh_faces",
      "radiomics.glszm_zones", "radiomics.glrlm_runs"),
     "none: input size, repeats exactly"),
    ("volumeio.", "adj_op_p50_s on extract_brats; near 0 on extract_desk"),
    ("imagefeat.", "adj_op_p50_s on extract_brats"),
    ("radiomics.",
     "adj_op_p50_s on extract_brats, adj_ops_per_s on extract_desk"),
    ("featselect.", "adj_op_p50_s on rfe; 0 on experiment"),
    ("regressors.fit_s.rfr", "adj_op_p50_s on rfe and experiment"),
    ("regressors.rfr.", "adj_op_p50_s on rfe and experiment"),
    ("regressors.", "adj_op_p50_s on experiment"),
    ("prognosis.", "adj_op_p50_s on experiment"),
    ("cohort.", "adj_op_p50_s on rfe and experiment"),
    ("cli.", "adj_op_p50_s on rfe and experiment"),
    ("phantoms.", "setup_s"),
    ("trace.", "none: traced minus untraced median op wall time"),
)


def moves(name: str) -> str:
    return next(m for prefix, m in MOVES if name.startswith(prefix))


def _median(values):
    return statistics.median(values) if values else 0.0


def _traced_walls(tracer) -> dict:
    """Wall time of each traced op: its first top-level span."""
    walls = {}
    for s in tracer.spans:
        if isinstance(s["op"], int) and s["parent"] is None \
                and s["op"] not in walls:
            walls[s["op"]] = s["end"] - s["start"]
    return walls


def per_layer(names, tracer, untraced: dict) -> dict:
    """``{name: (median value, sample count)}`` for every name."""
    spans = tracer.per_op()
    whole = tracer.per_op(inclusive=True)
    ops = sorted(k for k in spans if isinstance(k, int))
    setups = [k for k in spans if not isinstance(k, int)]

    def value(op, name):
        s = spans.get(op, {})
        notes = tracer.notes.get(op, {})
        if name in notes:
            return float(notes[name])
        if name == "volumeio.decode_mb_per_s":
            load = s.get("volumeio.load_mask_s", 0.0) \
                + s.get("volumeio.load_nifti_s", 0.0)
            return notes.get("volumeio.decoded_mb", 0.0) / load if load else 0.0
        if name == "radiomics.shape.rest_s":      # residual: moments, diameters
            if "radiomics.shape_s" not in s:
                return 0.0
            return s["radiomics.shape_s"] - sum(
                s[f"radiomics.shape.{k}_s"]
                for k in ("mesh", "taubin", "area_volume"))
        if name == "featselect.s_per_refit":
            # whole RFE call per refit, without the node counting the tracer
            # does after each refit
            refits = notes.get("featselect.refits", 0)
            rfe = whole.get(op, {}).get("featselect.rfe_s", 0.0) - sum(
                tracer.children(op, "trace.bookkeeping", "featselect.rfe_s"))
            return rfe / refits if refits else 0.0
        if name.endswith(".us_per_node"):
            kind = name.split(".")[1]
            nodes = notes.get(f"regressors.{kind}.nodes", 0)
            return (s.get(f"regressors.fit_s.{kind}", 0.0) / nodes * 1e6
                    if nodes else 0.0)
        return s.get(name, 0.0)

    out = {}
    walls = _traced_walls(tracer)
    for name in names:
        if name == "trace.overhead_s":
            out[name] = (_median(list(walls.values()))
                         - _median(list(untraced.values())), len(walls))
            continue
        pool = setups if name.startswith("phantoms.") else ops
        out[name] = (_median([value(op, name) for op in pool]), len(pool))
    return out
