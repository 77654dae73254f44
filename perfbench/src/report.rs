//! The metric vocabulary and the result line.
//!
//! Every run prints every metric of its kind: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A layer a workload
//! does not exercise reports 0 (it did no work there).

use std::collections::BTreeMap;

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("op_p50_us", "us"),
    ("ops_per_s", "1/s"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("load.ingest_s", "s"),
    ("load.lines_per_s", "1/s"),
    ("kcsr.write_s", "s"),
    ("kcsr.open_s", "s"),
    ("kcore.peel_s", "s"),
    ("kcore.removed_vertices", "count"),
    ("csr.extract_s", "s"),
    ("traversal.components_s", "s"),
    ("global_cut.calls", "count"),
    ("global_cut.s", "s"),
    ("certificate.s", "s"),
    ("certificate.edges", "count"),
    ("side_vertex.s", "s"),
    ("side_vertex.strong", "count"),
    ("flow.probes", "count"),
    ("flow.trivial_probes", "count"),
    ("flow.s", "s"),
    ("flow.us_per_probe", "us"),
    ("flow.share", "frac"),
    ("vertex_flow.local_connectivity_us", "us"),
    ("sweep.tested_frac", "frac"),
    ("sweep.pruned_neighbor", "count"),
    ("sweep.pruned_group", "count"),
    ("partition.calls", "count"),
    ("partition.s", "s"),
    ("partition.duplicated_vertices", "count"),
    ("index.build_s", "s"),
    ("index.repair_s", "s"),
    ("index.rebuilt_frac", "frac"),
    ("index.lookup_us", "us"),
    ("qos.hit_rate", "frac"),
    ("qos.misses", "count"),
    ("qos.coalesced", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.request_bytes", "bytes"),
    ("wire.response_bytes", "bytes"),
    ("engine.server_us", "us"),
    ("socket.overhead_us", "us"),
    ("serve.read_p50_us", "us"),
    ("serve.read_tail_us", "us"),
    ("serve.flow_p50_us", "us"),
    ("serve.flow_tail_us", "us"),
    ("serve.update_p50_ms", "ms"),
    ("trace.solve_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "frac"),
];

/// What a workload run measured.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// An outcome for `--trace 0` (end-to-end) or `--trace 1` (per-layer),
    /// every metric starting at 0.
    pub fn new(trace: bool) -> Self {
        let table = if trace { PER_LAYER } else { END_TO_END };
        Outcome {
            attempted: 0,
            failed: 0,
            table,
            values: table.iter().map(|&(name, _)| (name, 0.0)).collect(),
        }
    }

    /// Sets a metric. A metric of the other kind is ignored, so a workload
    /// can fill both kinds from one code path; an undeclared name is a bug.
    pub fn set(&mut self, name: &str, value: f64) {
        if let Some(slot) = self.values.iter_mut().find(|(n, _)| **n == name) {
            *slot.1 = value;
        } else {
            assert!(
                END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
                "undeclared metric {name}"
            );
        }
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for &(name, unit) in self.table {
            let value = self.values[name];
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}
