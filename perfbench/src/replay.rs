//! An Algorithm 1 (`KVCC-ENUM`) replay with a span around every call
//! into a layer.
//!
//! The replay calls the same public functions the sequential enumerator
//! calls, in the same order: the initial `k_core_vertices` peel and
//! extraction, then per work item `SubgraphView::k_core_reduce` and
//! `components`, `CsrGraph::extract_induced`, `global_cut_with_scratch` and
//! `overlap_partition`. [`check_replay`] holds it to the enumerator: the
//! same component set and every `EnumerationStats` counter equal.
//!
//! Certificate and side-vertex cost live inside `global_cut_with_scratch`,
//! so the replay keeps every GLOBAL-CUT* input and [`side_costs`] times
//! `sparse_certificate` and `strong_side_vertices` on them afterwards,
//! outside the replay's timeline.

use std::time::Instant;

use kvcc::certificate::sparse_certificate;
use kvcc::global_cut::{global_cut_with_scratch, CutScratch};
use kvcc::partition::{duplicated_vertices, overlap_partition};
use kvcc::side_vertex::strong_side_vertices;
use kvcc::{EnumerationStats, KVertexConnectedComponent, KvccError, KvccOptions, KvccResult};
use kvcc_graph::kcore::k_core_vertices;
use kvcc_graph::{CsrGraph, GraphView, SubgraphView, VertexId};

use crate::trace::Tracer;

/// Span names, one per layer boundary.
pub const SOLVE: &str = "solve";
pub const KCORE: &str = "kcore.peel";
pub const COMPONENTS: &str = "traversal.components";
pub const EXTRACT: &str = "csr.extract";
pub const GLOBAL_CUT: &str = "global_cut";
pub const PARTITION: &str = "partition";

/// What one traced replay produced.
pub struct Replay {
    /// Components in input ids, sorted like `KvccResult::components`.
    pub components: Vec<KVertexConnectedComponent>,
    pub stats: EnumerationStats,
    /// Every GLOBAL-CUT* input, in call order (empty unless asked for).
    pub cut_inputs: Vec<CsrGraph>,
    /// Vertices duplicated by `OVERLAP-PARTITION` (Lemma 8).
    pub duplicated_vertices: u64,
}

struct WorkItem {
    graph: CsrGraph,
    to_original: Vec<VertexId>,
}

/// Replays `KVCC-ENUM` on `graph` for `k` under `options` (sequential,
/// no split threshold: the configuration the benchmark enumerates with),
/// recording one root span and its children into `t`. With `keep_inputs`
/// the GLOBAL-CUT* inputs are kept for [`side_costs`].
pub fn replay<G: GraphView>(
    graph: &G,
    k: u32,
    options: &KvccOptions,
    t: &mut Tracer,
    keep_inputs: bool,
) -> Result<Replay, KvccError> {
    assert!(k > 0, "the replay mirrors valid runs only");
    assert!(
        options.split_threshold.is_none(),
        "the replay mirrors the enumerator without skew splitting"
    );
    let mut stats = EnumerationStats::default();
    let mut results = Vec::new();
    let mut cut_inputs = Vec::new();
    let mut duplicated = 0u64;
    let mut scratch = CutScratch::new();
    let mut map: Vec<VertexId> = Vec::new();

    let root = t.enter(SOLVE);
    let core_vertices = t.span(KCORE, || k_core_vertices(graph, k as usize));
    stats.kcore_removed_vertices += (graph.num_vertices() - core_vertices.len()) as u64;
    let mut work: Vec<WorkItem> = Vec::new();
    if !core_vertices.is_empty() {
        let core = t.span(EXTRACT, || {
            CsrGraph::extract_induced(graph, &core_vertices, &mut map)
        });
        work.push(WorkItem {
            graph: core,
            to_original: core_vertices,
        });
    }

    while let Some(item) = work.pop() {
        stats.work_items_executed += 1;
        let (view, removed) = t.span(KCORE, || {
            let mut view = SubgraphView::new(&item.graph);
            let removed = view.k_core_reduce(k as usize);
            (view, removed)
        });
        stats.kcore_removed_vertices += removed as u64;
        if view.live() == 0 {
            continue;
        }
        let components = t.span(COMPONENTS, || view.components());
        for component in components {
            if component.len() <= k as usize {
                continue;
            }
            let (sub, to_original) = t.span(EXTRACT, || {
                let sub = CsrGraph::extract_induced(&item.graph, &component, &mut map);
                let to_original: Vec<VertexId> = component
                    .iter()
                    .map(|&local| item.to_original[local as usize])
                    .collect();
                (sub, to_original)
            });
            let outcome = t.span(GLOBAL_CUT, || {
                global_cut_with_scratch(&sub, k, options, &mut stats, &mut scratch)
            })?;
            match outcome.cut {
                None => results.push(KVertexConnectedComponent::new(to_original)),
                Some(cut) => {
                    let parts = t.span(PARTITION, || partition(&sub, cut, k, &mut stats))?;
                    match parts {
                        None => results.push(KVertexConnectedComponent::new(to_original)),
                        Some((parts, cut_len)) => {
                            stats.partitions += 1;
                            duplicated += duplicated_vertices(cut_len, parts.len()) as u64;
                            for part in parts {
                                let piece = t.span(EXTRACT, || {
                                    let graph = CsrGraph::extract_induced(&sub, &part, &mut map);
                                    let to_original: Vec<VertexId> = part
                                        .iter()
                                        .map(|&local| to_original[local as usize])
                                        .collect();
                                    WorkItem { graph, to_original }
                                });
                                work.push(piece);
                            }
                        }
                    }
                }
            }
            if keep_inputs {
                cut_inputs.push(sub);
            }
        }
    }
    t.exit(root);
    results.sort();
    Ok(Replay {
        components: results,
        stats,
        cut_inputs,
        duplicated_vertices: duplicated,
    })
}

/// `OVERLAP-PARTITION` with the enumerator's defensive re-cut: the pieces
/// and the size of the cut they were split along, or `None` when the exact
/// re-cut finds the subgraph k-connected after all.
#[allow(clippy::type_complexity)]
fn partition(
    sub: &CsrGraph,
    cut: Vec<VertexId>,
    k: u32,
    stats: &mut EnumerationStats,
) -> Result<Option<(Vec<Vec<VertexId>>, usize)>, KvccError> {
    let parts = overlap_partition(sub, &cut);
    if parts.len() >= 2 {
        return Ok(Some((parts, cut.len())));
    }
    stats.fallback_recuts += 1;
    let Some(recut) = kvcc_flow::connectivity::find_vertex_cut(sub, k) else {
        return Ok(None);
    };
    let parts = overlap_partition(sub, &recut);
    if parts.len() < 2 {
        return Err(KvccError::DegeneratePartition {
            subgraph_vertices: sub.num_vertices(),
        });
    }
    Ok(Some((parts, recut.len())))
}

/// Every deterministic `EnumerationStats` counter, by name. `elapsed` and
/// the `peak_memory_bytes` estimate are measurements, not counters.
pub fn counters(s: &EnumerationStats) -> Vec<(&'static str, u64)> {
    vec![
        ("global_cut_calls", s.global_cut_calls),
        ("loc_cut_flow_calls", s.loc_cut_flow_calls),
        ("loc_cut_trivial_calls", s.loc_cut_trivial_calls),
        ("tested_vertices", s.tested_vertices),
        ("pruned_neighbor_rule1", s.pruned_neighbor_rule1),
        ("pruned_neighbor_rule2", s.pruned_neighbor_rule2),
        ("pruned_group_sweep", s.pruned_group_sweep),
        ("phase2_pairs_tested", s.phase2_pairs_tested),
        ("phase2_pairs_skipped", s.phase2_pairs_skipped),
        ("partitions", s.partitions),
        ("kcore_removed_vertices", s.kcore_removed_vertices),
        ("certificate_edges", s.certificate_edges),
        ("strong_side_vertices", s.strong_side_vertices),
        ("side_groups", s.side_groups),
        ("fallback_recuts", s.fallback_recuts),
        ("work_items_executed", s.work_items_executed),
        ("steals", s.steals),
        ("splits", s.splits),
        ("cancelled", s.cancelled as u64),
    ]
}

/// Holds the replay to the enumerator: equal components and counters.
pub fn check_replay(replay: &Replay, result: &KvccResult) -> Result<(), String> {
    if replay.components != result.components() {
        return Err(format!(
            "replay found {} components, enumerate_kvccs {}",
            replay.components.len(),
            result.num_components()
        ));
    }
    for ((name, ours), (_, theirs)) in counters(&replay.stats)
        .into_iter()
        .zip(counters(result.stats()))
    {
        if ours != theirs {
            return Err(format!(
                "counter {name}: replay {ours}, enumerate_kvccs {theirs}"
            ));
        }
    }
    Ok(())
}

/// Certificate and side-vertex cost on the GLOBAL-CUT* inputs of a replay,
/// timed outside its timeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct SideCosts {
    pub certificate_s: f64,
    pub certificate_edges: u64,
    pub side_vertex_s: f64,
    pub strong: u64,
}

/// Times `sparse_certificate` and `strong_side_vertices` on every input the
/// way `global_cut_with_scratch` calls them under `options`.
pub fn side_costs(inputs: &[CsrGraph], k: u32, options: &KvccOptions) -> SideCosts {
    let mut costs = SideCosts::default();
    let optimised = options.variant.neighbor_sweep() || options.variant.group_sweep();
    let certified = options.use_sparse_certificate || options.variant.group_sweep();
    for g in inputs.iter().filter(|g| g.num_vertices() > k as usize) {
        if certified {
            let start = Instant::now();
            let cert = std::hint::black_box(sparse_certificate(g, k));
            costs.certificate_s += start.elapsed().as_secs_f64();
            costs.certificate_edges += cert.num_edges() as u64;
        }
        if optimised {
            let start = Instant::now();
            let strong = std::hint::black_box(strong_side_vertices(
                g,
                k,
                options.max_degree_for_side_vertex_check,
            ));
            costs.side_vertex_s += start.elapsed().as_secs_f64();
            costs.strong += strong.iter().filter(|&&s| s).count() as u64;
        }
    }
    costs
}
