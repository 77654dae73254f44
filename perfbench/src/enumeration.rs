//! The enumeration workloads: `enum-planted10k` and `enum-suite`, plus the
//! traced-solve bookkeeping `ingest-ring1m` shares with them.

use std::time::Instant;

use kvcc::verify::verify_kvccs;
use kvcc::{enumerate_kvccs, EnumerationStats, KvccOptions, KvccResult};
use kvcc_datasets::planted::planted_communities;
use kvcc_datasets::suite::{SuiteDataset, SuiteScale};
use kvcc_graph::types::Edge;
use kvcc_graph::{CsrGraph, GraphView};

use crate::inputs::{planted10k_config, Relabel};
use crate::replay::{self, side_costs, SideCosts};
use crate::report::Outcome;
use crate::sample::{derive_seed, median_of, peak_rss_mb, secs_since, Fnv, Samples};
use crate::trace::{TraceSummary, Tracer};
use crate::RunConfig;

/// Checksum of the planted-10k k = 4 components in generator ids.
const PLANTED10K_CHECKSUM: u64 = 0xed08_d727_c291_8193;
/// Checksum of the whole Fig. 10 sweep's components in generator ids.
const SUITE_CHECKSUM: u64 = 0xd72e_5811_8ca9_c4f3;

/// Set-up repetitions; set-up time is their median.
const SETUP_REPS: usize = 15;
/// Fewest passes over every input a run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// One generated graph in relabelled ids, with the k values it is solved at.
struct Input {
    name: &'static str,
    n: usize,
    edges: Vec<Edge>,
    relabel: Relabel,
    ks: Vec<u32>,
}

impl Input {
    fn new<G: GraphView>(
        name: &'static str,
        g: &G,
        ks: Vec<u32>,
        seed: u64,
        variant: usize,
    ) -> Self {
        let relabel = Relabel::seeded(
            g.num_vertices(),
            derive_seed(seed, &format!("{name}#{variant}")),
        );
        Input {
            name,
            n: g.num_vertices(),
            edges: relabel.edges(g),
            relabel,
            ks,
        }
    }
}

/// A workload's inputs: every graph under each of `variants` seeded
/// relabellings, variant by variant. A solve of one variant enumerates each
/// of its graphs at each k; the run solves every variant in turn, so its
/// solve time averages over that many id orders instead of resting on one.
struct Inputs {
    inputs: Vec<Input>,
    variants: usize,
}

impl Inputs {
    fn new<G: GraphView>(
        graphs: &[(&'static str, G, Vec<u32>)],
        variants: usize,
        seed: u64,
    ) -> Self {
        let inputs = (0..variants)
            .flat_map(|v| {
                graphs
                    .iter()
                    .map(move |(name, g, ks)| Input::new(name, g, ks.clone(), seed, v))
            })
            .collect();
        Inputs { inputs, variants }
    }

    /// The inputs of each variant.
    fn by_variant(&self) -> std::slice::Chunks<'_, Input> {
        self.inputs.chunks(self.inputs.len() / self.variants)
    }

    /// (input, k) jobs of one variant.
    fn jobs_per_variant(&self) -> usize {
        self.inputs.iter().map(|i| i.ks.len()).sum::<usize>() / self.variants
    }
}

/// The enumerator configuration every workload solves with: VCCE*, one
/// thread (the host has one effective core).
pub fn options() -> KvccOptions {
    KvccOptions::default()
}

/// Relabellings of the planted-10k graph per run: its probe count, and with
/// it the solve time, moves by up to a third from one relabelling to the
/// next (29–39 probes), so a run averages over eight.
const PLANTED10K_VARIANTS: usize = 8;

fn planted10k_inputs(seed: u64) -> Inputs {
    let config = planted10k_config();
    let g = planted_communities(&config).graph;
    Inputs::new(
        &[("planted10k", g, vec![config.k as u32])],
        PLANTED10K_VARIANTS,
        seed,
    )
}

/// The suite's 30 (graph, k) jobs already average over six graphs, and its
/// probe count stays within 0.3% across relabellings: one variant.
fn suite_inputs(seed: u64) -> Inputs {
    let scale = SuiteScale::Small;
    let graphs: Vec<_> = SuiteDataset::efficiency_subset()
        .into_iter()
        .map(|d| {
            (
                d.name(),
                d.generate(scale),
                scale.efficiency_k_values().to_vec(),
            )
        })
        .collect();
    Inputs::new(&graphs, 1, seed)
}

/// Set-up: CSR construction of every input, repeated; median seconds.
fn setup(inputs: &[Input]) -> Result<(Vec<CsrGraph>, f64), String> {
    let (csrs, secs) = median_of(SETUP_REPS, || {
        inputs
            .iter()
            .map(|i| CsrGraph::from_edges(i.n, i.edges.iter().copied()))
            .collect::<Result<Vec<_>, _>>()
    });
    Ok((csrs.map_err(|e| format!("CSR construction: {e}"))?, secs))
}

/// One pass: every input at every k. Returns the results in (input, k)
/// order and the seconds of each enumeration.
fn solve(inputs: &[Input], csrs: &[CsrGraph]) -> (Vec<Result<KvccResult, String>>, Vec<f64>) {
    let mut results = Vec::new();
    let mut times = Vec::new();
    for (input, csr) in inputs.iter().zip(csrs) {
        for &k in &input.ks {
            let start = Instant::now();
            let r = enumerate_kvccs(csr, k, &options()).map_err(|e| e.to_string());
            times.push(secs_since(start));
            results.push(r);
        }
    }
    (results, times)
}

/// Checksum of one variant's results in generator ids.
fn solve_checksum(inputs: &[Input], results: &[KvccResult]) -> u64 {
    let mut h = Fnv::default();
    let mut it = results.iter();
    for input in inputs {
        for _ in &input.ks {
            let r = it.next().expect("one result per (input, k)");
            h.u64(input.relabel.checksum(r.components()));
        }
    }
    h.0
}

/// The untraced loop shared by the enumeration workloads: passes over
/// every input until the deadline, checking every result against the first
/// pass's.
pub struct SolveLoop {
    /// Seconds of each (input, k) enumeration, one bag per job.
    pub jobs: Vec<Samples>,
    /// Every enumeration, in microseconds.
    pub ops: Samples,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub reference: Vec<KvccResult>,
}

impl SolveLoop {
    /// The median seconds of each of `jobs`, summed.
    fn median_sum(jobs: &[Samples]) -> f64 {
        jobs.iter().map(Samples::median).sum()
    }
}

fn solve_loop(
    inputs: &[Input],
    csrs: &[CsrGraph],
    share: f64,
    cfg: &RunConfig,
) -> Result<SolveLoop, String> {
    let deadline = cfg.deadline(share);
    let mut out = SolveLoop {
        jobs: Vec::new(),
        ops: Samples::new(),
        passes: 0,
        attempted: 0,
        failed: 0,
        reference: Vec::new(),
    };
    while out.passes < MIN_PASSES || Instant::now() < deadline {
        let (results, times) = solve(inputs, csrs);
        out.passes += 1;
        out.jobs.resize_with(times.len(), Samples::new);
        for (job, &t) in out.jobs.iter_mut().zip(&times) {
            job.push(t);
            out.ops.push(t * 1e6);
        }
        out.attempted += results.len() as u64;
        if out.reference.is_empty() {
            out.reference = results
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("first solve failed: {e}"))?;
            continue;
        }
        for (r, reference) in results.iter().zip(&out.reference) {
            match r {
                Ok(r) if r.components() == reference.components() => {}
                _ => out.failed += 1,
            }
        }
    }
    Ok(out)
}

/// The traced solves of a workload, ready to become per-layer metrics.
pub struct TracedSolves {
    /// One summary per traced solve.
    pub summaries: Vec<TraceSummary>,
    /// Counters of one solve.
    pub stats: EnumerationStats,
    pub duplicated_vertices: u64,
    pub side: SideCosts,
    /// Median untraced solve, for the tracing overhead.
    pub untraced_solve_s: f64,
}

impl TracedSolves {
    fn median(&self, f: impl Fn(&TraceSummary) -> f64) -> f64 {
        let mut s = Samples::new();
        for summary in &self.summaries {
            s.push(f(summary));
        }
        s.median()
    }

    /// Fills the enumeration layers' metrics.
    pub fn report(&self, out: &mut Outcome) {
        let s = &self.stats;
        let layer = |name: &'static str| self.median(|t| t.total(name));
        let solve_s = self.median(|t| t.root_s);
        let global_cut_s = layer(replay::GLOBAL_CUT);
        // Flow time is derived: the GLOBAL-CUT* span minus the certificate
        // and side-vertex work timed on the same inputs outside the replay.
        let flow_s = global_cut_s - self.side.certificate_s - self.side.side_vertex_s;
        out.set("kcore.peel_s", layer(replay::KCORE));
        out.set("kcore.removed_vertices", s.kcore_removed_vertices as f64);
        out.set("csr.extract_s", layer(replay::EXTRACT));
        out.set("traversal.components_s", layer(replay::COMPONENTS));
        out.set("global_cut.calls", s.global_cut_calls as f64);
        out.set("global_cut.s", global_cut_s);
        out.set("certificate.s", self.side.certificate_s);
        out.set("certificate.edges", self.side.certificate_edges as f64);
        out.set("side_vertex.s", self.side.side_vertex_s);
        out.set("side_vertex.strong", self.side.strong as f64);
        out.set("flow.probes", s.loc_cut_flow_calls as f64);
        out.set("flow.trivial_probes", s.loc_cut_trivial_calls as f64);
        out.set("flow.s", flow_s);
        if s.loc_cut_flow_calls > 0 {
            out.set(
                "flow.us_per_probe",
                flow_s / s.loc_cut_flow_calls as f64 * 1e6,
            );
        }
        out.set("flow.share", flow_s / solve_s);
        out.set("sweep.tested_frac", s.proportion_tested());
        out.set(
            "sweep.pruned_neighbor",
            (s.pruned_neighbor_rule1 + s.pruned_neighbor_rule2) as f64,
        );
        out.set("sweep.pruned_group", s.pruned_group_sweep as f64);
        out.set("partition.calls", s.partitions as f64);
        out.set("partition.s", layer(replay::PARTITION));
        out.set(
            "partition.duplicated_vertices",
            self.duplicated_vertices as f64,
        );
        out.set("trace.solve_s", solve_s);
        out.set("trace.overhead_s", solve_s - self.untraced_solve_s);
        out.set("trace.coverage", self.median(|t| t.coverage));
        println!(
            "trace: solve {solve_s:.4}s (untraced {:.4}s), coverage {:.3}, flow {flow_s:.4}s = global_cut {global_cut_s:.4}s - certificate {:.4}s - side_vertex {:.4}s (derived), flow share {:.3}, {} probes",
            self.untraced_solve_s,
            self.median(|t| t.coverage),
            self.side.certificate_s,
            self.side.side_vertex_s,
            flow_s / solve_s,
            s.loc_cut_flow_calls,
        );
    }
}

/// Traced solves until `deadline` (at least one), each replaying every
/// (graph, k) under one tracer and checking it against the enumerator's
/// result. The first solve also keeps its GLOBAL-CUT* inputs, whose
/// certificate and side-vertex cost is then timed outside the replays.
pub fn traced_solves<G: GraphView>(
    jobs: &[(&G, u32)],
    reference: &[KvccResult],
    deadline: Instant,
    untraced_solve_s: f64,
) -> Result<TracedSolves, String> {
    let mut summaries = Vec::new();
    let mut stats = EnumerationStats::default();
    let mut duplicated = 0;
    let mut inputs = Vec::new();
    while summaries.is_empty() || Instant::now() < deadline {
        let first = summaries.is_empty();
        let mut tracer = Tracer::new();
        for (&(g, k), expected) in jobs.iter().zip(reference) {
            let r =
                replay::replay(g, k, &options(), &mut tracer, first).map_err(|e| e.to_string())?;
            replay::check_replay(&r, expected)?;
            if first {
                stats.merge(&r.stats);
                duplicated += r.duplicated_vertices;
                inputs.push((k, r.cut_inputs));
            }
        }
        summaries.push(tracer.summary());
    }
    println!(
        "replay: {} traced solve(s) matched enumerate_kvccs (components and every counter)",
        summaries.len()
    );
    Ok(TracedSolves {
        summaries,
        stats,
        duplicated_vertices: duplicated,
        side: solve_side_costs(&inputs),
        untraced_solve_s,
    })
}

/// Certificate and side-vertex cost over a solve's GLOBAL-CUT* inputs.
fn solve_side_costs(inputs: &[(u32, Vec<CsrGraph>)]) -> SideCosts {
    let mut total = SideCosts::default();
    for (k, graphs) in inputs {
        let c = side_costs(graphs, *k, &options());
        total.certificate_s += c.certificate_s;
        total.certificate_edges += c.certificate_edges;
        total.side_vertex_s += c.side_vertex_s;
        total.strong += c.strong;
    }
    total
}

fn run_enum(
    cfg: &RunConfig,
    inputs: Inputs,
    expected: u64,
    verify: bool,
) -> Result<Outcome, String> {
    let (csrs, setup_s) = setup(&inputs.inputs)?;
    let mut out = Outcome::new(cfg.trace);
    println!(
        "setup: {} graph(s) in {} relabelling(s), {} vertices, {} edges, CSR construction {setup_s:.4}s (median of {SETUP_REPS})",
        inputs.inputs.len(),
        inputs.variants,
        csrs.iter().map(|g| g.num_vertices()).sum::<usize>(),
        csrs.iter().map(|g| g.num_edges()).sum::<usize>(),
    );
    // End-to-end runs spend the whole budget untraced on every variant;
    // traced runs split it between untraced solves of the first variant
    // (for the overhead) and traced replays of it.
    let variants = if cfg.trace { 1 } else { inputs.variants };
    let solved = inputs.inputs.len() / inputs.variants * variants;
    let untraced = solve_loop(
        &inputs.inputs[..solved],
        &csrs[..solved],
        if cfg.trace { 0.3 } else { 1.0 },
        cfg,
    )?;
    let per_variant = inputs.jobs_per_variant();
    // A solve is one variant's jobs: each job's median, summed over the
    // variant, averaged over the variants.
    let solve_s = SolveLoop::median_sum(&untraced.jobs) / variants as f64;
    println!(
        "solve: {solve_s:.4}s over {} pass(es) of {variants} variant(s) ({per_variant} enumeration(s) per solve, each at its median); {}",
        untraced.passes,
        untraced.ops.describe("enumeration", "us")
    );
    for (variant, results) in inputs
        .by_variant()
        .zip(untraced.reference.chunks(per_variant))
    {
        let checksum = solve_checksum(variant, results);
        if checksum != expected {
            return Err(format!(
                "component checksum {checksum:#018x} differs from the reference {expected:#018x}"
            ));
        }
    }
    println!("checksum (generator ids): {expected:#018x} in {variants} relabelling(s)");
    if untraced.failed > 0 {
        return Err(format!(
            "{} of {} enumerations failed or disagreed with the first solve",
            untraced.failed, untraced.attempted
        ));
    }
    if verify {
        let start = Instant::now();
        let mut it = untraced.reference.iter();
        for (input, csr) in inputs.inputs[..solved].iter().zip(&csrs) {
            for &k in &input.ks {
                let r = it.next().expect("one result per (input, k)");
                verify_kvccs(csr, r, false)
                    .map_err(|e| format!("verify_kvccs on {} at k = {k}: {e}", input.name))?;
            }
        }
        println!("verify_kvccs: passed in {:.2}s", secs_since(start));
    }
    out.attempted = untraced.attempted;
    out.failed = untraced.failed;
    out.set("setup_s", setup_s);
    out.set("solve_s", solve_s);
    out.set("op_p50_us", untraced.ops.median());
    out.set("ops_per_s", per_variant as f64 / solve_s);
    out.set("ok_frac", 1.0 - out.failed as f64 / out.attempted as f64);

    if cfg.trace {
        // The traced run replays the first variant, the one the untraced
        // loop above solved: per-layer numbers are those of one solve.
        let jobs: Vec<(&CsrGraph, u32)> = inputs.inputs[..solved]
            .iter()
            .zip(&csrs)
            .flat_map(|(i, g)| i.ks.iter().map(move |&k| (g, k)))
            .collect();
        let traced = traced_solves(&jobs, &untraced.reference, cfg.deadline(0.5), solve_s)?;
        out.attempted += (traced.summaries.len() * jobs.len()) as u64;
        traced.report(&mut out);
    }
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// `enum-planted10k`: the k = 4 enumeration of the planted-10k graph.
/// `verify_kvccs` is skipped here (its 10k-vertex component takes minutes);
/// the reference checksum and the replay check stand in for it.
pub fn planted10k(cfg: &RunConfig) -> Result<Outcome, String> {
    run_enum(cfg, planted10k_inputs(cfg.seed), PLANTED10K_CHECKSUM, false)
}

/// `enum-suite`: the Fig. 10 VCCE* sweep over the six efficiency stand-ins.
pub fn suite(cfg: &RunConfig) -> Result<Outcome, String> {
    run_enum(cfg, suite_inputs(cfg.seed), SUITE_CHECKSUM, true)
}
