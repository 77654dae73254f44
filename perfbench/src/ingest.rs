//! `ingest-ring1m`: edge-list file → streaming loader → `write_kcsr_file`,
//! then a borrowed `MappedCsr` open and a k = 12 enumeration.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use kvcc::verify::verify_kvccs;
use kvcc::{enumerate_kvccs, KvccResult};
use kvcc_datasets::StreamConfig;
use kvcc_graph::{write_kcsr_file, GraphLoader, MappedCsr, StreamingEdgeListLoader, VertexId};

use crate::enumeration::{options, traced_solves};
use crate::inputs::{checksum_in, Relabel};
use crate::report::Outcome;
use crate::sample::{derive_seed, peak_rss_mb, secs_since, Samples, SplitMix};
use crate::RunConfig;

const K: u32 = 12;
/// Checksum of the k = 12 components in generator ids.
const RING1M_CHECKSUM: u64 = 0x543f_e71b_9cdf_26d2;
/// Seeded relabellings per run. Solve time moves by about a tenth from one
/// relabelling to the next (the flow probes start from other vertices), so
/// a run averages over eight; each is set up once, and set-up time is the
/// median over them.
const VARIANTS: usize = 8;
/// Fewest solves of each relabelling a run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Writes the community ring's edge lines in relabelled ids and a seeded
/// line order, so both the numbering and the loader's first-appearance
/// interning differ from seed to seed.
fn write_edge_list(
    stream: &StreamConfig,
    relabel: &Relabel,
    seed: u64,
    path: &Path,
) -> std::io::Result<()> {
    let mut lines: Vec<(VertexId, VertexId)> = stream
        .edges()
        .map(|(u, v)| (relabel.new_id(u as VertexId), relabel.new_id(v as VertexId)))
        .collect();
    let mut rng = SplitMix::new(seed);
    for i in (1..lines.len()).rev() {
        lines.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "# community ring, {} edge lines", lines.len())?;
    for (u, v) in lines {
        writeln!(w, "{u}\t{v}")?;
    }
    w.flush()
}

/// One seeded relabelling of the ring: its ids, the KCSR file the set-up
/// wrote, and the loader's external id of each loaded vertex.
struct Variant {
    relabel: Relabel,
    kcsr_path: PathBuf,
    external_ids: Vec<u64>,
}

pub fn ring1m(cfg: &RunConfig) -> Result<Outcome, String> {
    let stream = StreamConfig::million();
    // Set-up: per relabelling, the edge list is written (untimed), then
    // ingested and written as KCSR (timed).
    let (mut setup, mut ingest, mut write) = (Samples::new(), Samples::new(), Samples::new());
    let mut variants = Vec::new();
    for v in 0..VARIANTS {
        let relabel = Relabel::seeded(
            stream.num_vertices(),
            derive_seed(cfg.seed, &format!("ring1m#{v}")),
        );
        let edge_path = cfg.work_dir.join(format!("ring1m-{v}.txt"));
        let kcsr_path = cfg.work_dir.join(format!("ring1m-{v}.kcsr"));
        write_edge_list(
            &stream,
            &relabel,
            derive_seed(cfg.seed, &format!("ring1m-lines#{v}")),
            &edge_path,
        )
        .map_err(|e| format!("writing the edge list: {e}"))?;
        let start = Instant::now();
        // One sort thread, like the enumerator: with one effective core a
        // second thread only adds run-to-run variance.
        let ingested = StreamingEdgeListLoader::new()
            .with_threads(1)
            .load_path(&edge_path)
            .map_err(|e| format!("ingest: {e}"))?;
        let ingested_at = Instant::now();
        write_kcsr_file(&ingested.graph, &kcsr_path).map_err(|e| format!("KCSR write: {e}"))?;
        ingest.push(ingested_at.duration_since(start).as_secs_f64());
        write.push(secs_since(ingested_at));
        setup.push(secs_since(start));
        let _ = std::fs::remove_file(&edge_path);
        variants.push(Variant {
            relabel,
            kcsr_path,
            external_ids: ingested.external_ids,
        });
    }
    println!(
        "setup: {} relabellings of {} edge lines, {} vertices; {}; {}",
        VARIANTS,
        stream.num_edge_lines(),
        variants[0].external_ids.len(),
        ingest.describe("ingest", "s"),
        write.describe("KCSR write", "s")
    );

    // Timed loop: open a relabelling's KCSR file borrowed, enumerate; the
    // relabellings take turns. A traced run solves only the first, the one
    // it replays.
    let mut out = Outcome::new(cfg.trace);
    let deadline = cfg.deadline(if cfg.trace { 0.3 } else { 1.0 });
    let solved = if cfg.trace { 1 } else { VARIANTS };
    let mut solves = vec![Samples::new(); solved];
    let (mut all, mut opens) = (Samples::new(), Samples::new());
    let mut reference: Vec<(MappedCsr, KvccResult)> = Vec::new();
    while all.len() < MIN_PASSES * solved || Instant::now() < deadline {
        let v = all.len() % solved;
        out.attempted += 1;
        let start = Instant::now();
        let solved = MappedCsr::open(&variants[v].kcsr_path)
            .map_err(|e| e.to_string())
            .and_then(|g| {
                opens.push(secs_since(start));
                let r = enumerate_kvccs(&g, K, &options()).map_err(|e| e.to_string())?;
                Ok((g, r))
            });
        solves[v].push(secs_since(start));
        all.push(secs_since(start));
        match (solved, reference.get(v)) {
            (Ok(solved), None) => reference.push(solved),
            (Ok((_, r)), Some((_, first))) if r.components() == first.components() => {}
            (Ok(_), Some(_)) => out.failed += 1,
            (Err(e), None) => return Err(format!("first solve failed: {e}")),
            (Err(_), Some(_)) => out.failed += 1,
        }
    }
    // A solve's median per relabelling, averaged over the relabellings.
    let solve_s = solves.iter().map(Samples::median).sum::<f64>() / solved as f64;
    println!(
        "solve: {solve_s:.4}s (mean of {solved} per-relabelling medians); {}; {}; {} components",
        all.describe("solve", "s"),
        opens.describe("open", "s"),
        reference[0].1.num_components()
    );
    for (variant, (_, result)) in variants.iter().zip(&reference) {
        // Loaded id → external (relabelled) id → generator id.
        let sum = checksum_in(result.components(), |v| {
            variant
                .relabel
                .old_id(variant.external_ids[v as usize] as VertexId)
        });
        if sum != RING1M_CHECKSUM {
            return Err(format!(
                "component checksum {sum:#018x} differs from the reference {RING1M_CHECKSUM:#018x}"
            ));
        }
    }
    println!("checksum (generator ids): {RING1M_CHECKSUM:#018x} in {solved} relabelling(s)");
    if out.failed > 0 {
        return Err(format!(
            "{} of {} solves failed or disagreed",
            out.failed, out.attempted
        ));
    }
    // The other relabellings hold the same components in generator ids.
    let (graph, result) = &reference[0];
    let start = Instant::now();
    verify_kvccs(graph, result, false).map_err(|e| format!("verify_kvccs: {e}"))?;
    println!("verify_kvccs: passed in {:.2}s", secs_since(start));

    out.set("setup_s", setup.median());
    out.set("solve_s", solve_s);
    out.set("op_p50_us", all.median() * 1e6);
    out.set("ops_per_s", 1.0 / solve_s);
    out.set("ok_frac", 1.0 - out.failed as f64 / out.attempted as f64);

    if cfg.trace {
        // The first relabelling is replayed. The traced span covers the
        // enumeration; the untraced solve also opened the file, so compare
        // against solve minus open.
        let traced = traced_solves(
            &[(graph, K)],
            std::slice::from_ref(result),
            cfg.deadline(0.5),
            solve_s - opens.median(),
        )?;
        out.attempted += traced.summaries.len() as u64;
        traced.report(&mut out);
        let ingest_s = ingest.median();
        out.set("load.ingest_s", ingest_s);
        out.set(
            "load.lines_per_s",
            stream.num_edge_lines() as f64 / ingest_s,
        );
        out.set("kcsr.write_s", write.median());
        out.set("kcsr.open_s", opens.median());
    }
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}
