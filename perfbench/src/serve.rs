//! `serve-mixed`: a closed loop over one TCP connection against `serve` on a
//! `TcpTransport` with `QosConfig::serving()`.
//!
//! The request mix: Zipf-repetitive index reads, `LocalConnectivity` on
//! fresh pairs, and an `ApplyUpdates` batch every [`PERIOD`] requests
//! (see [`BATCHES`]). Callers wait for each reply, so the loop is closed;
//! one client connection is the whole load.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use kvcc::verify::verify_kvccs;
use kvcc::{enumerate_kvccs, ConnectivityIndex, RankBy};
use kvcc_datasets::diffs::{diff_stream, DiffStreamConfig};
use kvcc_datasets::planted::planted_communities;
use kvcc_flow::VertexFlowGraph;
use kvcc_graph::{write_kcsr_file, CsrGraph, DeltaGraph, EdgeUpdate, UpdateOp, VertexId};
use kvcc_service::{
    EngineConfig, GraphId, LoadFormat, QosConfig, QueryRequest, QueryResponse, Request,
    RequestBody, Response, ResponseBody, ServiceEngine, SocketOptions, TcpTransport, Transport,
    TransportError,
};

use crate::enumeration::options;
use crate::inputs::serve_config;
use crate::report::Outcome;
use crate::sample::{derive_seed, peak_rss_mb, secs_since, Fnv, Samples, SplitMix};
use crate::RunConfig;

/// Requests between two `ApplyUpdates` batches.
const PERIOD: usize = 300;
/// Share of the other requests that are index reads; the rest are
/// `LocalConnectivity` probes.
const READ_SHARE: f64 = 0.85;
/// Distinct read queries the Zipf draw ranges over; as many as the result
/// cache of `QosConfig::serving()` holds, so the warm-up fills it.
const READ_POOL: usize = 4096;
/// Zipf exponent of the read draw.
const ZIPF_S: f64 = 1.0;
/// Flow cap of the `LocalConnectivity` probes.
const FLOW_LIMIT: u32 = 8;
/// Edge updates per batch.
const BATCH_SIZE: usize = 16;
/// Update batches generated: pairs of a `diff_stream` batch drawn against
/// the loaded graph and the batch that undoes it. Every second batch
/// restores the loaded graph, so the cost of a write does not drift with
/// the number of writes a run gets through. A run uses far fewer.
const BATCHES: usize = 96;
/// Set-up repetitions (`LoadGraph` + index build); set-up time is their
/// median.
const SETUP_REPS: usize = 3;
/// Fewest update batches a timed loop applies.
const MIN_UPDATES: usize = 3;
/// Level checked with `verify_kvccs`: the level the blocks are planted at.
const VERIFY_K: u32 = 6;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Read,
    Flow,
    Update,
}

/// A transport wrapper that records the server-side span of every request:
/// from `recv` returning a frame to the `send` of its response.
struct SpanTransport<T: Transport> {
    inner: T,
    received: Mutex<Option<Instant>>,
    spans: Mutex<Vec<f64>>,
}

impl<T: Transport> SpanTransport<T> {
    fn new(inner: T) -> Self {
        SpanTransport {
            inner,
            received: Mutex::new(None),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn mark(&self, frame: &Result<Option<Vec<u8>>, TransportError>) {
        if let Ok(Some(_)) = frame {
            *self.received.lock().expect("span lock") = Some(Instant::now());
        }
    }
}

impl<T: Transport> Transport for SpanTransport<T> {
    fn send(&self, frame: &[u8]) -> Result<(), TransportError> {
        if let Some(start) = self.received.lock().expect("span lock").take() {
            self.spans
                .lock()
                .expect("span lock")
                .push(secs_since(start));
        }
        self.inner.send(frame)
    }

    fn recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        let frame = self.inner.recv();
        self.mark(&frame);
        frame
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Vec<u8>>, TransportError> {
        let frame = self.inner.recv_timeout(timeout);
        self.mark(&frame);
        frame
    }
}

/// The seeded request generator: which request comes next.
struct Mix {
    rng: SplitMix,
    reads: Vec<QueryRequest>,
    zipf_cdf: Vec<f64>,
    updates: Vec<Vec<EdgeUpdate>>,
    next_update: usize,
    graph: GraphId,
    n: u32,
    issued: usize,
}

impl Mix {
    fn new(seed: u64, graph: GraphId, csr: &CsrGraph, max_k: u32) -> Self {
        let n = csr.num_vertices() as u32;
        let mut rng = SplitMix::new(derive_seed(seed, "serve-reads"));
        let vertex = |rng: &mut SplitMix| rng.below(n as u64) as VertexId;
        let reads = (0..READ_POOL)
            .map(|_| match rng.below(20) {
                0..=7 => QueryRequest::KvccsContaining {
                    graph,
                    seed: vertex(&mut rng),
                    k: 2 + rng.below(max_k.max(2) as u64 - 1) as u32,
                },
                8..=12 => QueryRequest::MaxConnectivity {
                    graph,
                    u: vertex(&mut rng),
                    v: vertex(&mut rng),
                },
                13..=17 => QueryRequest::VertexConnectivityNumber {
                    graph,
                    v: vertex(&mut rng),
                },
                _ => QueryRequest::TopKComponents {
                    graph,
                    rank_by: [RankBy::K, RankBy::Size, RankBy::Density][rng.below(3) as usize],
                    page_size: 4 + rng.below(13) as u32,
                    cursor: None,
                },
            })
            .collect();
        let weights: Vec<f64> = (1..=READ_POOL).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let updates = (0..BATCHES / 2)
            .flat_map(|j| {
                let batch = diff_stream(
                    csr,
                    &DiffStreamConfig {
                        batches: 1,
                        batch_size: BATCH_SIZE,
                        delete_fraction: 0.3,
                        locality: 0.5,
                        seed: derive_seed(seed, &format!("serve-updates-{j}")),
                    },
                )
                .remove(0);
                let undo = inverse(&batch);
                [batch, undo]
            })
            .collect();
        Mix {
            rng: SplitMix::new(derive_seed(seed, "serve-log")),
            reads,
            zipf_cdf,
            updates,
            next_update: 0,
            graph,
            n,
            issued: 0,
        }
    }

    fn next(&mut self) -> (Class, RequestBody) {
        self.issued += 1;
        if self.issued.is_multiple_of(PERIOD) && self.next_update < self.updates.len() {
            self.next_update += 1;
            return (
                Class::Update,
                RequestBody::ApplyUpdates {
                    graph: self.graph,
                    updates: self.updates[self.next_update - 1].clone(),
                },
            );
        }
        if self.rng.unit() < READ_SHARE {
            let x = self.rng.unit();
            let rank = self.zipf_cdf.partition_point(|&c| c < x).min(READ_POOL - 1);
            return (Class::Read, RequestBody::Query(self.reads[rank].clone()));
        }
        let u = self.rng.below(self.n as u64) as VertexId;
        let v = (u + 1 + self.rng.below(self.n as u64 - 1) as VertexId) % self.n;
        (
            Class::Flow,
            RequestBody::Query(QueryRequest::LocalConnectivity {
                graph: self.graph,
                u,
                v,
                limit: FLOW_LIMIT,
            }),
        )
    }
}

/// The batch that undoes `batch`: every update flipped, in reverse order.
fn inverse(batch: &[EdgeUpdate]) -> Vec<EdgeUpdate> {
    batch
        .iter()
        .rev()
        .map(|up| EdgeUpdate {
            op: match up.op {
                UpdateOp::Insert => UpdateOp::Delete,
                UpdateOp::Delete => UpdateOp::Insert,
            },
            ..*up
        })
        .collect()
}

/// What one client connection measured.
#[derive(Default)]
struct LoopStats {
    rtt: [Samples; 3],
    all_us: Samples,
    encode_us: Samples,
    decode_us: Samples,
    request_bytes: Samples,
    response_bytes: Samples,
    /// Class, round trip, encode and decode time (µs) of every request.
    per_request: Vec<(Class, f64, f64, f64)>,
    rebuilt: u64,
    attempted: u64,
    failed: u64,
    wall_s: f64,
}

/// Every request frame sent, in order, and the fingerprint of every
/// response frame received: the parity record.
#[derive(Default)]
struct Log {
    frames: Vec<Vec<u8>>,
    fingerprint: Fnv,
    next_id: u64,
}

fn call(
    client: &TcpTransport,
    log: &mut Log,
    body: RequestBody,
) -> Result<(Vec<u8>, Response, f64, f64, f64), String> {
    log.next_id += 1;
    let request = Request {
        request_id: log.next_id,
        deadline_hint_ms: None,
        body,
    };
    let start = Instant::now();
    let frame = request.to_bytes();
    let encode_s = secs_since(start);
    let sent = Instant::now();
    client.send(&frame).map_err(|e| format!("send: {e:?}"))?;
    let reply = client
        .recv()
        .map_err(|e| format!("recv: {e:?}"))?
        .ok_or("server closed the connection")?;
    let rtt_s = secs_since(sent);
    let start = Instant::now();
    let response =
        Response::from_bytes(&reply).map_err(|e| format!("undecodable response: {e}"))?;
    let decode_s = secs_since(start);
    if response.request_id != request.request_id {
        return Err(format!(
            "response id {} answers request {}",
            response.request_id, request.request_id
        ));
    }
    log.fingerprint.bytes(&reply);
    log.frames.push(frame);
    Ok((reply, response, rtt_s, encode_s, decode_s))
}

/// Sends every query of the read pool once, untimed: the result cache is
/// then full before the timed loop starts, so the process's memory no
/// longer grows with the number of requests a run gets through.
fn warm_up(client: &TcpTransport, mix: &Mix, log: &mut Log) -> Result<(), String> {
    for query in &mix.reads {
        let (_, response, ..) = call(client, log, RequestBody::Query(query.clone()))?;
        if let ResponseBody::Query(QueryResponse::Error(e)) = response.body {
            return Err(format!("warm-up read {query:?} failed: {e}"));
        }
    }
    Ok(())
}

/// Runs the closed loop on one connection until `deadline`.
fn run_loop(
    client: &TcpTransport,
    mix: &mut Mix,
    log: &mut Log,
    deadline: Instant,
) -> Result<LoopStats, String> {
    let mut s = LoopStats::default();
    let start = Instant::now();
    let first_update = mix.next_update;
    let short_of_updates = |mix: &Mix| {
        mix.next_update - first_update < MIN_UPDATES && mix.next_update < mix.updates.len()
    };
    while Instant::now() < deadline || short_of_updates(mix) {
        let (class, body) = mix.next();
        s.attempted += 1;
        let (reply, response, rtt_s, encode_s, decode_s) = call(client, log, body)?;
        s.rtt[class as usize].push(rtt_s * 1e6);
        s.all_us.push(rtt_s * 1e6);
        s.per_request
            .push((class, rtt_s * 1e6, encode_s * 1e6, decode_s * 1e6));
        match response.body {
            ResponseBody::Query(QueryResponse::Error(_)) => s.failed += 1,
            ResponseBody::Query(QueryResponse::Updated { rebuilt, .. }) => {
                s.rebuilt += rebuilt as u64
            }
            _ => {}
        }
        if class == Class::Read {
            s.encode_us.push(encode_s * 1e6);
            s.decode_us.push(decode_s * 1e6);
            s.request_bytes
                .push(log.frames.last().map_or(0, |f| f.len()) as f64);
            s.response_bytes.push(reply.len() as f64);
        }
    }
    s.wall_s = secs_since(start);
    Ok(s)
}

/// Serves one accepted connection, optionally behind the span recorder;
/// returns the server spans (empty when untraced).
fn serve_one(
    engine: &ServiceEngine,
    listener: &TcpListener,
    traced: bool,
) -> Result<Vec<f64>, String> {
    let (stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let transport = TcpTransport::from_stream(stream, SocketOptions::default())
        .map_err(|e| format!("server transport: {e}"))?;
    if traced {
        let spans = SpanTransport::new(transport);
        engine.serve(&spans).map_err(|e| format!("serve: {e:?}"))?;
        Ok(spans.spans.into_inner().expect("span lock"))
    } else {
        engine
            .serve(&transport)
            .map_err(|e| format!("serve: {e:?}"))?;
        Ok(Vec::new())
    }
}

fn connect(addr: SocketAddr) -> Result<TcpTransport, String> {
    TcpTransport::connect(addr, SocketOptions::default()).map_err(|e| format!("connect: {e}"))
}

/// Loads the KCSR file `SETUP_REPS` times through `load`, building the
/// index each time, and keeps the last slot. Returns it with the median
/// set-up seconds and the median index-build seconds.
fn load_and_index(
    engine: &ServiceEngine,
    mut load: impl FnMut() -> Result<GraphId, String>,
) -> Result<(GraphId, f64, f64), String> {
    let (mut setup, mut build) = (Samples::new(), Samples::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let id = load()?;
        let loaded = Instant::now();
        engine
            .build_index(id)
            .map_err(|e| format!("index build: {e}"))?;
        build.push(secs_since(loaded));
        setup.push(secs_since(start));
        if let Some(old) = last.replace(id) {
            engine.unload(old);
        }
    }
    Ok((last.expect("one load"), setup.median(), build.median()))
}

/// Replays the logged frames through a QoS-off engine set up the same way
/// and returns its response fingerprint.
fn reference_fingerprint(kcsr: &Path, frames: &[Vec<u8>]) -> Result<u64, String> {
    let engine = ServiceEngine::new(EngineConfig {
        qos: QosConfig::disabled(),
        ..EngineConfig::default()
    });
    load_and_index(&engine, || {
        engine
            .load_from_path("serve", kcsr, LoadFormat::Kcsr)
            .map(|r| r.graph)
            .map_err(|e| format!("reference load: {e}"))
    })?;
    let mut h = Fnv::default();
    for frame in frames {
        h.bytes(&engine.handle_frame(frame));
    }
    Ok(h.0)
}

pub fn mixed(cfg: &RunConfig) -> Result<Outcome, String> {
    // Not relabelled: the index build's cost moves by ±15% between
    // relabellings of this graph, which would swamp the spread bounds. The
    // seed varies the read pool, the request log and the update batches.
    let csr = CsrGraph::from_view(&planted_communities(&serve_config()).graph);
    let kcsr = cfg.work_dir.join("serve.kcsr");
    write_kcsr_file(&csr, &kcsr).map_err(|e| format!("KCSR write: {e}"))?;
    let kcsr_str = kcsr.to_str().ok_or("work dir is not UTF-8")?.to_string();

    let engine = ServiceEngine::new(EngineConfig {
        qos: QosConfig::serving(),
        ..EngineConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let connections = if cfg.trace { 2 } else { 1 };

    let mut out = Outcome::new(cfg.trace);
    let mut log = Log::default();
    let (client_result, server_result) = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let mut spans = Vec::new();
            for i in 0..connections {
                // The traced run's second connection carries the spans.
                spans = serve_one(&engine, &listener, cfg.trace && i == 1)?;
            }
            Ok::<_, String>(spans)
        });
        let client = (|| {
            let first = connect(addr)?;
            let (graph, setup_s, build_s) = load_and_index(&engine, || {
                let body = RequestBody::LoadGraph {
                    name: "serve".into(),
                    path: kcsr_str.clone(),
                    format: LoadFormat::Kcsr,
                };
                match call(&first, &mut Log::default(), body)?.1.body {
                    ResponseBody::Query(QueryResponse::Loaded {
                        graph,
                        zero_copy: true,
                        ..
                    }) => Ok(graph),
                    other => Err(format!("LoadGraph answered {other:?}")),
                }
            })?;
            let index = engine
                .index_bytes(graph)
                .map_err(|e| e.to_string())
                .and_then(|b| ConnectivityIndex::from_bytes(&b).map_err(|e| e.to_string()))?;
            println!(
                "setup: {} vertices, {} edges, index {} nodes, max_k {}; LoadGraph + index build {setup_s:.4}s, build {build_s:.4}s (median of {SETUP_REPS})",
                csr.num_vertices(),
                csr.num_edges(),
                index.num_nodes(),
                index.max_k()
            );
            let mut mix = Mix::new(cfg.seed, graph, &csr, index.max_k());
            warm_up(&first, &mix, &mut log)?;
            println!("warm-up: {} distinct reads sent once", mix.reads.len());
            let untraced = run_loop(
                &first,
                &mut mix,
                &mut log,
                cfg.deadline(if cfg.trace { 0.35 } else { 1.0 }),
            )?;
            drop(first);
            let traced = if cfg.trace {
                let second = connect(addr)?;
                Some(run_loop(&second, &mut mix, &mut log, cfg.deadline(0.45))?)
            } else {
                None
            };
            Ok::<_, String>((setup_s, build_s, index, mix, untraced, traced))
        })();
        if client.is_err() {
            // Unblock the server's pending accepts so the scope can end.
            for _ in 0..connections {
                let _ = TcpStream::connect(addr);
            }
        }
        let server = server.join().expect("server thread");
        (client, server)
    });
    let (setup_s, build_s, index, mix, untraced, traced) = client_result?;
    let server_spans = server_result?;

    // Output checks, outside the timed loop.
    let reference = reference_fingerprint(&kcsr, &log.frames)?;
    if reference != log.fingerprint.0 {
        return Err(format!(
            "served responses fingerprint {:#018x}, the QoS-off replay {reference:#018x}",
            log.fingerprint.0
        ));
    }
    println!(
        "parity: {} response frames match a QoS-off replay (fingerprint {reference:#018x})",
        log.frames.len()
    );
    let kvccs = enumerate_kvccs(&csr, VERIFY_K, &options()).map_err(|e| e.to_string())?;
    verify_kvccs(&csr, &kvccs, false).map_err(|e| format!("verify_kvccs: {e}"))?;
    println!(
        "verify_kvccs: {} components at k = {VERIFY_K} passed",
        kvccs.num_components()
    );

    let all = [Some(&untraced), traced.as_ref()];
    out.attempted = all.iter().flatten().map(|s| s.attempted).sum();
    out.failed = all.iter().flatten().map(|s| s.failed).sum();
    if out.failed > 0 {
        return Err(format!(
            "{} of {} requests failed",
            out.failed, out.attempted
        ));
    }
    let u = &untraced;
    println!(
        "{}\n{}\n{}",
        u.rtt[Class::Read as usize].describe("read rtt", "us"),
        u.rtt[Class::Flow as usize].describe("flow rtt", "us"),
        u.rtt[Class::Update as usize].describe("update rtt", "us"),
    );
    println!(
        "updates: {} batches, {} rebuilt the index",
        u.rtt[Class::Update as usize].len(),
        u.rebuilt
    );
    out.set("setup_s", setup_s);
    out.set("solve_s", u.rtt[Class::Update as usize].median() / 1e6);
    out.set("op_p50_us", u.all_us.median());
    out.set("ops_per_s", u.attempted as f64 / u.wall_s);
    out.set("ok_frac", 1.0 - out.failed as f64 / out.attempted as f64);

    if let Some(t) = &traced {
        report_layers(
            &mut out,
            t,
            u,
            &server_spans,
            &engine,
            &csr,
            &index,
            &mix,
            build_s,
        )?;
    }
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// Per-layer metrics of the serve workload, from the traced connection and
/// from direct calls into the index and flow layers.
#[allow(clippy::too_many_arguments)]
fn report_layers(
    out: &mut Outcome,
    t: &LoopStats,
    untraced: &LoopStats,
    server_spans: &[f64],
    engine: &ServiceEngine,
    csr: &CsrGraph,
    index: &ConnectivityIndex,
    mix: &Mix,
    build_s: f64,
) -> Result<(), String> {
    if server_spans.len() != t.per_request.len() {
        return Err(format!(
            "{} server spans for {} traced requests",
            server_spans.len(),
            t.per_request.len()
        ));
    }
    // Server span against client round trip, request by request.
    let (mut server_read, mut overhead) = (Samples::new(), Samples::new());
    let (mut covered, mut client_total) = (0.0, 0.0);
    for (&(class, rtt, encode, decode), &span) in t.per_request.iter().zip(server_spans) {
        let span_us = span * 1e6;
        if class == Class::Read {
            server_read.push(span_us);
            overhead.push(rtt - span_us);
        }
        covered += encode + span_us + decode;
        client_total += encode + rtt + decode;
    }
    out.set("engine.server_us", server_read.median());
    out.set("socket.overhead_us", overhead.median());
    out.set("wire.encode_us", t.encode_us.median());
    out.set("wire.decode_us", t.decode_us.median());
    out.set("wire.request_bytes", t.request_bytes.mean());
    out.set("wire.response_bytes", t.response_bytes.mean());
    out.set("trace.solve_s", t.all_us.median() / 1e6);
    out.set(
        "trace.overhead_s",
        (t.all_us.median() - untraced.all_us.median()) / 1e6,
    );
    out.set("trace.coverage", covered / client_total);

    let u = untraced;
    let tail = |s: &Samples| s.supported_tail().map_or(s.median(), |(_, v)| v);
    out.set("serve.read_p50_us", u.rtt[Class::Read as usize].median());
    out.set("serve.read_tail_us", tail(&u.rtt[Class::Read as usize]));
    out.set("serve.flow_p50_us", u.rtt[Class::Flow as usize].median());
    out.set("serve.flow_tail_us", tail(&u.rtt[Class::Flow as usize]));
    out.set(
        "serve.update_p50_ms",
        u.rtt[Class::Update as usize].median() / 1e3,
    );

    let qos = engine.qos_stats();
    let cacheable = qos.cache_hits + qos.cache_misses;
    if cacheable > 0 {
        out.set("qos.hit_rate", qos.cache_hits as f64 / cacheable as f64);
    }
    out.set("qos.misses", qos.cache_misses as f64);
    out.set("qos.coalesced", qos.coalesced as f64);

    // Index layer, called directly: build (from set-up), repair of the
    // first batches on a copy, and lookups over the read pool.
    out.set("index.build_s", build_s);
    let updates = u.rtt[Class::Update as usize].len() + t.rtt[Class::Update as usize].len();
    out.set(
        "index.rebuilt_frac",
        (u.rebuilt + t.rebuilt) as f64 / updates as f64,
    );
    let mut repaired = index.clone();
    let mut delta = DeltaGraph::new(csr.clone());
    let mut repair = Samples::new();
    for batch in mix.updates.iter().take(MIN_UPDATES) {
        delta.apply(batch).map_err(|e| format!("delta: {e}"))?;
        let start = Instant::now();
        repaired
            .apply_updates(&delta, batch, &options())
            .map_err(|e| format!("index repair: {e}"))?;
        repair.push(secs_since(start));
    }
    out.set("index.repair_s", repair.median());
    let mut lookup = Samples::new();
    for _ in 0..8 {
        for q in &mix.reads {
            let start = Instant::now();
            let ok = match *q {
                QueryRequest::KvccsContaining { seed, k, .. } => {
                    std::hint::black_box(index.kvccs_containing(seed, k)).is_ok()
                }
                QueryRequest::MaxConnectivity { u, v, .. } => {
                    std::hint::black_box(index.max_connectivity(u, v)).is_ok()
                }
                QueryRequest::VertexConnectivityNumber { v, .. } => {
                    std::hint::black_box(index.max_connectivity_of(v));
                    true
                }
                QueryRequest::TopKComponents {
                    rank_by, page_size, ..
                } => !std::hint::black_box(index.ranked_page(rank_by, 0, page_size as usize))
                    .is_empty(),
                _ => true,
            };
            lookup.push(secs_since(start) * 1e6);
            if !ok {
                return Err(format!("direct index lookup failed: {q:?}"));
            }
        }
    }
    out.set("index.lookup_us", lookup.median());

    // Flow layer, called directly the way the engine answers
    // `LocalConnectivity`: a fresh arena over the graph, then one probe.
    let mut probes = Samples::new();
    let mut rng = SplitMix::new(0x10ca1);
    let n = csr.num_vertices() as u64;
    for _ in 0..64 {
        let (a, b) = (rng.below(n) as VertexId, rng.below(n) as VertexId);
        let start = Instant::now();
        let mut flow = VertexFlowGraph::build(csr);
        std::hint::black_box(flow.local_connectivity(csr, a, b, FLOW_LIMIT));
        probes.push(secs_since(start) * 1e6);
    }
    out.set("vertex_flow.local_connectivity_us", probes.median());
    println!(
        "layers: server {:.1}us + socket {:.1}us per read; index lookup {:.2}us, repair {:.4}s, build {build_s:.4}s; flow probe {:.1}us; cache hit rate {:.3}",
        server_read.median(),
        overhead.median(),
        lookup.median(),
        repair.median(),
        probes.median(),
        qos.cache_hits as f64 / cacheable.max(1) as f64
    );
    Ok(())
}
