//! The serve phase of a workload: an in-process `lncl-serve` driven
//! open-loop.
//!
//! The labels of the paper-scale `spammer-third` classification scenario
//! are posted one per request in a seeded interleaved order; a
//! `GET /consensus` of an already-ingested instance follows every 4th post
//! and `POST /finalize` runs at each quarter of the stream.  Requests are
//! due on a fixed schedule at the offered rate and spread round-robin over
//! the connections; each is timed from when it was due, so a stall also
//! charges the requests queued behind it.  The stream is sent once at each
//! step rate, each pass against a fresh server; the first step runs at the
//! nominal rate and gives the latencies.

use crate::report::{median, percentile, print_unreported, Outcome};
use crate::trace::Tracer;
use lncl_bench::json::Json;
use lncl_bench::Scale;
use lncl_crowd::scenario::{generate_scenario, standard_mixes};
use lncl_crowd::truth::streaming::{StreamingConfig, StreamingTruth};
use lncl_crowd::truth::{DawidSkene, TruthInference};
use lncl_crowd::{CrowdDataset, TaskKind};
use lncl_serve::state::AppState;
use lncl_serve::{Server, ServerConfig};
use lncl_tensor::TensorRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate of the latency pass, requests per second.
pub const NOMINAL_RPS: f64 = 4000.0;
/// Offered rates of the capacity steps, the nominal rate first.
pub const STEP_RPS: [f64; 4] = [NOMINAL_RPS, 8000.0, 12000.0, 16000.0];
/// Latency limit on the p99 of a step.
pub const P99_LIMIT_MS: f64 = 25.0;
/// Share of the offered rate a step must achieve.
pub const MIN_ACHIEVED_SHARE: f64 = 0.99;
/// A consensus read follows every this many posts.
pub const POSTS_PER_READ: usize = 4;
/// Largest posterior difference accepted between the service's final
/// consensus and batch Dawid–Skene on the same labels: the stream sorts
/// each instance's labels by its own annotator ids, so float sums run in
/// another order than the batch estimator's.  Same bound as the
/// repository's stream-vs-batch equivalence suite.
pub const POSTERIOR_TOLERANCE: f32 = 5e-4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Post,
    Read,
    Finalize,
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    pub raw: Vec<u8>,
}

/// The generated inputs of the workload.
pub struct Stream {
    pub dataset: CrowdDataset,
    /// `(instance, annotator, class)` in arrival order.
    pub labels: Vec<(usize, usize, usize)>,
    /// Per connection: `(global schedule index, op)`.
    pub schedule: Vec<Vec<(usize, Op)>>,
    /// Total scheduled requests (the end-of-stream finalize excluded).
    pub scheduled: usize,
}

fn http_post(path: &str, body: &str) -> Vec<u8> {
    format!("POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len()).into_bytes()
}

fn http_get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\n\r\n").into_bytes()
}

fn finalize_request() -> Vec<u8> {
    http_post("/finalize", "")
}

/// Seed of the scenario whose labels are streamed.  The workload seed
/// picks the arrival order and the reads, not the label set: finalize
/// runs batch EM to convergence, and its iteration count depends on the
/// labels, so a fixed label set keeps the finalize cost comparable from
/// run to run.
pub const CORPUS_SEED: u64 = 7;

/// The scenario the stream replays.
pub fn dataset(scale: Scale, seed: u64) -> CrowdDataset {
    let mix = standard_mixes()
        .into_iter()
        .find(|(name, _)| *name == "spammer-third")
        .expect("spammer-third is a standard mix")
        .1;
    generate_scenario(&scale.scenario_base(TaskKind::Classification, seed).named("serve/spammer-third").with_mix(mix))
}

/// Builds the label stream and the per-connection request schedule.
pub fn build(scale: Scale, seed: u64, connections: usize) -> Stream {
    let dataset = dataset(scale, CORPUS_SEED);
    let mut labels: Vec<(usize, usize, usize)> = dataset
        .train
        .iter()
        .enumerate()
        .flat_map(|(i, inst)| inst.crowd_labels.iter().map(move |cl| (i, cl.annotator, cl.labels[0])))
        .collect();
    let mut rng = TensorRng::seed_from_u64(seed ^ 0x5e7e_57ea);
    rng.shuffle(&mut labels);

    let quarter = |n: usize| (1..4).any(|q| n == labels.len() * q / 4);
    let mut schedule: Vec<Vec<(usize, Op)>> = vec![Vec::new(); connections];
    // per connection: instances it has already posted, so a read on that
    // connection is answered after the instance's post completed
    let mut posted: Vec<Vec<usize>> = vec![Vec::new(); connections];
    let mut index = 0usize;
    let push = |schedule: &mut Vec<Vec<(usize, Op)>>, index: &mut usize, op: Op| {
        let conn = *index % connections;
        schedule[conn].push((*index, op));
        *index += 1;
        conn
    };
    for (n, &(instance, annotator, class)) in labels.iter().enumerate() {
        if n > 0 && quarter(n) {
            push(&mut schedule, &mut index, Op { kind: Kind::Finalize, raw: finalize_request() });
        }
        let body = format!(r#"{{"instance": "i{instance}", "annotator": "a{annotator}", "class": {class}}}"#);
        let conn = push(&mut schedule, &mut index, Op { kind: Kind::Post, raw: http_post("/labels", &body) });
        posted[conn].push(instance);
        if (n + 1) % POSTS_PER_READ == 0 {
            let conn = index % connections;
            if !posted[conn].is_empty() {
                let target = posted[conn][rng.usize_below(posted[conn].len())];
                let raw = http_get(&format!("/consensus/i{target}"));
                push(&mut schedule, &mut index, Op { kind: Kind::Read, raw });
            }
        }
    }
    Stream { dataset, labels, scheduled: index, schedule }
}

/// One request's measurement.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    /// Completion minus due time.
    pub latency_s: f64,
    /// Send minus due time: how late the generator ran.
    pub late_s: f64,
    /// Completion, from the schedule start.
    pub done_s: f64,
    /// HTTP status, 0 when the connection failed.
    pub status: u16,
}

/// Sends `raw` and reads one response; returns its status.
fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, raw: &[u8]) -> std::io::Result<u16> {
    stream.write_all(raw)?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let mut content_length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "closed inside headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(status)
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { stream, reader })
    }
}

/// The last stretch before a due time is spun, not slept: a sleep wakes
/// late by about the kernel's timer slack (50 µs), which the latency of
/// the request would include.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(100);

/// Returns at `due`: sleeps until shortly before it, then spins, yielding
/// the core to any runnable server worker.
fn wait_until(due: Instant) {
    if let Some(ahead) = due.checked_duration_since(Instant::now()) {
        if ahead > SPIN_BEFORE_DUE {
            std::thread::sleep(ahead - SPIN_BEFORE_DUE);
        }
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Drives one connection's share of the schedule; a failed request counts
/// as failed and the connection is re-opened for the next one.
fn drive(addr: SocketAddr, ops: &[(usize, Op)], start: Instant, period_s: f64) -> Vec<Sample> {
    let mut client = Client::connect(addr).ok();
    let mut samples = Vec::with_capacity(ops.len());
    for (index, op) in ops {
        let due = start + Duration::from_secs_f64(*index as f64 * period_s);
        wait_until(due);
        let sent = Instant::now();
        if client.is_none() {
            client = Client::connect(addr).ok();
        }
        let status = match client.as_mut().map(|c| roundtrip(&mut c.stream, &mut c.reader, &op.raw)) {
            Some(Ok(status)) => status,
            _ => {
                client = None;
                0
            }
        };
        let done = Instant::now();
        samples.push(Sample {
            kind: op.kind,
            latency_s: done.saturating_duration_since(due).as_secs_f64(),
            late_s: sent.saturating_duration_since(due).as_secs_f64(),
            done_s: done.saturating_duration_since(start).as_secs_f64(),
            status,
        });
    }
    samples
}

/// One pass of the stream against a fresh server.
pub struct Pass {
    pub rate: f64,
    pub samples: Vec<Sample>,
    /// The end-of-stream finalize, sent once every connection finished.
    pub closing_finalize: Sample,
    /// Scheduled requests over the time until the last one completed.
    pub achieved_rps: f64,
    /// `(instance, posterior, hard class)` read back after the last finalize.
    pub consensus: Vec<(usize, Vec<f32>, usize)>,
}

impl Pass {
    fn of(&self, kind: Kind) -> Vec<f64> {
        self.samples.iter().filter(|s| s.kind == kind).map(|s| s.latency_s * 1e3).collect()
    }

    pub fn ingest_ms(&self) -> Vec<f64> {
        self.of(Kind::Post)
    }

    pub fn read_ms(&self) -> Vec<f64> {
        self.of(Kind::Read)
    }

    pub fn finalize_ms(&self) -> Vec<f64> {
        let mut all = self.of(Kind::Finalize);
        all.push(self.closing_finalize.latency_s * 1e3);
        all
    }

    pub fn p99_all_ms(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|s| s.latency_s * 1e3).collect();
        percentile(&all, 0.99)
    }

    /// How late the generator sent, in ms, at quantile `q`.
    pub fn late_ms(&self, q: f64) -> f64 {
        let late: Vec<f64> = self.samples.iter().map(|s| s.late_s * 1e3).collect();
        percentile(&late, q)
    }

    /// `(sent, succeeded, failed)` over every request of the pass.
    pub fn counts(&self) -> (usize, usize, usize) {
        let all = self.samples.iter().chain(std::iter::once(&self.closing_finalize));
        let sent = self.samples.len() + 1;
        let ok = all.filter(|s| (200..300).contains(&s.status)).count();
        (sent, ok, sent - ok)
    }

    /// The step passes its limit: p99 within the limit, offered rate kept.
    pub fn meets_limit(&self) -> bool {
        self.counts().2 == 0 && self.p99_all_ms() <= P99_LIMIT_MS && self.achieved_rps >= MIN_ACHIEVED_SHARE * self.rate
    }
}

/// Starts a fresh server, sends the whole schedule at `rate`, then the
/// closing finalize, and reads every instance's consensus back.
pub fn run_pass(stream: &Stream, rate: f64, workers: usize) -> std::io::Result<Pass> {
    let state = Arc::new(AppState::new(StreamingConfig::pooled(stream.dataset.num_classes)));
    let mut server = Server::start(Arc::clone(&state), ServerConfig { workers, ..ServerConfig::default() })?;
    let addr = server.addr();
    let period_s = 1.0 / rate;
    // the clients connect inside this lead time, before the first request is due
    let start = Instant::now() + Duration::from_millis(50);
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            stream.schedule.iter().map(|ops| scope.spawn(move || drive(addr, ops, start, period_s))).collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    let last_done = samples.iter().map(|s| s.done_s).fold(0.0, f64::max);
    let achieved_rps = samples.len() as f64 / last_done.max(period_s);

    let closing = Instant::now();
    let status = Client::connect(addr)
        .and_then(|mut c| roundtrip(&mut c.stream, &mut c.reader, &finalize_request()))
        .unwrap_or(0);
    let latency_s = closing.elapsed().as_secs_f64();
    let closing_finalize = Sample { kind: Kind::Finalize, latency_s, late_s: 0.0, done_s: 0.0, status };
    server.stop();

    let consensus = read_consensus(&state, stream.dataset.train.len());
    Ok(Pass { rate, samples, closing_finalize, achieved_rps, consensus })
}

/// Every instance's consensus document, through the service's dispatch.
fn read_consensus(state: &AppState, instances: usize) -> Vec<(usize, Vec<f32>, usize)> {
    (0..instances)
        .filter_map(|i| {
            let response = state.handle("GET", &format!("/consensus/i{i}"), b"");
            let posterior = response
                .body
                .get("posterior")?
                .as_array()?
                .iter()
                .map(|p| p.as_f64().map(|v| v as f32))
                .collect::<Option<Vec<f32>>>()?;
            let hard = response.body.get("hard_class")?.as_f64()? as usize;
            (response.status == 200).then_some((i, posterior, hard))
        })
        .collect()
}

/// Compares the service's final consensus with batch Dawid–Skene on the
/// same labels: `(instances compared, hard classes equal, largest
/// posterior difference)`.
pub fn compare_with_batch(dataset: &CrowdDataset, consensus: &[(usize, Vec<f32>, usize)]) -> (usize, usize, f32) {
    let view = dataset.annotation_view();
    let batch = DawidSkene::default().infer(&view);
    let mut hard_equal = 0;
    let mut max_diff = 0.0f32;
    for (i, posterior, hard) in consensus {
        let reference = &batch.posteriors[*i];
        if lncl_tensor::stats::argmax(reference) == *hard {
            hard_equal += 1;
        }
        for (a, b) in posterior.iter().zip(reference) {
            max_diff = max_diff.max((a - b).abs());
        }
    }
    (consensus.len(), hard_equal, max_diff)
}

/// Per-layer replays from public calls, on this thread: the HTTP parser
/// on the schedule's raw bytes, `AppState::handle` on the same requests,
/// and `StreamingTruth` on the label stream.
pub fn layer_replay(stream: &Stream, tracer: &Tracer) -> (f64, usize) {
    for ops in &stream.schedule {
        for (_, op) in ops {
            let mut reader = BufReader::new(op.raw.as_slice());
            let parsed = tracer.span("serve.http.parse_us", || lncl_serve::http::parse_request(&mut reader));
            assert!(matches!(parsed, Ok(Some(_))), "the workload's requests parse");
        }
    }
    let mut merged: Vec<&(usize, Op)> = stream.schedule.iter().flatten().collect();
    merged.sort_by_key(|(index, _)| *index);
    let state = AppState::new(StreamingConfig::pooled(stream.dataset.num_classes));
    for (_, op) in merged {
        let mut reader = BufReader::new(op.raw.as_slice());
        let request = lncl_serve::http::parse_request(&mut reader).expect("parses").expect("one request");
        let name = match op.kind {
            Kind::Post => "serve.state.post_labels_us",
            Kind::Read => "serve.state.get_consensus_us",
            Kind::Finalize => "serve.state.finalize_ms",
        };
        let response = tracer.span(name, || state.handle(&request.method, &request.path, &request.body));
        assert_eq!(response.status, 200, "{:?}", response.body.get("error").and_then(Json::as_str));
    }

    let mut truth = StreamingTruth::new(StreamingConfig::pooled(stream.dataset.num_classes));
    // dense ids in first-seen order, as the service interns them
    let mut instance_ids = vec![usize::MAX; stream.dataset.train.len()];
    let mut annotator_ids = vec![usize::MAX; stream.dataset.num_annotators];
    let (mut next_instance, mut next_annotator) = (0, 0);
    let mut max_backlog = 0usize;
    let total = stream.labels.len();
    for (n, &(instance, annotator, class)) in stream.labels.iter().enumerate() {
        if n > 0 && (1..4).any(|q| n == total * q / 4) {
            tracer.span("crowd.stream.finalize_ms", || truth.finalize());
        }
        let i = intern(&mut instance_ids, &mut next_instance, instance);
        let a = intern(&mut annotator_ids, &mut next_annotator, annotator);
        tracer.span("crowd.stream.ingest_us", || truth.ingest(i, a, class)).expect("class in range");
        max_backlog = max_backlog.max(truth.dirty_backlog());
    }
    tracer.span("crowd.stream.finalize_ms", || truth.finalize());
    (truth.refreshed_instances() as f64 / total as f64, max_backlog)
}

/// The dense id of `key`, assigning the next one on first sight.
fn intern(ids: &mut [usize], next: &mut usize, key: usize) -> usize {
    if ids[key] == usize::MAX {
        ids[key] = *next;
        *next += 1;
    }
    ids[key]
}

fn print_pass(label: &str, pass: &Pass) {
    let (sent, ok, failed) = pass.counts();
    let finals = pass.finalize_ms();
    println!(
        "pass {label:<12} offered {:>6.0} req/s achieved {:>8.1}: sent {sent} ok {ok} failed {failed}; \
         finalize sent {} ok {}; p99 {:.3} ms; generator late p50 {:.4} ms, p99 {:.3} ms",
        pass.rate,
        pass.achieved_rps,
        finals.len(),
        pass.samples
            .iter()
            .chain(std::iter::once(&pass.closing_finalize))
            .filter(|s| s.kind == Kind::Finalize && (200..300).contains(&s.status))
            .count(),
        pass.p99_all_ms(),
        pass.late_ms(0.5),
        pass.late_ms(0.99)
    );
}

/// Records a pass's requests and its consensus check.
fn account(out: &mut Outcome, stream: &Stream, pass: &Pass, label: &str) {
    let (sent, _, failed) = pass.counts();
    out.attempted += sent as u64;
    out.failed += failed as u64;
    let (compared, hard_equal, max_diff) = compare_with_batch(&stream.dataset, &pass.consensus);
    out.check(
        &format!(
            "{label}: final consensus of {compared}/{} instances matches batch DS \
             ({hard_equal} hard classes equal, max posterior diff {max_diff:.2e} <= {POSTERIOR_TOLERANCE:.0e})",
            stream.dataset.train.len()
        ),
        compared == stream.dataset.train.len() && hard_equal == compared && max_diff <= POSTERIOR_TOLERANCE,
    );
}

/// Set-up of the serve phase: the label stream and schedule, and a
/// server started and stopped.
pub fn set_up(scale: Scale, seed: u64) -> Stream {
    let nproc = lncl_tensor::par::max_threads();
    let built = build(scale, seed, nproc);
    let state = Arc::new(AppState::new(StreamingConfig::pooled(built.dataset.num_classes)));
    drop(Server::start(state, ServerConfig { workers: nproc, ..ServerConfig::default() }).expect("bind loopback"));
    built
}

/// Sends the stream once at each step rate, each pass against a fresh
/// server, and checks every pass; when `trace`
/// is set, replays the layers into `tracer`.  Returns the per-layer values
/// the tracer does not hold.
pub fn measure(stream: &Stream, trace: bool, tracer: &Tracer, out: &mut Outcome) -> Vec<(&'static str, f64, usize)> {
    let nproc = lncl_tensor::par::max_threads();
    println!(
        "serve: {} labels on {} instances from {} annotators, {} scheduled requests, \
         {} connections, {nproc} server workers",
        stream.labels.len(),
        stream.dataset.train.len(),
        stream.dataset.num_annotators,
        stream.scheduled,
        stream.schedule.len()
    );
    // the first step runs at the nominal rate; its pass gives the latencies
    let mut passes = Vec::new();
    let mut max_rate = 0.0f64;
    for rate in STEP_RPS {
        let pass = run_pass(stream, rate, nproc).expect("server starts");
        let label = format!("step@{rate:.0}");
        print_pass(&label, &pass);
        account(out, stream, &pass, &label);
        if pass.meets_limit() {
            max_rate = pass.achieved_rps;
        }
        passes.push(pass);
    }
    let nominal = &passes[0];

    let (ingest, reads, finals) = (nominal.ingest_ms(), nominal.read_ms(), nominal.finalize_ms());
    // the latency medians include the generator's lateness: its median
    // is printed beside them, so its share of them shows
    println!("nominal generator lateness: p50 {:.4} ms, p99 {:.4} ms", nominal.late_ms(0.5), nominal.late_ms(0.99));
    print_unreported("ingest_p50_ms", percentile(&ingest, 0.5), "ms", ingest.len());
    print_unreported("read_p50_ms", percentile(&reads, 0.5), "ms", reads.len());
    print_unreported("ingest_p99_ms", percentile(&ingest, 0.99), "ms", ingest.len());
    print_unreported("read_p99_ms", percentile(&reads, 0.99), "ms", reads.len());
    print_unreported("finalize_ms", median(&finals), "ms", finals.len());
    print_unreported("max_rate_rps", max_rate, "req/s", STEP_RPS.len());

    if !trace {
        return Vec::new();
    }
    let (refreshed_per_label, max_backlog) = layer_replay(stream, tracer);
    vec![
        ("crowd.stream.refreshed_per_label", refreshed_per_label, stream.labels.len()),
        ("crowd.stream.max_dirty_backlog", max_backlog as f64, stream.labels.len()),
        ("bench.gen_late_ms", nominal.late_ms(0.99), nominal.samples.len()),
    ]
}
