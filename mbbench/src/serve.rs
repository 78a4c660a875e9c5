//! The serving workload (`serve_open`): seeded Poisson arrivals at a
//! fixed reference rate into an `Engine` wrapping one dMoE layer,
//! alternating with saturating bursts.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use megablocks_core::{DroplessMoe, MoeConfig};
use megablocks_data::{PileConfig, SyntheticPile};
use megablocks_serve::{Engine, Response, ResponseHandle, ServeConfig, ServeError};
use megablocks_tensor::init::{normal, seeded_rng};
use megablocks_tensor::ops::cross_entropy;
use megablocks_tensor::{matmul_nt, Matrix};
use rand::Rng;

use crate::replica::{dmoe_infer, MoeCounts};
use crate::report::{Layers, Report};
use crate::spans::Tracer;
use crate::stats::{
    beyond, cpu_seconds, median, peak_rss_mb, percentile, quiet, steal_seconds, windowed_percentile,
};

// The serving layer of `bench_serve`.
const HIDDEN: usize = 64;
const FFN: usize = 128;
const EXPERTS: usize = 4;
const BLOCK: usize = 32;
/// Request sizes are uniform in 1..=MAX_TOKENS tokens.
const MAX_TOKENS: usize = 16;

/// Reference arrival rate (requests/s): about a third of the burst
/// capacity measured on a 2-vCPU x86-64 host (see the README).
pub const RATE_RPS: f64 = 3000.0;
/// Latency limit for `goodput_rps` (ms, from the due time).
pub const LIMIT_MS: f64 = 5.0;
const MAX_BATCH: usize = 8;
const MAX_WAIT: Duration = Duration::from_micros(500);
/// Deep enough that a host stall of a few hundred milliseconds queues
/// requests (and shows in the latency tail) instead of shedding them.
const QUEUE_CAP: usize = 1024;
/// Shares of `--seconds` given to the open-loop schedule and to the
/// saturating bursts.
const OPEN_SHARE: f64 = 0.45;
const BURST_SHARE: f64 = 0.5;
/// The run alternates `CYCLES` times between an open-loop stretch and
/// burst rounds, so both see the same mix of the host's fast and slow
/// spells, which last seconds.
const CYCLES: usize = 5;
/// Burst rounds: `BURST_REQUESTS` requests with at most `BURST_WINDOW`
/// in flight, repeated for the cycle's share of the run and at least
/// `MIN_BURST_ROUNDS` times per cycle. Capacity is requests over time
/// across the rounds with the least host steal, chosen like the latency
/// windows.
const MIN_BURST_ROUNDS: usize = 2;
const BURST_REQUESTS: usize = 1000;
/// 64 full batches queued: the engine keeps computing through a wake-up
/// of the submitting thread that the host delays by tens of milliseconds.
const BURST_WINDOW: usize = 512;
/// How often the collector drains resolved responses. Latency is
/// measured by the engine at resolution, so collecting in bulk changes
/// no figure and spares a wake-up per request.
const COLLECT_EVERY: Duration = Duration::from_millis(10);
/// Requests per open-loop stretch whose served output is checked against
/// sequential inference.
const CHECK_SAMPLE: usize = 64;
/// Served batches the traced run replays through the layer.
const MAX_REPLAY: usize = 4000;
const SETUP_REPS: usize = 21;
/// Stretch of the schedule over which host steal is summed and each
/// latency percentile taken: 300 requests at the reference rate, so 30
/// lie beyond a window's p90.
const WINDOW: Duration = Duration::from_millis(100);
/// Least share of the schedule's windows, and of the burst rounds, that
/// latency and capacity are taken over.
const QUIET_SHARE: f64 = 0.25;
/// Gap between the generator's start and the first due time.
const LEAD: Duration = Duration::from_millis(5);

/// One scheduled request: due offset, and its token window in the corpus.
#[derive(Debug, Clone, Copy)]
struct Req {
    due: Duration,
    start: usize,
    len: usize,
}

/// Everything a run builds before its first request.
struct Setup {
    tokens: Vec<u32>,
    embed: Matrix,
    engine: Engine,
}

impl Setup {
    fn build(seed: u64) -> Self {
        let pile = SyntheticPile::generate(&PileConfig::repro(), seed);
        let tokens = pile.tokens().to_vec();
        let cfg = MoeConfig::new(HIDDEN, FFN, EXPERTS).with_block_size(BLOCK);
        let layer = DroplessMoe::new(cfg, &mut seeded_rng(seed.wrapping_add(1)));
        let embed = normal(
            pile.config().vocab_size,
            HIDDEN,
            1.0,
            &mut seeded_rng(seed ^ 0x5eed),
        );
        let engine = Engine::new(
            layer,
            ServeConfig::default()
                .with_max_batch(MAX_BATCH)
                .with_max_wait(MAX_WAIT)
                .with_queue_cap(QUEUE_CAP),
        );
        Setup {
            tokens,
            embed,
            engine,
        }
    }

    /// A request's input rows: the embeddings of its token window.
    fn rows(&self, r: &Req) -> Matrix {
        let toks = &self.tokens[r.start..r.start + r.len];
        Matrix::from_fn(r.len, HIDDEN, |i, j| self.embed[(toks[i] as usize, j)])
    }

    /// Next-token targets of a request's window.
    fn targets(&self, r: &Req) -> Vec<usize> {
        self.tokens[r.start + 1..r.start + r.len + 1]
            .iter()
            .map(|&t| t as usize)
            .collect()
    }

    fn layer(&self) -> &DroplessMoe {
        self.engine.layer()
    }
}

/// Poisson arrivals at `RATE_RPS` over `span`, from `stream`'s seed.
fn schedule(setup: &Setup, seed: u64, stream: u64, span: Duration) -> Vec<Req> {
    let mut rng = seeded_rng(seed.wrapping_mul(0x9e37_79b9).wrapping_add(stream));
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen::<f64>();
        t += -(1.0 - u).ln() / RATE_RPS;
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push(random_req(setup, &mut rng, Duration::from_secs_f64(t)));
    }
}

fn random_req(setup: &Setup, rng: &mut impl Rng, due: Duration) -> Req {
    let len = rng.gen_range(1..=MAX_TOKENS);
    let start = rng.gen_range(0..setup.tokens.len() - MAX_TOKENS - 1);
    Req { due, start, len }
}

fn timed_setup(seed: u64) -> (Setup, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(Setup::build(seed));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// One request's fate in the open loop.
#[derive(Debug, Clone, Copy)]
struct Rec {
    /// How late the generator called `submit` (ms after the due time).
    late_ms: f64,
    submit_us: f64,
    /// `(latency, queue wait, batch size)` if the request was served.
    served: Option<(Duration, Duration, usize)>,
}

impl Rec {
    /// Latency from the due time; a failed request never arrives.
    fn due_latency_ms(&self) -> f64 {
        self.served.map_or(f64::INFINITY, |(lat, _, _)| {
            self.late_ms + lat.as_secs_f64() * 1e3
        })
    }
}

struct OpenLoop {
    recs: Vec<Rec>,
    /// Outputs kept for the requests in the check sample.
    kept: Vec<(usize, Matrix)>,
    errors: Vec<ServeError>,
    /// Hypervisor steal (s) seen by the collector, per `WINDOW` of the
    /// schedule.
    steal: BTreeMap<u64, f64>,
}

impl OpenLoop {
    /// The windows of the schedule in which the host stole the least CPU
    /// time (see `stats::quiet`), and stole as little in the window
    /// before: a stall's backlog delays the requests due just after it.
    fn quiet_windows(&self, reqs: &[Req]) -> BTreeSet<u64> {
        let last = reqs.last().map_or(0, |r| window_of(r.due));
        let steal: Vec<f64> = (0..=last)
            .map(|w| self.steal.get(&w).copied().unwrap_or(0.0))
            .collect();
        let keep = quiet(&steal, QUIET_SHARE);
        let chosen: BTreeSet<u64> = (0..=last)
            .filter(|&w| keep[w as usize] && (w == 0 || keep[w as usize - 1]))
            .collect();
        if chosen.is_empty() {
            // Every quiet window follows a stolen one.
            (0..=last).filter(|&w| keep[w as usize]).collect()
        } else {
            chosen
        }
    }
}

fn window_of(offset: Duration) -> u64 {
    (offset.as_secs_f64() / WINDOW.as_secs_f64()) as u64
}

/// Drives `reqs` open loop: one generator thread sleeps until each due
/// time and submits; this thread collects the responses in submission
/// order.
fn open_loop(setup: &Setup, reqs: &[Req], keep: &BTreeSet<usize>) -> OpenLoop {
    let (tx, rx) = mpsc::channel();
    let engine = &setup.engine;
    let mut out = OpenLoop {
        recs: Vec::with_capacity(reqs.len()),
        kept: Vec::new(),
        errors: Vec::new(),
        steal: BTreeMap::new(),
    };
    let origin = Instant::now() + LEAD;
    let mut steal_seen = steal_seconds();
    std::thread::scope(|s| {
        s.spawn(move || {
            for r in reqs {
                let rows = setup.rows(r);
                let due = origin + r.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let called = Instant::now();
                let handle = engine.submit(rows, None);
                let submit_us = called.elapsed().as_secs_f64() * 1e6;
                let late_ms = called.saturating_duration_since(due).as_secs_f64() * 1e3;
                if tx.send((late_ms, submit_us, handle)).is_err() {
                    return;
                }
            }
        });
        let mut pending = VecDeque::new();
        let mut open = true;
        while open || !pending.is_empty() {
            if open {
                std::thread::sleep(COLLECT_EVERY);
                let steal = steal_seconds();
                let w = window_of(Instant::now().saturating_duration_since(origin));
                *out.steal.entry(w).or_default() += steal - steal_seen;
                steal_seen = steal;
                loop {
                    match rx.try_recv() {
                        Ok(sent) => pending.push_back(sent),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
            }
            // Settle responses in submission order; once the generator is
            // done, block on the stragglers.
            while let Some((late_ms, submit_us, handle)) = pending.pop_front() {
                let result = match handle {
                    Ok(h) if open => match h.try_take() {
                        Some(r) => r,
                        None => {
                            pending.push_front((late_ms, submit_us, Ok(h)));
                            break;
                        }
                    },
                    Ok(h) => h.wait(),
                    Err(e) => Err(e),
                };
                out.settle(keep, late_ms, submit_us, result);
            }
        }
    });
    out
}

impl OpenLoop {
    /// Records the next request's outcome, keeping its output if it is
    /// in the check sample.
    fn settle(
        &mut self,
        keep: &BTreeSet<usize>,
        late_ms: f64,
        submit_us: f64,
        result: Result<Response, ServeError>,
    ) {
        let i = self.recs.len();
        let served = match result {
            Ok(resp) => {
                if keep.contains(&i) {
                    self.kept.push((i, resp.output));
                }
                Some((resp.latency, resp.queue_wait, resp.batch_size))
            }
            Err(e) => {
                self.errors.push(e);
                None
            }
        };
        self.recs.push(Rec {
            late_ms,
            submit_us,
            served,
        });
    }
}

/// Saturating burst with at most `BURST_WINDOW` requests in flight;
/// returns (seconds, failures).
fn burst(setup: &Setup, reqs: &[Req]) -> (f64, usize) {
    let mut inflight = VecDeque::with_capacity(BURST_WINDOW);
    let mut failed = 0usize;
    let mut settle = |h: Result<ResponseHandle, ServeError>| {
        if h.and_then(|h| h.wait()).is_err() {
            failed += 1;
        }
    };
    let t0 = Instant::now();
    for r in reqs {
        if inflight.len() == BURST_WINDOW {
            settle(inflight.pop_front().expect("window is full"));
        }
        inflight.push_back(setup.engine.submit(setup.rows(r), None));
    }
    for h in inflight {
        settle(h);
    }
    (t0.elapsed().as_secs_f64(), failed)
}

fn burst_reqs(setup: &Setup, seed: u64, n: usize) -> Vec<Req> {
    let mut rng = seeded_rng(seed.wrapping_mul(0x2545_f491).wrapping_add(0xb0b));
    (0..n)
        .map(|_| random_req(setup, &mut rng, Duration::ZERO))
        .collect()
}

fn warm_up(setup: &Setup, seed: u64) {
    burst(setup, &burst_reqs(setup, seed.wrapping_add(1), 200));
}

fn bit_identical(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn check_sample(seed: u64, n: usize) -> BTreeSet<usize> {
    let mut rng = seeded_rng(seed.wrapping_add(0xc4ec));
    let mut set = BTreeSet::new();
    while set.len() < CHECK_SAMPLE.min(n) {
        set.insert(rng.gen_range(0..n));
    }
    set
}

/// The untraced run: every end-to-end metric, plus the output checks.
pub fn run(seed: u64, seconds: f64) -> Report {
    let (setup, setup_s) = timed_setup(seed);
    warm_up(&setup, seed);
    let span = Duration::from_secs_f64(seconds * OPEN_SHARE / CYCLES as f64);
    let burst_budget = Duration::from_secs_f64(seconds * BURST_SHARE / CYCLES as f64);

    // Per request due in a quiet window: (cycle and window, latency from
    // the due time, compute time).
    let mut lat: Vec<(u64, f64)> = Vec::new();
    let mut compute: Vec<(u64, f64)> = Vec::new();
    let mut good = 0usize;
    // The schedule time the quiet windows cover (the last may be partial).
    let mut quiet_s = 0.0f64;
    let (mut windows, mut quiet_windows) = (0usize, 0usize);
    let (mut steal_quiet, mut steal_other) = (0.0f64, 0.0f64);
    let mut checked: Vec<(Req, Matrix)> = Vec::new();
    let mut errors: Vec<ServeError> = Vec::new();
    let (mut open_requests, mut open_tokens) = (0usize, 0usize);
    // (steal, seconds, tokens) per burst round.
    let mut rounds = Vec::new();
    let mut burst_tokens = 0usize;
    let mut burst_failed = 0;

    let cpu0 = cpu_seconds();
    for cycle in 0..CYCLES as u64 {
        let reqs = schedule(&setup, seed, 2 * cycle, span);
        let keep = check_sample(seed.wrapping_add(cycle), reqs.len());
        let mut ol = open_loop(&setup, &reqs, &keep);
        open_requests += reqs.len();
        open_tokens += reqs.iter().map(|r| r.len).sum::<usize>();
        checked.extend(ol.kept.drain(..).map(|(i, out)| (reqs[i], out)));
        errors.append(&mut ol.errors);

        // Latency and goodput are taken over the requests due in the
        // stretch's quiet windows.
        let quiet = ol.quiet_windows(&reqs);
        let key = |w: u64| (cycle << 32) | w;
        for (r, rec) in reqs.iter().zip(&ol.recs) {
            let w = window_of(r.due);
            if !quiet.contains(&w) {
                continue;
            }
            let l = rec.due_latency_ms();
            lat.push((key(w), l));
            good += usize::from(l <= LIMIT_MS);
            if let Some((total, queued, _)) = rec.served {
                compute.push((key(w), (total - queued).as_secs_f64() * 1e3));
            }
        }
        quiet_s += quiet
            .iter()
            .map(|&w| {
                let start = w as f64 * WINDOW.as_secs_f64();
                (span.as_secs_f64() - start).clamp(0.0, WINDOW.as_secs_f64())
            })
            .sum::<f64>();
        windows += window_of(span) as usize + 1;
        quiet_windows += quiet.len();
        for (w, s) in &ol.steal {
            if quiet.contains(w) {
                steal_quiet += s;
            } else {
                steal_other += s;
            }
        }

        let t0 = Instant::now();
        let first_round = rounds.len();
        while rounds.len() - first_round < MIN_BURST_ROUNDS || t0.elapsed() < burst_budget {
            let round = burst_reqs(
                &setup,
                seed.wrapping_add(rounds.len() as u64),
                BURST_REQUESTS,
            );
            let tokens: usize = round.iter().map(|r| r.len).sum();
            burst_tokens += tokens;
            let steal = steal_seconds();
            let (secs, f) = burst(&setup, &round);
            rounds.push((steal_seconds() - steal, secs, tokens));
            burst_failed += f;
        }
    }
    let cpu_s = cpu_seconds() - cpu0;
    let quiet_rounds = quiet(&rounds.iter().map(|m| m.0).collect::<Vec<_>>(), QUIET_SHARE);
    // Work over time across the kept rounds: the host's fast and slow
    // spells make per-round rates bimodal, and a median would jump
    // between the two.
    let (mut kept_rounds, mut kept_secs, mut kept_tokens) = (0usize, 0.0f64, 0usize);
    let (mut burst_steal, mut quiet_burst_steal) = (0.0, 0.0);
    for (&(steal, secs, tokens), &q) in rounds.iter().zip(&quiet_rounds) {
        burst_steal += steal;
        if q {
            quiet_burst_steal += steal;
            kept_rounds += 1;
            kept_secs += secs;
            kept_tokens += tokens;
        }
    }

    let mut report = Report::new();
    report.attempted = open_requests + rounds.len() * BURST_REQUESTS;
    report.failed = errors.len() + burst_failed;
    for e in errors.iter().take(3) {
        report.note(format!("request failed: {e}"));
    }

    // Batched == sequential, bit for bit, on a seeded sample; the same
    // sample scores the served outputs and the layer's drop count.
    let layer = setup.layer();
    let mut mismatched = 0usize;
    let (mut routed, mut dropped) = (0usize, 0usize);
    let (mut nll, mut scored) = (0.0f64, 0usize);
    for (r, served) in &checked {
        let rows = setup.rows(r);
        let seq = layer.infer(&rows).expect("sequential inference");
        if !bit_identical(&seq, served) {
            mismatched += 1;
        }
        let stats = layer.forward(&rows).stats;
        routed += stats.tokens_per_expert.iter().sum::<usize>();
        dropped += stats.dropped_tokens;
        let logits = matmul_nt(served, &setup.embed);
        let (ce, _) = cross_entropy(&logits, &setup.targets(r), None);
        nll += f64::from(ce) * r.len as f64;
        scored += r.len;
    }
    report.check(
        &format!(
            "{} sampled batched responses bit-identical to sequential DroplessMoe::infer ({mismatched} differ)",
            checked.len()
        ),
        mismatched == 0 && checked.len() == CYCLES * CHECK_SAMPLE,
    );
    report.check("dMoE serving drops no token", dropped == 0 && routed > 0);

    let lat_kept: Vec<f64> = lat.iter().map(|&(_, l)| l).collect();
    report.note(format!(
        "{open_requests} requests at {RATE_RPS} req/s over {CYCLES} open-loop stretches of {:.1} s, each followed by burst rounds of {BURST_REQUESTS} requests ({} rounds in all)",
        span.as_secs_f64(),
        rounds.len(),
    ));
    report.note(format!(
        "capacity over the {} of {} burst rounds with the least host steal: {quiet_burst_steal:.2} s of steal in them, {:.2} s in the others",
        kept_rounds,
        rounds.len(),
        burst_steal - quiet_burst_steal,
    ));
    report.note(format!(
        "latency over the {quiet_windows} of {windows} {} ms windows of the schedule with the least host steal: {} requests; {steal_quiet:.2} s of steal in them, {steal_other:.2} s in the others",
        WINDOW.as_millis(),
        lat.len(),
    ));
    // Reported, not gated: its run-to-run spread on a shared 2-vCPU host
    // is wider than any bound the benchmark may set (see the README).
    report.note(format!(
        "latency_ms.p99 {:.6} ms over the kept requests, {} beyond it (not gated)",
        percentile(&lat_kept, 99.0),
        beyond(&lat_kept, 99.0),
    ));

    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric(
        "cpu_s_per_mtok",
        cpu_s / ((open_tokens + burst_tokens) as f64 / 1e6),
        "s/Mtok",
    );
    report.metric("success_frac", report.success_frac(), "frac");
    report.metric("tokens_per_s", kept_tokens as f64 / kept_secs, "tok/s");
    report.metric("step_ms.p90", windowed_percentile(&compute, 90.0), "ms");
    report.metric("loss_final", nll / scored.max(1) as f64, "nats");
    report.metric(
        "kept_frac",
        1.0 - dropped as f64 / routed.max(1) as f64,
        "frac",
    );
    report.metric("latency_ms.p50", windowed_percentile(&lat, 50.0), "ms");
    report.metric("goodput_rps", good as f64 / quiet_s, "1/s");
    report.metric(
        "capacity_rps",
        (kept_rounds * BURST_REQUESTS) as f64 / kept_secs,
        "1/s",
    );
    report
}

/// The traced run: an open loop whose requests are split by
/// `Response::{queue_wait, batch_size}`, then a replay of its served
/// batches through the layer for the kernel rows. The replay runs each
/// batch untraced through `DroplessMoe::infer` and traced through the
/// public layer calls, alternating which goes first; the two per-batch
/// medians give the tracing overhead.
pub fn run_traced(seed: u64, seconds: f64) -> Report {
    let setup = Setup::build(seed);
    warm_up(&setup, seed);
    let mut report = Report::new();

    let reqs = schedule(
        &setup,
        seed,
        1,
        Duration::from_secs_f64(seconds * OPEN_SHARE),
    );
    let traced = open_loop(&setup, &reqs, &BTreeSet::new());
    report.attempted = reqs.len();
    report.failed = traced.errors.len();

    // Served batches are contiguous runs of the submission order (one
    // generator, FIFO queue): rebuild them from each member's batch size.
    let mut batches = Vec::new();
    let mut i = 0;
    let mut consistent = true;
    while i < traced.recs.len() {
        let Some((_, _, size)) = traced.recs[i].served else {
            consistent = false;
            break;
        };
        let end = (i + size).min(traced.recs.len());
        consistent &= traced.recs[i..end]
            .iter()
            .all(|r| r.served.map(|s| s.2) == Some(size));
        batches.push(i..end);
        i = end;
    }
    report.check(
        "served batches are contiguous runs of the submission order",
        consistent,
    );

    // Replay an evenly spaced subset of the served batch shapes.
    let layer = setup.layer();
    let cfg = layer.config().clone();
    let stride = batches.len().div_ceil(MAX_REPLAY).max(1);
    let mut tracer = Tracer::new();
    let mut moe = MoeCounts::default();
    let ws0 = megablocks_exec::workspace::stats();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut mismatched = 0usize;
    for (k, range) in batches.iter().step_by(stride).enumerate() {
        let data: Vec<f32> = reqs[range.clone()]
            .iter()
            .flat_map(|r| setup.rows(r).into_vec())
            .collect();
        let input = Matrix::from_vec(data.len() / HIDDEN, HIDDEN, data).expect("whole rows");
        let mut plain = || {
            let t = Instant::now();
            let out = layer.infer(&input).expect("reference inference");
            untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out
        };
        let mut spanned = |tracer: &mut Tracer| {
            let open = tracer.begin("batch");
            let (out, counts) =
                dmoe_infer(tracer, &cfg, layer.router(), layer.w1(), layer.w2(), &input);
            traced_ms.push(tracer.end(open) as f64 / 1e6);
            moe += counts;
            out
        };
        let (want, got) = if k % 2 == 0 {
            let want = plain();
            (want, spanned(&mut tracer))
        } else {
            let got = spanned(&mut tracer);
            (plain(), got)
        };
        if !bit_identical(&want, &got) {
            mismatched += 1;
        }
    }
    let replayed = traced_ms.len();
    report.check(
        &format!(
            "{replayed} replayed batches bit-identical to DroplessMoe::infer ({mismatched} differ)"
        ),
        mismatched == 0 && replayed > 0,
    );
    let ws1 = megablocks_exec::workspace::stats();

    let served: Vec<(Duration, Duration, usize)> =
        traced.recs.iter().filter_map(|r| r.served).collect();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let queue: Vec<f64> = served.iter().map(|s| ms(s.1)).collect();
    let compute: Vec<f64> = served.iter().map(|s| ms(s.0 - s.1)).collect();
    let submit: Vec<f64> = traced.recs.iter().map(|r| r.submit_us).collect();
    let late_max = traced.recs.iter().map(|r| r.late_ms).fold(0.0, f64::max);

    let mut layers = Layers::from_tracer(&tracer, replayed as f64);
    layers.padding_and_slots(true, &moe);
    layers.workspace(ws0, ws1);
    layers.set("serve.queue_wait_ms.p50", median(&queue));
    layers.set("serve.queue_wait_ms.p99", percentile(&queue, 99.0));
    layers.set("serve.compute_ms.p50", median(&compute));
    layers.set(
        "serve.batch_size.mean",
        traced.recs.len() as f64 / batches.len().max(1) as f64,
    );
    layers.set("serve.submit_us.p50", median(&submit));
    layers.set("serve.gen_late_ms.max", late_max);
    layers.e2e(median(&traced_ms), median(&untraced_ms), "replayed batch");
    report.layers = Some(layers);
    report.note(format!(
        "{} requests served in {} batches; replayed {replayed} batches; per-layer times, unattributed share and tracing overhead are per replayed batch (the layer's inference, not the engine's batch assembly)",
        served.len(),
        batches.len(),
    ));
    report
}
