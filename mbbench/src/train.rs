//! The training workloads: a closed loop of `Trainer::train_step` on the
//! scaled dMoE language model (`train_dmoe`) and on the same model with a
//! token-dropping MoE at capacity factor 1.0 (`train_moe_cf1`).

use std::time::{Duration, Instant};

use megablocks_core::{CapacityFactor, MoeConfig};
use megablocks_data::{PileConfig, SyntheticPile, TokenDataset};
use megablocks_tensor::init::seeded_rng;
use megablocks_transformer::{FfnKind, Trainer, TrainerConfig, TransformerConfig, TransformerLm};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::replica::{MoeCounts, Replica};
use crate::report::{Layers, Report};
use crate::spans::Tracer;
use crate::stats::{beyond, cpu_seconds, median, peak_rss_mb, percentile, quiet, steal_seconds};

// The scaled family's shapes (`ScaledConfig::default_family()` in
// megablocks-bench): the dMoE language model of the figure runs.
const HIDDEN: usize = 64;
const LAYERS: usize = 2;
const HEADS: usize = 2;
const SEQ: usize = 64;
const FFN: usize = 128;
const EXPERTS: usize = 8;
const BLOCK: usize = 16;
const BATCH: usize = 16;
const MICRO: usize = 8;
const LR_MAX: f32 = 3e-3;

/// Optimizer steps in one deterministic schedule. A run completes the
/// schedule once, then repeats it from a fresh model until its time is
/// up; every repeat must reproduce the first one's losses bit for bit.
const SCHEDULE_STEPS: usize = 100;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 21;

/// Which FFN the model trains with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ffn {
    Dropless,
    DroppingCf1,
}

fn transformer_config(ffn: Ffn) -> TransformerConfig {
    let moe = MoeConfig::new(HIDDEN, FFN, EXPERTS).with_block_size(BLOCK);
    TransformerConfig {
        vocab_size: PileConfig::repro().vocab_size,
        hidden_size: HIDDEN,
        num_layers: LAYERS,
        num_heads: HEADS,
        seq_len: SEQ,
        ffn_hidden_size: FFN,
        ffn: match ffn {
            Ffn::Dropless => FfnKind::Dropless(moe),
            Ffn::DroppingCf1 => FfnKind::Dropping(moe.with_capacity(CapacityFactor::Fixed(1.0))),
        },
    }
}

/// Everything a run builds before its first timed step.
struct Setup {
    train: TokenDataset,
    cfg: TransformerConfig,
    seed: u64,
}

impl Setup {
    fn build(ffn: Ffn, seed: u64) -> Self {
        let pile = SyntheticPile::generate(&PileConfig::repro(), seed);
        let (train, _valid) = pile.split(0.9);
        let setup = Setup {
            train,
            cfg: transformer_config(ffn),
            seed,
        };
        // Building the first trainer is part of set-up as well.
        drop(setup.trainer());
        setup
    }

    fn model(&self) -> TransformerLm {
        TransformerLm::new(self.cfg.clone(), &mut seeded_rng(self.seed.wrapping_add(1)))
    }

    fn trainer_config(&self) -> TrainerConfig {
        TrainerConfig {
            batch_size: BATCH,
            micro_batch_size: MICRO,
            seq_len: SEQ,
            lr_max: LR_MAX,
            warmup_steps: SCHEDULE_STEPS / 10 + 1,
            total_steps: SCHEDULE_STEPS,
            clip: 1.0,
            seed: self.seed.wrapping_add(2),
        }
    }

    fn trainer(&self) -> Trainer {
        Trainer::new(self.model(), self.trainer_config())
    }

    fn routed_per_step(&self) -> usize {
        // Top-1 routing: one assignment per token per MoE layer.
        BATCH * SEQ * LAYERS
    }
}

/// Builds the set-up `SETUP_REPS` times and returns the last one with
/// the median build time.
fn timed_setup(ffn: Ffn, seed: u64) -> (Setup, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(Setup::build(ffn, seed));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// What the untraced closed loop measured.
struct Loop {
    step_ms: Vec<f64>,
    /// Hypervisor steal (s) during each step.
    step_steal: Vec<f64>,
    cpu_s: f64,
    /// Losses of the first full schedule.
    losses: Vec<f32>,
    dropped: usize,
    attempted: usize,
    failed: usize,
}

/// Runs the schedule from fresh models until `budget` has passed,
/// timing every step; the first schedule always completes, so its last
/// loss is defined.
fn closed_loop(setup: &Setup, budget: Duration) -> Loop {
    let mut out = Loop {
        step_ms: Vec::new(),
        step_steal: Vec::new(),
        cpu_s: 0.0,
        losses: Vec::with_capacity(SCHEDULE_STEPS),
        dropped: 0,
        attempted: 0,
        failed: 0,
    };
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    'repeat: for rep in 0.. {
        let mut trainer = setup.trainer();
        for i in 0..SCHEDULE_STEPS {
            if rep > 0 && t0.elapsed() >= budget {
                break 'repeat;
            }
            let steal = steal_seconds();
            let s = Instant::now();
            let log = trainer.train_step(&setup.train);
            out.step_ms.push(s.elapsed().as_secs_f64() * 1e3);
            out.step_steal.push(steal_seconds() - steal);
            out.attempted += 1;
            let ok = if rep == 0 {
                out.losses.push(log.ce_loss);
                out.dropped += log.dropped_tokens;
                log.ce_loss.is_finite()
            } else {
                log.ce_loss.to_bits() == out.losses[i].to_bits()
            };
            if !ok {
                out.failed += 1;
                eprintln!(
                    "step {i} of repeat {rep}: loss {} failed its check",
                    log.ce_loss
                );
            }
        }
        if t0.elapsed() >= budget {
            break;
        }
    }
    out.cpu_s = cpu_seconds() - cpu0;
    out
}

/// The untraced run: every end-to-end metric.
pub fn run(ffn: Ffn, seed: u64, seconds: f64) -> Report {
    let (setup, setup_s) = timed_setup(ffn, seed);
    warm_up(&setup);
    let lp = closed_loop(&setup, Duration::from_secs_f64(seconds));
    let mut report = Report::new();
    report.attempted = lp.attempted;
    report.failed = lp.failed;

    let tokens_per_step = (BATCH * SEQ) as f64;
    let steps = lp.step_ms.len();
    // Timings are taken over the steps in which the host stole no more
    // CPU time than in the median step: at least half of them, so at
    // least ten lie beyond p90.
    let keep = quiet(&lp.step_steal, 0.5);
    let kept: Vec<f64> = lp
        .step_ms
        .iter()
        .zip(&keep)
        .filter_map(|(&t, &k)| k.then_some(t))
        .collect();
    let steal_kept: f64 = lp
        .step_steal
        .iter()
        .zip(&keep)
        .filter_map(|(&s, &k)| k.then_some(s))
        .sum();
    let p50 = median(&kept);
    let loss_first = lp.losses[0];
    let loss_final = *lp.losses.last().expect("the first schedule completes");
    let routed = (setup.routed_per_step() * SCHEDULE_STEPS) as f64;
    let kept_frac = 1.0 - lp.dropped as f64 / routed;

    report.check(
        "every loss is finite",
        lp.losses.iter().all(|l| l.is_finite()),
    );
    report.check(
        "every repeat of the schedule reproduced its losses bit for bit",
        lp.failed == 0,
    );
    report.check(
        &format!("loss_final {loss_final} < initial loss {loss_first}"),
        loss_final < loss_first,
    );
    if ffn == Ffn::Dropless {
        report.check("dMoE drops no token (drop_frac == 0)", lp.dropped == 0);
    }
    report.note(format!(
        "{steps} timed steps ({} runs of a {SCHEDULE_STEPS}-step schedule); timings over the {} steps with the least host steal ({steal_kept:.2} s in them, {:.2} s in the others), of which {} lie beyond p90",
        steps.div_ceil(SCHEDULE_STEPS),
        kept.len(),
        lp.step_steal.iter().sum::<f64>() - steal_kept,
        beyond(&kept, 90.0),
    ));

    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric(
        "cpu_s_per_mtok",
        lp.cpu_s / (steps as f64 * tokens_per_step / 1e6),
        "s/Mtok",
    );
    report.metric("success_frac", report.success_frac(), "frac");
    // Throughput is work over time across the kept steps. The host's
    // fast and slow spells split the step times into two clusters whose
    // mix changes from run to run; the median jumps between them, the
    // mean moves with the mix.
    let kept_s = kept.iter().sum::<f64>() / 1e3;
    report.metric(
        "tokens_per_s",
        kept.len() as f64 * tokens_per_step / kept_s,
        "tok/s",
    );
    report.metric("step_ms.p90", percentile(&kept, 90.0), "ms");
    report.metric("loss_final", f64::from(loss_final), "nats");
    report.metric("kept_frac", kept_frac, "frac");
    report.metric("latency_ms.p50", p50, "ms");
    // A closed loop runs at its capacity: both are sequences per second.
    let seqs_per_s = (kept.len() * BATCH) as f64 / kept_s;
    report.metric("goodput_rps", seqs_per_s, "1/s");
    report.metric("capacity_rps", seqs_per_s, "1/s");
    report
}

/// Two untimed steps on a throwaway trainer: the pool, the workspace
/// shelves and the allocator reach their steady state before timing.
fn warm_up(setup: &Setup) {
    let mut trainer = setup.trainer();
    for _ in 0..2 {
        let _ = trainer.train_step(&setup.train);
    }
}

/// The traced run: the replica replays every micro-batch of the
/// schedule through the public layers, and the trainer runs the same
/// step untraced as its reference.
pub fn run_traced(ffn: Ffn, seed: u64, seconds: f64) -> Report {
    let setup = Setup::build(ffn, seed);
    warm_up(&setup);
    let mut report = Report::new();

    let mut replica = Replica::new(&setup.cfg, &mut seeded_rng(0));
    let mut tracer = Tracer::new();

    // Guard: on the first micro-batch the replica's loss equals
    // `TransformerLm::train_step`'s, bit for bit.
    {
        let mut model = setup.model();
        replica.sync_from(&mut model);
        // `Trainer::new` seeds its data stream exactly like this.
        let mut rng = StdRng::seed_from_u64(setup.trainer_config().seed);
        let b = setup.train.sample_batch(MICRO, SEQ, &mut rng);
        let want = model.train_step(&b.inputs, &b.targets, MICRO).ce_loss;
        let mut scratch = Tracer::new();
        let got = replica
            .micro_batch(&mut scratch, &b.inputs, &b.targets, MICRO)
            .ce_loss;
        report.check(
            &format!("replica loss {got} == TransformerLm::train_step loss {want} on the first micro-batch"),
            got.to_bits() == want.to_bits(),
        );
    }

    let ws0 = megablocks_exec::workspace::stats();
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut moe = MoeCounts::default();
    let mut guards_failed = 0usize;
    let mut guards = 0usize;
    'repeat: loop {
        let mut trainer = setup.trainer();
        for _ in 0..SCHEDULE_STEPS {
            if t0.elapsed() >= budget && !traced_ms.is_empty() {
                break 'repeat;
            }
            // The program itself, untraced, is the reference the replica
            // must match: same mean loss and same gradients, bit for bit.
            // Which of the two runs the step first alternates, so that
            // neither always finds the caches warm.
            let untraced = |trainer: &mut Trainer| {
                let t = Instant::now();
                let pending = trainer.accumulate_step(&setup.train);
                (pending, t.elapsed().as_nanos() as u64)
            };
            let state = trainer.rng_state();
            let early = (traced_ms.len() % 2 == 1).then(|| untraced(&mut trainer));
            replica.sync_from(trainer.model_mut());
            let mut rng = StdRng::from_state(state);

            let open = tracer.begin("step");
            let mut ce = 0.0f32;
            for _ in 0..BATCH / MICRO {
                let b = tracer.time("data.sample", || {
                    setup.train.sample_batch(MICRO, SEQ, &mut rng)
                });
                let mb = tracer.begin("microbatch");
                let s = replica.micro_batch(&mut tracer, &b.inputs, &b.targets, MICRO);
                tracer.end(mb);
                ce += s.ce_loss;
                moe += s.moe;
            }
            let replay_ns = tracer.end(open);

            let (pending, untraced_ns) = early.unwrap_or_else(|| untraced(&mut trainer));
            let mean_ce = ce / (BATCH / MICRO) as f32;
            guards += 1;
            if pending.ce_loss().to_bits() != mean_ce.to_bits()
                || !replica.grads_match(trainer.model_mut())
            {
                guards_failed += 1;
            }

            let open = tracer.begin("step");
            let opt = tracer.begin("transformer.optimizer");
            let log = trainer.apply_step(pending);
            tracer.end(opt);
            let opt_ns = tracer.end(open);
            if !log.ce_loss.is_finite() {
                guards_failed += 1;
            }
            // The update runs once and counts in both figures.
            traced_ms.push((replay_ns + opt_ns) as f64 / 1e6);
            untraced_ms.push((untraced_ns + opt_ns) as f64 / 1e6);
        }
    }
    report.check(
        &format!("replica matches the trainer's loss and gradients on {guards} traced steps ({guards_failed} mismatched)"),
        guards_failed == 0,
    );
    report.attempted += guards;
    report.failed += guards_failed;
    let ws1 = megablocks_exec::workspace::stats();

    let steps = traced_ms.len() as f64;
    let mut layers = Layers::from_tracer(&tracer, steps);
    layers.padding_and_slots(ffn == Ffn::Dropless, &moe);
    layers.workspace(ws0, ws1);
    layers.e2e(median(&traced_ms), median(&untraced_ms), "step");
    report.layers = Some(layers);
    report.note(format!(
        "traced {} steps; per-layer times are per optimizer step",
        traced_ms.len()
    ));
    report
}
