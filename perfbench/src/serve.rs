//! The two workloads that send traffic: `serve-steady` and
//! `adapt-drift`.

use crate::cpu::{self, Role, Snapshot};
use crate::layers::{self, put};
use crate::loadgen::{phase_start, poisson_schedule, Conn, Outcome, Reply, Target};
use crate::report::{digest, Report};
use crate::setup::{self, Live, Setup, Tenant, TenantSpec};
use crate::stats::{tail_percentile, Latencies};
use crate::trace::span;
use crate::Args;
use metaai::mobility::DriftSchedule;
use metaai_adapt::{AdaptController, Decision, MobilityDrift, ProbeSet, StepReport, TriggerPolicy};
use metaai_datasets::DatasetId;
use metaai_math::stats::{mean, percentile};
use metaai_serve::ServeDeployment;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The served MNIST tenant: 10 classes, so the fused kernel scores it.
pub const MNIST: TenantSpec = TenantSpec {
    name: "mnist",
    dataset: DatasetId::Mnist,
    layers: 1,
    seed_offset: 0,
};

/// The stacked tenant of `adapt-drift`: Widar gestures on a 2-layer
/// cascade.
pub const WIDAR_STACK: TenantSpec = TenantSpec {
    name: "widar",
    dataset: DatasetId::Widar3,
    layers: 2,
    seed_offset: 1,
};

/// Offered load of `serve-steady`'s nominal phase, requests/s.
const NOMINAL_RPS: f64 = 5000.0;

/// Share of `serve-steady`'s seconds spent at the nominal rate; the
/// rest goes to the capacity ladder.
const NOMINAL_SHARE: f64 = 0.6;

/// Length of one latency window of the nominal phase: about 1250
/// requests at the nominal rate, enough for a window p99 (see
/// [`tail_percentile`]); 72 windows in a 30-s run.
const NOMINAL_WINDOW: Duration = Duration::from_millis(250);

/// Lowest rung of the capacity ladder, requests/s: just above the
/// nominal rate, which every valid run sustains.
const LADDER_LOW: f64 = 6000.0;

/// Ratio between neighbouring ladder rungs.
const LADDER_STEP: f64 = 1.05;

/// Rungs of the ladder. The top one, 123 600 req/s, is 1.8 times the
/// highest capacity measured when the ladder was set (27 000 to 69 000
/// req/s on a 2-vCPU virtual machine whose speed drifted), so a large
/// serving speed-up still reads on it; a run whose top rung passes says
/// so.
const LADDER_RUNGS: usize = 63;

/// The fixed offered loads of the capacity ladder, requests/s, ascending
/// from [`LADDER_LOW`] in steps of [`LADDER_STEP`], each rounded to
/// 100 req/s.
fn ladder() -> Vec<f64> {
    (0..LADDER_RUNGS)
        .map(|i| (LADDER_LOW * LADDER_STEP.powi(i as i32) / 100.0).round() * 100.0)
        .collect()
}

/// A ladder rung passes when its median window p99 is at most this.
const LATENCY_LIMIT_MS: f64 = 50.0;

/// Untimed load at the ladder's middle rung before the first probe.
const LADDER_WARMUP: Duration = Duration::from_millis(2000);

/// Latency windows per ladder rung.
const RUNG_WINDOWS: usize = 8;

/// Probes of the capacity staircase after the ladder warm-up; they share
/// its time equally (1 s each in a 30-s run).
const LADDER_PROBES: usize = 10;

/// The capacity staircase's first step, in rungs (1.05^8 ≈ 1.48×); it
/// reaches the top rung from the middle in four probes.
const FIRST_STEP: usize = 8;

/// Offered load of `adapt-drift`, alternating between its two tenants.
const ADAPT_RPS: f64 = 2000.0;

/// A phase is invalid when the median over its windows of the sender's
/// p99 lateness exceeds this: the generator could not keep to its
/// schedule.
const LATE_LIMIT_MS: f64 = 20.0;

/// Unmeasured traffic before the first measured phase.
const WARMUP: Duration = Duration::from_millis(300);

/// `serve-steady` checks every this-many-th reply against offline
/// scoring; `adapt-drift` checks every reply.
const VERIFY_EVERY: u64 = 8;

/// Adaptation rounds per `adapt-drift` phase, evenly spaced over it:
/// one every 0.625 s in a 30-s run, so each tenant swaps 23 times and
/// its mean re-solve rests on that many readings.
const ADAPT_ROUNDS: u64 = 48;

/// Receiver walking speed around the surface, m/s.
const WALK_MPS: f64 = 0.5;

/// Probe inputs per adaptation round.
const PROBES: usize = 32;

/// Re-solve when the live channel's phase-aligned residual exceeds this.
/// The accuracy floor is off, so trigger rounds follow the walk, not how
/// well a seed's model happened to train.
const POLICY: TriggerPolicy = TriggerPolicy {
    probe_accuracy_floor: 0.0,
    residual_ceiling: 0.2,
    hysteresis: 1,
    cooldown_rounds: 2,
};

/// Latency figures of one window of a phase's schedule, in ms.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// p99 of how late the sender wrote the window's requests.
    pub late_p99: f64,
}

/// Outcome counts and latencies of one phase.
pub struct PhaseStats {
    pub sent: u64,
    pub scored: u64,
    pub shed: u64,
    pub expired: u64,
    /// Other error replies and broken replies.
    pub errors: u64,
    /// Every request of the phase, failures as +∞.
    pub latencies: Latencies,
    /// Each request's offset in the schedule and its latency in ms,
    /// failures as +∞, in schedule order.
    pub due_ms: Vec<(Duration, f64)>,
    pub windows: Vec<Window>,
    pub seconds: f64,
    /// Server-thread CPU seconds: all, workers, connection threads.
    pub cpu_all: f64,
    pub cpu_workers: f64,
    pub cpu_conn: f64,
}

impl PhaseStats {
    fn new(
        replies: &[Reply],
        schedule: &[Duration],
        windows: usize,
        seconds: f64,
        cpu: (&Snapshot, &Snapshot),
    ) -> Self {
        let (before, after) = cpu;
        let horizon = schedule.last().map_or(1e-9, |d| d.as_secs_f64() + 1e-9);
        // (latency, lateness) of each request, per window.
        let mut per_window: Vec<(Vec<f64>, Vec<f64>)> = vec![Default::default(); windows.max(1)];
        let (mut due_ms, mut shed, mut expired, mut errors) = (Vec::new(), 0, 0, 0);
        for (r, offset) in replies.iter().zip(schedule) {
            let ms = match r.outcome {
                Outcome::Scored { .. } => r.latency_us / 1e3,
                Outcome::Refused(1) => {
                    shed += 1;
                    f64::INFINITY
                }
                Outcome::Refused(2) => {
                    expired += 1;
                    f64::INFINITY
                }
                Outcome::Refused(_) | Outcome::Broken => {
                    errors += 1;
                    f64::INFINITY
                }
            };
            due_ms.push((*offset, ms));
            let n = per_window.len();
            let w =
                &mut per_window[((offset.as_secs_f64() / horizon * n as f64) as usize).min(n - 1)];
            w.0.push(ms);
            w.1.push(r.late_us / 1e3);
        }
        let windows = per_window
            .into_iter()
            .map(|(latency, late)| {
                let (latency, late) = (Latencies::new(latency, 0), Latencies::new(late, 0));
                let q = |l: &Latencies, p| l.quoted(p).unwrap_or(f64::INFINITY);
                Window {
                    p50: q(&latency, 50.0),
                    p90: q(&latency, 90.0),
                    p99: q(&latency, 99.0),
                    late_p99: q(&late, 99.0),
                }
            })
            .collect();
        let sent = replies.len() as u64;
        PhaseStats {
            sent,
            scored: sent - shed - expired - errors,
            shed,
            expired,
            errors,
            latencies: Latencies::new(due_ms.iter().map(|&(_, ms)| ms).collect(), 0),
            due_ms,
            windows,
            seconds,
            cpu_all: cpu::seconds_between(before, after, |_| true),
            cpu_workers: cpu::seconds_between(before, after, |r| r == Role::Worker),
            cpu_conn: cpu::seconds_between(before, after, |r| {
                matches!(r, Role::Conn | Role::Writer)
            }),
        }
    }

    pub fn failed(&self) -> u64 {
        self.sent - self.scored
    }

    /// Median over windows of `figure`.
    fn window_median(&self, figure: impl Fn(&Window) -> f64) -> f64 {
        percentile(&self.windows.iter().map(figure).collect::<Vec<_>>(), 50.0)
    }

    pub fn p50_ms(&self) -> f64 {
        self.window_median(|w| w.p50)
    }

    /// The lowest window p50: the median latency of the quietest window
    /// of the phase. Other tenants of a shared host slow stretches of
    /// the phase at a time, often most of it; a change to this system
    /// moves every window, the quietest one too.
    pub fn best_p50_ms(&self) -> f64 {
        self.windows
            .iter()
            .map(|w| w.p50)
            .fold(f64::INFINITY, f64::min)
    }

    pub fn p90_ms(&self) -> f64 {
        self.window_median(|w| w.p90)
    }

    pub fn p99_ms(&self) -> f64 {
        self.window_median(|w| w.p99)
    }

    /// Median over windows of the sender's p99 lateness: a stall of the
    /// host delays one window, a generator that cannot keep up delays
    /// most.
    pub fn late_p99_ms(&self) -> f64 {
        self.window_median(|w| w.late_p99)
    }

    /// Server-thread CPU µs per scored request.
    pub fn cpu_us_per_req(&self, cpu_seconds: f64) -> f64 {
        cpu_seconds * 1e6 / self.scored.max(1) as f64
    }

    fn describe(&self, label: &str) -> String {
        let n = self.latencies.len();
        let tail = tail_percentile(n)
            .map(|p| {
                format!(
                    "p{p} {:.3} ms",
                    self.latencies.quoted(p).unwrap_or(f64::NAN)
                )
            })
            .unwrap_or_else(|| "none".to_string());
        format!(
            "{label}: {} sent, {} scored, {} shed, {} expired, {} errors in {:.2} s; \
             window medians p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms ({} windows of ~{} requests, \
             lowest window p50 {:.3} ms); \
             pooled p99 {:.3} ms over {n} (highest supported: {tail}); \
             sender p99 lateness {:.3} ms (window median); server CPU {:.1} us/req",
            self.sent,
            self.scored,
            self.shed,
            self.expired,
            self.errors,
            self.seconds,
            self.p50_ms(),
            self.p90_ms(),
            self.p99_ms(),
            self.windows.len(),
            n / self.windows.len().max(1),
            self.best_p50_ms(),
            self.latencies.quoted(99.0).unwrap_or(f64::NAN),
            self.late_p99_ms(),
            self.cpu_us_per_req(self.cpu_all),
        ) + &self.window_lists()
    }

    /// Each window's p50/p90/p99, for reading the spread inside a phase.
    fn window_lists(&self) -> String {
        let list = |f: fn(&Window) -> f64| {
            let v: Vec<String> = self
                .windows
                .iter()
                .map(|w| format!("{:.2}", f(w)))
                .collect();
            v.join(" ")
        };
        format!(
            "\n  windows p50 [{}]\n  windows p90 [{}]\n  windows p99 [{}]",
            list(|w| w.p50),
            list(|w| w.p90),
            list(|w| w.p99)
        )
    }
}

/// Latencies of the requests of `due_ms` (schedule offset, ms; in
/// schedule order) due inside any of `spans`: half-open offset ranges,
/// ascending and disjoint.
fn due_within(due_ms: &[(Duration, f64)], spans: &[(Duration, Duration)]) -> Latencies {
    let mut inside = Vec::new();
    let mut spans = spans.iter().peekable();
    for &(due, ms) in due_ms {
        while spans.next_if(|&&(_, end)| end <= due).is_some() {}
        match spans.peek() {
            Some(&&(begin, _)) if begin <= due => inside.push(ms),
            Some(_) => {}
            None => break,
        }
    }
    Latencies::new(inside, 0)
}

/// Open-loop traffic from one connection: allocates request numbers
/// across phases and samples server-thread CPU around each phase while
/// the connection is open.
struct Load<R: Fn(u64) -> usize> {
    conn: Conn,
    targets: Vec<Target>,
    route: R,
    seed: u64,
    next_seq: u64,
}

impl<R: Fn(u64) -> usize> Load<R> {
    fn open(live: &Live, tenants: &[Tenant], seed: u64, route: R) -> Result<Self, String> {
        let targets = live
            .entries
            .iter()
            .zip(tenants)
            .map(|(e, t)| Target::new(e.wire_id(), &t.test.inputs))
            .collect();
        Ok(Load {
            conn: Conn::open(live.addr)?,
            targets,
            route,
            seed,
            next_seq: 0,
        })
    }

    /// One phase of Poisson arrivals at `rate` over `duration`, its
    /// latencies cut into `windows` equal windows of the schedule.
    fn run(
        &mut self,
        label: &str,
        rate: f64,
        duration: Duration,
        windows: usize,
    ) -> Result<(Vec<Reply>, PhaseStats), String> {
        self.run_from(phase_start(), label, rate, duration, windows)
    }

    /// [`Load::run`] with the schedule's offsets counting from `start`.
    fn run_from(
        &mut self,
        start: Instant,
        label: &str,
        rate: f64,
        duration: Duration,
        windows: usize,
    ) -> Result<(Vec<Reply>, PhaseStats), String> {
        let schedule = poisson_schedule(self.seed, label, rate, duration);
        let first = self.next_seq;
        self.next_seq += schedule.len() as u64;
        let before = cpu::snapshot();
        let started = Instant::now();
        let replies =
            self.conn
                .run_phase(start, &schedule, first, &mut self.targets, &self.route)?;
        let seconds = started.elapsed().as_secs_f64();
        let after = cpu::snapshot();
        let stats = PhaseStats::new(&replies, &schedule, windows, seconds, (&before, &after));
        Ok((replies, stats))
    }

    fn close(self) -> Result<(), String> {
        self.conn.close()
    }
}

/// Every deployment a tenant served, by epoch.
type History = Vec<Arc<ServeDeployment>>;

/// Checks every `every`-th served reply bitwise against offline
/// `score_indexed` on the deployment whose epoch it echoes, notes the
/// count, and returns the mismatches.
fn verify(
    replies: &[Reply],
    tenants: &[Tenant],
    history: &[History],
    every: u64,
    report: &mut Report,
) -> u64 {
    let mut scratch = Vec::new();
    let (mut checked, mut bad) = (0u64, 0u64);
    for r in replies.iter().filter(|r| r.seq % every == 0) {
        let Outcome::Scored {
            epoch,
            predicted,
            ref scores,
        } = r.outcome
        else {
            continue;
        };
        checked += 1;
        let t = &tenants[r.target];
        let input = &t.test.inputs[(r.seq % t.test.len() as u64) as usize];
        let Some(dep) = history[r.target].iter().find(|d| d.epoch == epoch) else {
            bad += 1;
            report.fail_check(format!("request {} echoes unknown epoch {epoch}", r.seq));
            continue;
        };
        let offline = dep
            .system
            .score_indexed(input, dep.stream, r.seq, &mut scratch);
        let same = offline == predicted
            && scratch.len() == scores.len()
            && scratch
                .iter()
                .zip(scores)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            bad += 1;
            if bad <= 3 {
                report.fail_check(format!(
                    "request {} ({}, epoch {epoch}) differs from offline scoring",
                    r.seq, t.spec.name
                ));
            }
        }
    }
    report.note(format!(
        "verified {checked} served replies bitwise against offline scoring on the epoch \
         each echoes: {bad} mismatches"
    ));
    bad
}

/// Seed-determined outputs of a phase: a digest of every prediction and
/// the served accuracy per tenant.
fn fixed_values(label: &str, replies: &[Reply], tenants: &[Tenant], report: &mut Report) {
    let scored: Vec<(u64, usize, usize)> = replies
        .iter()
        .filter_map(|r| match r.outcome {
            Outcome::Scored { predicted, .. } => Some((r.seq, r.target, predicted)),
            _ => None,
        })
        .collect();
    let d = digest(scored.iter().flat_map(|&(s, _, p)| [s, p as u64]));
    report.note(format!("fixed {label}.prediction_digest {d:016x}"));
    for (i, t) in tenants.iter().enumerate() {
        let (mut n, mut ok) = (0usize, 0usize);
        for &(seq, target, predicted) in &scored {
            if target == i {
                n += 1;
                ok += usize::from(predicted == t.test.labels[(seq % t.test.len() as u64) as usize]);
            }
        }
        if n > 0 {
            report.note(format!(
                "fixed {label}.{}.served_accuracy {:.6} over {n} replies",
                t.spec.name,
                ok as f64 / n as f64
            ));
        }
    }
}

/// Marks the run invalid when the sender fell behind its schedule.
fn check_generator(stats: &PhaseStats, label: &str) -> Result<(), String> {
    if stats.late_p99_ms() > LATE_LIMIT_MS {
        return Err(format!(
            "invalid run: the load generator fell behind its schedule in {label} \
             (median window p99 lateness {:.2} ms > {LATE_LIMIT_MS} ms)",
            stats.late_p99_ms()
        ));
    }
    Ok(())
}

fn history_of(live: &Live) -> Vec<History> {
    live.entries.iter().map(|e| vec![e.current()]).collect()
}

/// Latency windows for a phase: one per second of schedule.
fn windows(d: Duration) -> usize {
    (d.as_secs_f64().round() as usize).max(1)
}

/// Latency windows of a `serve-steady` nominal phase of length `d`: one
/// per [`NOMINAL_WINDOW`].
fn nominal_windows(d: Duration) -> usize {
    ((d.as_secs_f64() / NOMINAL_WINDOW.as_secs_f64()).round() as usize).max(1)
}

/// `serve-steady`: one MNIST tenant over TCP loopback; open-loop
/// Poisson arrivals at the nominal rate, then the capacity ladder.
pub fn serve_steady(args: &Args, report: &mut Report) -> Result<(), String> {
    let Setup {
        tenants,
        live,
        seconds: setup_s,
    } = setup::repeated(&[MNIST], args.seed, true)?;
    let live = live.expect("serving set-up starts a server");
    let history = history_of(&live);
    let mut load = Load::open(&live, &tenants, args.seed, |_| 0)?;
    let secs = args.seconds as f64;
    load.run("serve-steady-warmup", NOMINAL_RPS, WARMUP, 1)?;

    if args.trace {
        // Untraced and traced halves of the nominal phase, then the
        // per-layer calls on an idle server.
        let d = Duration::from_secs_f64(secs * 0.35);
        let (mut replies, plain) = span("serve.nominal", 1, || {
            load.run("serve-steady-nominal", NOMINAL_RPS, d, nominal_windows(d))
        })?;
        check_generator(&plain, "the untraced nominal phase")?;
        layers::telemetry_on();
        let (more, traced) = span("serve.nominal_traced", 1, || {
            load.run(
                "serve-steady-nominal-traced",
                NOMINAL_RPS,
                d,
                nominal_windows(d),
            )
        })?;
        layers::telemetry_off();
        load.close()?;
        report.note(plain.describe("nominal (untraced)"));
        report.note(traced.describe("nominal (telemetry on)"));
        replies.extend(more);
        let bad = verify(&replies, &tenants, &history, VERIFY_EVERY, report);
        report.attempted = plain.sent + traced.sent;
        report.failed = plain.failed() + traced.failed() + bad;
        layers::setup(report);
        layers::under_load(report, &plain, &traced);
        let path = layers::serving_path(report, &tenants[0], &live, 0, secs * 0.15)?;
        layers::engine(report, &tenants[0], None, secs * 0.15);
        layers::explain_serving(report, &plain, &path);
        return live.shutdown();
    }

    let d = Duration::from_secs_f64(secs * NOMINAL_SHARE);
    let (replies, stats) = load.run("serve-steady-nominal", NOMINAL_RPS, d, nominal_windows(d))?;
    check_generator(&stats, "the nominal phase")?;
    report.note(stats.describe(&format!("nominal {NOMINAL_RPS} req/s")));
    let (capacity, ladder_replies) = capacity(&mut load, secs * (1.0 - NOMINAL_SHARE), report)?;
    load.close()?;

    let bad = verify(&replies, &tenants, &history, VERIFY_EVERY, report)
        + verify(&ladder_replies, &tenants, &history, VERIFY_EVERY, report);
    fixed_values("serve-steady", &replies, &tenants, report);
    live.shutdown()?;

    // Ladder rungs above capacity shed by design: their requests are
    // judged by the rung rule, and only their mismatches count here.
    report.attempted = stats.sent;
    report.failed = stats.failed() + bad;
    report.end_to_end([
        percentile(&setup_s, 50.0),
        stats.best_p50_ms(),
        stats.cpu_us_per_req(stats.cpu_all),
        capacity,
    ]);
    Ok(())
}

/// The capacity: the highest ladder rung that passes, found by a
/// staircase over the fixed rungs. A rung is cut into [`RUNG_WINDOWS`]
/// windows; it passes when the median window's p99, failed requests
/// counting as infinitely late, is within [`LATENCY_LIMIT_MS`] and the
/// sender kept to its schedule. A growing backlog or steady shedding
/// fails most windows; one stall of the host fails one. Returns the
/// capacity and every reply sent. A run in which no rung passes is
/// invalid: its capacity is below the ladder and cannot be read.
fn capacity<R: Fn(u64) -> usize>(
    load: &mut Load<R>,
    budget_s: f64,
    report: &mut Report,
) -> Result<(f64, Vec<Reply>), String> {
    let ladder = ladder();
    // For the first second or so after the step up from the nominal
    // rate, queues overflow even at rates sustained later: an untimed
    // rung at the ladder's middle absorbs that ramp so the first probe
    // does not.
    let middle = ladder.len() / 2;
    let warm_rate = ladder[middle];
    let (_, warm) = load.run("serve-steady-ladder-warmup", warm_rate, LADDER_WARMUP, 4)?;
    report.note(warm.describe(&format!("ladder warm-up {warm_rate} req/s (untimed)")));
    let rung = Duration::from_secs_f64(
        (budget_s - LADDER_WARMUP.as_secs_f64()).max(0.0) / LADDER_PROBES as f64,
    );
    let mut stairs = Staircase::new(middle, ladder.len());
    let mut all = Vec::new();
    for probe in 0..LADDER_PROBES {
        let rate = ladder[stairs.rung];
        let (replies, st) = load.run(
            &format!("serve-steady-ladder-{probe}-{rate}"),
            rate,
            rung,
            RUNG_WINDOWS,
        )?;
        let pass = st.p99_ms() <= LATENCY_LIMIT_MS && st.late_p99_ms() <= LATE_LIMIT_MS;
        report.note(format!(
            "{} -> {} (step {})",
            st.describe(&format!("ladder probe {probe}: rung {rate} req/s")),
            if pass { "pass" } else { "miss" },
            stairs.step
        ));
        all.extend(replies);
        stairs.record(pass);
    }
    let Some(top) = stairs.estimate() else {
        return Err(format!(
            "invalid run: no ladder rung met the {LATENCY_LIMIT_MS} ms limit, so the \
             capacity is below the ladder ({} req/s) and cannot be read",
            ladder[0]
        ));
    };
    let capacity = ladder[top];
    if stairs.best == Some(ladder.len() - 1) {
        report.note(format!(
            "the top ladder rung passed: capacity is at least {} req/s and may read \
             clipped; raise LADDER_RUNGS to measure it",
            ladder[ladder.len() - 1]
        ));
    }
    report.note(format!(
        "serve_capacity_rps {capacity} req/s: median of the {} rungs passed at step 1 \
         (limit: median window p99 <= {LATENCY_LIMIT_MS} ms)",
        stairs.fine_passes.len()
    ));
    Ok((capacity, all))
}

/// An up-down staircase over ladder rungs: up one step after a pass,
/// down one after a miss, the step halving at every reversal until it
/// is one rung. Once it is, the staircase moves between the highest
/// rung that passes and the lowest that misses, and every pass there
/// is one more reading of the capacity: their median rests on several
/// probes rather than on one.
struct Staircase {
    /// Rung of the next probe.
    rung: usize,
    /// Rungs moved after the next probe.
    step: usize,
    rungs: usize,
    last: Option<bool>,
    /// Highest rung that passed.
    best: Option<usize>,
    /// Rungs that passed while the step was one.
    fine_passes: Vec<usize>,
}

impl Staircase {
    fn new(start: usize, rungs: usize) -> Self {
        Staircase {
            rung: start.min(rungs - 1),
            step: FIRST_STEP,
            rungs,
            last: None,
            best: None,
            fine_passes: Vec::new(),
        }
    }

    /// Records the outcome of a probe at [`Staircase::rung`] and moves.
    fn record(&mut self, pass: bool) {
        if pass {
            self.best = self.best.max(Some(self.rung));
            if self.step == 1 {
                self.fine_passes.push(self.rung);
            }
        }
        if self.last.is_some_and(|last| last != pass) {
            self.step = (self.step / 2).max(1);
        }
        self.last = Some(pass);
        self.rung = if pass {
            (self.rung + self.step).min(self.rungs - 1)
        } else {
            self.rung.saturating_sub(self.step)
        };
    }

    /// The lower median of the rungs passed at step one, or the highest
    /// rung passed if none was; `None` when no probe passed.
    fn estimate(&self) -> Option<usize> {
        let mut fine = self.fine_passes.clone();
        fine.sort_unstable();
        fine.get(fine.len().saturating_sub(1) / 2)
            .copied()
            .or(self.best)
    }
}

/// `adapt-drift`: an MNIST tenant and a 2-layer stacked Widar tenant
/// behind one listener while the receiver walks; both controllers step
/// at fixed rounds under alternating open-loop traffic.
pub fn adapt_drift(args: &Args, report: &mut Report) -> Result<(), String> {
    let Setup {
        tenants,
        live,
        seconds: setup_s,
    } = setup::repeated(&[MNIST, WIDAR_STACK], args.seed, true)?;
    let live = live.expect("serving set-up starts a server");
    let mut load = Load::open(&live, &tenants, args.seed, |seq| (seq % 2) as usize)?;
    let secs = args.seconds as f64;
    load.run("adapt-drift-warmup", ADAPT_RPS, WARMUP, 1)?;

    // Traced runs first serve without adaptation, untraced and then with
    // telemetry on, for the tracing-overhead figure.
    let mut ab = None;
    if args.trace {
        let d = Duration::from_secs_f64(secs * 0.25);
        let (_, plain) = load.run("adapt-drift-serve", ADAPT_RPS, d, windows(d))?;
        check_generator(&plain, "the untraced serving phase")?;
        layers::telemetry_on();
        let (_, traced) = load.run("adapt-drift-serve-traced", ADAPT_RPS, d, windows(d))?;
        report.note(plain.describe("serving without adaptation (untraced)"));
        report.note(traced.describe("serving without adaptation (telemetry on)"));
        ab = Some((plain, traced));
    }

    let controllers: Vec<AdaptController> = live
        .entries
        .iter()
        .zip(&tenants)
        .map(|(entry, t)| {
            let view = MobilityDrift {
                base: t.system.config.clone(),
                schedule: DriftSchedule::paper_walk(WALK_MPS),
            };
            let probes = ProbeSet::from_dataset(&t.test, PROBES, args.seed);
            AdaptController::new(entry.clone(), Box::new(view), probes, POLICY)
        })
        .collect();
    let mut history = history_of(&live);
    let duration = Duration::from_secs_f64(secs);
    let start = phase_start();
    let (measured, steps) = std::thread::scope(|s| {
        let adapt = std::thread::Builder::new()
            .name("perfbench-adapt".to_string())
            .spawn_scoped(s, || {
                adapt_rounds(controllers, &live, &mut history, start, duration)
            })
            .map_err(|e| format!("spawn adaptation thread: {e}"))?;
        let measured = span("adapt.phase", 1, || {
            load.run_from(start, "adapt-drift", ADAPT_RPS, duration, windows(duration))
        });
        let steps = adapt
            .join()
            .map_err(|_| "adaptation thread panicked".to_string())?;
        Ok::<_, String>((measured?, steps?))
    })?;
    let (replies, stats) = measured;
    layers::telemetry_off();
    load.close()?;
    report.note(stats.describe(&format!("adapting at {ADAPT_RPS} req/s")));

    check_generator(&stats, "the adaptation phase")?;
    let bad = verify(&replies, &tenants, &history, 1, report);
    fixed_values("adapt-drift", &replies, &tenants, report);
    live.shutdown()?;
    report.attempted = stats.sent;
    report.failed = stats.failed() + bad;

    // Served latency while the controllers work: the requests due during
    // any step (probe, or probe + re-solve + swap).
    let spans: Vec<(Duration, Duration)> = steps.iter().map(|s| (s.began, s.ended)).collect();
    let during = due_within(&stats.due_ms, &spans);
    let quote = |p| during.quoted(p).unwrap_or(f64::NAN);
    let (during_p50, during_p99) = (quote(50.0), quote(99.0));
    if during_p50.is_nan() {
        return Err(format!(
            "only {} requests were due while a controller step ran",
            during.len()
        ));
    }
    report.note(format!(
        "requests due while a controller step ran: {} of {}, p50 {during_p50:.3} ms, \
         p99 {during_p99:.3} ms (steps cover {:.2} s of {secs} s)",
        during.len(),
        stats.sent,
        spans
            .iter()
            .map(|(b, e)| (*e - *b).as_secs_f64())
            .sum::<f64>(),
    ));

    let costs = AdaptCosts::of(&steps, tenants.len());
    for (i, t) in tenants.iter().enumerate() {
        let rounds: Vec<u64> = steps
            .iter()
            .filter(|s| s.tenant == i)
            .filter_map(|s| s.report.swap.map(|w| w.round))
            .collect();
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.1}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        report.note(format!(
            "fixed adapt-drift.{}.swap_rounds {rounds:?}",
            t.spec.name
        ));
        report.note(format!(
            "{}: re-solve CPU ms [{}]; trigger-to-live wall ms [{}]; \
             probe CPU ms, median of {} rounds: {:.1}",
            t.spec.name,
            list(&costs.resolve_cpu_ms[i]),
            list(&costs.to_live_ms[i]),
            costs.hold_cpu_ms[i].len(),
            median_or_nan(&costs.hold_cpu_ms[i]),
        ));
    }
    report.note(format!(
        "fixed adapt-drift.triggers {}, swaps {}",
        costs.triggers,
        costs.swap_us.len()
    ));
    if costs
        .resolve_cpu_ms
        .iter()
        .chain(&costs.hold_cpu_ms)
        .any(Vec::is_empty)
    {
        return Err("the walk did not both trigger and hold on every tenant".to_string());
    }
    // The mean, not the median: one tenant's re-solves fall into two
    // groups about 1.7× apart in CPU time, and the median of such a mix
    // jumps between them from run to run.
    let per_tenant: Vec<f64> = costs.resolve_cpu_ms.iter().map(|v| mean(v)).collect();
    let resolve_cpu_ms = per_tenant.iter().sum::<f64>() / per_tenant.len() as f64;
    if resolve_cpu_ms <= 0.0 {
        return Err(format!(
            "re-solve CPU time {resolve_cpu_ms} ms is not positive"
        ));
    }
    report.note(format!(
        "adapt_resolve_cpu_ms {resolve_cpu_ms:.3} ms (mean over tenants of each tenant's mean \
         re-solve + swap CPU time on the adaptation thread); rate_per_s is its inverse, \
         reconfigurations per CPU second"
    ));

    if let Some((plain, traced)) = ab {
        layers::setup(report);
        layers::under_load(report, &plain, &traced);
        put(report, "adapt.probe_ms", median_or_nan(&costs.hold_ms));
        put(
            report,
            "mapper.resolve_ms",
            median_or_nan(&costs.resolve_ms[0]),
        );
        put(
            report,
            "sim.resolve_ms",
            median_or_nan(&costs.resolve_ms[1]),
        );
        put(report, "deploy.swap_us", median_or_nan(&costs.swap_us));
        put(report, "adapt.triggers", costs.triggers as f64);
        put(report, "adapt.swaps", costs.swap_us.len() as f64);
        report.note("adapt.probe_ms is the median duration of rounds that did not trigger");
        return Ok(());
    }

    report.end_to_end([
        percentile(&setup_s, 50.0),
        during_p50,
        stats.cpu_us_per_req(stats.cpu_all),
        1e3 / resolve_cpu_ms,
    ]);
    Ok(())
}

/// Median of `v`, NaN when it is empty.
fn median_or_nan(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        percentile(v, 50.0)
    }
}

/// One controller step on the adaptation thread.
struct Step {
    tenant: usize,
    report: StepReport,
    /// When it ran, as offsets from the phase's start.
    began: Duration,
    ended: Duration,
    /// CPU seconds the adaptation thread spent in it.
    cpu: f64,
}

/// What the adaptation rounds cost, per tenant where indexed.
struct AdaptCosts {
    /// CPU ms of each re-solve + swap: a triggering step's CPU time less
    /// the tenant's median probe-only step.
    resolve_cpu_ms: Vec<Vec<f64>>,
    /// CPU ms of each step that did not trigger (probe + assess).
    hold_cpu_ms: Vec<Vec<f64>>,
    /// Wall ms from trigger to the fresh deployment live, per swap.
    to_live_ms: Vec<Vec<f64>>,
    /// Wall ms of each `redeploy_warm`.
    resolve_ms: Vec<Vec<f64>>,
    /// Wall ms of every step that did not trigger.
    hold_ms: Vec<f64>,
    /// Wall µs of every `ModelEntry::swap`.
    swap_us: Vec<f64>,
    triggers: u64,
}

impl AdaptCosts {
    fn of(steps: &[Step], tenants: usize) -> Self {
        let mut c = AdaptCosts {
            resolve_cpu_ms: vec![Vec::new(); tenants],
            hold_cpu_ms: vec![Vec::new(); tenants],
            to_live_ms: vec![Vec::new(); tenants],
            resolve_ms: vec![Vec::new(); tenants],
            hold_ms: Vec::new(),
            swap_us: Vec::new(),
            triggers: 0,
        };
        for s in steps {
            if s.report.decision == Decision::Trigger {
                c.triggers += 1;
            } else {
                c.hold_cpu_ms[s.tenant].push(s.cpu * 1e3);
                c.hold_ms.push((s.ended - s.began).as_secs_f64() * 1e3);
            }
        }
        let probe_ms: Vec<f64> = c.hold_cpu_ms.iter().map(|v| median_or_nan(v)).collect();
        for s in steps {
            if let Some(w) = s.report.swap {
                c.resolve_cpu_ms[s.tenant].push(s.cpu * 1e3 - probe_ms[s.tenant]);
                c.to_live_ms[s.tenant].push((w.resolve_seconds + w.swap_seconds) * 1e3);
                c.resolve_ms[s.tenant].push(w.resolve_seconds * 1e3);
                c.swap_us.push(w.swap_seconds * 1e6);
            }
        }
        c
    }
}

/// Steps every controller at [`ADAPT_ROUNDS`] evenly spaced rounds over
/// `duration` from `start`, recording each deployment a swap installs
/// and each step's time span and CPU time.
fn adapt_rounds(
    mut controllers: Vec<AdaptController>,
    live: &Live,
    history: &mut [History],
    start: Instant,
    duration: Duration,
) -> Result<Vec<Step>, String> {
    let interval = duration / ADAPT_ROUNDS as u32;
    let cpu_now = || cpu::thread_seconds().ok_or("cannot read this thread's CPU time");
    let mut steps = Vec::new();
    for round in 0..ADAPT_ROUNDS {
        if let Some(wait) = (start + interval * round as u32).checked_duration_since(Instant::now())
        {
            std::thread::sleep(wait);
        }
        for (i, ctl) in controllers.iter_mut().enumerate() {
            let (began, cpu0) = (Instant::now(), cpu_now()?);
            let report = span("adapt.step", 1, || ctl.step());
            let (cpu1, ended) = (cpu_now()?, Instant::now());
            if report.swap.is_some() {
                history[i].push(live.entries[i].current());
            }
            steps.push(Step {
                tenant: i,
                report,
                began: began.saturating_duration_since(start),
                ended: ended.saturating_duration_since(start),
                cpu: cpu1 - cpu0,
            });
        }
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_spans_nominal_to_beyond_twice_capacity() {
        let l = ladder();
        assert_eq!(l.len(), LADDER_RUNGS);
        assert_eq!(l[0], 6000.0);
        assert!(l[0] > NOMINAL_RPS);
        assert_eq!(l[LADDER_RUNGS - 1], 123600.0);
        assert!(l.windows(2).all(|w| w[1] > w[0]));
    }

    /// Drives a staircase from the ladder's middle against a capacity
    /// that passes every rung up to `knee`, and returns its estimate.
    fn staircase_against(knee: usize, probes: usize) -> Option<usize> {
        let mut s = Staircase::new(LADDER_RUNGS / 2, LADDER_RUNGS);
        for _ in 0..probes {
            let pass = s.rung <= knee;
            s.record(pass);
        }
        s.estimate()
    }

    #[test]
    fn staircase_finds_the_knee_within_the_probes() {
        for knee in [20, 30, 33, 36, 37, 40, 45, 50] {
            assert_eq!(
                staircase_against(knee, LADDER_PROBES),
                Some(knee),
                "knee {knee}"
            );
        }
        // Every rung passes: the estimate is the top rung.
        assert_eq!(
            staircase_against(LADDER_RUNGS - 1, LADDER_PROBES),
            Some(LADDER_RUNGS - 1)
        );
    }

    #[test]
    fn staircase_without_a_pass_has_no_estimate() {
        let mut s = Staircase::new(LADDER_RUNGS / 2, LADDER_RUNGS);
        for _ in 0..LADDER_PROBES {
            s.record(false);
        }
        assert_eq!(s.rung, 0);
        assert_eq!(s.estimate(), None);
    }

    #[test]
    fn staircase_reads_the_median_of_its_fine_passes() {
        let mut s = Staircase::new(10, 20);
        s.step = 1;
        // Passes at 10, 11 and 11 again around misses at 12.
        for pass in [true, true, false, true, false] {
            s.record(pass);
        }
        assert_eq!(s.fine_passes, vec![10, 11, 11]);
        assert_eq!(s.estimate(), Some(11));
        assert_eq!(s.best, Some(11));
    }

    #[test]
    fn requests_due_within_spans() {
        let ms = Duration::from_millis;
        let due: Vec<(Duration, f64)> = (0..10).map(|k| (ms(10 * k), k as f64)).collect();
        // [15, 35) holds 20 and 30; [40, 41) holds 40; [90, 200) holds 90.
        let spans = [(ms(15), ms(35)), (ms(40), ms(41)), (ms(90), ms(200))];
        let inside = due_within(&due, &spans);
        assert_eq!(inside.len(), 4);
        assert_eq!(due_within(&due, &[]).len(), 0);
        assert_eq!(due_within(&due, &[(ms(0), ms(1000))]).len(), 10);
        // A span ending where a request is due leaves it out.
        assert_eq!(due_within(&due, &[(ms(5), ms(10))]).len(), 0);
    }
}
