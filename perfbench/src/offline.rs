//! `offline-eval`: in-process batch scoring with no server, on a
//! fused-kernel deployment (MNIST, 10 classes) and a scalar-kernel one
//! (AFHQ, 3 classes).

use crate::cpu;
use crate::layers::{self, put};
use crate::report::{digest, Report};
use crate::serve::MNIST;
use crate::setup::{self, Setup, Tenant, TenantSpec};
use crate::stats::Latencies;
use crate::trace::span;
use crate::Args;
use metaai_datasets::DatasetId;
use metaai_math::rng::SimRng;
use metaai_math::stats::percentile;
use metaai_math::CVec;
use std::time::Instant;

/// Three classes: below the fused kernel's row threshold, so the engine
/// scores it on the scalar path.
pub const AFHQ: TenantSpec = TenantSpec {
    name: "afhq",
    dataset: DatasetId::Afhq,
    layers: 1,
    seed_offset: 1,
};

/// Samples in each large batch call (test inputs, cycled).
const LARGE: usize = 2048;

/// `ota_accuracy` call pairs (one call per deployment) per unit of work.
const PAIRS_PER_UNIT: usize = 60;

/// A unit of work: one large `batch_predict_with` per deployment, then
/// one untimed pair of 120-sample `ota_accuracy` calls that refills the
/// caches the large batches evicted, then [`PAIRS_PER_UNIT`] timed
/// pairs.
struct Unit {
    samples: u64,
    seconds: f64,
    /// Wall time of each pair of `ota_accuracy` calls, ms.
    pair_ms: Vec<f64>,
}

struct Deployment<'a> {
    tenant: &'a Tenant,
    large: Vec<CVec>,
    /// Predictions of the large batch, from the first call.
    expected: Vec<usize>,
    accuracy: f64,
}

fn stream() -> u64 {
    SimRng::stream_id("perfbench-offline")
}

fn batch(t: &Tenant, inputs: &[CVec]) -> Vec<usize> {
    let sys = &t.system;
    let n = sys.engine().num_symbols();
    span("engine.batch_predict", inputs.len() as u64, || {
        sys.engine()
            .batch_predict_with(inputs, sys.config.seed, stream(), |rng| {
                sys.default_conditions(n, rng)
            })
    })
}

fn accuracy(t: &Tenant) -> f64 {
    span("pipeline.ota_accuracy", t.test.len() as u64, || {
        t.system.ota_accuracy(&t.test, "perfbench")
    })
}

/// The output checks: the batch equals the serial `score_indexed` loop
/// at every index, and `ota_accuracy` equals the same loop over the test
/// set. Returns the deployment with its expected outputs.
fn checked<'a>(t: &'a Tenant, report: &mut Report) -> (Deployment<'a>, u64, u64) {
    let large: Vec<CVec> = (0..LARGE)
        .map(|i| t.test.inputs[i % t.test.len()].clone())
        .collect();
    let expected = batch(t, &large);
    let mut out = Vec::new();
    let serial: Vec<usize> = large
        .iter()
        .enumerate()
        .map(|(i, x)| t.system.score_indexed(x, stream(), i as u64, &mut out))
        .collect();
    let mut bad = expected.iter().zip(&serial).filter(|(a, b)| a != b).count() as u64;
    if bad > 0 {
        report.fail_check(format!(
            "{}: batch_predict_with differs from the serial loop at {bad} of {LARGE} indices",
            t.spec.name
        ));
    }
    let acc = accuracy(t);
    let ota_stream = SimRng::stream_id("ota-perfbench");
    let hits = t
        .test
        .inputs
        .iter()
        .zip(&t.test.labels)
        .enumerate()
        .filter(|(i, (x, &l))| t.system.score_indexed(x, ota_stream, *i as u64, &mut out) == l)
        .count();
    if hits as f64 / t.test.len() as f64 != acc {
        bad += 1;
        report.fail_check(format!(
            "{}: ota_accuracy {acc} differs from the serial loop's {}",
            t.spec.name,
            hits as f64 / t.test.len() as f64
        ));
    }
    report.note(format!(
        "fixed offline-eval.{}.prediction_digest {:016x}",
        t.spec.name,
        digest(expected.iter().map(|&p| p as u64))
    ));
    report.note(format!(
        "fixed offline-eval.{}.ota_accuracy {acc:.6}; digital_accuracy {:.6}",
        t.spec.name,
        t.system.digital_accuracy(&t.test)
    ));
    let checks = LARGE as u64 + 1;
    (
        Deployment {
            tenant: t,
            large,
            expected,
            accuracy: acc,
        },
        checks,
        bad,
    )
}

/// One unit of work; every output must repeat the checked one.
fn unit(deps: &[Deployment], mismatches: &mut u64) -> Unit {
    let started = Instant::now();
    let mut samples = 0u64;
    for d in deps {
        if batch(d.tenant, &d.large) != d.expected {
            *mismatches += 1;
        }
        samples += d.large.len() as u64;
    }
    let mut pair_ms = Vec::with_capacity(PAIRS_PER_UNIT);
    for k in 0..=PAIRS_PER_UNIT {
        let t0 = Instant::now();
        for d in deps {
            if accuracy(d.tenant) != d.accuracy {
                *mismatches += 1;
            }
            samples += d.tenant.test.len() as u64;
        }
        if k > 0 {
            pair_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    Unit {
        samples,
        seconds: started.elapsed().as_secs_f64(),
        pair_ms,
    }
}

/// Runs units until `seconds` pass (at least three). Returns the units
/// and the process CPU seconds they took.
fn measure(deps: &[Deployment], seconds: f64, mismatches: &mut u64) -> (Vec<Unit>, f64) {
    let cpu0 = cpu::process_seconds().unwrap_or(0.0);
    let started = Instant::now();
    let mut units = Vec::new();
    while units.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        units.push(unit(deps, mismatches));
    }
    let cpu = cpu::process_seconds().unwrap_or(0.0) - cpu0;
    (units, cpu)
}

fn samples(units: &[Unit]) -> u64 {
    units.iter().map(|u| u.samples).sum()
}

fn cpu_us_per_sample(units: &[Unit], cpu_s: f64) -> f64 {
    cpu_s * 1e6 / samples(units) as f64
}

/// Counts every checked and repeated output, and fails the run on any
/// mismatch.
fn finish(report: &mut Report, samples: u64, checks: u64, mismatches: u64) {
    report.attempted = checks + samples;
    report.failed = mismatches;
    if mismatches > 0 {
        report.fail_check(format!(
            "{mismatches} outputs differ from their checked values"
        ));
    }
}

pub fn offline_eval(args: &Args, report: &mut Report) -> Result<(), String> {
    let Setup {
        tenants,
        seconds: setup_s,
        ..
    } = setup::repeated(&[MNIST, AFHQ], args.seed, false)?;
    let mut attempted = 0u64;
    let mut mismatches = 0u64;
    let mut deps = Vec::new();
    for t in &tenants {
        let (d, checks, bad) = checked(t, report);
        attempted += checks;
        mismatches += bad;
        deps.push(d);
    }
    let secs = args.seconds as f64;

    if args.trace {
        let (plain, plain_cpu) = measure(&deps, secs * 0.35, &mut mismatches);
        layers::telemetry_on();
        let (traced, traced_cpu) = measure(&deps, secs * 0.35, &mut mismatches);
        layers::telemetry_off();
        layers::setup(report);
        layers::engine(report, &tenants[0], Some(&tenants[1]), secs * 0.3);
        let (a, b) = (
            cpu_us_per_sample(&plain, plain_cpu),
            cpu_us_per_sample(&traced, traced_cpu),
        );
        put(report, "trace.overhead_pct", (b - a) / a * 100.0);
        report.note(format!(
            "trace overhead: {a:.3} us CPU/sample untraced vs {b:.3} with telemetry on"
        ));
        finish(
            report,
            samples(&plain) + samples(&traced),
            attempted,
            mismatches,
        );
        return Ok(());
    }

    let (units, cpu_s) = measure(&deps, secs, &mut mismatches);
    let scored = samples(&units);
    finish(report, scored, attempted, mismatches);
    let pairs: Vec<f64> = units
        .iter()
        .flat_map(|u| u.pair_ms.iter().copied())
        .collect();
    let latencies = Latencies::new(pairs, 0);
    let rates: Vec<f64> = units.iter().map(|u| u.samples as f64 / u.seconds).collect();
    report.note(format!(
        "{} units, {scored} samples scored; {} ota_accuracy call pairs timed: \
         p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms",
        units.len(),
        latencies.len(),
        latencies.quoted(50.0).unwrap_or(f64::NAN),
        latencies.quoted(90.0).unwrap_or(f64::NAN),
        latencies.quoted(99.0).unwrap_or(f64::NAN),
    ));
    report.end_to_end([
        percentile(&setup_s, 50.0),
        latencies.quoted(50.0).unwrap_or(f64::INFINITY),
        cpu_us_per_sample(&units, cpu_s),
        percentile(&rates, 50.0),
    ]);
    Ok(())
}
