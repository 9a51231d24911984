//! Per-layer costs for the traced run: timed calls into each layer's
//! public API, each loop of calls inside one trace span.

use crate::report::Report;
use crate::serve::PhaseStats;
use crate::setup::{Live, Tenant};
use crate::trace::{self, span};
use metaai_math::rng::SimRng;
use metaai_math::stats::percentile;
use metaai_serve::tcp::TcpClient;
use metaai_serve::wire::{Request, Response};
use metaai_serve::ScoreRequest;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Every per-layer metric with its unit, in report order. Each workload
/// reports the layers it exercises; the rest read 0 (see
/// [`zero_unexercised`]).
pub const PER_LAYER: [(&str, &str); 32] = [
    ("datasets.generate_s", "s"),
    ("nn.train_s", "s"),
    ("sim.train_s", "s"),
    ("mapper.deploy_s", "s"),
    ("sim.deploy_s", "s"),
    ("pipeline.conditions_us", "us"),
    ("engine.kernel_us.fused", "us"),
    ("engine.kernel_us.scalar", "us"),
    ("engine.kernel_bytes_per_sample", "bytes"),
    ("engine.serial_samples_per_s", "1/s"),
    ("engine.fanout_efficiency.large", "ratio"),
    ("engine.fanout_efficiency.small", "ratio"),
    ("wire.decode_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.request_bytes", "bytes"),
    ("server.inproc_rtt_us", "us"),
    ("server.worker_cpu_us_per_req", "us"),
    ("server.batch_size_mean", "count"),
    ("server.enqueue_to_scored_us", "us"),
    ("server.shed", "count"),
    ("server.expired", "count"),
    ("tcp.depth1_rtt_us", "us"),
    ("tcp.conn_cpu_us_per_req", "us"),
    ("serve.unexplained_us_per_req", "us"),
    ("adapt.probe_ms", "ms"),
    ("mapper.resolve_ms", "ms"),
    ("sim.resolve_ms", "ms"),
    ("deploy.swap_us", "us"),
    ("adapt.triggers", "count"),
    ("adapt.swaps", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

/// Reports a per-layer metric under its declared unit.
pub fn put(report: &mut Report, name: &'static str, value: f64) {
    report.metric(name, value, unit_of(name));
}

/// Repeats `block` (which makes `calls` calls inside span `name`) until
/// `budget` has passed, at least three times; returns the median
/// per-call time in µs.
fn timed<F: FnMut()>(name: &'static str, calls: u64, budget: Duration, mut block: F) -> f64 {
    let started = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 3 || started.elapsed() < budget {
        let t = Instant::now();
        span(name, calls, &mut block);
        per_call.push(t.elapsed().as_secs_f64() * 1e6 / calls as f64);
    }
    percentile(&per_call, 50.0)
}

/// Set-up layers: per set-up, the summed duration of each kind of
/// set-up span (a set-up may build several tenants), then the median
/// over set-ups.
pub fn setup(report: &mut Report) {
    let records = trace::records();
    let setups: Vec<u64> = records
        .iter()
        .filter(|r| r.name == "setup")
        .map(|r| r.id)
        .collect();
    for (span_name, metric) in [
        ("datasets.generate", "datasets.generate_s"),
        ("nn.train", "nn.train_s"),
        ("sim.train", "sim.train_s"),
        ("mapper.deploy", "mapper.deploy_s"),
        ("sim.deploy", "sim.deploy_s"),
    ] {
        let per_setup: Vec<f64> = setups
            .iter()
            .map(|&id| {
                records
                    .iter()
                    .filter(|r| r.parent == Some(id) && r.name == span_name)
                    .map(|r| r.duration_ns() as f64 / 1e9)
                    .sum()
            })
            .collect();
        if per_setup.iter().any(|&s| s > 0.0) {
            put(report, metric, percentile(&per_setup, 50.0));
        }
    }
}

/// Engine layers on `t`'s deployment (and the scalar kernel on
/// `scalar`'s, when given): conditions, kernel, serial scoring and the
/// batch fan-out.
pub fn engine(report: &mut Report, t: &Tenant, scalar: Option<&Tenant>, budget_s: f64) {
    let slice = Duration::from_secs_f64(budget_s / 6.0);
    let sys = &t.system;
    let seed = sys.config.seed;
    let stream = SimRng::stream_id("perfbench-layers");
    let n = sys.engine().num_symbols();
    let inputs = &t.test.inputs;

    let conditions_us = timed("pipeline.conditions", 256, slice, || {
        for i in 0..256u64 {
            let mut rng = SimRng::derive_indexed(seed, stream, i);
            black_box(sys.default_conditions(n, &mut rng));
        }
    });
    put(report, "pipeline.conditions_us", conditions_us);

    for (tenant, name, metric) in [
        (Some(t), "engine.kernel.fused", "engine.kernel_us.fused"),
        (scalar, "engine.kernel.scalar", "engine.kernel_us.scalar"),
    ] {
        if let Some(k) = tenant {
            put(report, metric, kernel_us(k, name, slice));
        }
    }
    let rows = sys.engine().num_outputs();
    // Channel planes (re + im) + input + environment gains + MTS
    // factors + scores, all f64: computed from the shapes.
    let bytes = 8 * (2 * rows * n + 2 * n + 2 * n + n + rows);
    put(report, "engine.kernel_bytes_per_sample", bytes as f64);

    let mut out = Vec::new();
    let serial_us = timed("pipeline.score_indexed", 256, slice, || {
        for i in 0..256u64 {
            let x = &inputs[i as usize % inputs.len()];
            black_box(sys.score_indexed(x, stream, i, &mut out));
        }
    });
    let serial = 1e6 / serial_us;
    put(report, "engine.serial_samples_per_s", serial);

    let threads = rayon_threads() as f64;
    let large: Vec<_> = (0..1024)
        .map(|i| inputs[i % inputs.len()].clone())
        .collect();
    for (set, name, metric) in [
        (
            &large[..],
            "engine.batch_predict.large",
            "engine.fanout_efficiency.large",
        ),
        (
            &large[..120],
            "engine.batch_predict.small",
            "engine.fanout_efficiency.small",
        ),
    ] {
        let per_sample_us = timed(name, set.len() as u64, slice, || {
            black_box(
                sys.engine()
                    .batch_predict_with(set, seed, stream, |rng| sys.default_conditions(n, rng)),
            );
        });
        put(report, metric, 1e6 / per_sample_us / (threads * serial));
    }
    report.note(format!(
        "engine: {threads} fan-out threads; kernel bytes/sample computed from the shapes \
         ({rows} outputs x {n} symbols), not measured"
    ));
}

fn kernel_us(t: &Tenant, name: &'static str, budget: Duration) -> f64 {
    let sys = &t.system;
    let engine = sys.engine();
    let n = engine.num_symbols();
    let stream = SimRng::stream_id("perfbench-kernel");
    let seed = sys.config.seed;
    let conds: Vec<_> = (0..64u64)
        .map(|i| sys.default_conditions(n, &mut SimRng::derive_indexed(seed, stream, i)))
        .collect();
    let inputs = &t.test.inputs;
    let mut out = Vec::new();
    let mut round = 0u64;
    let started = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 3 || started.elapsed() < budget {
        // Fresh noise streams, made outside the timed span.
        let mut rngs: Vec<SimRng> = (0..64u64)
            .map(|i| SimRng::derive_indexed(seed, stream, 1_000_000 + round * 64 + i))
            .collect();
        round += 1;
        let t0 = Instant::now();
        span(name, 64, || {
            for (i, (cond, rng)) in conds.iter().zip(rngs.iter_mut()).enumerate() {
                engine.scores_into(&inputs[i % inputs.len()], cond, rng, &mut out);
                black_box(&out);
            }
        });
        per_call.push(t0.elapsed().as_secs_f64() * 1e6 / 64.0);
    }
    percentile(&per_call, 50.0)
}

/// The batch fan-out's worker count, as the vendored rayon picks it.
fn rayon_threads() -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(hw)
        .min(64)
}

/// Telemetry figures of the serving layers, read from the public
/// snapshot: (mean batch size, mean enqueue→scored µs, shed, expired).
fn serve_telemetry() -> (f64, f64, f64, f64) {
    use metaai_telemetry::MetricValue;
    let snap = metaai::telemetry::global().snapshot();
    let find = |name: &str| snap.iter().find(|m| m.name == name).map(|m| &m.value);
    let mean = |name: &str| match find(name) {
        Some(MetricValue::Histogram(h)) if h.count > 0 => h.sum / h.count as f64,
        _ => 0.0,
    };
    let count = |name: &str| match find(name) {
        Some(MetricValue::Counter(c)) => *c as f64,
        _ => 0.0,
    };
    (
        mean("metaai.serve.batch_size"),
        mean("metaai.serve.e2e_latency_us"),
        count("metaai.serve.shed_total"),
        count("metaai.serve.expired_total"),
    )
}

/// Turns the workspace telemetry on (traced runs only), from zero.
pub fn telemetry_on() {
    let registry = metaai::telemetry::install();
    metaai_serve::register_metrics();
    metaai_adapt::register_metrics();
    registry.reset();
    registry.set_enabled(true);
}

pub fn telemetry_off() {
    metaai::telemetry::global().set_enabled(false);
}

/// Adds the per-layer serving figures measured under load.
pub fn under_load(report: &mut Report, plain: &PhaseStats, traced: &PhaseStats) {
    let (batch, enqueue_us, shed, expired) = serve_telemetry();
    put(
        report,
        "server.worker_cpu_us_per_req",
        plain.cpu_us_per_req(plain.cpu_workers),
    );
    put(report, "server.batch_size_mean", batch);
    put(report, "server.enqueue_to_scored_us", enqueue_us);
    put(report, "server.shed", shed);
    put(report, "server.expired", expired);
    put(
        report,
        "tcp.conn_cpu_us_per_req",
        plain.cpu_us_per_req(plain.cpu_conn),
    );
    put(report, "loadgen.late_p99_ms", plain.late_p99_ms());
    let (a, b) = (
        plain.cpu_us_per_req(plain.cpu_all),
        traced.cpu_us_per_req(traced.cpu_all),
    );
    put(report, "trace.overhead_pct", (b - a) / a * 100.0);
    report.note(format!(
        "trace overhead: server CPU {a:.2} us/req untraced vs {b:.2} us/req with telemetry on"
    ));
}

/// Depth-1 costs of the serving path on an idle server.
pub struct ServingPath {
    pub score_us: f64,
    pub decode_us: f64,
    pub encode_us: f64,
    pub inproc_us: f64,
    pub tcp_us: f64,
}

/// Wire codec, in-process round trip and TCP round trip for tenant
/// `model` of `live`, each measured unloaded.
pub fn serving_path(
    report: &mut Report,
    t: &Tenant,
    live: &Live,
    model: usize,
    budget_s: f64,
) -> Result<ServingPath, String> {
    let slice = Duration::from_secs_f64(budget_s / 5.0);
    let entry = &live.entries[model];
    let x = t.test.inputs[0].clone();
    let request = Request::InferModel {
        model: entry.wire_id(),
        id: 1,
        sample_index: 1,
        deadline_us: 0,
        input: x.as_slice().to_vec(),
    };
    let frame = request.encode();
    let decode_us = timed("wire.decode", 64, slice, || {
        for _ in 0..64 {
            black_box(Request::decode(black_box(&frame)).expect("own frame decodes"));
        }
    });
    let reply = Response::Score {
        id: 1,
        epoch: 1,
        predicted: 0,
        scores: vec![0.5; entry.current().system.engine().num_outputs()],
    };
    let encode_us = timed("wire.encode", 256, slice, || {
        for _ in 0..256 {
            black_box(black_box(&reply).encode());
        }
    });
    put(report, "wire.decode_us", decode_us);
    put(report, "wire.encode_us", encode_us);
    put(report, "wire.request_bytes", (frame.len() + 4) as f64);

    // Sample indices far above any load phase's.
    let base = 1u64 << 40;
    let dep = entry.current();
    let mut out = Vec::new();
    let score_us = timed("pipeline.score_indexed", 64, slice, || {
        for i in 0..64 {
            black_box(dep.system.score_indexed(&x, dep.stream, base + i, &mut out));
        }
    });
    let client = &live.clients[model];
    let mut k = 0u64;
    let inproc_us = timed("server.client_score", 16, slice, || {
        for _ in 0..16 {
            k += 1;
            let r = client.score(ScoreRequest {
                id: k,
                sample_index: base + k,
                input: x.clone(),
                deadline: None,
            });
            black_box(r.expect("idle server scores"));
        }
    });
    let mut tcp = TcpClient::connect(live.addr).map_err(|e| format!("connect: {e}"))?;
    let mut failed = None;
    let tcp_us = timed("tcp.score_model", 16, slice, || {
        for _ in 0..16 {
            k += 1;
            match tcp.score_model(entry.wire_id(), k, base + k, x.as_slice().to_vec()) {
                Ok(Ok(r)) => {
                    black_box(r);
                }
                other => failed = Some(format!("{other:?}")),
            }
        }
    });
    drop(tcp);
    if let Some(e) = failed {
        return Err(format!("depth-1 TCP scoring failed: {e}"));
    }
    put(report, "server.inproc_rtt_us", inproc_us - score_us);
    put(report, "tcp.depth1_rtt_us", tcp_us - inproc_us);
    report.note(format!(
        "depth 1, idle server: score_indexed {score_us:.1} us; Client::score {inproc_us:.1} us; \
         TcpClient::score_model {tcp_us:.1} us"
    ));
    Ok(ServingPath {
        score_us,
        decode_us,
        encode_us,
        inproc_us,
        tcp_us,
    })
}

/// Sets the served request's CPU cost, measured under load, beside the
/// per-layer costs measured in isolation, and reports what they leave
/// unexplained.
pub fn explain_serving(report: &mut Report, load: &PhaseStats, path: &ServingPath) {
    let total = load.cpu_us_per_req(load.cpu_all);
    let workers = load.cpu_us_per_req(load.cpu_workers);
    let conn = load.cpu_us_per_req(load.cpu_conn);
    let explained = path.score_us + path.decode_us + path.encode_us;
    let unexplained = total - explained;
    put(report, "serve.unexplained_us_per_req", unexplained);
    for line in [
        format!("server CPU per request under load: {total:.2} us"),
        format!("  scoring workers {workers:.2} us = score_indexed {:.2} + batcher/worker {:.2}",
            path.score_us, workers - path.score_us),
        format!("  connection threads {conn:.2} us = decode {:.2} + encode {:.2} + socket/framing {:.2}",
            path.decode_us, path.encode_us, conn - path.decode_us - path.encode_us),
        format!("  other server threads {:.2} us", total - workers - conn),
        format!("  unexplained by isolated layer costs: {unexplained:.2} us ({:.1}%)",
            unexplained / total * 100.0),
        format!("depth-1 round trip: {:.1} us = score {:.1} + in-process server {:.1} + TCP {:.1}",
            path.tcp_us, path.score_us, path.inproc_us - path.score_us, path.tcp_us - path.inproc_us),
    ] {
        report.note(line);
    }
}

/// Reports 0 for every per-layer metric this workload did not exercise,
/// and names them.
pub fn zero_unexercised(report: &mut Report) {
    let missing: Vec<&'static str> = PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !report.metrics.iter().any(|m| m.name == *n))
        .collect();
    if !missing.is_empty() {
        report.note(format!(
            "not exercised on this workload (reported as 0): {}",
            missing.join(", ")
        ));
    }
    for name in missing {
        put(report, name, 0.0);
    }
    let order = |name: &str| PER_LAYER.iter().position(|(n, _)| *n == name);
    report.metrics.sort_by_key(|m| order(m.name));
}
