//! Serving-stage instruments, following the workspace scheme
//! (`metaai.serve.<what>`, DESIGN.md §10).
//!
//! Instruments come in two layers since the service went multi-tenant:
//! the **aggregate** layer keeps the original `metaai.serve.<what>`
//! names (summed over every model, so PR-4/5 dashboards keep working),
//! and the **per-model** layer mirrors each request-path instrument
//! under `metaai.serve.model.<name>.<what>` so one tenant's shed rate or
//! latency regression is attributable. Connection-level instruments
//! (`accept_retries`) stay aggregate-only — a TCP accept has no model
//! yet.
//!
//! One deliberate deviation from the `_seconds` convention: end-to-end
//! request latency is recorded in **microseconds**
//! (`metaai.serve.e2e_latency_us`) because the interesting SLO range for
//! the service is 25 µs – 100 ms (an unloaded request spends tens of µs
//! in the server) and the default decade buckets in seconds would crush
//! it into two buckets.

use metaai_telemetry::{Counter, Gauge, Histogram};
use std::sync::OnceLock;

/// Bucket upper bounds for `metaai.serve.e2e_latency_us` (microseconds).
pub const LATENCY_US_BOUNDS: [f64; 10] = [
    25.0,
    50.0,
    100.0,
    250.0,
    1_000.0,
    2_500.0,
    10_000.0,
    50_000.0,
    100_000.0,
    1_000_000.0,
];

/// Bucket upper bounds for `metaai.serve.batch_size` (requests per dequeue).
pub const BATCH_SIZE_BOUNDS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 256.0];

pub(crate) struct ServeMetrics {
    /// Requests admitted into any queue.
    pub requests: Counter,
    /// Batches taken by workers.
    pub batches: Counter,
    /// Queue depth after the most recent submit/dequeue (summed over
    /// models is meaningless for a gauge, so this reports the depth of
    /// whichever model queue last moved; per-model gauges are exact).
    pub queue_depth: Gauge,
    /// Distribution of dequeued batch sizes.
    pub batch_size: Histogram,
    /// Submit→reply latency of scored requests, in microseconds.
    pub e2e_latency_us: Histogram,
    /// Submit→drop latency of requests whose deadline passed before a
    /// worker reached them, in microseconds. Kept as a separate outcome
    /// so `e2e_latency_us` is not survivor-biased.
    pub e2e_latency_expired_us: Histogram,
    /// Requests rejected at admission by the shed policy.
    pub shed_total: Counter,
    /// Admitted requests dropped because their deadline passed.
    pub expired_total: Counter,
    /// Hot-swap deployments installed (any model).
    pub deploy_swaps: Counter,
    /// Scoring workers restarted after a panic (any model).
    pub worker_restarts: Counter,
    /// Transient `accept` failures retried by the supervised accept loop.
    pub accept_retries: Counter,
}

fn metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = metaai_telemetry::global();
        ServeMetrics {
            requests: r.counter("metaai.serve.requests"),
            batches: r.counter("metaai.serve.batches"),
            queue_depth: r.gauge("metaai.serve.queue_depth"),
            batch_size: r.histogram("metaai.serve.batch_size", &BATCH_SIZE_BOUNDS),
            e2e_latency_us: r.histogram("metaai.serve.e2e_latency_us", &LATENCY_US_BOUNDS),
            e2e_latency_expired_us: r
                .histogram("metaai.serve.e2e_latency_expired_us", &LATENCY_US_BOUNDS),
            shed_total: r.counter("metaai.serve.shed_total"),
            expired_total: r.counter("metaai.serve.expired_total"),
            deploy_swaps: r.counter("metaai.serve.deploy_swaps"),
            worker_restarts: r.counter("metaai.serve.worker_restarts"),
            accept_retries: r.counter("metaai.serve.accept_retries"),
        }
    })
}

/// The per-call telemetry gate (one relaxed atomic load when disabled).
#[inline]
pub(crate) fn tele() -> Option<&'static ServeMetrics> {
    metaai_telemetry::enabled().then(metrics)
}

/// Records `$body` on the aggregate instruments and on the per-model ones
/// `$model` yields (an `Option<&ModelMetrics>`), each only while
/// telemetry is on: `record!(entry.metrics.on(), |m| m.requests.inc())`.
macro_rules! record {
    ($model:expr, |$m:ident| $body:expr) => {{
        if let Some($m) = $crate::metrics::tele() {
            $body;
        }
        if let Some($m) = $model {
            $body;
        }
    }};
}
pub(crate) use record;

/// The per-model instrument set, created once when a model is registered
/// (instruments are `Arc`-backed atomics, cheap to clone and hold).
#[derive(Clone)]
pub(crate) struct ModelMetrics {
    pub requests: Counter,
    pub batches: Counter,
    pub queue_depth: Gauge,
    pub batch_size: Histogram,
    pub e2e_latency_us: Histogram,
    pub e2e_latency_expired_us: Histogram,
    pub shed_total: Counter,
    pub expired_total: Counter,
    pub deploy_swaps: Counter,
    pub worker_restarts: Counter,
    /// Seconds since this model's deployment last changed. Reset to zero
    /// by a hot swap and refreshed by scoring workers per batch (and by
    /// the adaptation controller per probe round), so staleness is
    /// visible even on an idle model the moment traffic or probing
    /// touches it.
    pub epoch_age_s: Gauge,
}

impl ModelMetrics {
    /// Instruments for `model` under `metaai.serve.model.<name>.<what>`.
    pub fn for_model(model: &str) -> ModelMetrics {
        let r = metaai_telemetry::global();
        let name = |what: &str| format!("metaai.serve.model.{model}.{what}");
        ModelMetrics {
            requests: r.counter(&name("requests")),
            batches: r.counter(&name("batches")),
            queue_depth: r.gauge(&name("queue_depth")),
            batch_size: r.histogram(&name("batch_size"), &BATCH_SIZE_BOUNDS),
            e2e_latency_us: r.histogram(&name("e2e_latency_us"), &LATENCY_US_BOUNDS),
            e2e_latency_expired_us: r
                .histogram(&name("e2e_latency_expired_us"), &LATENCY_US_BOUNDS),
            shed_total: r.counter(&name("shed_total")),
            expired_total: r.counter(&name("expired_total")),
            deploy_swaps: r.counter(&name("deploy_swaps")),
            worker_restarts: r.counter(&name("worker_restarts")),
            epoch_age_s: r.gauge(&name("epoch_age_s")),
        }
    }

    /// The recording gate, mirroring [`tele`].
    #[inline]
    pub fn on(&self) -> Option<&ModelMetrics> {
        metaai_telemetry::enabled().then_some(self)
    }
}

/// Registers the aggregate serving instruments with the global telemetry
/// registry, so `--metrics-out` snapshots list them (zero-valued) even
/// before the first request. Per-model instruments register themselves
/// when their model does. The CLI's `serve` command calls this next to
/// `metaai::telemetry::install()`.
pub fn register_metrics() {
    let _ = metrics();
}

#[cfg(test)]
mod tests {
    #[test]
    fn register_exposes_every_serve_instrument() {
        super::register_metrics();
        let names: Vec<String> = metaai_telemetry::global()
            .snapshot()
            .into_iter()
            .map(|m| m.name)
            .collect();
        for expected in [
            "metaai.serve.requests",
            "metaai.serve.batches",
            "metaai.serve.queue_depth",
            "metaai.serve.batch_size",
            "metaai.serve.e2e_latency_us",
            "metaai.serve.e2e_latency_expired_us",
            "metaai.serve.shed_total",
            "metaai.serve.expired_total",
            "metaai.serve.deploy_swaps",
            "metaai.serve.worker_restarts",
            "metaai.serve.accept_retries",
        ] {
            assert!(
                names.iter().any(|n| n == expected),
                "missing {expected} in {names:?}"
            );
        }
    }

    #[test]
    fn sub_100_us_latencies_land_in_distinct_buckets() {
        let registry = metaai_telemetry::Registry::new();
        registry.set_enabled(true);
        let h = registry.histogram("e2e", &super::LATENCY_US_BOUNDS);
        [20.0, 40.0, 90.0].into_iter().for_each(|us| h.observe(us));
        let metaai_telemetry::MetricValue::Histogram(h) = &registry.snapshot()[0].value else {
            panic!("not a histogram");
        };
        assert_eq!(&h.buckets[..3], &[1, 1, 1]);
    }

    #[test]
    fn model_instruments_register_under_the_model_dimension() {
        let _ = super::ModelMetrics::for_model("unit-test-model");
        let names: Vec<String> = metaai_telemetry::global()
            .snapshot()
            .into_iter()
            .map(|m| m.name)
            .collect();
        for expected in [
            "metaai.serve.model.unit-test-model.requests",
            "metaai.serve.model.unit-test-model.batches",
            "metaai.serve.model.unit-test-model.queue_depth",
            "metaai.serve.model.unit-test-model.batch_size",
            "metaai.serve.model.unit-test-model.e2e_latency_us",
            "metaai.serve.model.unit-test-model.e2e_latency_expired_us",
            "metaai.serve.model.unit-test-model.shed_total",
            "metaai.serve.model.unit-test-model.expired_total",
            "metaai.serve.model.unit-test-model.deploy_swaps",
            "metaai.serve.model.unit-test-model.worker_restarts",
            "metaai.serve.model.unit-test-model.epoch_age_s",
        ] {
            assert!(
                names.iter().any(|n| n == expected),
                "missing {expected} in {names:?}"
            );
        }
    }
}
