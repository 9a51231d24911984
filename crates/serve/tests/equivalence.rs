//! The serving determinism contract: a served sample scores **bitwise**
//! identically to the same index of an offline `OtaEngine` batch run —
//! whatever the worker count, batching boundaries, submission order, or
//! number of submitting threads.

mod common;

use metaai_serve::{OverflowPolicy, ScoreRequest, ServeConfig, Server, DEFAULT_MODEL};
use proptest::proptest;
use std::sync::{mpsc, Arc};
use std::time::Duration;

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn serve_config(workers: usize, max_batch: usize) -> ServeConfig {
    ServeConfig {
        max_batch,
        queue_capacity: 256,
        workers,
        policy: OverflowPolicy::Shed,
    }
}

/// Scores `inputs` through a live server shaped by `config`, submitted
/// round-robin from `submitters` threads, and asserts every response
/// matches the offline batch path bitwise. A reply that never arrives (a
/// lost wake-up in the batcher) fails the test instead of hanging it.
fn assert_served_matches_offline(config: ServeConfig, submitters: usize, input_seeds: &[u64]) {
    let system = common::shared_system();
    let inputs: Arc<Vec<_>> = Arc::new(
        input_seeds
            .iter()
            .map(|&s| common::sample_input(common::SYMBOLS, s))
            .collect(),
    );
    let workers = config.workers;

    let server = Server::builder()
        .model(DEFAULT_MODEL, system.clone())
        .config(config)
        .start();
    let stream = server.registry().current().stream;
    let (tx, rx) = mpsc::channel();
    let threads: Vec<_> = (0..submitters)
        .map(|t| {
            let (client, inputs, tx) = (server.client(), inputs.clone(), tx.clone());
            std::thread::spawn(move || {
                let tickets: Vec<_> = (t..inputs.len())
                    .step_by(submitters)
                    .map(|i| {
                        let request = ScoreRequest {
                            id: i as u64,
                            sample_index: i as u64,
                            input: inputs[i].clone(),
                            deadline: None,
                        };
                        (i, client.submit(request).expect("admitted"))
                    })
                    .collect();
                for (i, ticket) in tickets {
                    tx.send((i, ticket.wait().expect("scored")))
                        .expect("test waits");
                }
            })
        })
        .collect();
    let mut served = vec![None; inputs.len()];
    for _ in 0..inputs.len() {
        let (i, response) = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("every ticket resolves: no wake-up was lost");
        served[i] = Some(response);
    }
    for thread in threads {
        thread.join().expect("submitter");
    }
    server.shutdown();

    // The offline reference: one deterministic batch over the same
    // stream, exactly what `eval` would compute.
    let offline = system
        .engine()
        .batch_with(&inputs, system.config.seed, stream, |rng| {
            system.default_conditions(common::SYMBOLS, rng)
        });

    for (i, response) in served.into_iter().enumerate() {
        let response = response.expect("collected above");
        assert_eq!(response.id, i as u64);
        assert_eq!(
            response.predicted, offline[i].predicted,
            "prediction diverged at sample {i} with {workers} workers"
        );
        assert_eq!(
            response.scores, offline[i].scores,
            "scores diverged bitwise at sample {i} with {workers} workers"
        );
    }
}

#[test]
fn served_scores_equal_offline_across_1_2_and_4_workers() {
    let input_seeds: Vec<u64> = (0..12).collect();
    for workers in WORKER_COUNTS {
        assert_served_matches_offline(serve_config(workers, 4), 1, &input_seeds);
    }
}

#[test]
fn blocked_submitters_and_idle_workers_are_always_woken() {
    // A two-slot queue under four blocking submitters keeps both sides
    // parking and waking: every dequeue must wake a blocked submitter,
    // and every push must wake an idle worker.
    let config = ServeConfig {
        max_batch: 8,
        queue_capacity: 2,
        workers: 2,
        policy: OverflowPolicy::Block,
    };
    let input_seeds: Vec<u64> = (0..2000).collect();
    assert_served_matches_offline(config, 4, &input_seeds);
}

proptest! {
    #[test]
    fn served_scores_equal_offline_under_random_shapes(
        worker_choice in 0usize..3,
        max_batch in 1usize..9,
        n_requests in 1usize..10,
        seed_base in 0u64..1000,
    ) {
        let input_seeds: Vec<u64> =
            (0..n_requests as u64).map(|i| seed_base.wrapping_add(i)).collect();
        let config = serve_config(WORKER_COUNTS[worker_choice], max_batch);
        assert_served_matches_offline(config, 1, &input_seeds);
    }
}
