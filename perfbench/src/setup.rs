//! Building what a workload runs against: seeded datasets, trained and
//! deployed systems, and an in-process `metaai-serve` server on a
//! loopback port. Every call into a layer is wrapped in a trace span.

use crate::cpu::{check_tenant_name, ACCEPT_THREAD};
use crate::trace::span;
use metaai::pipeline::MetaAiSystem;
use metaai::SystemConfig;
use metaai_datasets::{generate, DatasetId, Scale};
use metaai_nn::augment::Augmentation;
use metaai_nn::data::ComplexDataset;
use metaai_nn::engine::TrainEngine;
use metaai_nn::train::TrainConfig;
use metaai_serve::tcp::{self, TcpClient};
use metaai_serve::wire::{Request, Response};
use metaai_serve::{Client, ModelEntry, ServeConfig, Server};
use metaai_sim::train_stack;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Training epochs for every tenant (quick-scale datasets).
const EPOCHS: usize = 25;

/// Set-ups per run; `setup_s` is their median.
const REPEATS: usize = 5;

/// Scoring workers per tenant: one per core of the 2-core reference host,
/// fixed so the server shape does not follow the host.
pub const WORKERS: usize = 2;

/// One deployment the benchmark serves or scores.
#[derive(Clone, Copy, Debug)]
pub struct TenantSpec {
    /// Registry name; also names the tenant's worker threads.
    pub name: &'static str,
    pub dataset: DatasetId,
    /// Metasurface layers (1 = the paper's single surface).
    pub layers: usize,
    /// Added to the run seed, so tenants of one run differ.
    pub seed_offset: u64,
}

/// A trained, deployed tenant with its held-out test set.
pub struct Tenant {
    pub spec: TenantSpec,
    pub system: Arc<MetaAiSystem>,
    pub test: ComplexDataset,
}

/// Generates, trains and deploys one tenant (quick scale).
pub fn tenant(spec: TenantSpec, seed: u64) -> Tenant {
    let seed = seed.wrapping_add(spec.seed_offset);
    let config = SystemConfig {
        seed,
        ..SystemConfig::paper_default()
    };
    let (train, test) = span("datasets.generate", 1, || {
        generate(spec.dataset, Scale::Quick, seed).modulate(config.modulation)
    });
    let tcfg = TrainConfig {
        epochs: EPOCHS,
        seed,
        ..TrainConfig::default()
    }
    .with_augmentation(Augmentation::cdfa_default())
    .with_augmentation(Augmentation::noise_default());
    let builder = MetaAiSystem::builder().config(config).layers(spec.layers);
    // The two branches of `SystemBuilder::train_and_deploy`, split so
    // training and deployment get spans of their own.
    let system = if spec.layers == 1 {
        let net = span("nn.train", 1, || TrainEngine::new(tcfg).train(&train));
        span("mapper.deploy", 1, || builder.deploy(net))
    } else {
        let weights = span("sim.train", 1, || train_stack(&train, spec.layers, &tcfg));
        span("sim.deploy", 1, || builder.deploy_stack(weights))
    };
    Tenant {
        spec,
        system: Arc::new(system),
        test,
    }
}

/// A server started on an ephemeral loopback port, its accept loop on a
/// thread of its own.
pub struct Live {
    pub addr: SocketAddr,
    /// Registry entries in registration order (wire id = index).
    pub entries: Vec<Arc<ModelEntry>>,
    /// In-process handles, parallel to `entries`.
    pub clients: Vec<Client>,
    thread: JoinHandle<std::io::Result<()>>,
}

/// Registers `tenants` (first = default model) and starts serving.
pub fn start_server(tenants: &[Tenant]) -> Result<Live, String> {
    span("server.start", 1, || {
        let mut builder = Server::builder().config(ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        });
        for t in tenants {
            check_tenant_name(t.spec.name)?;
            builder = builder.model(t.spec.name, t.system.clone());
        }
        let server = builder.start();
        let entries = server.registry().entries().to_vec();
        let clients = tenants
            .iter()
            .map(|t| server.client_for(t.spec.name).expect("registered above"))
            .collect();
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let thread = std::thread::Builder::new()
            .name(ACCEPT_THREAD.to_string())
            .spawn(move || tcp::serve(listener, server))
            .map_err(|e| format!("spawn accept loop: {e}"))?;
        Ok(Live {
            addr,
            entries,
            clients,
            thread,
        })
    })
}

impl Live {
    /// Sends SHUTDOWN, waits for the drain ack, and joins the accept
    /// loop (which joins every server thread).
    pub fn shutdown(self) -> Result<(), String> {
        let acked = (|| -> std::io::Result<()> {
            let mut client = TcpClient::connect(self.addr)?;
            client.send(&Request::Shutdown)?;
            while let Some(reply) = client.recv()? {
                if matches!(reply, Response::ShutdownAck) {
                    break;
                }
            }
            Ok(())
        })();
        let joined = self.thread.join();
        acked.map_err(|e| format!("shutdown: {e}"))?;
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("serve loop failed: {e}")),
            Err(_) => Err("serve loop panicked".to_string()),
        }
    }
}

/// What a workload runs against.
pub struct Setup {
    pub tenants: Vec<Tenant>,
    /// The server, when the workload serves.
    pub live: Option<Live>,
    /// Wall-clock seconds of each repeat.
    pub seconds: Vec<f64>,
}

/// Builds `specs` and optionally a server for them [`REPEATS`] times,
/// timing each build; keeps the last build and shuts the others down.
/// Every repeat must deploy bitwise-identical channels, since set-up is
/// a pure function of the seed.
pub fn repeated(specs: &[TenantSpec], seed: u64, serve: bool) -> Result<Setup, String> {
    let mut seconds = Vec::with_capacity(REPEATS);
    let mut kept: Option<(Vec<Tenant>, Option<Live>)> = None;
    for _ in 0..REPEATS {
        let started = std::time::Instant::now();
        let (tenants, live) = span("setup", 1, || -> Result<_, String> {
            let tenants: Vec<Tenant> = specs.iter().map(|&s| tenant(s, seed)).collect();
            let live = if serve {
                Some(start_server(&tenants)?)
            } else {
                None
            };
            Ok((tenants, live))
        })?;
        seconds.push(started.elapsed().as_secs_f64());
        if let Some((old, old_live)) = kept.take() {
            for (a, b) in old.iter().zip(&tenants) {
                if a.system.channels.as_slice() != b.system.channels.as_slice() {
                    return Err(format!(
                        "set-up is not deterministic: {} deployed different channels",
                        a.spec.name
                    ));
                }
            }
            if let Some(l) = old_live {
                l.shutdown()?;
            }
        }
        kept = Some((tenants, live));
    }
    let (tenants, live) = kept.expect("at least one repeat");
    Ok(Setup {
        tenants,
        live,
        seconds,
    })
}
