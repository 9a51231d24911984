//! Geometric RF propagation simulator.
//!
//! The MetaAI paper evaluates its prototype in real rooms with real radios.
//! This crate is the substitute substrate: a complex-baseband, symbol-level
//! propagation model with
//!
//! * free-space path loss and phase delay ([`pathloss`]),
//! * 3-D placement geometry ([`geometry`]),
//! * antenna patterns — directional vs omni ([`antenna`]),
//! * tapped static multipath with per-environment richness presets
//!   ([`environment`]),
//! * AWGN and oscillator phase noise ([`noise`]),
//! * temporally correlated (Gauss–Markov) fading processes ([`fading`]),
//! * dynamic interference from a walking person, including LoS blockage
//!   ([`interference`]), and
//! * wall penetration loss for cross-room links ([`walls`]).
//!
//! Everything the over-the-air computation cares about — how the
//! environmental channel `H_e(t)` behaves relative to the metasurface path —
//! is captured at the level of per-symbol complex gains, which is exactly
//! the granularity of the receiver's accumulation (Eqn 3 of the paper).

pub mod antenna;
pub mod environment;
pub mod fading;
pub mod geometry;
pub mod interference;
pub mod noise;
pub mod pathloss;
pub mod walls;

pub use antenna::AntennaPattern;
pub use environment::{EnvChannel, Environment, EnvironmentKind, EnvironmentModel};
pub use geometry::Point3;
pub use interference::{InterferenceRegion, Interferer};
pub use noise::Awgn;
