//! End-to-end and per-layer benchmark of the tq serving stack.
//!
//! A run sets up a durable store (in a child process, so the serving
//! process's peak memory is the serving engine's), starts a server the way
//! `tqd` does — `Engine::open_with`, `warm`, `Server::start` — and drives
//! it over loopback `tq-net` with the workload's traffic, then writes,
//! crashes and recovers it. Every answer is checked bit for bit against
//! the same query run in process. See `perfbench/README.md`.

pub mod data;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
