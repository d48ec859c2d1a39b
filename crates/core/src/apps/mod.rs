//! Built-in control applications.
//!
//! Each app is a small, self-contained policy over the northbound API —
//! the PRAN programmability demonstration — and implements one of its two
//! hooks: [`FailoverApp`] acts on a server failure, the others at the end
//! of each epoch. They compose: a production deployment installs
//! [`FailoverApp`] + [`ConsolidationApp`] + [`LoadBalancerApp`] +
//! [`SpectrumApp`] and each stays in its lane because all effects flow
//! through validated [`crate::api::Action`]s.

mod failover;
mod load_balancer;
mod pooling;
mod spectrum;

pub use failover::FailoverApp;
pub use load_balancer::LoadBalancerApp;
pub use pooling::ConsolidationApp;
pub use spectrum::SpectrumApp;
