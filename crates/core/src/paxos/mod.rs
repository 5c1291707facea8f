//! The Paxos family: traditional Paxos (§2 baseline), the paper's modified
//! **session Paxos** (§4, the headline algorithm), a multi-instance
//! replicated-log layer, and the sharded log group that runs `S`
//! independent logs per process for horizontal write scaling.

pub mod admitted;
pub mod group;
mod log_session;
pub mod messages;
pub mod multi;
pub mod session;
pub mod slotlog;
pub mod state;
pub mod traditional;
