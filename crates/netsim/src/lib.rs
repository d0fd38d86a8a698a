//! # netsim — the simulated network substrate
//!
//! The NPSS prototype ran across local Ethernets, multi-gateway building
//! networks, and Internet links between NASA Lewis Research Center and The
//! University of Arizona. This crate replaces those physical networks with
//! an in-process simulation that preserves their *cost structure*:
//!
//! * a [`Topology`] of hosts, subnet switches, and
//!   gateway routers connected by links with latency and bandwidth;
//! * shortest-path routing and store-and-forward transfer-time accounting;
//! * a reliable, ordered [`transport`] over per-endpoint mailboxes, where
//!   every message carries the **virtual time** at which it arrives;
//! * optional [`link`] batching, one switch ([`LinkConfig`]): call
//!   requests between a pair of hosts coalesce into checksummed frames
//!   that pay the route latency once, under fixed flush thresholds;
//! * failure injection: hosts can go down, links can be removed, sites can
//!   be partitioned.
//!
//! Virtual time ([`time::VirtualClock`]) is advanced by communication and
//! computation costs instead of by sleeping, so experiments that simulate
//! wide-area latencies still run in milliseconds of wall-clock time while
//! reporting wide-area numbers.

pub mod faults;
pub mod link;
pub mod metrics;
pub mod sites;
pub mod time;
pub mod topology;
pub mod transport;

pub use faults::FaultPlan;
pub use link::{FrameError, LinkConfig};
pub use metrics::{Histogram, MetricsRegistry};
pub use sites::{npss_testbed, replica_of, HostSpec, Site};
pub use time::VirtualClock;
pub use topology::{Link, NodeId, NodeKind, Topology};
pub use transport::{Endpoint, Envelope, FlushRecord, NetError, Network, Route};
