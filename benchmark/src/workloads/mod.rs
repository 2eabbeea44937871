//! The six workloads. Their names are permanent: later issues cite them.

pub mod compile;
pub mod search;
pub mod serve;
pub mod sim;
pub mod suite;
