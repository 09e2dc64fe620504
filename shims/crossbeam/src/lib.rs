//! Offline stand-in for `crossbeam`: the [`channel`] module's
//! multi-producer multi-consumer queues (the slice of
//! `crossbeam-channel` the telemetry worker pool and the assessment
//! service use).

#![deny(missing_docs)]

pub mod channel;
