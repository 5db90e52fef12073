//! Trace statistics.
//!
//! The paper reports per-thread averages for its evaluation: 6764 control
//! events, 6695 timing packets, and timing packets occupying ~49% of the
//! trace buffer (§5, §6). These counters make the same quantities
//! observable in the reproduction (regenerated by the `tracestats`
//! harness binary).

/// Counters accumulated by an [`Encoder`](crate::encoder::Encoder).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceStats {
    /// Control-flow events recorded (branch outcomes, indirect
    /// transfers).
    pub control_events: u64,
    /// Control packets written (TNT packets count once even when packed).
    pub control_packets: u64,
    /// Timing packets written (TSC/MTC/CYC).
    pub timing_packets: u64,
    /// Bytes of timing packets.
    pub timing_bytes: u64,
    /// Sync packets written (PSB/OVF).
    pub sync_packets: u64,
    /// Total bytes written.
    pub bytes: u64,
    /// `CYC` deltas the decoder discarded because they arrived before
    /// any time anchor (`TSC`/`MTC`) — time silently lost at the head
    /// of a wrapped buffer or after corruption. Zero at encode time;
    /// filled in by the decode pipeline.
    pub cyc_dropped: u64,
}

impl TraceStats {
    /// Fraction of the written bytes occupied by timing packets.
    pub fn timing_share(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.timing_bytes as f64 / self.bytes as f64
        }
    }

    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: &TraceStats) {
        self.control_events += other.control_events;
        self.control_packets += other.control_packets;
        self.timing_packets += other.timing_packets;
        self.timing_bytes += other.timing_bytes;
        self.sync_packets += other.sync_packets;
        self.bytes += other.bytes;
        self.cyc_dropped += other.cyc_dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_share_handles_empty() {
        assert_eq!(TraceStats::default().timing_share(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TraceStats {
            control_events: 1,
            bytes: 10,
            timing_bytes: 5,
            ..Default::default()
        };
        let b = TraceStats {
            control_events: 2,
            bytes: 30,
            timing_bytes: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.control_events, 3);
        assert_eq!(a.bytes, 40);
        assert_eq!(a.timing_share(), 0.25);
    }
}
