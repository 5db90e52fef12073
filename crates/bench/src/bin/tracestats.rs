//! §5 trace statistics: control events and timing packets per thread,
//! timing share of the buffer, and the longest gap between timing
//! packets vs the shortest inter-target-event distance (the margin that
//! makes the coarse interleaving hypothesis usable: 65 µs < 91 µs in
//! the paper).

use lazy_bench::{collect_for, server_for, stats};
use lazy_trace::{decode_thread_trace, ExecIndex, TraceConfig};
use lazy_workloads::systems::eval_scenarios;

fn main() {
    println!("§5 trace statistics (failing traces of the 11 eval bugs)");
    println!(
        "{:<22}{:>10}{:>10}{:>10}{:>12}{:>14}",
        "bug", "ctrl ev", "timing", "share %", "med w (µs)", "max w (µs)"
    );
    let mut ctrl = Vec::new();
    let mut timing = Vec::new();
    let mut shares = Vec::new();
    let mut medians = Vec::new();
    let mut max_gaps = Vec::new();
    for s in eval_scenarios() {
        let server = server_for(&s);
        let col = collect_for(&server, 600);
        let snap = &col.failing[0];
        let st = snap.total_stats();
        let threads = snap.threads.len().max(1) as u64;
        ctrl.push(st.control_events as f64 / threads as f64);
        timing.push(st.timing_packets as f64 / threads as f64);
        shares.push(100.0 * st.timing_share());
        // Attribution windows of every decoded event: the median is the
        // typical timing granularity while threads execute; the max is
        // dominated by blocking waits (a sleeping thread emits nothing,
        // on real PT too). Threads that do not decode are skipped, as
        // trace processing skips them.
        let index = ExecIndex::build(&s.module);
        let mut widths: Vec<u64> = snap
            .threads
            .iter()
            .filter_map(|t| {
                decode_thread_trace(&index, &TraceConfig::default(), &t.bytes, snap.taken_at).ok()
            })
            .flat_map(|d| d.events)
            .map(|e| e.time.hi.saturating_sub(e.time.lo))
            .collect();
        widths.sort_unstable();
        let median = widths.get(widths.len() / 2).copied().unwrap_or(0) as f64;
        let max_gap = widths.last().copied().unwrap_or(0) as f64;
        medians.push(median / 1000.0);
        max_gaps.push(max_gap / 1000.0);
        println!(
            "{:<22}{:>10.0}{:>10.0}{:>10.1}{:>12.1}{:>14.1}",
            s.id,
            st.control_events as f64 / threads as f64,
            st.timing_packets as f64 / threads as f64,
            100.0 * st.timing_share(),
            median / 1000.0,
            max_gap / 1000.0
        );
    }
    println!("--");
    println!(
        "avg per thread: {:.0} control events, {:.0} timing packets (paper: 6764 / 6695)",
        stats::mean(&ctrl),
        stats::mean(&timing)
    );
    println!(
        "avg timing share of buffer: {:.1}% (paper: ~49%)",
        stats::mean(&shares)
    );
    println!(
        "median attribution window while executing: {:.1} µs (paper's max gap: 65 µs < the 91 µs minimum inter-event distance)",
        stats::mean(&medians)
    );
    println!(
        "widest window (spans blocking waits, where PT is silent on real hardware too): {:.1} µs",
        max_gaps.iter().cloned().fold(0.0, f64::max)
    );
}
