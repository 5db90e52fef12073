//! Table 4: Snorlax's server-side analysis time per received trace and
//! its speedup over the same static analysis without the control-flow
//! trace (whole-program points-to).
//!
//! The paper reports seconds-scale times on real systems and a 24×
//! geometric-mean speedup that grows with program size. Here the
//! programs are model systems whose never-executed code mass scales
//! with the real system's KLOC, so the *shape* — bigger system, bigger
//! speedup — is the reproduction target.

use lazy_analysis::PointsTo;
use lazy_bench::{collect_for, server_for, stats};
use lazy_ir::Pc;
use lazy_workloads::systems::eval_scenarios;
use std::collections::HashSet;
use std::time::Instant;

fn main() {
    println!("Table 4: scoped (hybrid) points-to vs whole-program static analysis,");
    println!("plus the end-to-end server analysis time per received trace set");
    println!(
        "{:<22}{:>8}{:>8}{:>13}{:>13}{:>9}{:>13}",
        "bug", "static", "exec", "scoped (µs)", "whole (µs)", "speedup", "pipeline (µs)"
    );
    let mut speedups = Vec::new();
    let mut pipeline_times = Vec::new();
    for s in eval_scenarios() {
        let server = server_for(&s);
        let col = collect_for(&server, 600);
        // End-to-end pipeline time (the paper's "analysis time" column).
        let t0 = Instant::now();
        let d = server
            .diagnose(&col.failure, &col.failing, &col.successful)
            .expect("diagnosis");
        let pipeline_us = t0.elapsed().as_micros() as f64;
        pipeline_times.push(pipeline_us);
        // Isolate the points-to component: scope-restricted vs the same
        // analysis over the whole program (averaged for stability).
        let executed: HashSet<Pc> = {
            let pt = server.process(&col.failing[0]).expect("decode");
            let mut e: HashSet<Pc> = pt.executed.into_iter().collect();
            for snap in &col.successful {
                if let Ok(t) = server.process(snap) {
                    e.extend(t.executed);
                }
            }
            e
        };
        let time_of = |f: &dyn Fn()| {
            let mut us = Vec::new();
            for _ in 0..5 {
                let t = Instant::now();
                f();
                us.push(t.elapsed().as_micros() as f64);
            }
            stats::mean(&us)
        };
        let scoped_us = time_of(&|| {
            let _ = PointsTo::analyze_scoped(&s.module, &executed);
        });
        let whole_us = time_of(&|| {
            let _ = PointsTo::analyze(&s.module);
        });
        let speedup = whole_us / scoped_us.max(1.0);
        speedups.push(speedup);
        println!(
            "{:<22}{:>8}{:>8}{:>13.0}{:>13.0}{:>8.1}x{:>13.0}",
            s.id,
            d.stats.static_insts,
            executed.len(),
            scoped_us,
            whole_us,
            speedup,
            pipeline_us
        );
    }
    println!("--");
    println!(
        "geomean points-to speedup: {:.1}x (paper: 24x on production-size binaries);",
        stats::geomean(&speedups)
    );
    println!(
        "avg end-to-end server analysis per trace set: {:.1} ms (paper: 2.5 s at real scale)",
        stats::mean(&pipeline_times) / 1000.0
    );
}
