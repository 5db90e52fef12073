//! The retention rule of snapshot aggregation: only instructions with a
//! pointer operand keep dynamic instances. The rule loses nothing only
//! while every event a diagnosis can name has a pointer operand, so the
//! corpus's ground-truth targets are pinned here, together with the
//! bytes a processed `mysql-3596` trace keeps.

use lazy_diagnosis::snorlax::patterns::access_kind;
use lazy_diagnosis::snorlax::processing::process_snapshot;
use lazy_diagnosis::snorlax::{CollectionClient, DiagnosisServer, ServerConfig};
use lazy_diagnosis::trace::ExecIndex;
use lazy_diagnosis::vm::VmConfig;
use lazy_workloads::{all_scenarios, scenario_by_id};

/// Every root cause a scenario expects is a set of loads, stores,
/// frees and lock operations; a target without a pointer operand would
/// keep no instances and could never be diagnosed.
#[test]
fn every_target_pc_has_a_pointer_operand() {
    let scenarios = all_scenarios();
    assert_eq!(scenarios.len(), 54, "the whole corpus");
    for s in &scenarios {
        assert!(!s.targets.is_empty(), "{}: no targets", s.id);
        for &pc in &s.targets {
            let inst = s
                .module
                .inst(pc)
                .unwrap_or_else(|| panic!("{}: target {pc} is no instruction", s.id));
            assert!(
                inst.kind.pointer_operand().is_some(),
                "{}: target {pc} ({}) has no pointer operand",
                s.id,
                s.module.describe_pc(pc)
            );
        }
    }
}

/// Pattern events are built from [`access_kind`]; over every corpus
/// instruction it accepts exactly the instructions with a pointer
/// operand, the ones that keep instances.
#[test]
fn access_kinds_are_exactly_the_pointer_operand_instructions() {
    for s in all_scenarios() {
        for (inst, _) in s.module.all_insts() {
            assert_eq!(
                access_kind(&inst.kind).is_some(),
                inst.kind.pointer_operand().is_some(),
                "{}: {} ({})",
                s.id,
                inst.pc,
                s.module.describe_pc(inst.pc)
            );
        }
    }
}

/// One fixed-seed `mysql-3596` report (1 failing and 10 successful
/// snapshots): each processed trace keeps at most 100,000 bytes. When
/// every executed instruction kept instances, a trace kept ~224 kB.
#[test]
fn mysql_3596_traces_keep_at_most_100_kb() {
    let s = scenario_by_id("mysql-3596").unwrap();
    let cfg = ServerConfig::default();
    let server = DiagnosisServer::new(&s.module, cfg.clone());
    let report = CollectionClient::new(&server, VmConfig::default())
        .collect(0, 500, 10, 0)
        .expect("mysql-3596 manifests");
    assert!(!report.failing.is_empty() && report.successful.len() == 10);
    let index = ExecIndex::build(&s.module);
    for (k, snap) in report.failing.iter().chain(&report.successful).enumerate() {
        let trace = process_snapshot(&s.module, &index, &cfg.trace, snap).unwrap();
        assert!(trace.event_count > 0, "trace {k} decoded nothing");
        assert!(
            trace.retained_bytes() <= 100_000,
            "trace {k} keeps {} bytes",
            trace.retained_bytes()
        );
    }
}
