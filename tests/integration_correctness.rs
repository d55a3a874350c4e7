//! End-to-end correctness: every benchmark, executed through the full
//! GPP + DBT + CGRA system under every allocation policy, must produce
//! bit-exactly the results of its native Rust oracle.

use cgra::Fabric;
use transrec::{System, SystemConfig};
use uaware::PolicySpec;

fn policies() -> Vec<PolicySpec> {
    vec![PolicySpec::Baseline, PolicySpec::rotation(), PolicySpec::Random { seed: 99 }]
}

#[test]
fn suite_verifies_under_every_policy_on_be() {
    let workloads = mibench::suite(2026);
    for spec in policies() {
        for w in &workloads {
            let mut sys = System::with_spec(SystemConfig::new(Fabric::be()), spec).unwrap();
            sys.run(w.program()).unwrap_or_else(|e| panic!("{}/{spec}: {e}", w.name()));
            w.verify(sys.cpu()).unwrap_or_else(|e| panic!("policy {spec}: {e}"));
            assert!(sys.stats().offloads > 0, "{}/{spec}: nothing offloaded", w.name());
        }
    }
}

#[test]
fn suite_verifies_on_all_scenarios() {
    let workloads = mibench::suite(7);
    for scenario in transrec::SCENARIOS {
        for w in &workloads {
            let mut sys =
                System::with_spec(SystemConfig::new(scenario.fabric()), PolicySpec::rotation())
                    .unwrap();
            sys.run(w.program()).unwrap_or_else(|e| panic!("{}/{}: {e}", w.name(), scenario.name));
            w.verify(sys.cpu()).unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        }
    }
}

#[test]
fn health_aware_policy_is_also_correct() {
    // The oracle-scanning policy is the slowest; one benchmark suffices.
    let w = &mibench::suite(3)[1]; // crc32
    let mut sys =
        System::with_spec(SystemConfig::new(Fabric::be()), PolicySpec::HealthAware).unwrap();
    sys.run(w.program()).unwrap();
    w.verify(sys.cpu()).unwrap();
}

#[test]
fn system_matches_gpp_architectural_state() {
    // Not just the oracle regions: the whole data segment must match the
    // plain interpreter after the run.
    let cfg = SystemConfig::new(Fabric::bp());
    for w in mibench::suite(11) {
        let gpp =
            transrec::run_gpp_only(w.program(), cfg.mem_size, cfg.timing, cfg.max_steps).unwrap();
        let mut sys = System::with_spec(cfg.clone(), PolicySpec::rotation()).unwrap();
        sys.run(w.program()).unwrap();
        let base = w.program().data_base;
        let len = (w.program().data.len() as u32).max(4);
        assert_eq!(
            gpp.mem.read_bytes(base, len).unwrap(),
            sys.cpu().mem.read_bytes(base, len).unwrap(),
            "data segment differs for {}",
            w.name()
        );
    }
}

#[test]
fn offload_heuristic_never_changes_results() {
    let w = &mibench::suite(5)[3]; // qsort (branchy: exercises mixed execution)
    let run = |heuristic: bool| {
        let config =
            SystemConfig { offload_heuristic: heuristic, ..SystemConfig::new(Fabric::be()) };
        let mut sys = System::with_spec(config, PolicySpec::Baseline).unwrap();
        sys.run(w.program()).unwrap();
        w.verify(sys.cpu()).unwrap();
        sys.cpu().retired() + sys.stats().offloaded_instrs
    };
    // Both modes verify; instruction totals are identical work.
    let with = run(true);
    let without = run(false);
    assert_eq!(with, without, "same dynamic instruction stream either way");
}
