//! Whole-system differential: a random program run on [`System`] — the
//! DBT translating its hot loop, the CGRA executing the configurations at
//! whatever pivots the policy picks — must leave exactly the architectural
//! state of a plain GPP run ([`run_gpp_only`]): every register, the data
//! buffer the program loads from and stores to, and the exit. Checked
//! under every policy family on a uniform, a heterogeneous and a faulted
//! fabric (DESIGN.md §10, §15). The random loop programs come from
//! `common`.

mod common;

use cgra::{Fabric, FabricSpec, FaultMask};
use common::{any_step, program, DATA_BASE, DATA_BYTES};
use proptest::prelude::*;
use rv32::isa::Reg;
use transrec::{run_gpp_only, System, SystemConfig};
use uaware::PolicySpec;

const POLICIES: [&str; 5] = ["baseline", "rotation", "random", "health-aware", "exact"];

/// The three fabrics every program runs on: the paper's uniform BE, a
/// heterogeneous checkerboard, and BE with dead FUs — the baseline's only
/// pivot among them — that degrade to the GPP instead of failing.
fn configs() -> Vec<(&'static str, SystemConfig)> {
    let het = "4x8:het-checker".parse::<FabricSpec>().unwrap().build().unwrap();
    let mut faulted = SystemConfig::new(Fabric::be());
    let mut mask = FaultMask::healthy(&faulted.fabric);
    for (row, col) in [(0, 0), (1, 3), (0, 9)] {
        mask.mark_dead(row, col);
    }
    faulted.faults = Some(mask);
    faulted.fault_fallback = true;
    vec![
        ("be", SystemConfig::new(Fabric::be())),
        ("4x8:het-checker", SystemConfig::new(het)),
        ("be+faults", faulted),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_policy_and_fabric_matches_the_gpp(
        body in proptest::collection::vec(any_step(), 1..24),
        iterations in 8u32..40,
        seed in any::<u32>(),
    ) {
        let program = program(&body, iterations, seed);
        for (fabric, config) in configs() {
            let gpp = run_gpp_only(&program, config.mem_size, config.timing, config.max_steps)
                .expect("the GPP runs the program");
            for policy in POLICIES {
                let spec: PolicySpec = policy.parse().unwrap();
                let mut system = System::new(config.clone(), spec.build());
                let exit = system.run(&program);
                prop_assert!(exit.is_ok(), "{policy} on {fabric}: {exit:?}");
                prop_assert_eq!(exit.ok(), gpp.exit(), "{} on {}: exit", policy, fabric);
                let cpu = system.cpu();
                for reg in Reg::all() {
                    prop_assert_eq!(cpu.reg(reg), gpp.reg(reg), "{} on {}: {}", policy, fabric, reg);
                }
                for addr in DATA_BASE..DATA_BASE + DATA_BYTES {
                    prop_assert_eq!(
                        cpu.mem.read_u8(addr).unwrap(),
                        gpp.mem.read_u8(addr).unwrap(),
                        "{} on {}: data byte {:#x}", policy, fabric, addr
                    );
                }
            }
        }
    }
}
