//! A replay of the set-up a workload's experiments do before their first
//! simulated cycle, through the same public constructors they call: suite
//! assembly (`SuiteSpec::workloads`), sweep, serving and fleet plans
//! (`SweepPlan::cells`, `ServePlan`, `FleetPlan`), and worker-pool start.
//! The experiment functions build all of this again inside the timed run,
//! so `wall_s` includes it; the replay times it on its own so that work
//! moved into set-up shows in `setup_s`. `gap`'s seeded fault masks are
//! built by a private function of `bench` and are not replayed.

use std::time::Instant;

use bench::ExperimentContext;
use cgra::{Fabric, FabricSpec};
use threadpool::ThreadPool;
use transrec::fleet::FleetPlan;
use transrec::telemetry::ProbeSpec;
use transrec::traffic::ServePlan;
use transrec::{SuiteSpec, SweepPlan, SystemConfig};
use uaware::{derive_cell_seed, PolicySpec};

use crate::workloads::{Workload, FLEET_DEVICES, FLEET_LANES, SERVE_DAYS, SERVE_DEVICES};

/// One set-up pass, split by part, in seconds.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct SetupTimes {
    /// Assembling every suite lane the workload simulates.
    pub suite_build_s: f64,
    /// Building the workload's plans and cells.
    pub plan_s: f64,
    /// Starting and joining the worker pool.
    pub pool_s: f64,
}

impl SetupTimes {
    /// The whole pass.
    pub fn total_s(&self) -> f64 {
        self.suite_build_s + self.plan_s + self.pool_s
    }
}

/// Suite lanes a workload simulates.
fn lanes(workload: Workload) -> usize {
    match workload {
        Workload::Paper | Workload::Constrained => 1,
        Workload::Serving => bench::default_serve_lanes(SERVE_DEVICES),
        Workload::Fleet => FLEET_LANES,
    }
}

/// The baseline followed by the context's policy series.
pub fn lineup(ctx: &ExperimentContext) -> Vec<PolicySpec> {
    std::iter::once(PolicySpec::Baseline).chain(ctx.policies.iter().copied()).collect()
}

fn build(spec: &FabricSpec) -> Fabric {
    spec.build().unwrap_or_else(|e| panic!("benchmark fabric {spec} does not build: {e}"))
}

/// Builds the workload's plans and returns how many cells they hold.
fn plans(workload: Workload, ctx: &ExperimentContext) -> usize {
    let specs = lineup(ctx);
    let sweep = |fabrics: Vec<Fabric>, policies: Vec<PolicySpec>, probes: &[ProbeSpec]| {
        let mut plan = SweepPlan::new(ctx.seed)
            .energy(ctx.energy)
            .policies(policies)
            .probes(probes.iter().copied());
        for fabric in fabrics {
            plan = plan.fabric(fabric);
        }
        plan.cells().len()
    };
    match workload {
        Workload::Paper => {
            let scenarios: Vec<Fabric> = transrec::SCENARIOS.iter().map(|s| s.fabric()).collect();
            let grid = transrec::dse_grid().iter().map(|&(l, w)| Fabric::new(w, l)).collect();
            sweep(vec![Fabric::fig1()], vec![PolicySpec::Baseline], &[])
                + sweep(grid, vec![PolicySpec::Baseline], &[])
                + sweep(vec![Fabric::be()], vec![PolicySpec::Baseline, ctx.proposed()], &[])
                + sweep(
                    scenarios.clone(),
                    specs.clone(),
                    &[ProbeSpec::util_trace(ctx.epoch_cycles)],
                )
                + sweep(scenarios, specs, &[])
                + sweep(vec![Fabric::be()], vec![PolicySpec::Baseline, PolicySpec::rotation()], &[])
        }
        Workload::Constrained => {
            let layouts = bench::default_layouts().iter().map(build).collect();
            let mut cells = sweep(layouts, specs.clone(), &[]);
            let mut plan = SweepPlan::new(ctx.seed).energy(ctx.energy).policies(specs);
            for layout in bench::default_gap_layouts() {
                let fabric = build(&layout);
                for _ in bench::default_gap_densities() {
                    let mut config = SystemConfig::new(fabric);
                    config.fault_fallback = true;
                    plan = plan.config(config);
                }
            }
            cells += plan.cells().len();
            cells
        }
        Workload::Serving => {
            let plan = ServePlan::new(ctx.seed, Fabric::be())
                .policies(specs)
                .devices(SERVE_DEVICES)
                .aging(ctx.aging)
                .lanes(lanes(workload))
                .horizon_days(SERVE_DAYS);
            plan.policies.len() * plan.traffic.len() * plan.devices
        }
        Workload::Fleet => {
            let plan = FleetPlan::new(ctx.seed, Fabric::be())
                .policies(specs)
                .devices(FLEET_DEVICES)
                .aging(ctx.aging)
                .lanes(FLEET_LANES);
            plan.effective_lanes()
        }
    }
}

/// Times one set-up pass of `workload`.
pub fn measure(workload: Workload, ctx: &ExperimentContext) -> SetupTimes {
    let t = Instant::now();
    let suites: Vec<_> = (0..lanes(workload))
        .map(|lane| SuiteSpec::full().workloads(derive_cell_seed(ctx.seed, lane as u64)))
        .collect();
    let suite_build_s = t.elapsed().as_secs_f64();
    assert!(suites.iter().all(|s| !s.is_empty()), "every suite lane holds kernels");

    let t = Instant::now();
    let cells = plans(workload, ctx);
    let plan_s = t.elapsed().as_secs_f64();
    assert!(cells > 0, "every workload plans some cells");

    let t = Instant::now();
    let workers = ctx.jobs.max(1);
    let started = ThreadPool::new(workers).par_map((0..workers).collect(), |_, i| i);
    let pool_s = t.elapsed().as_secs_f64();
    assert_eq!(started.len(), workers);
    SetupTimes { suite_build_s, plan_s, pool_s }
}
