//! The per-layer half of a traced run. Each layer is timed from outside,
//! through its public entry point, on inputs drawn from the workload's own
//! seed; the workload's traced run supplies how much work each layer did
//! (the `obs` registry counts) and the campaign phase spans (the profiler).
//! A layer's share of the traced wall is its count times its measured unit
//! cost, so the table also shows what it fails to cover.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bench::ExperimentContext;
use cgra::{Executor, Fabric, FabricSpec, FaultMask, Offset};
use dbt::membus::MemoryBus;
use dbt::{CachedConfig, Translator};
use lifetime::{FleetAccum, WearBatch};
use obs::{ProfileReport, ProfileTree, Registry};
use rv32::cpu::{Cpu, Retired};
use transrec::fleet::FleetPlan;
use transrec::telemetry::EventCtx;
use transrec::traffic::{day_traffic, probe_service_day, ServePlan, TrafficSpec};
use transrec::{run_gpp_only, Observer, SimEvent, System, SystemConfig};
use uaware::{derive_cell_seed, AllocRequest, AllocationPolicy, PolicySpec, UtilizationTracker};

use crate::host::median;
use crate::run::Metric;
use crate::setup::{self, SetupTimes};
use crate::workloads::{ModelMetric, Workload, FLEET_LANES};

/// The three workload walls of a traced run, in seconds.
#[derive(Copy, Clone, Debug)]
pub struct Walls {
    /// Untraced at `--jobs 2`.
    pub jobs2: f64,
    /// Untraced at `--jobs 1`.
    pub jobs1: f64,
    /// Profiler and registry on, at `--jobs 1`.
    pub traced: f64,
}

/// Repetitions of each replay; the reported cost is their median.
const PASSES: usize = 3;
/// Executions of each translated configuration in the cgra replay, each at
/// the next offset the policies chose.
const EXECS_PER_CONFIG: usize = 8;

/// The cost of one `Instant::now()` pair, subtracted from every
/// per-decision timing.
fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let n = 20_000;
            let t = Instant::now();
            let mut sink = Duration::ZERO;
            for _ in 0..n {
                let s = Instant::now();
                sink += s.elapsed();
            }
            std::hint::black_box(sink);
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&samples)
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// The median of `PASSES` runs of `f`, each returning a value.
fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..PASSES).map(|_| f()).collect();
    median(&v)
}

fn fabric(spec: &str) -> Fabric {
    spec.parse::<FabricSpec>()
        .map_err(|e| e.to_string())
        .and_then(|s| s.build().map_err(|e| e.to_string()))
        .unwrap_or_else(|e| panic!("probe fabric {spec} does not build: {e}"))
}

/// The probes' own fault mask: `dead` distinct cells of `fabric`, drawn
/// from `seed` by partial Fisher–Yates.
fn probe_faults(fabric: &Fabric, dead: u32, seed: u64) -> FaultMask {
    let mut mask = FaultMask::healthy(fabric);
    let total = fabric.fu_count();
    let mut cells: Vec<u32> = (0..total).collect();
    for i in 0..dead.min(total - 1) {
        let j = i + (derive_cell_seed(seed, u64::from(i)) % u64::from(total - i)) as u32;
        cells.swap(i as usize, j as usize);
        let cell = cells[i as usize];
        mask.mark_dead(cell / fabric.cols, cell % fabric.cols);
    }
    mask
}

/// The fabric configuration the layer probes run on: the paper's BE
/// fabric, or for `constrained` a bandwidth-budgeted 4×8 with 12.5% dead
/// FUs degrading to the GPP, like one of the `gap` cells.
fn probe_config(workload: Workload, seed: u64) -> SystemConfig {
    match workload {
        Workload::Constrained => {
            let fabric = fabric("4x8+bw-2");
            let mut config = SystemConfig::new(fabric);
            config.faults = Some(probe_faults(&fabric, 4, seed));
            config.fault_fallback = true;
            config
        }
        _ => SystemConfig::new(Fabric::be()),
    }
}

/// The probe fabric's geometry as `(uniform, with a column bandwidth
/// budget of 2 FUs)`.
fn tracker_fabrics(probe: &Fabric) -> (Fabric, Fabric) {
    let geometry = format!("{}x{}", probe.rows, probe.cols);
    (fabric(&geometry), fabric(&format!("{geometry}+bw-2")))
}

/// Per-policy allocation cost, accumulated by [`TimedPolicy`].
#[derive(Clone, Debug, Default)]
struct AllocCost {
    ns: f64,
    decisions: u64,
    offsets: Vec<Offset>,
}

/// Times every `next_offset` of the wrapped policy.
#[derive(Debug)]
struct TimedPolicy {
    inner: Box<dyn AllocationPolicy>,
    cost: Rc<RefCell<AllocCost>>,
    timer_ns: f64,
}

impl AllocationPolicy for TimedPolicy {
    fn next_offset(&mut self, req: &AllocRequest<'_>) -> Option<Offset> {
        let t = Instant::now();
        let offset = self.inner.next_offset(req);
        let elapsed = (ns(t.elapsed()) - self.timer_ns).max(0.0);
        let mut cost = self.cost.borrow_mut();
        cost.ns += elapsed;
        cost.decisions += 1;
        cost.offsets.extend(offset);
        offset
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn needs_movement(&self) -> bool {
        self.inner.needs_movement()
    }
}

const STEP_OFFLOAD: u8 = 1;
const STEP_INSERT: u8 = 2;

/// Marks what the current `Session::step` did, from the events it emitted.
struct StepClassifier(Rc<Cell<u8>>);

impl Observer for StepClassifier {
    fn on_event(&mut self, _ctx: &EventCtx<'_>, event: &SimEvent) {
        let bit = match event {
            SimEvent::OffloadStarted { .. } => STEP_OFFLOAD,
            SimEvent::CacheInserted { .. } => STEP_INSERT,
            _ => 0,
        };
        self.0.set(self.0.get() | bit);
    }
}

/// `Session::step` timed per decision, split by what each step did.
#[derive(Clone, Debug, Default)]
struct SessionCost {
    gpp: (f64, u64),
    offload: (f64, u64),
    insert: (f64, u64),
    instrs: u64,
}

impl SessionCost {
    fn decisions(&self) -> u64 {
        self.gpp.1 + self.offload.1 + self.insert.1
    }

    fn ns(&self) -> f64 {
        self.gpp.0 + self.offload.0 + self.insert.0
    }

    fn add(&mut self, other: &SessionCost) {
        for (a, b) in [
            (&mut self.gpp, other.gpp),
            (&mut self.offload, other.offload),
            (&mut self.insert, other.insert),
        ] {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.instrs += other.instrs;
    }
}

/// Runs the suite through `System::session` + `Session::step` under each
/// policy, timing every step and every allocation decision.
/// Only the policies in `session_policies` count towards the session cost.
fn session_probe(
    config: &SystemConfig,
    policies: &[PolicySpec],
    session_policies: &[PolicySpec],
    suite: &[mibench::Workload],
    timer_ns: f64,
) -> Result<(SessionCost, Vec<(PolicySpec, AllocCost)>), String> {
    let mut session_cost = SessionCost::default();
    let mut allocs = Vec::new();
    for spec in policies {
        let counted = session_policies.contains(spec);
        let mut steps = SessionCost::default();
        let cost = Rc::new(RefCell::new(AllocCost::default()));
        for kernel in suite {
            let policy = TimedPolicy { inner: spec.build(), cost: cost.clone(), timer_ns };
            let mut system = System::new(config.clone(), Box::new(policy));
            let step = Rc::new(Cell::new(0u8));
            system.attach_observer(Box::new(StepClassifier(step.clone())));
            let mut session = system.session(kernel.program()).map_err(|e| e.to_string())?;
            loop {
                step.set(0);
                let t = Instant::now();
                let status = session.step().map_err(|e| format!("{}: {e}", kernel.name()))?;
                let elapsed = (ns(t.elapsed()) - timer_ns).max(0.0);
                let class = if step.get() & STEP_INSERT != 0 {
                    &mut steps.insert
                } else if step.get() & STEP_OFFLOAD != 0 {
                    &mut steps.offload
                } else {
                    &mut steps.gpp
                };
                class.0 += elapsed;
                class.1 += 1;
                if !status.is_running() {
                    break;
                }
            }
            kernel.verify(system.cpu()).map_err(|e| format!("{spec} oracle: {e:?}"))?;
            steps.instrs += system.stats().total_instrs();
        }
        if counted {
            session_cost.add(&steps);
        }
        let cost = cost.borrow().clone();
        allocs.push((*spec, cost));
    }
    Ok((session_cost, allocs))
}

/// The GPP-only retired-instruction stream of one kernel and the CPU it
/// leaves behind.
fn gpp_stream(
    kernel: &mibench::Workload,
    config: &SystemConfig,
) -> Result<(Vec<Retired>, Cpu), String> {
    let mut cpu = Cpu::with_timing(config.mem_size, config.timing);
    cpu.load_program(kernel.program()).map_err(|e| e.to_string())?;
    let mut stream = Vec::new();
    while cpu.exit().is_none() {
        stream.push(cpu.step().map_err(|e| format!("{}: {e}", kernel.name()))?);
        if stream.len() as u64 > kernel.max_steps() {
            return Err(format!("{}: step limit", kernel.name()));
        }
    }
    Ok((stream, cpu))
}

/// Replays `stream` through `Translator::observe`, treating every start
/// PC already built as cached. Returns the built configurations.
fn observe(stream: &[Retired], config: &SystemConfig) -> Vec<CachedConfig> {
    let mut translator = Translator::with_params(config.fabric, config.translator);
    let mut built = HashSet::new();
    let mut configs = Vec::new();
    for retired in stream {
        for cc in translator.observe(retired, built.contains(&retired.pc)) {
            built.insert(cc.start_pc);
            configs.push(cc);
        }
    }
    configs
}

/// What the replay probes measured.
#[derive(Clone, Debug, Default)]
struct Replays {
    gpp_pass_s: f64,
    gpp_instrs: u64,
    observe_ns: f64,
    execute_ns: f64,
    executed: u64,
    exec_errors: u64,
    record_uniform_ns: f64,
    record_bw_ns: f64,
    /// Of the two, the one matching the probe fabric's budget.
    record_probe_ns: f64,
}

/// rv32, dbt, cgra and tracker replays on the suite.
fn replays(
    config: &SystemConfig,
    suite: &[mibench::Workload],
    offsets: &[Offset],
) -> Result<Replays, String> {
    let gpp_pass_s = median_of(|| {
        let t = Instant::now();
        for kernel in suite {
            let cpu =
                run_gpp_only(kernel.program(), config.mem_size, config.timing, kernel.max_steps())
                    .expect("suite kernels run GPP-only");
            std::hint::black_box(cpu.retired());
        }
        t.elapsed().as_secs_f64()
    });
    let mut streams = Vec::new();
    for kernel in suite {
        streams.push(gpp_stream(kernel, config)?);
    }
    let gpp_instrs: u64 = streams.iter().map(|(s, _)| s.len() as u64).sum();
    let mut configs: Vec<Vec<CachedConfig>> = Vec::new();
    let observe_s = median_of(|| {
        let t = Instant::now();
        configs = streams.iter().map(|(s, _)| observe(s, config)).collect();
        t.elapsed().as_secs_f64()
    });

    // Execute every translated configuration at the offsets the policies
    // chose in the session probe, against the kernel's final memory.
    let fabric = config.fabric;
    let executor = Executor::new(&fabric);
    let origin = [Offset::ORIGIN];
    let offsets = if offsets.is_empty() { &origin[..] } else { offsets };
    let mut cells: Vec<(Vec<(u32, u32)>, u32)> = Vec::new();
    let execs = configs.iter().map(Vec::len).sum::<usize>() * EXECS_PER_CONFIG;
    let (mut executed, mut exec_errors) = (0, 0);
    let execute_s = median_of(|| {
        let mut elapsed = Duration::ZERO;
        (executed, exec_errors) = (0, 0);
        cells.clear();
        let mut next = 0;
        for ((_, cpu), built) in streams.iter_mut().zip(&configs) {
            for cc in built.iter().flat_map(|cc| std::iter::repeat_n(cc, EXECS_PER_CONFIG)) {
                let inputs: Vec<u32> = cc.input_regs.iter().map(|r| cpu.reg(*r)).collect();
                // Spread the executions evenly over every policy's offsets.
                let offset = offsets[next * offsets.len() / execs.max(1)];
                next += 1;
                let t = Instant::now();
                let result = executor.execute(
                    &cc.config,
                    offset,
                    &inputs,
                    &mut MemoryBus::new(&mut cpu.mem),
                );
                match result {
                    Ok(outcome) => {
                        elapsed += t.elapsed();
                        executed += 1;
                        cells.push((outcome.active_cells, cc.config.cols_used()));
                    }
                    // A replayed configuration can address memory its
                    // recorded inputs no longer map; it is skipped.
                    Err(_) => exec_errors += 1,
                }
            }
        }
        elapsed.as_secs_f64()
    });

    let (uniform, budgeted) = tracker_fabrics(&fabric);
    let record = |fabric: &Fabric| {
        median_of(|| {
            let mut tracker = UtilizationTracker::new(fabric);
            let t = Instant::now();
            for _ in 0..20 {
                for (active, cols) in &cells {
                    tracker.record_execution(active, *cols);
                }
            }
            std::hint::black_box(tracker.executions());
            ns(t.elapsed()) / (20 * cells.len().max(1)) as f64
        })
    };
    let (record_uniform_ns, record_bw_ns) = (record(&uniform), record(&budgeted));
    Ok(Replays {
        gpp_pass_s,
        gpp_instrs,
        observe_ns: observe_s * 1e9 / gpp_instrs.max(1) as f64,
        execute_ns: execute_s * 1e9 / executed.max(1) as f64,
        executed,
        exec_errors,
        record_uniform_ns,
        record_bw_ns,
        record_probe_ns: if fabric.col_bandwidth == budgeted.col_bandwidth {
            record_bw_ns
        } else {
            record_uniform_ns
        },
    })
}

/// Every node named `name` in the profile, summed as `(self_ns, total_ns,
/// calls)`.
fn span_totals(report: &ProfileReport, name: &str) -> (u64, u64, u64) {
    fn walk(tree: &ProfileTree, name: &str, acc: &mut (u64, u64, u64)) {
        if tree.name == name {
            acc.0 += tree.self_ns;
            acc.1 += tree.total_ns;
            acc.2 += tree.calls;
        }
        for child in &tree.children {
            walk(child, name, acc);
        }
    }
    let mut acc = (0, 0, 0);
    for root in &report.roots {
        walk(root, name, &mut acc);
    }
    acc
}

/// Runs the suite under the exact oracle with the span profiler on:
/// `solve.bnb` self time per call.
fn solve_probe(config: &SystemConfig, suite: &[mibench::Workload]) -> Result<(f64, u64), String> {
    let profiler = obs::Profiler::new();
    tracing::with_default(profiler.dispatch(), || {
        for kernel in suite {
            let mut system = System::new(config.clone(), PolicySpec::Exact { every: 1 }.build());
            system.run(kernel.program()).map_err(|e| format!("{}: {e}", kernel.name()))?;
        }
        Ok::<(), String>(())
    })?;
    let (self_ns, _, calls) = span_totals(&profiler.report(), "solve.bnb");
    Ok((self_ns as f64 / calls.max(1) as f64, calls))
}

/// The suite under the baseline through `System::run`, with the metrics
/// collector off and on, alternating: the collection overhead in percent.
fn collect_overhead_pct(config: &SystemConfig, suite: &[mibench::Workload]) -> f64 {
    let run = || {
        let t = Instant::now();
        for kernel in suite {
            let mut system = System::new(config.clone(), PolicySpec::Baseline.build());
            system.run(kernel.program()).expect("the baseline runs the suite");
        }
        t.elapsed().as_secs_f64()
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..PASSES {
        off.push(run());
        on.push(obs::collect(run).0);
    }
    (median(&on) / median(&off) - 1.0) * 100.0
}

/// Traffic generation and one observed serving day.
fn traffic_probe(seed: u64, kernels: u32) -> Result<(f64, f64), String> {
    let plan = ServePlan::new(seed, Fabric::be());
    let spec = TrafficSpec::diurnal();
    let day_ns = median_of(|| {
        let t = Instant::now();
        let mut arrivals = 0usize;
        for day in 0..plan.pattern_days.max(1) {
            for lane in 0..4 {
                arrivals +=
                    day_traffic(&spec, derive_cell_seed(seed, lane), day, plan.clock_hz, kernels)
                        .len();
            }
        }
        ns(t.elapsed()) / arrivals.max(1) as f64
    });
    let t = Instant::now();
    let (day, _) = probe_service_day(&plan, &PolicySpec::rotation(), &spec, 0, 0, &[])
        .map_err(|e| e.to_string())?;
    let probe_ns = ns(t.elapsed()) / day.requests.max(1) as f64;
    Ok((day_ns, probe_ns))
}

/// `WearBatch::advance_class` per member lane and `FleetAccum::merge`.
fn wear_probe(ctx: &ExperimentContext, suite: &[mibench::Workload]) -> Result<(f64, f64), String> {
    let plan = FleetPlan::new(ctx.seed, Fabric::be()).aging(ctx.aging);
    let run = transrec::run_suite(Fabric::be(), suite, &ctx.energy, &PolicySpec::rotation())
        .map_err(|e| e.to_string())?;
    let cycles: u64 = run.benchmarks.iter().map(|b| b.system_cycles).sum();
    let duty = run.tracker.duty_cycles(cycles);
    let members: Vec<usize> = (0..FLEET_LANES).collect();
    let advance_ns = median_of(|| {
        let mut elapsed = Duration::ZERO;
        let rounds = 50;
        for _ in 0..rounds {
            let mut batch = WearBatch::new(&Fabric::be(), ctx.aging, FLEET_LANES);
            let t = Instant::now();
            for _ in 0..40 {
                std::hint::black_box(batch.advance_class(&members, &duty, plan.mission_years));
            }
            elapsed += t.elapsed();
        }
        ns(elapsed) / (rounds * 40 * FLEET_LANES) as f64
    });
    let mut part = FleetAccum::new();
    for i in 0..64u32 {
        let death = f64::from(i) * plan.horizon_years / 64.0;
        part.observe_weighted(Some(death), Some(death / 2.0), 1 + u64::from(i));
    }
    let merge_ns = median_of(|| {
        let mut acc = FleetAccum::new();
        let t = Instant::now();
        for _ in 0..2_000 {
            acc.merge(std::hint::black_box(&part));
        }
        std::hint::black_box(acc.devices());
        ns(t.elapsed()) / 2_000.0
    });
    Ok((advance_ns, merge_ns))
}

/// One layer row of the printed table.
struct Row {
    layer: &'static str,
    share_pct: f64,
    moves: &'static str,
    zero_on: &'static str,
    detail: String,
}

/// Measures every layer for `workload` and returns the per-layer metrics
/// and the printed table.
///
/// # Errors
///
/// A probe whose simulation fails or whose oracle rejects the result.
pub fn measure(
    workload: Workload,
    ctx: &ExperimentContext,
    model: &[ModelMetric],
    registry: &Registry,
    profile: &ProfileReport,
    walls: Walls,
    setups: &[SetupTimes],
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let timer_ns = timer_overhead_ns();
    let config = probe_config(workload, ctx.seed);
    let suite = ctx.suite();
    let lineup = setup::lineup(ctx);
    let mut policies = lineup.clone();
    policies.push(PolicySpec::Exact { every: 1 });
    // The session cost weighs the policies the workload itself runs; the
    // exact oracle is probed everywhere for its allocation cost.
    let session_policies = if workload == Workload::Constrained { &policies } else { &lineup };

    let (session, allocs) = session_probe(&config, &policies, session_policies, &suite, timer_ns)?;
    let offsets: Vec<Offset> = allocs.iter().flat_map(|(_, c)| c.offsets.iter().copied()).collect();
    let rep = replays(&config, &suite, &offsets)?;
    let (solve_ns, solve_probe_calls) = solve_probe(&config, &suite)?;
    let collect_pct = collect_overhead_pct(&config, &suite);
    let (day_traffic_ns, probe_day_ns) = traffic_probe(ctx.seed, suite.len() as u32)?;
    let (advance_ns, merge_ns) = wear_probe(ctx, &suite)?;

    let wall_ns = walls.traced * 1e9;
    let share = |cost_ns: f64| cost_ns / wall_ns * 100.0;
    let c = |name: &str| registry.counter(name);
    let mut m: Vec<Metric> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();

    // rv32
    let gpp_retired = c("system.gpp_retired");
    let ns_per_instr = rep.gpp_pass_s * 1e9 / rep.gpp_instrs.max(1) as f64;
    let rv32_share = share(gpp_retired as f64 * ns_per_instr);
    m.push(Metric::new("rv32.ns_per_instr", "ns", ns_per_instr));
    m.push(Metric::new("rv32.instrs", "count", gpp_retired as f64));
    m.push(Metric::new("rv32.share_pct", "%", rv32_share));
    rows.push(Row {
        layer: "rv32",
        share_pct: rv32_share,
        moves: "wall_s on paper",
        zero_on: "fleet",
        detail: format!(
            "{ns_per_instr:.2} ns/instr (run_gpp_only) x {gpp_retired} GPP-retired instrs"
        ),
    });

    // dbt
    let (calls, rejected, inserted) =
        (c("dbt.translate.calls"), c("dbt.translate.rejected"), c("dbt.cache.insert"));
    let (hits, misses) = (c("dbt.cache.hit"), c("dbt.cache.miss"));
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let dbt_share = share(gpp_retired as f64 * rep.observe_ns);
    m.push(Metric::new("dbt.observe_ns", "ns", rep.observe_ns));
    m.push(Metric::new("dbt.translate.calls", "count", calls as f64));
    m.push(Metric::new("dbt.translate.rejected", "count", rejected as f64));
    m.push(Metric::new("dbt.accept_ratio", "ratio", ratio(inserted, calls)));
    m.push(Metric::new("dbt.cache.hit_ratio", "ratio", ratio(hits, hits + misses)));
    m.push(Metric::new("dbt.share_pct", "%", dbt_share));
    rows.push(Row {
        layer: "dbt",
        share_pct: dbt_share,
        moves: "wall_s on paper, serving",
        zero_on: "fleet",
        detail: format!(
            "{:.2} ns/observe over {} replayed instrs (run: {gpp_retired} observed); \
             translate {calls} calls, {rejected} rejected, {inserted} inserted",
            rep.observe_ns, rep.gpp_instrs
        ),
    });

    // cgra
    let executions = c("system.offloads");
    let cgra_share = share(executions as f64 * rep.execute_ns);
    m.push(Metric::new("cgra.execute_ns", "ns", rep.execute_ns));
    m.push(Metric::new("cgra.executions", "count", executions as f64));
    m.push(Metric::new("cgra.bandwidth.oversub", "count", c("cgra.bandwidth.oversub") as f64));
    m.push(Metric::new("cgra.share_pct", "%", cgra_share));
    rows.push(Row {
        layer: "cgra",
        share_pct: cgra_share,
        moves: "wall_s on paper",
        zero_on: "fleet",
        detail: format!(
            "{:.1} ns/execute over {} replayed executions ({} faulted, skipped; run: {executions})",
            rep.execute_ns, rep.executed, rep.exec_errors
        ),
    });

    // uaware: allocation policies and the utilization tracker
    let mut alloc_cost_ns = 0.0;
    let mut alloc_detail = Vec::new();
    for (spec, cost) in &allocs {
        let key = match spec {
            PolicySpec::Baseline => "baseline",
            PolicySpec::Rotation { .. } if *spec != PolicySpec::rotation() => continue,
            PolicySpec::Rotation { .. } => "rotation",
            PolicySpec::Random { .. } => "random",
            PolicySpec::HealthAware => "health-aware",
            PolicySpec::Exact { .. } => "exact",
        };
        let per = cost.ns / cost.decisions.max(1) as f64;
        let run_decisions = c(&format!("alloc.{key}.decisions"));
        alloc_cost_ns += per * run_decisions as f64;
        m.push(Metric::new(format!("alloc.{key}.ns"), "ns", per));
        m.push(Metric::new(format!("alloc.{key}.decisions"), "count", run_decisions as f64));
        alloc_detail
            .push(format!("{key} {per:.0} ns ({} probe / {run_decisions} run)", cost.decisions));
    }
    let uaware_share = share(alloc_cost_ns + c("tracker.executions") as f64 * rep.record_probe_ns);
    m.push(Metric::new("tracker.record_ns.uniform", "ns", rep.record_uniform_ns));
    m.push(Metric::new("tracker.record_ns.bw2", "ns", rep.record_bw_ns));
    m.push(Metric::new("uaware.share_pct", "%", uaware_share));
    rows.push(Row {
        layer: "uaware",
        share_pct: uaware_share,
        moves: "wall_s on constrained",
        zero_on: "fleet",
        detail: format!(
            "next_offset: {}; record_execution {:.1} ns uniform, {:.1} ns +bw-2",
            alloc_detail.join(", "),
            rep.record_uniform_ns,
            rep.record_bw_ns
        ),
    });

    // solve
    let solve_calls = c("solve.calls");
    let solve_share = share(solve_calls as f64 * solve_ns);
    m.push(Metric::new("solve.ns_per_call", "ns", solve_ns));
    m.push(Metric::new("solve.calls", "count", solve_calls as f64));
    m.push(Metric::new("solve.expanded", "count", c("solve.expanded") as f64));
    m.push(Metric::new("solve.bound_cutoffs", "count", c("solve.bound_cutoffs") as f64));
    m.push(Metric::new("solve.nogoods", "count", c("solve.nogoods") as f64));
    m.push(Metric::new("solve.share_pct", "%", solve_share));
    rows.push(Row {
        layer: "solve",
        share_pct: solve_share,
        moves: "wall_s on constrained",
        zero_on: "paper (zero calls)",
        detail: format!(
            "{solve_ns:.0} ns/call solve.bnb self time ({solve_probe_calls} probe calls / \
             {solve_calls} run calls)"
        ),
    });

    // transrec::system
    let decisions = gpp_retired + executions;
    let per_decision = session.ns() / session.decisions().max(1) as f64;
    let per_class = |class: (f64, u64)| class.0 / class.1.max(1) as f64;
    let sim_mips = session.instrs as f64 / (session.ns() / 1e9) / 1e6;
    let session_share = share(decisions as f64 * per_decision);
    m.push(Metric::new("session.ns_per_decision", "ns", per_decision));
    m.push(Metric::new("session.gpp_decision_ns", "ns", per_class(session.gpp)));
    m.push(Metric::new("session.offload_decision_ns", "ns", per_class(session.offload)));
    m.push(Metric::new("session.insert_decision_ns", "ns", per_class(session.insert)));
    m.push(Metric::new("session.sim_mips", "MIPS", sim_mips));
    m.push(Metric::new("session.decisions", "count", decisions as f64));
    m.push(Metric::new("session.share_pct", "%", session_share));
    rows.push(Row {
        layer: "transrec::system",
        share_pct: session_share,
        moves: "wall_s on paper, constrained, serving",
        zero_on: "fleet (small)",
        detail: format!(
            "{per_decision:.1} ns/decision over {} probe decisions (gpp {}, offload {}, insert {}); \
             run decisions {decisions}",
            session.decisions(),
            session.gpp.1,
            session.offload.1,
            session.insert.1
        ),
    });

    // transrec::sweep + threadpool
    let sweeps = f64::from(workload.sweeps());
    let par_efficiency = walls.jobs1 / (2.0 * walls.jobs2);
    let sweep_share = share(sweeps * rep.gpp_pass_s * 1e9);
    m.push(Metric::new("sweep.gpp_reference_s", "s", rep.gpp_pass_s));
    m.push(Metric::new("pool.par_efficiency", "ratio", par_efficiency));
    m.push(Metric::new("sweep.share_pct", "%", sweep_share));
    rows.push(Row {
        layer: "transrec::sweep+threadpool",
        share_pct: sweep_share,
        moves: "wall_s and cpu_s on paper, constrained",
        zero_on: "serving",
        detail: format!(
            "GPP reference {:.4} s per suite x {sweeps} sweeps; --jobs 1 {:.3} s / (2 x --jobs 2 {:.3} s)",
            rep.gpp_pass_s, walls.jobs1, walls.jobs2
        ),
    });

    // transrec::traffic
    // Self times: a checkpoint span nests inside its phase span.
    let phase = |name: &str| span_totals(profile, name).0 as f64;
    let (trajectories, shards, checkpoint) =
        (phase("serve.trajectories"), phase("serve.shards"), phase("serve.checkpoint"));
    let arrived = c("traffic.requests.arrived");
    let traffic_share = share(trajectories + shards + checkpoint);
    m.push(Metric::new("serve.trajectories_pct", "%", share(trajectories)));
    m.push(Metric::new("serve.shards_pct", "%", share(shards)));
    m.push(Metric::new("serve.checkpoint_pct", "%", share(checkpoint)));
    m.push(Metric::new("traffic.requests", "count", arrived as f64));
    m.push(Metric::new("traffic.day_traffic_ns", "ns", day_traffic_ns));
    m.push(Metric::new("traffic.probe_day_ns", "ns", probe_day_ns));
    m.push(Metric::new("traffic.share_pct", "%", traffic_share));
    rows.push(Row {
        layer: "transrec::traffic",
        share_pct: traffic_share,
        moves: "wall_s on serving",
        zero_on: "paper",
        detail: format!(
            "trajectories {:.3} s, shards {:.3} s, checkpoint {:.3} s; {:.0} ns/request over \
             {arrived} arrivals; day_traffic {day_traffic_ns:.1} ns/arrival; \
             probe_service_day {probe_day_ns:.0} ns/request",
            trajectories / 1e9,
            shards / 1e9,
            checkpoint / 1e9,
            trajectories / arrived.max(1) as f64
        ),
    });

    // transrec::fleet + lifetime
    let (trajectories, shards, checkpoint) =
        (phase("fleet.trajectories"), phase("fleet.shards"), phase("fleet.checkpoint"));
    let class_advances = c("wear.class.advances");
    let missions = model.iter().find(|m| m.name == "device_missions").map_or(0.0, |m| m.value);
    let fleet_share = share(trajectories + shards + checkpoint);
    m.push(Metric::new("fleet.trajectories_pct", "%", share(trajectories)));
    m.push(Metric::new("fleet.shards_pct", "%", share(shards)));
    m.push(Metric::new("fleet.checkpoint_pct", "%", share(checkpoint)));
    m.push(Metric::new("wear.class.advances", "count", class_advances as f64));
    m.push(Metric::new("wear.advance_class_ns", "ns", advance_ns));
    m.push(Metric::new("accum.merge_ns", "ns", merge_ns));
    m.push(Metric::new("fleet.share_pct", "%", fleet_share));
    rows.push(Row {
        layer: "transrec::fleet+lifetime",
        share_pct: fleet_share,
        moves: "wall_s and peak_rss_mb on fleet",
        zero_on: "paper",
        detail: format!(
            "trajectories {:.3} s, shards {:.3} s, checkpoint {:.3} s; shards {:.1} ns per \
             device-mission over {missions} missions; {class_advances} wear.class.advances \
             (class-weighted); advance_class {advance_ns:.1} ns/lane; FleetAccum::merge \
             {merge_ns:.0} ns",
            trajectories / 1e9,
            shards / 1e9,
            checkpoint / 1e9,
            shards / missions.max(1.0)
        ),
    });

    // obs + setup
    let suite_build: Vec<f64> = setups.iter().map(|s| s.suite_build_s).collect();
    let plan: Vec<f64> = setups.iter().map(|s| s.plan_s).collect();
    let total: Vec<f64> = setups.iter().map(SetupTimes::total_s).collect();
    let trace_pct = (walls.traced / walls.jobs1 - 1.0) * 100.0;
    let setup_share = share(median(&total) * 1e9);
    m.push(Metric::new("trace.overhead_pct", "%", trace_pct));
    m.push(Metric::new("obs.collect_overhead_pct", "%", collect_pct));
    m.push(Metric::new("setup.suite_build_s", "s", median(&suite_build)));
    m.push(Metric::new("setup.plan_s", "s", median(&plan)));
    m.push(Metric::new("setup.share_pct", "%", setup_share));
    rows.push(Row {
        layer: "obs+setup",
        share_pct: setup_share,
        moves: "setup_s on all workloads",
        zero_on: "-",
        detail: format!(
            "traced/untraced {trace_pct:+.1}%, collect on/off {collect_pct:+.1}%; suite build \
             {:.4} s, plans {:.4} s",
            median(&suite_build),
            median(&plan)
        ),
    });

    let mut table = vec![format!(
        "per-layer table: {workload}, traced wall {:.3} s at --jobs 1, trace.overhead_pct {trace_pct:+.1}",
        walls.traced
    )];
    table.push(format!("{:<27} {:>8}  {:<40} {:<18} detail", "layer", "share%", "moves", "~0 on"));
    for row in &rows {
        table.push(format!(
            "{:<27} {:>8.2}  {:<40} {:<18} {}",
            row.layer, row.share_pct, row.moves, row.zero_on, row.detail
        ));
    }
    let experiments: Vec<String> = profile
        .roots
        .iter()
        .map(|r| format!("{} {:.3} s", r.name, r.total_ns as f64 / 1e9))
        .collect();
    table.push(format!("experiment spans (traced): {}", experiments.join(", ")));
    table.push(
        "shares are count x replayed unit cost (campaign rows: profiler spans) over the traced \
         wall; the session row contains the rv32, dbt, cgra and uaware rows, and solve is part \
         of uaware"
            .to_string(),
    );
    Ok((m, table))
}
