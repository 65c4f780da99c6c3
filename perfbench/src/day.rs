//! `dc-day`: the paper's experiment at 6,000 VMs. A `place_batch` fill
//! of the day's VMs into an empty m3/c3 pool, then one simulated 24 h day
//! (288 scans of 300 s) with the PageRankVM placer and
//! `PageRankEviction`. The only workload for the sim kernel, engine
//! scans, eviction and Algorithm 2's fill regime; it also carries the
//! paper's quality outputs (Figs. 3, 5, 6, 7).

use crate::cold::{build_book, load_file, produce_pvsb, save_bytes};
use crate::common::{
    median, ms_since, obs_counter, percentile, sum, timed, Args, Outcome, Rng, Spans, WorkDir,
};
use pagerankvm::{PageRankEviction, PageRankVmPlacer, ScoreBook};
use prvm_model::{
    catalog, place_batch, Cluster, EvictionPolicy, Mhz, PlacementAlgorithm, PlacementDecision, Pm,
    PmId, VmId, VmSpec,
};
use prvm_sim::{
    build_cluster, simulate, simulate_with_audit, SimConfig, SimOutcome, Workload, WorkloadConfig,
};
use prvm_traces::{TraceKind, TraceLibrary};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// VMs requested over the day. Small enough that a run holds a dozen or
/// more fill + day cycles, so its medians are not at the mercy of one
/// slow stretch of the host.
const N_VMS: usize = 6_000;

/// The trace archive is fixed, as the paper's PlanetLab archive is: the
/// seed draws which archive trace each VM follows. A per-seed archive
/// moved the day's migrations by a fifth from seed to seed, and the
/// day's time with them.
const ARCHIVE_TRACES: usize = 400;
const ARCHIVE_SEED: u64 = 0x9e37;

/// The request log (VM types in arrival order) is fixed too: an equal
/// number of each EC2 type, shuffled once. Drawing the arrival order from
/// the seed moved the fill's time by up to 60 % between seeds at the
/// same VM mix, because Algorithm 2's fill is path dependent.
const LOG_SEED: u64 = 0x10_6a11;

/// Catalog hash the PVSB is keyed by (the simulator has no daemon
/// catalog; any fixed value works as long as save and load agree).
const BOOK_HASH: u64 = 0xdc0d_a7ba_5eb0_0c00;

struct Inputs {
    book: Arc<ScoreBook>,
    config: WorkloadConfig,
    workload: Workload,
}

fn set_up(pvsb: &std::path::Path, seed: u64) -> Result<Inputs, String> {
    let book = Arc::new(load_file(pvsb, BOOK_HASH)?);
    let config = WorkloadConfig::sized_for(N_VMS, TraceKind::PlanetLab);
    let library = TraceLibrary::generate(
        TraceKind::PlanetLab,
        ARCHIVE_TRACES,
        SimConfig::default().scans(),
        ARCHIVE_SEED,
    );
    let types = catalog::ec2_vm_types();
    let mut specs: Vec<VmSpec> = (0..N_VMS).map(|i| types[i % types.len()].clone()).collect();
    let mut rng = Rng::new(LOG_SEED);
    for i in (1..specs.len()).rev() {
        specs.swap(i, rng.below(i + 1));
    }
    Ok(Inputs {
        book,
        config,
        workload: Workload::from_parts(specs, library, seed),
    })
}

/// Fill the empty pool with the day's VMs. Returns (ms, VMs placed).
fn fill(inputs: &Inputs, placer: &mut dyn PlacementAlgorithm) -> (f64, usize) {
    let mut cluster = build_cluster(&inputs.config);
    let specs = inputs.workload.specs.clone();
    let (_, ms) = timed(|| place_batch(placer, &mut cluster, specs));
    (ms, cluster.vm_count())
}

fn day(
    inputs: &Inputs,
    placer: &mut dyn PlacementAlgorithm,
    evictor: &mut dyn EvictionPolicy,
) -> (SimOutcome, f64) {
    let cluster = build_cluster(&inputs.config);
    timed(|| {
        simulate(
            &SimConfig::default(),
            cluster,
            &inputs.workload,
            placer,
            evictor,
        )
    })
}

/// Quality outputs compared bit for bit across days.
fn quality(o: &SimOutcome) -> (usize, u64, usize, u64, usize) {
    (
        o.pms_used_initial,
        o.energy_kwh.to_bits(),
        o.migrations,
        o.slo_violation_pct.to_bits(),
        o.rejected_vms,
    )
}

pub fn run(args: &Args, threads: usize) -> Result<Outcome, String> {
    let work = WorkDir::create("dc-day")?;
    let pvsb = work.join("scores.pvsb");
    eprintln!("[perfbench] dc-day: producing the PVSB (untimed)");
    let pvsb_bytes = produce_pvsb(&pvsb, BOOK_HASH)?;
    let mut out = Outcome::default();

    let mut setup = Vec::new();
    let mut inputs = None;
    for _ in 0..crate::cold::SETUP_REPEATS {
        let (i, ms) = timed(|| set_up(&pvsb, args.seed));
        setup.push(ms / 1e3);
        inputs = Some(i?);
    }
    let inputs = inputs.ok_or("no set-up ran")?;
    out.e2e.insert("setup_s", median(&setup));

    let (mut fills, mut days) = (Vec::new(), Vec::new());
    let mut first: Option<SimOutcome> = None;
    let scan_series = prvm_obs::Registry::global().series("sim.scan.wall_ms");
    let scans_before = scan_series.len();
    let started = Instant::now();
    while days.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let (ms, placed) = fill(
            &inputs,
            &mut PageRankVmPlacer::new(Arc::clone(&inputs.book)),
        );
        fills.push(ms);
        out.attempted += N_VMS as u64;
        out.failed += (N_VMS - placed) as u64;
        let (outcome, ms) = day(
            &inputs,
            &mut PageRankVmPlacer::new(Arc::clone(&inputs.book)),
            &mut PageRankEviction::new(Arc::clone(&inputs.book)),
        );
        days.push(ms);
        out.attempted += N_VMS as u64;
        out.failed += outcome.rejected_vms as u64;
        match &first {
            None => first = Some(outcome),
            Some(f) => out.check(
                format!("day_{}_quality_identical", days.len()),
                quality(f) == quality(&outcome),
            ),
        }
    }
    let first = first.ok_or("no day ran")?;
    let scan_ms = median(&scan_series.values()[scans_before..]);

    // One audited day: every invariant checked after the fill and after
    // every scan's migrations.
    let ((audited, report), audit_ms) = timed(|| {
        simulate_with_audit(
            &SimConfig::default(),
            build_cluster(&inputs.config),
            &inputs.workload,
            &mut PageRankVmPlacer::new(Arc::clone(&inputs.book)),
            &mut PageRankEviction::new(Arc::clone(&inputs.book)),
        )
    });
    out.check("audited_day_clean", report.is_clean());
    out.check(
        "audited_day_quality_identical",
        quality(&first) == quality(&audited),
    );

    let fill_ms = median(&fills);
    let sim_ms = median(&days);
    out.e2e.insert("main_ms", sim_ms);
    out.e2e.insert("second_ms", fill_ms);
    out.e2e.insert("third_ms", scan_ms);
    let vms = (fills.len() + days.len()) * N_VMS;
    out.e2e
        .insert("ops_per_s", vms as f64 / ((sum(&fills) + sum(&days)) / 1e3));
    out.detail("setup_s", median(&setup), "s");
    out.detail("fill_s", fill_ms / 1e3, "s");
    out.detail("sim_s", sim_ms / 1e3, "s");
    out.detail("scan_ms", scan_ms, "ms");
    out.detail("audited_day_s", audit_ms / 1e3, "s");
    out.detail("pms_used", first.pms_used_initial as f64, "PMs");
    out.detail("energy_kwh", first.energy_kwh, "kWh");
    out.detail("migrations", first.migrations as f64, "count");
    out.detail("slo_pct", first.slo_violation_pct, "%");
    out.detail(
        "failed_frac",
        out.failed as f64 / out.attempted as f64,
        "ratio",
    );
    out.detail("days", days.len() as f64, "count");

    if args.trace {
        traced(
            &mut out,
            args,
            threads,
            &inputs,
            &first,
            &pvsb_bytes,
            sim_ms,
            &pvsb,
        )?;
    }
    Ok(out)
}

/// `PlacementAlgorithm` shim: times every `choose` inside a span.
struct TimedPlacer<'a> {
    inner: PageRankVmPlacer,
    spans: &'a RefCell<Spans>,
    ms: Vec<f64>,
}

impl PlacementAlgorithm for TimedPlacer<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn order_batch(&self, vms: &mut [VmSpec]) {
        self.inner.order_batch(vms);
    }

    fn choose(
        &mut self,
        cluster: &Cluster,
        vm: &VmSpec,
        exclude: &dyn Fn(PmId) -> bool,
    ) -> Option<PlacementDecision> {
        self.spans.borrow_mut().enter("core.placer.choose", 0);
        let decision = self.inner.choose(cluster, vm, exclude);
        self.ms.push(self.spans.borrow_mut().exit());
        decision
    }
}

/// `EvictionPolicy` shim: times every `select` inside a span.
struct TimedEvictor<'a> {
    inner: PageRankEviction,
    spans: &'a RefCell<Spans>,
    ms: Vec<f64>,
}

impl EvictionPolicy for TimedEvictor<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(&mut self, pm: &Pm, cpu_demand: &dyn Fn(VmId) -> Mhz) -> Option<VmId> {
        self.spans.borrow_mut().enter("core.evict.select", 0);
        let vm = self.inner.select(pm, cpu_demand);
        self.ms.push(self.spans.borrow_mut().exit());
        vm
    }
}

const PLACER_COUNTERS: [&str; 3] = [
    "placer.used_pms_scanned",
    "placer.permutations_evaluated",
    "placer.quantized_fallbacks",
];

/// Per-layer names of the placer metrics: the serve replay and the
/// dc-day fill report under the first set, the simulated day under the
/// second.
pub const PLACER: [&str; 7] = [
    "core.placer.calls",
    "core.placer.choose_ms.p50",
    "core.placer.choose_ms.p99",
    "core.placer.choose_ms.total",
    "core.placer.pms_scanned_per_choose",
    "core.placer.permutations_per_choose",
    "core.placer.fallback_frac",
];
const PLACER_DAY: [&str; 7] = [
    "core.placer.day.calls",
    "core.placer.day.choose_ms.p50",
    "core.placer.day.choose_ms.p99",
    "core.placer.day.choose_ms.total",
    "core.placer.day.pms_scanned_per_choose",
    "core.placer.day.permutations_per_choose",
    "core.placer.day.fallback_frac",
];

/// Snapshot of the program's own placer counters.
pub fn placer_counters() -> Vec<u64> {
    PLACER_COUNTERS.iter().map(|c| obs_counter(c)).collect()
}

/// How far each placer counter has moved since `before`.
pub fn placer_counters_since(before: &[u64]) -> Vec<u64> {
    placer_counters()
        .iter()
        .zip(before)
        .map(|(a, b)| a - b)
        .collect()
}

/// Placer metrics from per-call `choose` times and the placer counters'
/// increments over those calls.
pub fn placer_layers(out: &mut Outcome, names: &[&'static str; 7], ms: &[f64], counts: &[u64]) {
    let calls = ms.len().max(1) as f64;
    let per_call: Vec<f64> = counts.iter().map(|&c| c as f64 / calls).collect();
    let values = [
        ms.len() as f64,
        percentile(ms, 0.5),
        percentile(ms, 0.99),
        sum(ms),
        per_call[0],
        per_call[1],
        per_call[2],
    ];
    for (name, value) in names.iter().zip(values) {
        out.layers.insert(name, value);
    }
}

#[allow(clippy::too_many_arguments)]
fn traced(
    out: &mut Outcome,
    args: &Args,
    threads: usize,
    inputs: &Inputs,
    first: &SimOutcome,
    pvsb_bytes: &[u8],
    sim_ms: f64,
    pvsb: &std::path::Path,
) -> Result<(), String> {
    let spans = RefCell::new(Spans::default());
    let mut placer = TimedPlacer {
        inner: PageRankVmPlacer::new(Arc::clone(&inputs.book)),
        spans: &spans,
        ms: Vec::new(),
    };
    let before = placer_counters();
    spans.borrow_mut().enter("core.placer.fill", 0);
    let _ = fill(inputs, &mut placer);
    spans.borrow_mut().exit();
    placer_layers(out, &PLACER, &placer.ms, &placer_counters_since(&before));

    placer.ms.clear();
    let mut evictor = TimedEvictor {
        inner: PageRankEviction::new(Arc::clone(&inputs.book)),
        spans: &spans,
        ms: Vec::new(),
    };
    let before = placer_counters();
    let events = obs_counter("sim.events.dispatched");
    spans.borrow_mut().enter("sim.day", 0);
    let t = Instant::now();
    let cluster = build_cluster(&inputs.config);
    let outcome = simulate(
        &SimConfig::default(),
        cluster,
        &inputs.workload,
        &mut placer,
        &mut evictor,
    );
    let day_ms = ms_since(t);
    spans.borrow_mut().exit();
    placer_layers(
        out,
        &PLACER_DAY,
        &placer.ms,
        &placer_counters_since(&before),
    );
    out.check(
        "traced_day_quality_identical",
        quality(first) == quality(&outcome),
    );

    let l = &mut out.layers;
    l.insert("core.evict.select_ms", sum(&evictor.ms));
    l.insert("core.evict.calls", evictor.ms.len() as f64);
    l.insert(
        "sim.kernel.events",
        (obs_counter("sim.events.dispatched") - events) as f64,
    );
    l.insert(
        "sim.engine.self_ms",
        day_ms - sum(&placer.ms) - sum(&evictor.ms),
    );
    l.insert("sim.engine.pms_used", first.pms_used_initial as f64);
    l.insert("sim.engine.energy_kwh", first.energy_kwh);
    l.insert("sim.engine.migrations", first.migrations as f64);
    l.insert("sim.engine.slo_pct", first.slo_violation_pct);
    l.insert("trace.overhead_ms", day_ms - sim_ms);
    l.insert("trace.overhead_frac", (day_ms - sim_ms) / sim_ms);

    let (loaded, load_ms) = timed(|| load_file(pvsb, BOOK_HASH));
    let (bytes, save_ms) = timed(|| save_bytes(&loaded?, BOOK_HASH));
    let l = &mut out.layers;
    l.insert("core.cache.load_ms", load_ms);
    l.insert("core.cache.save_ms", save_ms);
    l.insert("core.cache.bytes", bytes?.len() as f64);

    // The same day on a book built at one worker: the pool width must not
    // change a single score bit, so the day's quality must not move.
    prvm_par::set_global_threads(1);
    let one = build_book();
    prvm_par::set_global_threads(threads);
    let one = Arc::new(one?);
    out.check(
        "one_worker_book_bytes_identical",
        save_bytes(&one, BOOK_HASH)? == pvsb_bytes,
    );
    let (one_day, _) = day(
        inputs,
        &mut PageRankVmPlacer::new(Arc::clone(&one)),
        &mut PageRankEviction::new(one),
    );
    out.check(
        "one_worker_day_quality_identical",
        quality(first) == quality(&one_day),
    );

    let path = std::path::PathBuf::from(".bench_out")
        .join(format!("dc-day-seed{}-spans.jsonl", args.seed));
    spans.into_inner().write_jsonl(&path)
}
