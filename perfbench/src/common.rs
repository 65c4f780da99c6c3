//! Shared pieces of the benchmark: the seeded generator, timing and
//! percentile helpers, the in-memory span recorder, and the metric sets
//! every run reports.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The end-to-end metrics every workload reports with `--trace 0`, in
/// `BENCHMARK.json` order. What each slot means on each workload is in
/// `perfbench/README.md`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("main_ms", "ms"),
    ("second_ms", "ms"),
    ("third_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// The per-layer metrics every workload reports with `--trace 1`. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("core.graph.build_ms", "ms"),
    ("core.graph.build_1w_ms", "ms"),
    ("core.graph.nodes", "count"),
    ("core.graph.edges", "count"),
    ("core.pagerank.ms", "ms"),
    ("core.pagerank.1w_ms", "ms"),
    ("core.pagerank.iterations", "count"),
    ("core.bpru.ms", "ms"),
    ("core.table.build_rest_ms", "ms"),
    ("core.table.extend_ms", "ms"),
    ("core.cache.save_ms", "ms"),
    ("core.cache.load_ms", "ms"),
    ("core.cache.bytes", "bytes"),
    ("par.graph_speedup", "ratio"),
    ("par.pagerank_speedup", "ratio"),
    ("core.placer.calls", "count"),
    ("core.placer.choose_ms.p50", "ms"),
    ("core.placer.choose_ms.p99", "ms"),
    ("core.placer.choose_ms.total", "ms"),
    ("core.placer.pms_scanned_per_choose", "count"),
    ("core.placer.permutations_per_choose", "count"),
    ("core.placer.fallback_frac", "ratio"),
    ("core.placer.day.calls", "count"),
    ("core.placer.day.choose_ms.p50", "ms"),
    ("core.placer.day.choose_ms.p99", "ms"),
    ("core.placer.day.choose_ms.total", "ms"),
    ("core.placer.day.pms_scanned_per_choose", "count"),
    ("core.placer.day.permutations_per_choose", "count"),
    ("core.placer.day.fallback_frac", "ratio"),
    ("core.evict.select_ms", "ms"),
    ("core.evict.calls", "count"),
    ("serve.state.prepare_place_ms", "ms"),
    ("serve.state.prepare_evict_ms", "ms"),
    ("serve.state.commit_ms", "ms"),
    ("serve.journal.append_ms.p50", "ms"),
    ("serve.journal.append_ms.p99", "ms"),
    ("serve.journal.append_ms.total", "ms"),
    ("serve.journal.bytes_per_op", "bytes"),
    ("serve.journal.compactions", "count"),
    ("serve.journal.compact_ms", "ms"),
    ("serve.wire.encode_us", "us"),
    ("serve.wire.decode_us", "us"),
    ("serve.server.dispatch_ms.p50", "ms"),
    ("serve.server.dispatch_ms.p99", "ms"),
    ("serve.server.outside_dispatch_ms", "ms"),
    ("serve.server.busy_frac", "ratio"),
    ("serve.server.shed", "count"),
    ("serve.server.timeouts", "count"),
    ("serve.loadgen.late_ms.p99", "ms"),
    ("serve.loadgen.late_ms.max", "ms"),
    ("sim.kernel.events", "count"),
    ("sim.engine.self_ms", "ms"),
    ("sim.engine.pms_used", "PMs"),
    ("sim.engine.energy_kwh", "kWh"),
    ("sim.engine.migrations", "count"),
    ("sim.engine.slo_pct", "%"),
    ("closure.build_err_frac", "ratio"),
    ("closure.dispatch_err_frac", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, builds, VMs) — the base of `failed`.
    pub attempted: u64,
    /// Attempted operations that were refused, shed, timed out or errored.
    pub failed: u64,
    /// Output checks by name; any `false` fails the run.
    pub checks: Vec<(String, bool)>,
    /// End-to-end values keyed by [`END_TO_END`] name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// The workload's own named end-to-end figures (printed, not gated).
    pub detail: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer values keyed by [`PER_LAYER`] name (trace runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn detail(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.detail.push((name, value, unit));
    }
}

/// splitmix64: the benchmark's only source of randomness, so every input
/// is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_ba5e_cafe_f00d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Time `f`, returning its result and the elapsed milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, ms_since(t))
}

/// Median (mean of the middle two for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in 0..=1); 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        sum(values) / values.len() as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("malformed VmHWM line")?;
    Ok(kib / 1024.0)
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> Result<Self, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still has its own directory there.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// One recorded span: a named interval with its causing span. Spans of
/// one request share `req`.
#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

/// In-memory span recorder for one thread of the benchmark. Spans nest
/// through an explicit stack and are written out only at the end.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        let rec = SpanRec {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            req,
        };
        self.stack.push(self.spans.len());
        self.spans.push(rec);
    }

    /// Close the innermost open span and return its duration in ms.
    pub fn exit(&mut self) -> f64 {
        let end = self.now_ns();
        let Some(i) = self.stack.pop() else {
            return 0.0;
        };
        let span = &mut self.spans[i];
        span.end_ns = end;
        (span.end_ns - span.start_ns) as f64 / 1e6
    }

    /// Run `f` inside a span; returns its result and duration in ms.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, f64) {
        self.enter(name, req);
        let r = f();
        (r, self.exit())
    }

    fn dur_ns(&self, i: usize) -> u64 {
        let s = &self.spans[i];
        s.end_ns.saturating_sub(s.start_ns)
    }

    /// Self time of every span in ms: its duration minus the part its
    /// child spans cover (children of one thread never overlap).
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_ns[p] += self.dur_ns(i);
            }
        }
        (0..self.spans.len())
            .map(|i| self.dur_ns(i).saturating_sub(child_ns[i]) as f64 / 1e6)
            .collect()
    }

    /// Durations in ms of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.dur_ns(i) as f64 / 1e6)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let selfs = self.self_ms();
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?,
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"self_ms\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req, selfs[i]
            )
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        out.flush()
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Read a global prvm-obs counter (the program's own instrumentation).
pub fn obs_counter(name: &str) -> u64 {
    prvm_obs::Registry::global().counter(name).get()
}
