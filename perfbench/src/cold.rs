//! `cold-start`: bring the EC2 catalog's score book online three ways —
//! a cold `ScoreBook::build`, a warm daemon boot from the persisted PVSB
//! score-book file, and a catalog refresh through `ScoreBook::extend`.
//! Graph, PageRank, BPRU, table and cache do all the work; the placer
//! does none.

use crate::common::{median, ms_since, obs_counter, timed, Args, Outcome, Spans, WorkDir};
use pagerankvm::{
    audit, compute_bpru, pagerank_with_pool, GraphLimits, PageRankConfig, Pool, ProfileGraph,
    ProfileSpace, ProfileVm, ScoreBook,
};
use prvm_model::{catalog, DiskGb, MemMib, Mhz, PmSpec, Quantizer, VmSpec};
use prvm_serve::{CatalogSpec, Client, Server, ServerConfig, Store};
use std::path::Path;
use std::time::Instant;

/// PMs of the catalog the warm-boot daemon serves (the serve-fleet size).
const BOOT_PMS: usize = 1000;

/// Set-up repeats per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Refreshes per cycle: one is short enough (~0.2 s) that its median
/// needs more samples than the builds give.
const REFRESHES_PER_CYCLE: usize = 3;

/// Largest relative gap allowed between the traced layer sum and the
/// untraced `build_s` (the closure check).
pub const BUILD_CLOSURE_TOL: f64 = 0.15;

/// The catalog refresh: a next-generation `m3.2xlarge` (same quantized
/// footprint, new name), the delta the repository's perf sweep uses.
pub fn refresh_delta() -> VmSpec {
    VmSpec::new(
        "m3.2xlarge.g2",
        8,
        Mhz::from_ghz(0.6),
        MemMib::from_gib(30.0),
        vec![DiskGb(80), DiskGb(80)],
    )
}

/// Cold build of the EC2 catalog's book at the full-resolution quantizer.
pub fn build_book() -> Result<ScoreBook, String> {
    ScoreBook::build(
        Quantizer::default(),
        &catalog::ec2_pm_types(),
        &catalog::ec2_vm_types(),
        &PageRankConfig::default(),
        GraphLimits::default(),
    )
    .map_err(|e| format!("score book build failed: {e}"))
}

pub fn save_bytes(book: &ScoreBook, hash: u64) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    book.save(&mut bytes, hash)
        .map_err(|e| format!("PVSB save failed: {e}"))?;
    Ok(bytes)
}

pub fn load_file(path: &Path, hash: u64) -> Result<ScoreBook, String> {
    let mut file =
        std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    ScoreBook::load(&mut file, hash).map_err(|e| format!("PVSB load failed: {e}"))
}

/// Produce the PVSB for `hash` once (untimed): build, save, write.
pub fn produce_pvsb(path: &Path, hash: u64) -> Result<Vec<u8>, String> {
    let bytes = save_bytes(&build_book()?, hash)?;
    std::fs::write(path, &bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(bytes)
}

/// Place the PVSB where a daemon rooted at `store` looks for it.
pub fn install_pvsb(pvsb: &Path, store: &Store) -> Result<(), String> {
    let dest = store.book_path();
    std::fs::hard_link(pvsb, &dest)
        .or_else(|_| std::fs::copy(pvsb, &dest).map(|_| ()))
        .map_err(|e| format!("install PVSB into {}: {e}", dest.display()))
}

/// `Server::start` on an empty store holding a valid PVSB, timed until
/// the first `stats` reply. Returns (ms, booted from the cache).
fn boot_once(spec: &CatalogSpec, pvsb: &Path, dir: &Path) -> Result<(f64, bool), String> {
    let store = Store::open(dir).map_err(|e| format!("open store: {e}"))?;
    install_pvsb(pvsb, &store)?;
    let hits = obs_counter("serve.book_cache.hits");
    let t = Instant::now();
    let handle = Server::start(spec, store, ServerConfig::default(), "127.0.0.1:0")
        .map_err(|e| format!("daemon boot failed: {e}"))?;
    let reply = Client::connect(handle.addr()).and_then(|mut c| c.stats());
    let ms = ms_since(t);
    let _ = handle.shutdown();
    let stats = reply.map_err(|e| format!("stats after boot failed: {e}"))?;
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok((
        ms,
        stats.state.vms == 0 && obs_counter("serve.book_cache.hits") == hits + 1,
    ))
}

/// The book build split at its public layer boundaries, with a span
/// around each call. Returns per-layer ms and the resulting score bits.
struct Decomposed {
    graph_ms: f64,
    pagerank_ms: f64,
    bpru_ms: f64,
    total_ms: f64,
    nodes: usize,
    edges: usize,
    iterations: usize,
    scores: Vec<(PmSpec, Vec<u64>)>,
}

fn decomposed_build(spans: &mut Spans, pool: Pool) -> Result<Decomposed, String> {
    let quantizer = Quantizer::default();
    let config = PageRankConfig::default();
    let vm_types = catalog::ec2_vm_types();
    let mut d = Decomposed {
        graph_ms: 0.0,
        pagerank_ms: 0.0,
        bpru_ms: 0.0,
        total_ms: 0.0,
        nodes: 0,
        edges: 0,
        iterations: 0,
        scores: Vec::new(),
    };
    spans.enter("core.table.book", 0);
    for pm in catalog::ec2_pm_types() {
        if d.scores.iter().any(|(spec, _)| *spec == pm) {
            continue;
        }
        spans.enter("core.table", 0);
        let space = ProfileSpace::from_quantized_pm(&quantizer.quantize_pm(&pm));
        let vms: Vec<ProfileVm> = vm_types
            .iter()
            .filter_map(|v| space.vm_demand(&quantizer.quantize_vm(v, &pm)))
            .collect();
        let (graph, ms) = spans.time("core.graph", 0, || {
            ProfileGraph::build_with_pool(space, vms, GraphLimits::default(), pool)
        });
        d.graph_ms += ms;
        let graph = graph.map_err(|e| format!("graph build failed: {e}"))?;
        let (pr, ms) = spans.time("core.pagerank", 0, || {
            pagerank_with_pool(&graph, &config, pool)
        });
        d.pagerank_ms += ms;
        let (discount, ms) = spans.time("core.bpru", 0, || compute_bpru(&graph));
        d.bpru_ms += ms;
        let scores = pr
            .scores
            .iter()
            .zip(&discount)
            .map(|(&p, &b)| (p * b).to_bits())
            .collect();
        d.nodes += graph.node_count();
        d.edges += graph.edge_count();
        d.iterations += pr.iterations;
        d.scores.push((pm, scores));
        spans.exit();
    }
    d.total_ms = spans.exit();
    Ok(d)
}

fn same_scores(book: &ScoreBook, d: &Decomposed) -> bool {
    book.len() == d.scores.len()
        && d.scores.iter().all(|(pm, bits)| {
            book.table(pm).is_some_and(|t| {
                t.len() == bits.len() && t.iter().zip(bits).all(|((_, s), &b)| s.to_bits() == b)
            })
        })
}

pub fn run(args: &Args, threads: usize) -> Result<Outcome, String> {
    let work = WorkDir::create("cold-start")?;
    let spec = CatalogSpec::ec2(BOOT_PMS);
    let hash = spec.hash();
    let pvsb = work.join("scores.pvsb");
    let config = PageRankConfig::default();
    let delta = [refresh_delta()];
    let mut out = Outcome::default();

    eprintln!("[perfbench] cold-start: producing the PVSB (untimed)");
    let pvsb_bytes = produce_pvsb(&pvsb, hash)?;

    // Set-up: load the PVSB into the base book the refreshes start from.
    let mut setup = Vec::new();
    let mut base = None;
    for _ in 0..SETUP_REPEATS {
        let (book, ms) = timed(|| load_file(&pvsb, hash));
        setup.push(ms / 1e3);
        base = Some(book?);
    }
    let base = base.ok_or("no set-up ran")?;
    out.e2e.insert("setup_s", median(&setup));
    out.check(
        "pvsb_save_load_save_identical",
        save_bytes(&base, hash)? == pvsb_bytes,
    );
    out.check(
        "audit_check_book_clean",
        audit::check_book(&base).is_clean(),
    );

    let (mut builds, mut boots, mut refreshes) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced = Vec::new();
    let mut spans = Spans::default();
    let mut refreshed_bytes: Option<Vec<u8>> = None;
    let started = Instant::now();
    let mut cycle = 0usize;
    while cycle == 0 || started.elapsed().as_secs_f64() < args.seconds {
        out.attempted += 2 + REFRESHES_PER_CYCLE as u64;
        let (built, ms) = timed(build_book);
        builds.push(ms);
        let built = built?;
        out.check(
            format!("build_{cycle}_matches_pvsb"),
            save_bytes(&built, hash)? == pvsb_bytes,
        );
        drop(built);

        match boot_once(&spec, &pvsb, &work.join(&format!("boot-{cycle}"))) {
            Ok((ms, hit)) => {
                boots.push(ms);
                out.check(format!("boot_{cycle}_from_cache_empty"), hit);
            }
            Err(e) => {
                eprintln!("[perfbench] boot failed: {e}");
                out.failed += 1;
            }
        }

        let mut extended = None;
        for _ in 0..REFRESHES_PER_CYCLE {
            let (book, ms) = timed(|| base.extend(&delta, &config, GraphLimits::default()));
            refreshes.push(ms);
            extended = Some(book.map_err(|e| format!("refresh failed: {e}"))?);
        }
        let bytes = save_bytes(&extended.ok_or("no refresh ran")?, hash)?;
        match &refreshed_bytes {
            None => refreshed_bytes = Some(bytes),
            Some(first) => out.check(format!("refresh_{cycle}_deterministic"), *first == bytes),
        }

        if args.trace {
            let d = decomposed_build(&mut spans, Pool::new(threads))?;
            out.check(
                format!("decomposed_{cycle}_matches_book"),
                same_scores(&base, &d),
            );
            traced.push(d);
        }
        cycle += 1;
    }

    let build_ms = median(&builds);
    out.e2e.insert("main_ms", build_ms);
    out.e2e.insert("second_ms", median(&boots));
    out.e2e.insert("third_ms", median(&refreshes));
    let op_ms: f64 = builds.iter().chain(&boots).chain(&refreshes).sum();
    out.e2e.insert(
        "ops_per_s",
        (builds.len() + boots.len() + refreshes.len()) as f64 / (op_ms / 1e3),
    );
    out.detail("build_s", build_ms / 1e3, "s");
    out.detail("boot_s", median(&boots) / 1e3, "s");
    out.detail("refresh_s", median(&refreshes) / 1e3, "s");
    out.detail("setup_s", median(&setup), "s");
    out.detail("cycles", cycle as f64, "count");

    if args.trace {
        layers(&mut out, &mut spans, &base, &traced, build_ms, hash, &pvsb)?;
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("cold-start-seed{}-spans.jsonl", args.seed));
        spans.write_jsonl(&path)?;
    }
    Ok(out)
}

fn layers(
    out: &mut Outcome,
    spans: &mut Spans,
    base: &ScoreBook,
    traced: &[Decomposed],
    build_ms: f64,
    hash: u64,
    pvsb: &Path,
) -> Result<(), String> {
    let pick = |f: fn(&Decomposed) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let graph_ms = pick(|d| d.graph_ms);
    let pagerank_ms = pick(|d| d.pagerank_ms);
    let bpru_ms = pick(|d| d.bpru_ms);
    let total_ms = pick(|d| d.total_ms);
    let first = traced.first().ok_or("no traced build ran")?;
    let l = &mut out.layers;
    l.insert("core.graph.build_ms", graph_ms);
    l.insert("core.graph.nodes", first.nodes as f64);
    l.insert("core.graph.edges", first.edges as f64);
    l.insert("core.pagerank.ms", pagerank_ms);
    l.insert("core.pagerank.iterations", first.iterations as f64);
    l.insert("core.bpru.ms", bpru_ms);
    // Per build, then the median: medians of the parts do not add up.
    l.insert(
        "core.table.build_rest_ms",
        pick(|d| d.total_ms - d.graph_ms - d.pagerank_ms - d.bpru_ms),
    );
    l.insert("trace.overhead_ms", total_ms - build_ms);
    l.insert("trace.overhead_frac", (total_ms - build_ms) / build_ms);
    let closure = (total_ms - build_ms).abs() / build_ms;
    l.insert("closure.build_err_frac", closure);
    out.check(
        "closure_build_layers_sum_to_build_s",
        closure <= BUILD_CLOSURE_TOL,
    );

    // One build at a single worker gives the pool speed-ups.
    let one = decomposed_build(spans, Pool::new(1))?;
    let l = &mut out.layers;
    l.insert("core.graph.build_1w_ms", one.graph_ms);
    l.insert("core.pagerank.1w_ms", one.pagerank_ms);
    l.insert("par.graph_speedup", one.graph_ms / graph_ms);
    l.insert("par.pagerank_speedup", one.pagerank_ms / pagerank_ms);
    out.check("one_worker_build_identical", same_scores(base, &one));

    let (extended, extend_ms) = spans.time("core.table.extend", 0, || {
        base.extend(
            &[refresh_delta()],
            &PageRankConfig::default(),
            GraphLimits::default(),
        )
    });
    let _ = extended.map_err(|e| format!("refresh failed: {e}"))?;
    let (bytes, save_ms) = spans.time("core.cache.save", 0, || save_bytes(base, hash));
    let bytes = bytes?;
    let (loaded, load_ms) = spans.time("core.cache.load", 0, || load_file(pvsb, hash));
    let _ = loaded?;
    let l = &mut out.layers;
    l.insert("core.table.extend_ms", extend_ms);
    l.insert("core.cache.save_ms", save_ms);
    l.insert("core.cache.load_ms", load_ms);
    l.insert("core.cache.bytes", bytes.len() as f64);
    Ok(())
}
