//! CI smoke check for the score engine (DESIGN.md §15): pins the PVSB
//! bytes of a cold `ScoreBook::build` to a golden digest, and byte-diffs
//! an incrementally extended score book against a from-scratch seeded
//! rebuild of the same catalog, at several worker counts.
//!
//! The determinism contract this pins down:
//!
//! 1. **Cold-build stability** — a cold build of the EC2 catalog
//!    serializes to the pinned length and FNV-1a-64 digest, so any bit
//!    change in the graph, PageRank, BPRU or PVSB layers fails the run.
//! 2. **Path independence** — `ScoreBook::extend` (replay BFS against
//!    the base graph's expansion cache + warm-started PageRank) produces
//!    bit-identical scores to `ScoreBook::build_seeded` (merged graph
//!    built cold, warm PageRank).
//! 3. **Worker-count invariance** — all of the above produce the same
//!    bytes at 1, 2 and 4 workers.
//! 4. **Cache transparency** — a PVSB round trip of the extended book
//!    re-serializes to the same bytes it was loaded from.
//!
//! Exits non-zero (with a diff summary on stderr) on any mismatch, so
//! the CI `incremental-smoke` job fails loudly. Uses a coarse quantizer
//! so the check stays fast in debug builds; pass `--full` to run at the
//! default catalog resolution instead.

use pagerankvm::{GraphLimits, PageRankConfig, ScoreBook};
use prvm_model::{catalog, DiskGb, MemMib, Mhz, Quantizer, VmSpec};

/// Arbitrary but fixed: both sides of every diff use the same value, so
/// any catalog hash works for a byte comparison.
const CATALOG_HASH: u64 = 0x70_76_73_62;

/// `(length, FNV-1a-64)` of the PVSB bytes of a cold `ScoreBook::build`
/// of the EC2 PM and VM catalogs, saved under [`CATALOG_HASH`], at the
/// coarse smoke quantizer and at the default quantizer (`--full`).
const GOLDEN_COARSE: (usize, u64) = (82_046, 0xf7dd_bd43_496f_f21f);
const GOLDEN_FULL: (usize, u64) = (35_202_326, 0x1635_51d1_b7a6_d9ad);

fn book_bytes(book: &ScoreBook) -> Vec<u8> {
    let mut buf = Vec::new();
    book.save(&mut buf, CATALOG_HASH).expect("in-memory save");
    buf
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn check_golden(label: &str, (len, digest): (usize, u64), got: &[u8]) -> bool {
    let got_digest = fnv1a64(got);
    if got.len() == len && got_digest == digest {
        eprintln!("[incremental-smoke] ok: {label} ({len} bytes, fnv1a64 {digest:016x})");
        return true;
    }
    eprintln!(
        "[incremental-smoke] MISMATCH: {label}: {} bytes, fnv1a64 {got_digest:016x}; \
         golden is {len} bytes, fnv1a64 {digest:016x}",
        got.len()
    );
    false
}

fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b).position(|(x, y)| x != y)
}

fn check(label: &str, expected: &[u8], got: &[u8]) -> bool {
    match first_difference(expected, got) {
        None => {
            eprintln!("[incremental-smoke] ok: {label} ({} bytes)", got.len());
            true
        }
        Some(at) => {
            eprintln!(
                "[incremental-smoke] MISMATCH: {label} differs at byte {at} \
                 (lengths {} vs {})",
                expected.len(),
                got.len()
            );
            false
        }
    }
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let (quantizer, golden) = if full {
        (Quantizer::default(), GOLDEN_FULL)
    } else {
        (
            Quantizer {
                core_slots: 2,
                mem_levels: 4,
                disk_levels: 2,
            },
            GOLDEN_COARSE,
        )
    };
    let config = PageRankConfig::default();
    let limits = GraphLimits::default();
    let pm_types = catalog::ec2_pm_types();
    let all_vms = catalog::ec2_vm_types();

    // Two deltas covering both stitch paths of the delta re-BFS: a
    // *structural* delta (the last catalog type removed, then re-added
    // — its edges discover tens of thousands of new nodes and break
    // the identity mapping) and a *refresh* delta (a next-generation
    // type with an identical quantized footprint — the cached-replay
    // identity fast path answers everything).
    let structural_base = all_vms[..all_vms.len() - 1].to_vec();
    let structural_delta = all_vms[all_vms.len() - 1..].to_vec();
    let refresh_delta = vec![VmSpec::new(
        "m3.2xlarge.g2",
        8,
        Mhz::from_ghz(0.6),
        MemMib::from_gib(30.0),
        vec![DiskGb(80), DiskGb(80)],
    )];
    let scenarios: [(&str, &[VmSpec], &[VmSpec]); 2] = [
        ("structural", &structural_base, &structural_delta),
        ("refresh", &all_vms, &refresh_delta),
    ];

    let mut ok = true;
    for (scenario, base_vms, delta_vms) in scenarios {
        let mut reference: Option<Vec<u8>> = None;
        for threads in [1usize, 2, 4] {
            prvm_par::set_global_threads(threads);

            let base = ScoreBook::build(quantizer, &pm_types, base_vms, &config, limits)
                .expect("base catalog builds");
            // The refresh scenario's base is the whole catalog: a cold
            // build whose bytes are pinned.
            if base_vms.len() == all_vms.len() {
                ok &= check_golden(
                    &format!("cold build golden digest at {threads} worker(s)"),
                    golden,
                    &book_bytes(&base),
                );
            }
            let extended = base
                .extend(delta_vms, &config, limits)
                .expect("extend succeeds");
            let seeded =
                ScoreBook::build_seeded(quantizer, &pm_types, base_vms, delta_vms, &config, limits)
                    .expect("seeded rebuild succeeds");

            let extended_bytes = book_bytes(&extended);
            let seeded_bytes = book_bytes(&seeded);
            ok &= check(
                &format!("{scenario}: extend vs build_seeded at {threads} worker(s)"),
                &seeded_bytes,
                &extended_bytes,
            );

            // PVSB round trip of the extended book is bit-transparent.
            let reloaded = ScoreBook::load(&mut extended_bytes.as_slice(), CATALOG_HASH)
                .expect("own serialization loads");
            ok &= check(
                &format!("{scenario}: PVSB round trip at {threads} worker(s)"),
                &extended_bytes,
                &book_bytes(&reloaded),
            );

            // Worker-count invariance against the 1-worker reference.
            match &reference {
                None => reference = Some(extended_bytes),
                Some(r) => {
                    ok &= check(
                        &format!("{scenario}: 1 vs {threads} worker(s)"),
                        r,
                        &extended_bytes,
                    );
                }
            }
        }
    }
    prvm_par::set_global_threads(0);

    if !ok {
        eprintln!("[incremental-smoke] FAILED: a cold build or the incremental path diverged");
        std::process::exit(1);
    }
    eprintln!("[incremental-smoke] all byte-diffs clean");
}
