//! The parallel-determinism contract (DESIGN.md §10): graph build and
//! PageRank produce **bit-for-bit identical** results at any worker
//! count. Scores are compared by `f64::to_bits`, not approximate
//! equality — scheduling must never leak into results.

use pagerankvm::{
    pagerank_warm_with_pool, pagerank_with_pool, GraphLimits, NodeId, Orientation, PageRankConfig,
    Pool, Profile, ProfileGraph, ProfileSpace, ProfileVm, ScoreTable,
};
use std::collections::{HashMap, VecDeque};

fn paper_vms() -> Vec<ProfileVm> {
    vec![
        ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]),
        ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]),
    ]
}

/// A profile space big enough that every thread count actually chunks
/// the work (hundreds of nodes), yet quick to build in a test.
fn space() -> ProfileSpace {
    ProfileSpace::uniform(6, 6)
}

#[test]
fn graph_build_is_identical_at_1_2_4_threads() {
    let reference = ProfileGraph::build_with_pool(
        space(),
        paper_vms(),
        GraphLimits::default(),
        Pool::sequential(),
    )
    .expect("reference build");
    assert!(
        reference.node_count() > 100,
        "space too small to exercise chunking: {} nodes",
        reference.node_count()
    );
    for threads in [2usize, 4] {
        let got = ProfileGraph::build_with_pool(
            space(),
            paper_vms(),
            GraphLimits::default(),
            Pool::new(threads),
        )
        .expect("parallel build");
        assert_eq!(
            got.node_count(),
            reference.node_count(),
            "threads={threads}"
        );
        assert_eq!(
            got.edge_count(),
            reference.edge_count(),
            "threads={threads}"
        );
        for id in reference.node_ids() {
            assert_eq!(
                got.profile(id),
                reference.profile(id),
                "node {id} profile differs at {threads} threads"
            );
            assert_eq!(
                got.successors(id),
                reference.successors(id),
                "node {id} successors differ at {threads} threads"
            );
            assert_eq!(
                got.utilization(id).to_bits(),
                reference.utilization(id).to_bits(),
                "node {id} utilization bits differ at {threads} threads"
            );
        }
    }
}

#[test]
fn pagerank_bits_are_identical_at_1_2_4_threads_both_orientations() {
    for orientation in [Orientation::TowardEmptier, Orientation::TowardFuller] {
        let config = PageRankConfig {
            orientation,
            ..PageRankConfig::default()
        };
        let graph = ProfileGraph::build_with_pool(
            space(),
            paper_vms(),
            GraphLimits::default(),
            Pool::sequential(),
        )
        .expect("build");
        let reference = pagerank_with_pool(&graph, &config, Pool::sequential());
        assert!(reference.converged, "{orientation:?}");
        for threads in [2usize, 4] {
            let got = pagerank_with_pool(&graph, &config, Pool::new(threads));
            assert_eq!(
                got.iterations, reference.iterations,
                "{orientation:?} iteration count differs at {threads} threads"
            );
            assert_eq!(got.converged, reference.converged);
            for (i, (a, b)) in got.scores.iter().zip(reference.scores.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{orientation:?} score[{i}] differs at {threads} threads: {a:e} vs {b:e}"
                );
            }
            for (i, (a, b)) in got
                .residuals
                .iter()
                .zip(reference.residuals.iter())
                .enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{orientation:?} residual[{i}] differs at {threads} threads"
                );
            }
        }
    }
}

/// Profiling is observation-only: with the per-worker timeline
/// recorder enabled (and, in test builds, the counting allocator
/// compiled in via the `prof-alloc` dev-dependency feature), graph and
/// score bits still match the unprofiled sequential reference exactly.
#[test]
fn profiling_enabled_runs_are_bit_identical() {
    let reference = ProfileGraph::build_with_pool(
        space(),
        paper_vms(),
        GraphLimits::default(),
        Pool::sequential(),
    )
    .expect("reference build");
    let reference_pr =
        pagerank_with_pool(&reference, &PageRankConfig::default(), Pool::sequential());

    prvm_obs::timeline::enable();
    let profiled =
        ProfileGraph::build_with_pool(space(), paper_vms(), GraphLimits::default(), Pool::new(2))
            .expect("profiled build");
    let profiled_pr = pagerank_with_pool(&profiled, &PageRankConfig::default(), Pool::new(2));
    let timeline = prvm_obs::timeline::disable();

    assert!(
        timeline.worker_lanes().len() >= 2,
        "2-thread profiled run should record >= 2 worker lanes, got {:?}",
        timeline.lanes
    );
    assert_eq!(profiled.node_count(), reference.node_count());
    assert_eq!(profiled.edge_count(), reference.edge_count());
    for id in reference.node_ids() {
        assert_eq!(
            profiled.successors(id),
            reference.successors(id),
            "node {id}"
        );
        assert_eq!(
            profiled.utilization(id).to_bits(),
            reference.utilization(id).to_bits(),
            "node {id} utilization bits"
        );
    }
    assert_eq!(profiled_pr.iterations, reference_pr.iterations);
    for (i, (a, b)) in profiled_pr
        .scores
        .iter()
        .zip(reference_pr.scores.iter())
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "score[{i}] differs under profiling"
        );
    }
}

/// Invariant 1 of the incremental score engine (DESIGN.md §15): graph
/// identity. `extend` over a catalog delta reproduces the from-scratch
/// build of the merged catalog bit-for-bit — at every worker count.
#[test]
fn extend_is_identical_to_fresh_merged_build_at_1_2_4_threads() {
    let vms = paper_vms();
    let base = ProfileGraph::build_with_pool(
        space(),
        vms[1..].to_vec(),
        GraphLimits::default(),
        Pool::sequential(),
    )
    .expect("base build");
    // The merged catalog in extend's VM order: base types, then delta.
    let merged = vec![vms[1].clone(), vms[0].clone()];
    let fresh =
        ProfileGraph::build_with_pool(space(), merged, GraphLimits::default(), Pool::sequential())
            .expect("fresh merged build");
    assert!(
        fresh.node_count() > base.node_count(),
        "delta must discover new nodes for this test to mean anything"
    );
    for threads in [1usize, 2, 4] {
        let got = base
            .extend_with_pool(
                vms[..1].to_vec(),
                GraphLimits::default(),
                Pool::new(threads),
            )
            .expect("extend");
        assert_eq!(got.node_count(), fresh.node_count(), "threads={threads}");
        assert_eq!(got.edge_count(), fresh.edge_count(), "threads={threads}");
        for id in fresh.node_ids() {
            assert_eq!(
                got.profile(id),
                fresh.profile(id),
                "node {id} profile differs at {threads} threads"
            );
            assert_eq!(
                got.successors(id),
                fresh.successors(id),
                "node {id} successors differ at {threads} threads"
            );
            assert_eq!(
                got.utilization(id).to_bits(),
                fresh.utilization(id).to_bits(),
                "node {id} utilization bits differ at {threads} threads"
            );
        }
    }
}

/// Invariant 2 (DESIGN.md §15): path independence of warm-started
/// PageRank. Seeding from the base graph's converged scores yields the
/// same bits whether the merged graph came from `extend` or from a
/// fresh build — and the bits are worker-count invariant.
#[test]
fn warm_pagerank_bits_are_worker_invariant_and_path_independent() {
    let vms = paper_vms();
    let config = PageRankConfig::default();
    let base = ProfileGraph::build_with_pool(
        space(),
        vms[1..].to_vec(),
        GraphLimits::default(),
        Pool::sequential(),
    )
    .expect("base build");
    let base_pr = pagerank_with_pool(&base, &config, Pool::sequential());
    assert!(base_pr.converged);

    let extended = base
        .extend_with_pool(
            vms[..1].to_vec(),
            GraphLimits::default(),
            Pool::sequential(),
        )
        .expect("extend");
    // The merged catalog in extend's VM order: base types, then delta.
    let merged = vec![vms[1].clone(), vms[0].clone()];
    let fresh =
        ProfileGraph::build_with_pool(space(), merged, GraphLimits::default(), Pool::sequential())
            .expect("fresh merged build");

    let reference = pagerank_warm_with_pool(
        &extended,
        &config,
        &base,
        &base_pr.scores,
        Pool::sequential(),
    );
    assert!(reference.converged);
    // Path independence: same warm start over the freshly built graph.
    let via_fresh =
        pagerank_warm_with_pool(&fresh, &config, &base, &base_pr.scores, Pool::sequential());
    assert_eq!(via_fresh.iterations, reference.iterations);
    for (i, (a, b)) in via_fresh
        .scores
        .iter()
        .zip(reference.scores.iter())
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "score[{i}] differs across paths");
    }
    // Worker invariance of the warm path.
    for threads in [2usize, 4] {
        let got = pagerank_warm_with_pool(
            &extended,
            &config,
            &base,
            &base_pr.scores,
            Pool::new(threads),
        );
        assert_eq!(
            got.iterations, reference.iterations,
            "warm iteration count differs at {threads} threads"
        );
        for (i, (a, b)) in got.scores.iter().zip(reference.scores.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "warm score[{i}] differs at {threads} threads"
            );
        }
    }
}

/// Invariants 1+2 through the public score-table API: `extend` equals
/// `build_seeded` bit-for-bit at every global worker count (both use
/// the global pool internally).
#[test]
fn score_table_extend_matches_build_seeded_at_1_2_4_global_threads() {
    let vms = paper_vms();
    let config = PageRankConfig::default();
    let mut reference: Option<Vec<u64>> = None;
    for threads in [1usize, 2, 4] {
        prvm_par::set_global_threads(threads);
        let base = ScoreTable::build(space(), vms[1..].to_vec(), &config, GraphLimits::default())
            .expect("base table");
        let extended = base
            .extend(vms[..1].to_vec(), &config, GraphLimits::default())
            .expect("extend");
        let seeded = ScoreTable::build_seeded(
            space(),
            vms[1..].to_vec(),
            vms[..1].to_vec(),
            &config,
            GraphLimits::default(),
        )
        .expect("seeded rebuild");
        let bits = |t: &ScoreTable| -> Vec<u64> { t.iter().map(|(_, s)| s.to_bits()).collect() };
        assert_eq!(
            bits(&extended),
            bits(&seeded),
            "extend != build_seeded at {threads} global threads"
        );
        match &reference {
            None => reference = Some(bits(&extended)),
            Some(r) => assert_eq!(
                r,
                &bits(&extended),
                "score bits differ between 1 and {threads} global threads"
            ),
        }
    }
    prvm_par::set_global_threads(0);
}

#[test]
fn full_space_graph_is_identical_at_1_2_4_threads() {
    let reference = ProfileGraph::build_full_with_pool(
        space(),
        paper_vms(),
        GraphLimits::default(),
        Pool::sequential(),
    )
    .expect("reference build_full");
    for threads in [2usize, 4] {
        let got = ProfileGraph::build_full_with_pool(
            space(),
            paper_vms(),
            GraphLimits::default(),
            Pool::new(threads),
        )
        .expect("parallel build_full");
        assert_eq!(got.node_count(), reference.node_count());
        assert_eq!(got.edge_count(), reference.edge_count());
        for id in reference.node_ids() {
            assert_eq!(got.successors(id), reference.successors(id), "node {id}");
        }
    }
}

/// An independent reference for the graph engine: the plain
/// single-threaded FIFO-queue BFS over `ProfileSpace::place` whose order
/// the level-synchronous build documents it reproduces. Returns every
/// node's profile and sorted, deduplicated successor ids, in id order.
fn queue_bfs(space: &ProfileSpace, vms: &[ProfileVm]) -> Vec<(Profile, Vec<NodeId>)> {
    let empty = space.empty_profile();
    let usable: Vec<&ProfileVm> = vms
        .iter()
        .filter(|vm| !space.place(&empty, vm).is_empty())
        .collect();
    let mut ids: HashMap<Profile, NodeId> = HashMap::from([(empty.clone(), 0)]);
    let mut nodes: Vec<(Profile, Vec<NodeId>)> = vec![(empty, Vec::new())];
    let mut queue: VecDeque<usize> = VecDeque::from([0]);
    while let Some(i) = queue.pop_front() {
        let mut row: Vec<NodeId> = Vec::new();
        for vm in &usable {
            for p in space.place(&nodes[i].0, vm) {
                let id = match ids.get(&p) {
                    Some(&id) => id,
                    None => {
                        let id = NodeId::try_from(nodes.len()).expect("node ids fit u32");
                        ids.insert(p.clone(), id);
                        nodes.push((p, Vec::new()));
                        queue.push_back(nodes.len() - 1);
                        id
                    }
                };
                row.push(id);
            }
        }
        row.sort_unstable();
        row.dedup();
        nodes[i].1 = row;
    }
    nodes
}

fn assert_matches_reference(got: &ProfileGraph, reference: &[(Profile, Vec<NodeId>)], what: &str) {
    assert_eq!(got.node_count(), reference.len(), "{what}: node count");
    for (id, (profile, succ)) in got.node_ids().zip(reference) {
        assert_eq!(got.profile(id), profile, "{what}: node {id} profile");
        assert_eq!(
            got.successors(id),
            succ.as_slice(),
            "{what}: node {id} successors"
        );
        assert_eq!(
            got.utilization(id).to_bits(),
            got.space().utilization(profile).to_bits(),
            "{what}: node {id} utilization bits"
        );
    }
}

/// `build`, `extend` and `build_seeded` share one BFS engine, so
/// comparing them with each other cannot catch a bug in it. Pin the
/// engine against the reference queue BFS instead, for a cold build and
/// for two extend histories: a structural delta that discovers new
/// nodes (slow replay path) and a refresh delta with an existing
/// footprint (identity fast path).
#[test]
fn build_and_extend_match_an_independent_queue_bfs_at_1_2_4_threads() {
    let vms = paper_vms();
    let refresh = ProfileVm::from_demands("[1,1]'", vec![vec![1, 1]]);
    let histories: [(&str, Vec<ProfileVm>, Vec<ProfileVm>); 2] = [
        ("structural", vms[1..].to_vec(), vms[..1].to_vec()),
        ("refresh", vms.clone(), vec![refresh]),
    ];
    for (name, base_vms, delta) in histories {
        let merged: Vec<ProfileVm> = base_vms.iter().chain(&delta).cloned().collect();
        let reference = queue_bfs(&space(), &merged);
        assert!(
            reference.len() > 100,
            "space too small: {} nodes",
            reference.len()
        );
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            let built = ProfileGraph::build_with_pool(
                space(),
                merged.clone(),
                GraphLimits::default(),
                pool,
            )
            .expect("build");
            assert_matches_reference(&built, &reference, &format!("{name} build, {threads}w"));

            let base = ProfileGraph::build_with_pool(
                space(),
                base_vms.clone(),
                GraphLimits::default(),
                pool,
            )
            .expect("base build");
            assert_matches_reference(
                &base,
                &queue_bfs(&space(), &base_vms),
                &format!("{name} base, {threads}w"),
            );
            let extended = base
                .extend_with_pool(delta.clone(), GraphLimits::default(), pool)
                .expect("extend");
            assert_matches_reference(&extended, &reference, &format!("{name} extend, {threads}w"));
        }
    }
}

/// Every full-space node's successors are exactly the placements of
/// every VM type on its profile, for a cold full build and an extended
/// one, at 1, 2 and 4 workers; the node set is every multiset.
#[test]
fn full_space_successors_are_the_placements_of_every_vm_type() {
    let vms = paper_vms();
    for threads in [1usize, 2, 4] {
        let pool = Pool::new(threads);
        let built =
            ProfileGraph::build_full_with_pool(space(), vms.clone(), GraphLimits::default(), pool)
                .expect("build_full");
        let extended = ProfileGraph::build_full_with_pool(
            space(),
            vms[..1].to_vec(),
            GraphLimits::default(),
            pool,
        )
        .expect("base build_full")
        .extend_with_pool(vms[1..].to_vec(), GraphLimits::default(), pool)
        .expect("extend full");
        for g in [&built, &extended] {
            // Multisets of 6 values in 0..=6: C(12, 6).
            assert_eq!(g.node_count(), 924);
            for id in g.node_ids() {
                let mut want: Vec<NodeId> = g
                    .vm_types()
                    .iter()
                    .flat_map(|vm| g.space().place(g.profile(id), vm))
                    .map(|p| g.node(&p).expect("full space holds every profile"))
                    .collect();
                want.sort_unstable();
                want.dedup();
                assert_eq!(g.successors(id), want.as_slice(), "{threads}w node {id}");
            }
        }
    }
}
