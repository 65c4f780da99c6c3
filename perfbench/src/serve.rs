//! `serve-fleet` and `serve-rack`: an in-process placement daemon booted
//! from the PVSB and prefilled, then driven over framed TCP by a seeded
//! 1:1 stream of place and evict requests over the six EC2 VM types.
//!
//! Phase A is an open loop at a fixed offered rate on one connection;
//! each request is timed from when it was due. Phase B is a closed loop
//! on two connections and measures capacity. The traced run replays
//! phase A's stream in-process through the daemon's own state, journal
//! and store calls, timing each call.

use crate::cold::{install_pvsb, load_file, produce_pvsb};
use crate::common::{
    mean, median, ms_since, percentile, sum, timed, Args, Outcome, Rng, Spans, WorkDir,
};
use prvm_model::{catalog, VmSpec};
use prvm_serve::wire::{EvictReq, PlaceReq, StatsReq};
use prvm_serve::{
    CatalogSpec, Client, FrameDecoder, Journal, Request, Response, ServeState, ServerConfig,
    ServerHandle, Store,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::linux::net::TcpStreamExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One serve workload's shape.
pub struct ServeShape {
    pub name: &'static str,
    /// PMs in the daemon's cluster.
    pub pms: usize,
    /// VMs placed before the timed phases start.
    pub resident: usize,
    /// Phase A offered rate: a quarter to a third of the parent's phase-B
    /// capacity on a 2-thread host, so a slowed host does not saturate
    /// the daemon.
    pub rate_per_s: f64,
}

pub const FLEET: ServeShape = ServeShape {
    name: "serve-fleet",
    pms: 1000,
    resident: 1500,
    rate_per_s: 100.0,
};

/// Journal-bound shape. Not in BENCHMARK.json: its closed-loop capacity
/// and latency means swing by a third from run to run on a shared 2-thread
/// host, wider than any bound the benchmark may set. Run it by hand.
pub const RACK: ServeShape = ServeShape {
    name: "serve-rack",
    pms: 32,
    resident: 40,
    rate_per_s: 600.0,
};

/// Share of `--seconds` given to phase A; phase B gets the rest.
const PHASE_A_SHARE: f64 = 0.4;

/// Phase B's capacity is the median over windows of this many seconds,
/// so a short stall of the host moves one window, not the figure.
const WINDOW_S: f64 = 1.0;

/// Closed-loop connections (and load-generator threads) in phase B.
const CONNECTIONS: usize = 2;

/// Requests each phase-B connection keeps in flight, so the daemon's
/// worker, not the hand-off between threads, sets the pace.
const DEPTH: usize = 4;

/// Latency charged to a refused, shed, timed-out or unanswered request:
/// above any limit a user would set (10x the daemon's deadline).
const FAILED_MS: f64 = 50_000.0;

/// Largest relative gap allowed between the in-process replay's per-op
/// mean and the daemon's own dispatch mean (the closure check).
pub const DISPATCH_CLOSURE_TOL: f64 = 0.35;

/// In the traced run phase A goes out in chunks of this many requests,
/// each followed at once by its traced and its plain in-process replay,
/// so the replay and the daemon it is checked against meet the same
/// speed of the host, which switches every few seconds.
const REPLAY_CHUNK: usize = 100;

const SETUP_REPEATS: usize = crate::cold::SETUP_REPEATS;

/// The daemon's settings, as `serve --queue 1024 --deadline-ms 5000`
/// would give them: an admission queue and deadline deep enough that a
/// short stall of the host does not turn into refusals; compaction keeps
/// its default.
fn server_config() -> ServerConfig {
    ServerConfig {
        queue_capacity: 1024,
        default_deadline_ms: 5_000,
        ..ServerConfig::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// Place a VM of catalog type `ty`; the daemon must answer with `vm`.
    Place {
        ty: usize,
        vm: u64,
    },
    Evict {
        vm: u64,
    },
}

/// The seeded phase-A stream: strictly alternating place and evict, so
/// occupancy holds. Each place's VM id is predicted (the daemon allocates
/// ids sequentially); each evict picks a uniformly random live VM.
fn stream(
    rng: &mut Rng,
    n: usize,
    live: &mut Vec<u64>,
    next_vm: &mut u64,
    types: usize,
) -> Vec<Step> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 || live.is_empty() {
                let vm = *next_vm;
                *next_vm += 1;
                live.push(vm);
                Step::Place {
                    ty: rng.below(types),
                    vm,
                }
            } else {
                Step::Evict {
                    vm: live.swap_remove(rng.below(live.len())),
                }
            }
        })
        .collect()
}

fn request(step: Step, id: u64, types: &[VmSpec]) -> Request {
    match step {
        Step::Place { ty, .. } => Request::Place(PlaceReq {
            id,
            deadline_ms: 0,
            vm_type: types[ty].name.clone(),
        }),
        Step::Evict { vm } => Request::Evict(EvictReq {
            id,
            deadline_ms: 0,
            vm,
        }),
    }
}

/// Build the prefilled state in-process: `resident` seeded places.
fn prefill(
    spec: &CatalogSpec,
    book: Arc<pagerankvm::ScoreBook>,
    resident: usize,
    seed: u64,
) -> Result<ServeState, String> {
    let mut state = ServeState::recover_with_book(spec, book, None, &[])
        .map_err(|e| format!("fresh state: {e}"))?;
    let mut rng = Rng::new(seed ^ 0x0001_f111);
    for i in 0..resident {
        let req = PlaceReq {
            id: i as u64 + 1,
            deadline_ms: 0,
            vm_type: spec.vm_types[rng.below(spec.vm_types.len())].name.clone(),
        };
        let (op, _) = state
            .prepare_place(&req)
            .map_err(|e| format!("prefill place {i} refused: {}", e.detail))?;
        state
            .commit(&op)
            .map_err(|e| format!("prefill commit: {e}"))?;
    }
    Ok(state)
}

struct Daemon {
    handle: ServerHandle,
    store_dir: std::path::PathBuf,
    book: Arc<pagerankvm::ScoreBook>,
}

/// One set-up: load the PVSB, prefill, cut the snapshot, boot the daemon
/// on that store and wait for its first `stats` reply.
fn set_up(
    shape: &ServeShape,
    spec: &CatalogSpec,
    pvsb: &Path,
    dir: &Path,
    seed: u64,
) -> Result<(Daemon, Vec<u64>, u64), String> {
    let book = Arc::new(load_file(pvsb, spec.hash())?);
    let state = prefill(spec, Arc::clone(&book), shape.resident, seed)?;
    let store = Store::open(dir).map_err(|e| format!("open store: {e}"))?;
    store
        .commit_snapshot(&state.snapshot(1))
        .map_err(|e| format!("prefill snapshot: {e}"))?;
    install_pvsb(pvsb, &store)?;
    let handle = prvm_serve::Server::start(spec, store, server_config(), "127.0.0.1:0")
        .map_err(|e| format!("daemon boot failed: {e}"))?;
    let stats = Client::connect(handle.addr())
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("stats after boot: {e}"))?;
    if stats.state.vms != shape.resident {
        return Err(format!(
            "daemon booted with {} VMs, want {}",
            stats.state.vms, shape.resident
        ));
    }
    let mut live: Vec<u64> = state.cluster().vm_ids().map(|v| v.0).collect();
    live.sort_unstable();
    let daemon = Daemon {
        handle,
        store_dir: dir.to_path_buf(),
        book,
    };
    Ok((daemon, live, state.cluster().next_vm_id()))
}

/// Phase A results, one entry per step.
#[derive(Default)]
struct OpenLoop {
    /// Reply time minus due time (ms); `None` when the request failed.
    latency: Vec<Option<f64>>,
    /// Reply time minus actual send time (ms); `None` when failed.
    rtt: Vec<Option<f64>>,
    /// Actual send time minus due time (ms).
    late: Vec<f64>,
    /// The PM each successful reply named.
    pm: Vec<Option<usize>>,
    /// The VM each successful reply named.
    vm: Vec<Option<u64>>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    wall_s: f64,
}

impl OpenLoop {
    /// Extend with the next stretch of the same stream.
    fn append(&mut self, next: OpenLoop) {
        self.latency.extend(next.latency);
        self.rtt.extend(next.rtt);
        self.late.extend(next.late);
        self.pm.extend(next.pm);
        self.vm.extend(next.vm);
        self.encode_us.extend(next.encode_us);
        self.decode_us.extend(next.decode_us);
        self.wall_s += next.wall_s;
    }
}

fn io_err(e: impl std::fmt::Display) -> String {
    format!("phase A connection: {e}")
}

/// Open loop on one connection: a writer sends step `i` at `t0 + i/rate`
/// whatever the replies do; a reader thread matches replies by id.
fn open_loop(
    addr: SocketAddr,
    steps: &[Step],
    rate: f64,
    types: &[VmSpec],
) -> Result<OpenLoop, String> {
    let mut stream = TcpStream::connect(addr).map_err(io_err)?;
    stream.set_nodelay(true).map_err(io_err)?;
    // Warm the connection (the daemon accepts on a polling listener) so
    // the first due request does not pay for the accept.
    let mut decoder = FrameDecoder::new();
    let warm = Request::Stats(StatsReq {
        id: u64::MAX,
        deadline_ms: 0,
    });
    stream
        .write_all(&warm.encode().map_err(io_err)?)
        .map_err(io_err)?;
    read_frame(&mut stream, &mut decoder)?;
    let mut reader = stream.try_clone().map_err(io_err)?;
    reader
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(io_err)?;

    let n = steps.len();
    let t0 = Instant::now() + Duration::from_millis(5);
    let last_due = Duration::from_secs_f64(n as f64 / rate);
    let (sent_at, late, encode_us, recv) = std::thread::scope(|s| {
        let rx = s.spawn(move || {
            let mut recv: Vec<Option<(Instant, Response, f64)>> = vec![None; n];
            let mut got = 0usize;
            let mut buf = vec![0u8; 64 * 1024];
            let give_up = t0 + last_due + Duration::from_secs(5);
            while got < n && Instant::now() < give_up {
                match decoder.next_frame() {
                    Ok(Some(frame)) => {
                        let t = Instant::now();
                        let Ok(resp) = Response::decode(&frame) else {
                            break;
                        };
                        let us = t.elapsed().as_secs_f64() * 1e6;
                        let i = resp.id().wrapping_sub(1) as usize;
                        if i < n && recv[i].is_none() {
                            recv[i] = Some((t, resp, us));
                            got += 1;
                        }
                        continue;
                    }
                    Ok(None) => {}
                    Err(_) => break,
                }
                match reader.read(&mut buf) {
                    Ok(0) => break,
                    Ok(k) => {
                        decoder.feed(&buf[..k]);
                        quick_ack(&reader);
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(_) => break,
                }
            }
            recv
        });
        let mut sent_at = Vec::with_capacity(n);
        let mut late = Vec::with_capacity(n);
        let mut encode_us = Vec::with_capacity(n);
        for (i, &step) in steps.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t = Instant::now();
            let frame = request(step, i as u64 + 1, types).encode();
            encode_us.push(t.elapsed().as_secs_f64() * 1e6);
            let sent = Instant::now();
            late.push((sent - due.min(sent)).as_secs_f64() * 1e3);
            sent_at.push(sent);
            if frame
                .map_err(io_err)
                .and_then(|f| stream.write_all(&f).map_err(io_err))
                .is_err()
            {
                break;
            }
        }
        let recv = rx.join().unwrap_or_default();
        (sent_at, late, encode_us, recv)
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let mut out = OpenLoop {
        latency: vec![None; n],
        rtt: vec![None; n],
        late,
        pm: vec![None; n],
        vm: vec![None; n],
        encode_us,
        decode_us: Vec::new(),
        wall_s,
    };
    for (i, r) in recv.into_iter().enumerate() {
        let (Some((t, resp, us)), Some(&sent)) = (r, sent_at.get(i)) else {
            continue;
        };
        out.decode_us.push(us);
        let (vm, pm) = match resp {
            Response::Placed(p) => (p.vm, p.pm),
            Response::Evicted(e) => (e.vm, e.pm),
            _ => continue,
        };
        let due = t0 + Duration::from_secs_f64(i as f64 / rate);
        out.latency[i] = Some((t - due.min(t)).as_secs_f64() * 1e3);
        out.rtt[i] = Some((t - sent.min(t)).as_secs_f64() * 1e3);
        out.vm[i] = Some(vm);
        out.pm[i] = Some(pm);
    }
    Ok(out)
}

fn read_frame(stream: &mut TcpStream, decoder: &mut FrameDecoder) -> Result<Response, String> {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = decoder.next_frame().map_err(io_err)? {
            return Response::decode(&frame).map_err(io_err);
        }
        let k = stream.read(&mut buf).map_err(io_err)?;
        if k == 0 {
            return Err("daemon closed the connection".to_string());
        }
        decoder.feed(&buf[..k]);
        quick_ack(stream);
    }
}

/// Acknowledge the daemon's replies at once. The daemon's sockets run
/// Nagle's algorithm, so with delayed ACKs a reply can wait for the ACK
/// that the client's next request carries: latency then reads as the gap
/// between requests in some runs and as the service time in others.
/// Linux clears the flag as it goes, so it is set again after every read.
fn quick_ack(stream: &TcpStream) {
    let _ = stream.set_quickack(true);
}

/// Phase B results, merged over its connections.
#[derive(Default)]
struct ClosedLoop {
    /// Successful replies per whole `WINDOW_S` window.
    done: Vec<u64>,
    failed: u64,
    /// Send-to-reply latency (ms) of each place / evict; `FAILED_MS` for
    /// a failed one.
    place_ms: Vec<f64>,
    evict_ms: Vec<f64>,
}

impl ClosedLoop {
    fn completed(&self) -> u64 {
        self.done.iter().sum()
    }
}

/// Phase B: `CONNECTIONS` closed-loop clients. Each keeps `DEPTH`
/// requests in flight on its connection, alternating a place and an
/// evict of one of its own acknowledged VMs, until `seconds` pass.
fn closed_loop(
    addr: SocketAddr,
    live: &[u64],
    seconds: f64,
    seed: u64,
    types: &[VmSpec],
) -> Result<ClosedLoop, String> {
    let t0 = Instant::now();
    let stop = t0 + Duration::from_secs_f64(seconds);
    let windows = (seconds / WINDOW_S) as usize;
    let results: Vec<Result<ClosedLoop, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let own: Vec<u64> = live.iter().copied().skip(c).step_by(CONNECTIONS).collect();
                let mut rng = Rng::new(seed ^ (0xb0b0 + c as u64));
                s.spawn(move || connection(addr, own, &mut rng, types, t0, stop, windows))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("phase B worker panicked".to_string()))
            })
            .collect()
    });
    let mut all = ClosedLoop {
        done: vec![0; windows + 1],
        ..ClosedLoop::default()
    };
    for r in results {
        let one = r?;
        all.failed += one.failed;
        for (w, d) in all.done.iter_mut().zip(&one.done) {
            *w += d;
        }
        all.place_ms.extend(one.place_ms);
        all.evict_ms.extend(one.evict_ms);
    }
    // The last window is cut short by the deadline.
    all.done.truncate(windows);
    Ok(all)
}

/// One phase-B connection.
fn connection(
    addr: SocketAddr,
    mut own: Vec<u64>,
    rng: &mut Rng,
    types: &[VmSpec],
    t0: Instant,
    stop: Instant,
    windows: usize,
) -> Result<ClosedLoop, String> {
    let err = |e: &dyn std::fmt::Display| format!("phase B connection: {e}");
    let mut stream = TcpStream::connect(addr).map_err(|e| err(&e))?;
    stream.set_nodelay(true).map_err(|e| err(&e))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| err(&e))?;
    let mut decoder = FrameDecoder::new();
    let mut out = ClosedLoop {
        done: vec![0; windows + 1],
        ..ClosedLoop::default()
    };
    // (request id, sent at, is a place) of every request awaiting its reply.
    let mut in_flight: Vec<(u64, Instant, bool)> = Vec::with_capacity(DEPTH);
    let mut next_id = 1u64;
    let mut place_next = true;
    loop {
        while in_flight.len() < DEPTH && Instant::now() < stop {
            let place = place_next || own.is_empty();
            let req = if place {
                let ty = types[rng.below(types.len())].name.clone();
                Request::Place(PlaceReq {
                    id: next_id,
                    deadline_ms: 0,
                    vm_type: ty,
                })
            } else {
                let vm = own.swap_remove(rng.below(own.len()));
                Request::Evict(EvictReq {
                    id: next_id,
                    deadline_ms: 0,
                    vm,
                })
            };
            place_next = !place_next;
            let frame = req.encode().map_err(|e| err(&e))?;
            in_flight.push((next_id, Instant::now(), place));
            next_id += 1;
            stream.write_all(&frame).map_err(|e| err(&e))?;
        }
        if in_flight.is_empty() {
            break;
        }
        let reply = read_frame(&mut stream, &mut decoder)?;
        let Some(slot) = in_flight.iter().position(|&(id, _, _)| id == reply.id()) else {
            return Err(format!("phase B reply for unknown request {}", reply.id()));
        };
        let (_, sent, place) = in_flight.swap_remove(slot);
        let ms = match reply {
            Response::Placed(_) | Response::Evicted(_) => sent.elapsed().as_secs_f64() * 1e3,
            _ => FAILED_MS,
        };
        if place {
            out.place_ms.push(ms);
        } else {
            out.evict_ms.push(ms);
        }
        match reply {
            Response::Placed(p) => own.push(p.vm),
            Response::Evicted(_) => {}
            _ => {
                out.failed += 1;
                continue;
            }
        }
        let w = (t0.elapsed().as_secs_f64() / WINDOW_S) as usize;
        out.done[w.min(windows)] += 1;
    }
    Ok(out)
}

/// Rebuild the state from the daemon's store (snapshot + journal) and
/// return its digest in the daemon's hex format.
fn recovered_digest(spec: &CatalogSpec, daemon: &Daemon) -> Result<String, String> {
    let store = Store::open(&daemon.store_dir).map_err(|e| format!("reopen store: {e}"))?;
    let snap = store
        .load_snapshot()
        .map_err(|e| format!("load snapshot: {e}"))?;
    let (_, replay) = store
        .open_journal()
        .map_err(|e| format!("open journal: {e}"))?;
    let state =
        ServeState::recover_with_book(spec, Arc::clone(&daemon.book), snap.as_ref(), &replay.ops)
            .map_err(|e| format!("recover: {e}"))?;
    Ok(format!("{:016x}", state.digest()))
}

pub fn run(args: &Args, shape: &ServeShape) -> Result<Outcome, String> {
    let work = WorkDir::create(shape.name)?;
    let spec = CatalogSpec::ec2(shape.pms);
    let types = catalog::ec2_vm_types();
    let pvsb = work.join("scores.pvsb");
    eprintln!("[perfbench] {}: producing the PVSB (untimed)", shape.name);
    produce_pvsb(&pvsb, spec.hash())?;
    let mut out = Outcome::default();

    let mut setup = Vec::new();
    let mut booted = None;
    for i in 0..SETUP_REPEATS {
        if let Some((old, _, _)) = booted.take() {
            let old: Daemon = old;
            let _ = old.handle.shutdown();
        }
        let (d, ms) = timed(|| {
            set_up(
                shape,
                &spec,
                &pvsb,
                &work.join(&format!("store-{i}")),
                args.seed,
            )
        });
        setup.push(ms / 1e3);
        booted = Some(d?);
    }
    let (daemon, mut live, mut next_vm) = booted.ok_or("no set-up ran")?;
    out.e2e.insert("setup_s", median(&setup));

    let a_secs = args.seconds * PHASE_A_SHARE;
    let n = ((a_secs * shape.rate_per_s) as usize).max(2);
    let mut rng = Rng::new(args.seed);
    let steps = stream(&mut rng, n, &mut live, &mut next_vm, types.len());

    if args.trace {
        prvm_obs::Registry::global().reset();
    }
    let (a, replays) = if args.trace {
        let (a, r) = open_loop_with_replays(
            daemon.handle.addr(),
            &steps,
            &spec,
            &daemon.book,
            shape,
            args.seed,
            &work,
        )?;
        (a, Some(r))
    } else {
        let a = open_loop(daemon.handle.addr(), &steps, shape.rate_per_s, &types)?;
        (a, None)
    };
    let dispatch = prvm_obs::Registry::global().histogram("serve.request_latency_us");
    let (dispatch_n, dispatch_us) = (dispatch.count(), dispatch.sum());
    let (dispatch_p50_us, dispatch_p99_us) = (dispatch.quantile(0.5), dispatch.quantile(0.99));
    let dispatch_mean_ms = dispatch_us as f64 / dispatch_n.max(1) as f64 / 1e3;

    let mut place_ms = Vec::new();
    let mut evict_ms = Vec::new();
    let mut a_failed = 0u64;
    let mut predicted = true;
    for (i, &step) in steps.iter().enumerate() {
        let ms = a.latency[i].unwrap_or(FAILED_MS);
        let (Step::Place { vm, .. } | Step::Evict { vm }) = step;
        // A refused place shifts every later VM id, so predictions are
        // checked only up to the first failure; failures are counted.
        predicted &= a_failed > 0 || a.vm[i] == Some(vm);
        if a.latency[i].is_none() {
            a_failed += 1;
        }
        match step {
            Step::Place { .. } => place_ms.push(ms),
            Step::Evict { .. } => evict_ms.push(ms),
        }
    }
    out.check("phase_a_replies_name_the_predicted_vms", predicted);
    if let Some(r) = replays {
        replay_layers(&mut out, args, shape, &spec, r, &a, dispatch_mean_ms, &work)?;
    }

    let b_secs = args.seconds - a_secs;
    let b = closed_loop(daemon.handle.addr(), &live, b_secs, args.seed, &types)?;
    let window_rps: Vec<f64> = b.done.iter().map(|&d| d as f64 / WINDOW_S).collect();

    let mut client =
        Client::connect(daemon.handle.addr()).map_err(|e| format!("final connect: {e}"))?;
    let stats = client.stats().map_err(|e| format!("final stats: {e}"))?;
    drop(client);
    out.check(
        "recovered_digest_equals_final_stats",
        recovered_digest(&spec, &daemon)? == stats.state.digest,
    );
    let process = daemon.handle.shutdown();

    out.attempted = n as u64 + b.completed() + b.failed;
    out.failed = a_failed + b.failed;
    out.e2e.insert("main_ms", percentile(&b.place_ms, 0.5));
    out.e2e.insert("second_ms", mean(&b.place_ms));
    out.e2e.insert("third_ms", percentile(&b.evict_ms, 0.5));
    out.e2e.insert("ops_per_s", median(&window_rps));
    out.detail("setup_s", median(&setup), "s");
    out.detail("serve_rps", median(&window_rps), "req/s");
    out.detail("offered_rps", shape.rate_per_s, "req/s");
    out.detail("place_p50_ms", percentile(&place_ms, 0.5), "ms");
    out.detail("place_p99_ms", percentile(&place_ms, 0.99), "ms");
    out.detail("place_mean_ms", mean(&place_ms), "ms");
    out.detail("evict_p50_ms", percentile(&evict_ms, 0.5), "ms");
    out.detail("evict_p99_ms", percentile(&evict_ms, 0.99), "ms");
    out.detail("evict_mean_ms", mean(&evict_ms), "ms");
    out.detail("loaded_place_p50_ms", percentile(&b.place_ms, 0.5), "ms");
    out.detail("loaded_place_mean_ms", mean(&b.place_ms), "ms");
    out.detail("loaded_place_p99_ms", percentile(&b.place_ms, 0.99), "ms");
    out.detail("loaded_evict_p50_ms", percentile(&b.evict_ms, 0.5), "ms");
    out.detail(
        "failed_frac",
        out.failed as f64 / out.attempted as f64,
        "ratio",
    );
    out.detail("phase_a_requests", n as f64, "count");
    out.detail(
        "phase_b_requests",
        (b.completed() + b.failed) as f64,
        "count",
    );
    out.detail("generator_late_p99_ms", percentile(&a.late, 0.99), "ms");
    out.detail("generator_late_max_ms", percentile(&a.late, 1.0), "ms");

    if args.trace {
        let l = &mut out.layers;
        let rtt: Vec<f64> = a.rtt.iter().flatten().copied().collect();
        l.insert("serve.wire.encode_us", mean(&a.encode_us));
        l.insert("serve.wire.decode_us", mean(&a.decode_us));
        l.insert("serve.server.dispatch_ms.p50", dispatch_p50_us as f64 / 1e3);
        l.insert("serve.server.dispatch_ms.p99", dispatch_p99_us as f64 / 1e3);
        l.insert(
            "serve.server.outside_dispatch_ms",
            mean(&rtt) - dispatch_mean_ms,
        );
        l.insert(
            "serve.server.busy_frac",
            dispatch_us as f64 / 1e6 / a.wall_s,
        );
        l.insert("serve.server.shed", process.shed as f64);
        l.insert("serve.server.timeouts", process.timeouts as f64);
        l.insert("serve.loadgen.late_ms.p99", percentile(&a.late, 0.99));
        l.insert("serve.loadgen.late_ms.max", percentile(&a.late, 1.0));
    }
    Ok(out)
}

/// An in-process copy of the prefilled daemon that replays phase A's
/// stream through the daemon's own state, journal and store calls, at
/// phase A's pace.
struct Replayer<'a> {
    state: ServeState,
    store: Store,
    journal: Journal<std::fs::File>,
    journal_path: PathBuf,
    types: &'a [VmSpec],
    rate: f64,
    journal_bytes: u64,
    version: u64,
    /// (VM, PM) named by each step's reply.
    decisions: Vec<(u64, usize)>,
    /// Summed per-op busy time (ms), sleeps between ops excluded.
    busy_ms: f64,
}

impl<'a> Replayer<'a> {
    fn new(
        spec: &'a CatalogSpec,
        book: Arc<pagerankvm::ScoreBook>,
        shape: &ServeShape,
        seed: u64,
        dir: &Path,
    ) -> Result<Self, String> {
        let state = prefill(spec, book, shape.resident, seed)?;
        let store = Store::open(dir).map_err(|e| format!("open replay store: {e}"))?;
        let (journal, _) = store
            .open_journal()
            .map_err(|e| format!("replay journal: {e}"))?;
        Ok(Self {
            state,
            store,
            journal,
            journal_path: dir.join("journal.wal"),
            types: &spec.vm_types,
            rate: shape.rate_per_s,
            journal_bytes: 0,
            version: 0,
            decisions: Vec::new(),
            busy_ms: 0.0,
        })
    }

    /// Replay the next `steps` of the stream, paced like phase A so each
    /// op meets the same idle worker the daemon's requests meet. With
    /// `spans`, each call is timed inside a per-request span tree.
    fn run(&mut self, steps: &[Step], mut spans: Option<&mut Spans>) -> Result<(), String> {
        let compact_every = server_config().compact_every;
        let t0 = Instant::now();
        macro_rules! span {
            ($name:expr, $req:expr, $body:expr) => {
                match spans.as_deref_mut() {
                    Some(s) => s.time($name, $req, || $body).0,
                    None => $body,
                }
            };
        }
        for (i, &step) in steps.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(i as f64 / self.rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let started = Instant::now();
            let req = self.decisions.len() as u64 + 1;
            if let Some(s) = spans.as_deref_mut() {
                s.enter("serve.op", req);
            }
            let state = &mut self.state;
            let (op, decision) = match request(step, req, self.types) {
                Request::Place(r) => {
                    span!("serve.state.prepare_place", req, state.prepare_place(&r))
                        .map(|(op, p)| (op, (p.vm, p.pm)))
                }
                Request::Evict(r) => {
                    span!("serve.state.prepare_evict", req, state.prepare_evict(&r))
                        .map(|(op, e)| (op, (e.vm, e.pm)))
                }
                _ => unreachable!("the stream holds places and evicts only"),
            }
            .map_err(|e| format!("replay step {req} refused: {}", e.detail))?;
            span!("serve.journal.append", req, self.journal.append(&op))
                .map_err(|e| format!("replay append: {e}"))?;
            span!("serve.state.commit", req, state.commit(&op))
                .map_err(|e| format!("replay commit: {e}"))?;
            if self.journal.records() >= compact_every {
                self.journal_bytes += file_len(&self.journal_path);
                self.version += 1;
                let snap = state.snapshot(self.version);
                let (store, journal) = (&self.store, &mut self.journal);
                span!(
                    "serve.journal.compact",
                    req,
                    store.commit_snapshot(&snap).and_then(|()| journal.reset())
                )
                .map_err(|e| format!("replay compaction: {e}"))?;
            }
            if let Some(s) = spans.as_deref_mut() {
                s.exit();
            }
            self.busy_ms += ms_since(started);
            self.decisions.push(decision);
        }
        Ok(())
    }

    fn journal_bytes_per_op(&self) -> f64 {
        let bytes = self.journal_bytes + file_len(&self.journal_path);
        bytes as f64 / self.decisions.len().max(1) as f64
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// What the traced run's phase A produced besides the daemon's replies.
struct Replays<'a> {
    traced: Replayer<'a>,
    plain: Replayer<'a>,
    spans: Spans,
    /// Placer counter increments over the traced replay's calls only.
    placer_counts: Vec<u64>,
}

/// Phase A for the traced run: chunk by chunk, the daemon's open loop,
/// then the traced replay, then the plain replay of the same chunk.
fn open_loop_with_replays<'a>(
    addr: SocketAddr,
    steps: &[Step],
    spec: &'a CatalogSpec,
    book: &Arc<pagerankvm::ScoreBook>,
    shape: &ServeShape,
    seed: u64,
    work: &WorkDir,
) -> Result<(OpenLoop, Replays<'a>), String> {
    let mut r = Replays {
        traced: Replayer::new(
            spec,
            Arc::clone(book),
            shape,
            seed,
            &work.join("replay-traced"),
        )?,
        plain: Replayer::new(
            spec,
            Arc::clone(book),
            shape,
            seed,
            &work.join("replay-plain"),
        )?,
        spans: Spans::default(),
        placer_counts: vec![0; 3],
    };
    let mut a = OpenLoop::default();
    for chunk in steps.chunks(REPLAY_CHUNK) {
        a.append(open_loop(addr, chunk, shape.rate_per_s, &spec.vm_types)?);
        let before = crate::day::placer_counters();
        r.traced.run(chunk, Some(&mut r.spans))?;
        for (total, c) in r
            .placer_counts
            .iter_mut()
            .zip(crate::day::placer_counters_since(&before))
        {
            *total += c;
        }
        r.plain.run(chunk, None)?;
    }
    Ok((a, r))
}

#[allow(clippy::too_many_arguments)]
fn replay_layers(
    out: &mut Outcome,
    args: &Args,
    shape: &ServeShape,
    spec: &CatalogSpec,
    r: Replays,
    a: &OpenLoop,
    dispatch_mean_ms: f64,
    work: &WorkDir,
) -> Result<(), String> {
    let Replays {
        traced,
        plain,
        spans,
        placer_counts,
    } = r;
    let choose = spans.durations("serve.state.prepare_place");
    crate::day::placer_layers(out, &crate::day::PLACER, &choose, &placer_counts);

    let same =
        traced.decisions.iter().enumerate().all(|(i, &(vm, pm))| {
            a.vm[i].is_none_or(|v| v == vm) && a.pm[i].is_none_or(|p| p == pm)
        });
    out.check("replay_decisions_match_daemon", same);

    let ops = spans.durations("serve.op");
    let op_mean = mean(&ops);
    let closure = (op_mean - dispatch_mean_ms).abs() / dispatch_mean_ms;
    out.check(
        "closure_replay_mean_matches_dispatch",
        closure <= DISPATCH_CLOSURE_TOL,
    );

    let append = spans.durations("serve.journal.append");
    let l = &mut out.layers;
    l.insert("serve.state.prepare_place_ms", mean(&choose));
    l.insert(
        "serve.state.prepare_evict_ms",
        mean(&spans.durations("serve.state.prepare_evict")),
    );
    l.insert(
        "serve.state.commit_ms",
        mean(&spans.durations("serve.state.commit")),
    );
    l.insert("serve.journal.append_ms.p50", percentile(&append, 0.5));
    l.insert("serve.journal.append_ms.p99", percentile(&append, 0.99));
    l.insert("serve.journal.append_ms.total", sum(&append));
    l.insert("serve.journal.bytes_per_op", traced.journal_bytes_per_op());
    let compactions = spans.durations("serve.journal.compact");
    l.insert("serve.journal.compactions", compactions.len() as f64);
    l.insert("serve.journal.compact_ms", mean(&compactions));
    l.insert("closure.dispatch_err_frac", closure);
    let overhead_ms = traced.busy_ms - plain.busy_ms;
    l.insert("trace.overhead_ms", overhead_ms);
    l.insert("trace.overhead_frac", overhead_ms / plain.busy_ms);
    let pvsb = work.join("scores.pvsb");
    let (loaded, load_ms) = timed(|| load_file(&pvsb, spec.hash()));
    let loaded = loaded?;
    let (bytes, save_ms) = timed(|| crate::cold::save_bytes(&loaded, spec.hash()));
    let l = &mut out.layers;
    l.insert("core.cache.load_ms", load_ms);
    l.insert("core.cache.save_ms", save_ms);
    l.insert("core.cache.bytes", bytes?.len() as f64);
    let path = std::path::PathBuf::from(".bench_out")
        .join(format!("{}-seed{}-spans.jsonl", shape.name, args.seed));
    spans.write_jsonl(&path)
}
