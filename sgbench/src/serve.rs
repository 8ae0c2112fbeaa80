//! The `serve-mixed` workload: closed-loop clients against an in-process
//! daemon with a result journal, and its traced replay.

use std::collections::HashMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde::json::Value as Json;
use serde::{FromJson, ToJson};
use sg_analysis::{engine_epoch, sweep_map, Fingerprint, SweepPlan};
use sg_journal::Journal;
use sg_serve::{serve, Bind, Client, Frame, Request, ServeOptions, ServerHandle};
use sg_sim::RunArena;

use crate::metrics::{latencies, peak_rss_mb, quantile, Cost, Report, Stopwatch};
use crate::sweep::{steal_note, workers};
use crate::trace::{self, Layer};
use crate::workload::{ServeJob, ServeStream, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Warm-up jobs per connection and set-up.
const WARM_JOBS: usize = 24;
/// Jobs per connection whose runs the cost metrics count: 112 new grids,
/// four full turns of the configuration pairs.
const COST_JOBS: usize = 280;
/// Runs between the daemon's cancellation checks (its default).
const QUANTUM: u64 = 64;

/// A daemon on an ephemeral loopback port with a fresh journal.
struct Daemon {
    handle: ServerHandle,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    fn start(tag: &str) -> io::Result<Daemon> {
        let dir = crate::runs_dir().join(format!("journal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = serve(
            &Bind::Tcp("127.0.0.1:0".into()),
            ServeOptions {
                workers: workers(),
                journal: Some(dir.clone()),
                ..ServeOptions::default()
            },
        )?;
        let addr = handle.tcp_addr().expect("tcp bind").to_string();
        Ok(Daemon { handle, addr, dir })
    }

    fn connect(&self) -> io::Result<Client> {
        Client::connect(&self.addr, Duration::from_secs(10))
    }

    fn stop(self) {
        self.handle.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One finished submission.
struct Done {
    conn: usize,
    job: ServeJob,
    /// Daemon fingerprint, or why the job failed.
    outcome: Result<u64, String>,
    latency_s: f64,
    first_cell_s: f64,
    /// Submit → accepted, and the gaps between consecutive cell frames
    /// (the first measured from the accept).
    accept_s: f64,
    gaps_s: Vec<f64>,
}

/// Submits `job` and drains its stream, timing every frame.
fn submit(client: &mut Client, conn: usize, job: ServeJob, cost: Option<&mut Cost>) -> Done {
    let plan = job.grid.plan();
    let clock = Stopwatch::start();
    let mut accept_s = 0.0;
    let mut gaps_s = Vec::new();
    let mut last = 0.0;
    let result = client.submit(&plan).and_then(|handle| {
        accept_s = clock.net();
        last = accept_s;
        client.collect(handle, |_, _| {
            let now = clock.net();
            gaps_s.push(now - last);
            last = now;
        })
    });
    let latency_s = clock.net();
    let outcome = match result {
        Ok(streamed) => {
            if let Some(cost) = cost {
                cost.add(&streamed.report);
            }
            Ok(streamed.fingerprint)
        }
        Err(e) => Err(e.to_string()),
    };
    Done {
        conn,
        job,
        outcome,
        latency_s,
        first_cell_s: accept_s + gaps_s.first().copied().unwrap_or(0.0),
        accept_s,
        gaps_s,
    }
}

/// One connection's share of a closed-loop phase.
struct Drive {
    done: Vec<Done>,
    /// Cost of the first [`COST_JOBS`] jobs.
    cost: Cost,
    /// Peak resident set when those jobs were done.
    rss_mb: f64,
}

/// Drives one connection's closed loop: `count` jobs, or until
/// `deadline` once the cost jobs are done.
fn drive(client: &mut Client, stream: &mut ServeStream, conn: usize, until: Until) -> Drive {
    let mut d = Drive {
        done: Vec::new(),
        cost: Cost::default(),
        rss_mb: 0.0,
    };
    loop {
        let job = stream.next_job();
        let counted = (d.done.len() < COST_JOBS).then_some(&mut d.cost);
        d.done.push(submit(client, conn, job, counted));
        if d.done.len() == COST_JOBS {
            d.rss_mb = peak_rss_mb();
        }
        let finished = match until {
            Until::Count(n) => d.done.len() >= n,
            Until::Deadline(t) => d.done.len() >= COST_JOBS && Instant::now() >= t,
        };
        if finished {
            return d;
        }
    }
}

#[derive(Clone, Copy)]
enum Until {
    Count(usize),
    Deadline(Instant),
}

/// The closed-loop phase over every connection.
struct Phase {
    done: Vec<Done>,
    cost: Cost,
    rss_mb: f64,
    clock: Stopwatch,
    /// Net seconds of the phase.
    wall: f64,
}

/// Runs every connection's loop on its own thread.
fn drive_all(clients: &mut [Client], seed: u64, until: impl Fn(usize) -> Until + Sync) -> Phase {
    let clock = Stopwatch::start();
    let per_conn: Vec<Drive> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let until = &until;
                scope.spawn(move || {
                    let mut stream = ServeStream::new(seed, conn, false);
                    drive(client, &mut stream, conn, until(conn))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = clock.net();
    let mut phase = Phase {
        done: Vec::new(),
        cost: Cost::default(),
        rss_mb: 0.0,
        clock,
        wall,
    };
    for d in per_conn {
        phase.cost.merge(&d.cost);
        phase.rss_mb = phase.rss_mb.max(d.rss_mb);
        phase.done.extend(d.done);
    }
    phase
}

/// Binds a daemon, opens its journal, connects the clients and warms
/// both up with jobs from the warm-up streams.
fn set_up(seed: u64, tag: &str, out: &mut Report) -> io::Result<(Daemon, Vec<Client>)> {
    let daemon = Daemon::start(tag)?;
    let mut clients = (0..workers())
        .map(|_| daemon.connect())
        .collect::<io::Result<Vec<_>>>()?;
    for (conn, client) in clients.iter_mut().enumerate() {
        let mut stream = ServeStream::new(seed, conn, true);
        for _ in 0..WARM_JOBS {
            let done = submit(client, conn, stream.next_job(), None);
            out.count(done.outcome.is_ok());
        }
    }
    Ok((daemon, clients))
}

/// Checks every job's fingerprint against `SweepPlan::run` on the same
/// grid. A grid's fingerprint folds its cells in grid order, so each
/// distinct cell is run once, as a one-cell plan with the cell's own seed
/// stream, and every job's expected fingerprint is folded from those.
/// Returns the number of failed jobs.
fn check(done: &[Done]) -> u64 {
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut singles: Vec<SweepPlan> = Vec::new();
    let jobs: Vec<Vec<usize>> = done
        .iter()
        .map(|d| {
            let grid = &d.job.grid;
            let plan = grid.plan();
            (0..plan.cell_count())
                .map(|cell| {
                    let (ci, ai) = plan.cell_coords(cell);
                    let first_seed = plan.seed_for(ci, ai, 0);
                    let id = format!(
                        "{:?}|{:?}|{}|{first_seed}",
                        grid.configs[ci], grid.advs[ai], grid.seeds_per_cell
                    );
                    *index.entry(id).or_insert_with(|| {
                        singles.push(
                            SweepPlan::new(
                                vec![grid.configs[ci]],
                                vec![plan.adversaries[ai].clone()],
                                grid.seeds_per_cell,
                            )
                            .with_base_seed(first_seed),
                        );
                        singles.len() - 1
                    })
                })
                .collect()
        })
        .collect();
    let cells = sweep_map(singles, |plan| {
        catch_unwind(AssertUnwindSafe(|| plan.run_with_jobs(1).cells.remove(0))).ok()
    });
    let mut failed = 0;
    for (d, ids) in done.iter().zip(&jobs) {
        let mut want = Fingerprint::new();
        let mut ok = d.outcome.is_ok();
        for &id in ids {
            match &cells[id] {
                Some(cell) => want.mix_cell(cell),
                None => ok = false,
            }
        }
        if !ok || d.outcome != Ok(want.value()) {
            failed += 1;
        }
    }
    failed
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, process_start: Stopwatch) -> io::Result<Report> {
    let mut out = Report::default();
    let mut setups = Vec::new();
    let mut live = None;
    for r in 0..SETUP_REPEATS {
        let clock = if r == 0 {
            process_start
        } else {
            Stopwatch::start()
        };
        let (daemon, clients) = set_up(seed, &format!("setup{r}"), &mut out)?;
        setups.push(clock.net());
        if r + 1 < SETUP_REPEATS {
            drop(clients);
            daemon.stop();
        } else {
            live = Some((daemon, clients));
        }
    }
    let (daemon, mut clients) = live.expect("at least one set-up");
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let phase = drive_all(&mut clients, seed, |_| Until::Deadline(deadline));
    out.notes.push(steal_note(&phase.clock, phase.wall));
    let Phase {
        done,
        cost,
        rss_mb,
        wall,
        ..
    } = phase;
    drop(clients);
    daemon.stop();

    let failed = check(&done);
    out.attempted += done.len() as u64;
    out.failed += failed;
    let ok: Vec<&Done> = done.iter().filter(|d| d.outcome.is_ok()).collect();
    let mut latency: Vec<f64> = ok.iter().map(|d| d.latency_s).collect();
    let mut first: Vec<f64> = ok.iter().map(|d| d.first_cell_s).collect();
    let runs = ok.iter().map(|d| d.job.grid.runs()).sum();
    latencies(&mut out, &mut latency, &mut first, runs, wall);
    cost.report(&mut out);
    out.set("setup_s", quantile(&mut setups, 0.5), SETUP_REPEATS as u64);
    out.set("peak_rss_mb", rss_mb, 1);
    out.notes.push(format!("set-ups (s): {setups:?}"));
    out.notes.push(format!(
        "{} jobs checked against SweepPlan::run fingerprints, {failed} mismatched or failed",
        done.len()
    ));
    Ok(out)
}

/// Layer totals of the in-process replay.
#[derive(Default)]
struct Replay {
    cursor_s: f64,
    batch_s: f64,
    hits: u64,
    misses: u64,
    bytes_appended: u64,
    frames: u64,
    wire_bytes: u64,
    jobs: u64,
    mismatched: u64,
}

impl Replay {
    /// Encodes `frame` as the daemon does and decodes it as the client
    /// does; the decoded frame must equal the original.
    fn round_trip(&mut self, frame: Frame) {
        let text = trace::timed(Layer::Wire, Some("encode_frame"), || {
            frame.to_json().to_string()
        });
        let back = trace::timed(Layer::Wire, Some("decode_frame"), || {
            Json::parse(&text)
                .ok()
                .and_then(|v| Frame::from_json(&v).ok())
        });
        self.frames += 1;
        self.wire_bytes += text.len() as u64 + 1;
        if back.as_ref() != Some(&frame) {
            self.mismatched += 1;
        }
    }
}

/// Replays `done`'s job stream through the daemon's layers in process:
/// the request codec, journal lookups, the cell cursor for misses,
/// write-through appends, and the cell/summary frame codec. Every job's
/// fingerprint must match the one the daemon streamed.
fn replay(done: &[Done], dir: &std::path::Path) -> io::Result<Replay> {
    let _ = std::fs::remove_dir_all(dir);
    let mut journal = trace::timed(Layer::Journal, Some("journal_open"), || Journal::open(dir))
        .map_err(|e| io::Error::other(e.to_string()))?;
    let epoch = engine_epoch();
    let mut arena = RunArena::new();
    let mut r = Replay::default();
    let mut computed: Vec<(SweepPlan, usize)> = Vec::new();
    for (job_id, d) in done.iter().enumerate() {
        let Ok(want) = d.outcome else { continue };
        trace::set_job(job_id as u64);
        r.jobs += 1;
        let request = Request::Submit {
            plan: d.job.grid.plan(),
            deadline_ms: None,
        };
        let line = trace::timed(Layer::Wire, Some("encode_request"), || {
            request.to_json().to_string()
        });
        let decoded = trace::timed(Layer::Wire, Some("decode_request"), || {
            Json::parse(&line)
                .ok()
                .and_then(|v| Request::from_json(&v).ok())
        });
        let Some(Request::Submit { plan, .. }) = decoded else {
            r.mismatched += 1;
            continue;
        };
        r.frames += 1;
        r.wire_bytes += line.len() as u64 + 1;
        let cached: Vec<_> = (0..plan.cell_count())
            .map(|cell| {
                trace::timed(Layer::Journal, Some("journal_get"), || {
                    plan.cached_cell(&journal, epoch, cell).ok().flatten()
                })
            })
            .collect();
        let cached_cells = cached.iter().filter(|c| c.is_some()).count();
        r.round_trip(Frame::Accepted {
            job: job_id as u64,
            cells: plan.cell_count(),
            total_runs: plan.total_runs(),
        });
        let mut fp = Fingerprint::new();
        for (cell, hit) in cached.into_iter().enumerate() {
            let report = match hit {
                Some(report) => {
                    r.hits += 1;
                    report
                }
                None => {
                    r.misses += 1;
                    let t0 = Instant::now();
                    let report = trace::timed(Layer::Serve, Some("cursor"), || {
                        let mut cursor = plan.cell_cursor(cell);
                        while !cursor.is_done() {
                            cursor.run_batch_in(&mut arena, QUANTUM);
                        }
                        cursor.finish()
                    });
                    r.cursor_s += t0.elapsed().as_secs_f64();
                    if let Some(key) = plan.cell_key(cell) {
                        let doc = trace::timed(Layer::Journal, Some("journal_append"), || {
                            let doc = report.to_json();
                            journal.append(key, epoch, &doc).map(|()| doc)
                        })
                        .map_err(|e| io::Error::other(e.to_string()))?;
                        r.bytes_appended += doc.to_string().len() as u64 + 1;
                    }
                    computed.push((plan.clone(), cell));
                    report
                }
            };
            trace::timed(Layer::Report, Some("fingerprint"), || fp.mix_cell(&report));
            r.round_trip(Frame::Cell {
                job: job_id as u64,
                index: cell,
                cell: Box::new(report),
            });
        }
        r.round_trip(Frame::Summary {
            job: job_id as u64,
            cells: plan.cell_count(),
            total_runs: plan.total_runs(),
            report_fingerprint: fp.hex(),
            wall_ms: 0.0,
            cached_cells,
        });
        if fp.value() != want {
            r.mismatched += 1;
        }
    }
    trace::set_job(u64::MAX);
    for (plan, cell) in &computed {
        // The same cell as a one-cell library plan: identical seeds, so
        // identical samples, through the batch executor on one thread.
        let (ci, ai) = plan.cell_coords(*cell);
        let single = SweepPlan::new(
            vec![plan.configs[ci]],
            vec![plan.adversaries[ai].clone()],
            plan.seeds_per_cell,
        )
        .with_base_seed(plan.seed_for(ci, ai, 0));
        let t0 = Instant::now();
        std::hint::black_box(single.run_with_jobs(1));
        r.batch_s += t0.elapsed().as_secs_f64();
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(dir);
    Ok(r)
}

/// The traced run: per-layer metrics. The job stream runs twice against
/// fresh daemons, first untraced (the reference wall), then with every
/// frame timed; the same jobs are then replayed in process through the
/// daemon's layers.
pub fn traced(seed: u64, seconds: f64) -> io::Result<Report> {
    let mut out = Report::default();
    let (daemon, mut clients) = set_up(seed, "untraced", &mut out)?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.2);
    let untraced = drive_all(&mut clients, seed, |_| Until::Deadline(deadline));
    let (reference, untraced_s) = (untraced.done, untraced.wall);
    drop(clients);
    daemon.stop();
    let per_conn: Vec<usize> = (0..workers())
        .map(|c| reference.iter().filter(|d| d.conn == c).count())
        .collect();

    let (daemon, mut clients) = set_up(seed, "traced", &mut out)?;
    let traced = drive_all(&mut clients, seed, |c| Until::Count(per_conn[c]));
    let (done, traced_s) = (traced.done, traced.wall);
    drop(clients);
    daemon.stop();
    for (a, b) in reference.iter().zip(&done) {
        out.count(a.outcome.is_ok() && a.outcome == b.outcome);
    }

    let origin = Instant::now();
    trace::install(origin, 0);
    let dir = crate::runs_dir().join(format!("journal-{}-replay", std::process::id()));
    let replay_started = Instant::now();
    let r = replay(&done, &dir)?;
    let replay_s = replay_started.elapsed().as_secs_f64() - r.batch_s;
    let (totals, spans) = trace::take();
    if r.mismatched > 0 {
        out.notes.push(format!(
            "replay: {} frame or fingerprint mismatches",
            r.mismatched
        ));
        out.count(false);
    }

    let jobs = done.len() as u64;
    let client_s: f64 = done.iter().map(|d| d.latency_s).sum();
    let mut accept: Vec<f64> = done.iter().map(|d| d.accept_s).collect();
    let mut gaps: Vec<f64> = done.iter().flat_map(|d| d.gaps_s.iter().copied()).collect();
    let layers = [Layer::Serve, Layer::Journal, Layer::Wire, Layer::Report];
    let attributed: f64 = layers.iter().map(|&l| totals.secs(l)).sum();
    out.set("serve.cursor_s", r.cursor_s, r.misses);
    out.set("serve.cursor_vs_batch", r.cursor_s / r.batch_s, r.misses);
    out.set(
        "serve.accept_p50_ms",
        quantile(&mut accept, 0.5) * 1e3,
        jobs,
    );
    out.set(
        "serve.cell_gap_p50_ms",
        quantile(&mut gaps, 0.5) * 1e3,
        gaps.len() as u64,
    );
    out.set("serve.sched_s", client_s - attributed, jobs);
    out.set(
        "journal.get_s",
        totals.secs(Layer::Journal) - append_s(&spans),
        r.hits + r.misses,
    );
    out.set("journal.append_s", append_s(&spans), r.misses);
    out.set("journal.hits", r.hits as f64, jobs);
    out.set("journal.misses", r.misses as f64, jobs);
    out.set(
        "journal.hit_ratio",
        r.hits as f64 / (r.hits + r.misses).max(1) as f64,
        r.hits + r.misses,
    );
    out.set("journal.bytes_appended", r.bytes_appended as f64, r.misses);
    out.set("wire.encode_s", span_s(&spans, "encode_"), r.frames);
    out.set("wire.decode_s", span_s(&spans, "decode_"), r.frames);
    out.set("wire.frames", r.frames as f64, jobs);
    out.set(
        "wire.bytes_per_job",
        r.wire_bytes as f64 / r.jobs.max(1) as f64,
        r.jobs,
    );
    out.set("report.busy_s", totals.secs(Layer::Report), jobs);
    out.set("traced.unattributed_s", replay_s - attributed, jobs);
    out.set("traced.coverage", attributed / replay_s, jobs);
    out.set("traced.overhead", traced_s / untraced_s, jobs);
    out.notes.push(format!(
        "{jobs} jobs: untraced wall {untraced_s:.3} s, traced wall {traced_s:.3} s, \
         replay {replay_s:.3} s, batch executor on the computed cells {:.3} s (base)",
        r.batch_s
    ));
    out.not_exercised(&["sweep.", "batch.", "adversary.", "engine."]);
    crate::write_spans(Workload::ServeMixed, seed, &spans, &mut out);
    Ok(out)
}

/// Seconds of the top-level spans whose name starts with `prefix`.
fn span_s(spans: &[trace::Span], prefix: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent == 0 && s.name.starts_with(prefix))
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum()
}

fn append_s(spans: &[trace::Span]) -> f64 {
    span_s(spans, "journal_append")
}
