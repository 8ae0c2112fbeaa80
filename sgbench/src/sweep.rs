//! The `sweep-kernel` and `sweep-tree` workloads: library sweeps through
//! `SweepPlan::run_with_jobs`, and their traced decomposition.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sg_adversary::BatchFamily;
use sg_analysis::{sample_of, summarize, AdversaryFamily, Fingerprint, Sample, SweepConfig};
use sg_analysis::{SweepPlan, SweepReport};
use sg_sim::{Adversary, BatchArena, BatchKernel, RunArena, RunConfig, MAX_BATCH_RUNS};

use crate::metrics::{latencies, peak_rss_mb, quantile, Cost, Report, Stopwatch};
use crate::trace::{self, Layer, TimedAdversary, TimedBatch, Totals};
use crate::workload::{has_tree_prefix, kernel_family, sweep_job, Adv, Grid, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Warm-up jobs per set-up, and jobs whose runs the cost metrics count.
fn sizes(workload: Workload) -> (u64, u64) {
    match workload {
        Workload::SweepKernel => (8, 64),
        _ => (2, 16),
    }
}

/// Every `stride`-th timed job is re-checked on the scalar oracle.
fn check_stride(workload: Workload) -> u64 {
    match workload {
        Workload::SweepKernel => 32,
        _ => 16,
    }
}

/// The sweep worker count: one per hardware thread.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The scalar engine configuration of a sweep cell (what the executor
/// derives privately from a `SweepConfig`).
pub fn run_config(config: &SweepConfig) -> RunConfig {
    let base = RunConfig::new(config.n, config.t).with_source_value(config.source_value);
    if config.trace {
        base.with_trace()
    } else {
        base
    }
}

/// One library sweep job: every grid through `run_with_jobs`. Returns the
/// reports and the seconds until the first report was available.
fn run_job(plans: &[SweepPlan], jobs: usize, clock: &Stopwatch) -> (Vec<SweepReport>, f64) {
    let mut first = None;
    let reports = plans
        .iter()
        .map(|plan| {
            let report = plan.run_with_jobs(jobs);
            std::hint::black_box(report.fingerprint());
            first.get_or_insert_with(|| clock.net());
            report
        })
        .collect();
    (reports, first.unwrap_or_default())
}

fn plans(grids: &[Grid]) -> Vec<SweepPlan> {
    grids.iter().map(Grid::plan).collect()
}

/// Warm-up: build and sweep a few jobs from the warm-up stream.
fn set_up(workload: Workload, seed: u64, jobs: usize, out: &mut Report) {
    for k in 0..sizes(workload).0 {
        let plans = plans(&sweep_job(workload, seed, k, true));
        let ok = catch_unwind(AssertUnwindSafe(|| {
            run_job(&plans, jobs, &Stopwatch::start())
        }))
        .is_ok();
        out.count(ok);
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64, process_start: Stopwatch) -> Report {
    let jobs = workers();
    let mut out = Report::default();
    let mut setups = Vec::new();
    for r in 0..SETUP_REPEATS {
        let clock = if r == 0 {
            process_start
        } else {
            Stopwatch::start()
        };
        set_up(workload, seed, jobs, &mut out);
        setups.push(clock.net());
    }

    let (_, cost_jobs) = sizes(workload);
    let stride = check_stride(workload);
    let mut latency = Vec::new();
    let mut first_cell = Vec::new();
    let mut cost = Cost::default();
    let mut runs = 0u64;
    let mut kept = Vec::new();
    let mut rss = 0.0;
    let phase = Stopwatch::start();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut j = 0u64;
    loop {
        let grids = sweep_job(workload, seed, j, false);
        let plans = plans(&grids);
        let clock = Stopwatch::start();
        let result = catch_unwind(AssertUnwindSafe(|| run_job(&plans, jobs, &clock)));
        let elapsed = clock.net();
        match result {
            Ok((reports, first)) => {
                latency.push(elapsed);
                first_cell.push(first);
                runs += grids.iter().map(Grid::runs).sum::<u64>();
                if j < cost_jobs {
                    reports.iter().for_each(|r| cost.add(r));
                }
                if j.is_multiple_of(stride) {
                    kept.push((j, grids, reports));
                } else {
                    out.count(true);
                }
            }
            Err(_) => out.count(false),
        }
        j += 1;
        if j == cost_jobs {
            rss = peak_rss_mb();
        }
        if j >= cost_jobs && Instant::now() >= deadline {
            break;
        }
    }
    let wall = phase.net();
    out.notes.push(steal_note(&phase, wall));

    // Correctness gate, after the timed phase.
    let mut checked = 0u64;
    for (j, grids, reports) in &kept {
        let (ok, runs_checked) = oracle_check(*j, grids, reports);
        checked += runs_checked;
        out.count(ok);
    }
    out.notes.push(format!(
        "oracle: {checked} runs of {} jobs re-executed on sg_core::execute",
        kept.len()
    ));

    latencies(&mut out, &mut latency, &mut first_cell, runs, wall);
    cost.report(&mut out);
    out.notes.push(format!("set-ups (s): {setups:?}"));
    let setup = quantile(&mut setups, 0.5);
    out.set("setup_s", setup, SETUP_REPEATS as u64);
    out.set("peak_rss_mb", rss, 1);
    out
}

/// Re-executes one deterministic chunk of every cell of job `j` on the
/// scalar oracle (`sg_core::execute` + `Outcome::assert_correct`) and
/// compares the samples bit for bit. Returns (passed, runs checked).
pub fn oracle_check(j: u64, grids: &[Grid], reports: &[SweepReport]) -> (bool, u64) {
    let mut ok = true;
    let mut checked = 0;
    for (grid, report) in grids.iter().zip(reports) {
        let plan = grid.plan();
        let chunks = grid.seeds_per_cell.div_ceil(MAX_BATCH_RUNS as u64);
        for cell in 0..plan.cell_count() {
            let (ci, ai) = plan.cell_coords(cell);
            let si0 = (j + cell as u64) % chunks * MAX_BATCH_RUNS as u64;
            let len = (MAX_BATCH_RUNS as u64).min(grid.seeds_per_cell - si0);
            for si in si0..si0 + len {
                let seed = plan.seed_for(ci, ai, si);
                let sample = report.cells[cell].samples[si as usize];
                checked += 1;
                if oracle(&grid.configs[ci], &plan.adversaries[ai], seed) != Some(sample) {
                    ok = false;
                }
            }
        }
    }
    (ok, checked)
}

/// One run on the scalar oracle: its sample if it is correct (agreement
/// and validity), `None` otherwise.
pub fn oracle(config: &SweepConfig, family: &AdversaryFamily, seed: u64) -> Option<Sample> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut adversary = family.instantiate(seed);
        let outcome = sg_core::execute(config.spec, &run_config(config), adversary.as_mut())
            .expect("workload cells are valid");
        outcome.assert_correct();
        sample_of(&outcome)
    }))
    .ok()
}

/// Counters the traced decomposition gathers at the layer boundaries.
#[derive(Clone, Copy, Default, Debug)]
struct Counts {
    chunks: u64,
    lockstep_chunks: u64,
    fallback_chunks: u64,
    lanes: u64,
    deferred: u64,
    engine_runs: u64,
    rounds_saved: u64,
    scheduled_rounds: u64,
    chunk_s: f64,
}

impl Counts {
    fn merge(&mut self, o: &Counts) {
        self.chunks += o.chunks;
        self.lockstep_chunks += o.lockstep_chunks;
        self.fallback_chunks += o.fallback_chunks;
        self.lanes += o.lanes;
        self.deferred += o.deferred;
        self.engine_runs += o.engine_runs;
        self.rounds_saved += o.rounds_saved;
        self.scheduled_rounds += o.scheduled_rounds;
        self.chunk_s += o.chunk_s;
    }
}

/// One traced worker's warm state, like the executor's thread-locals:
/// kernels per config, one lane group and one scalar instance per family.
struct Worker {
    kernels: Vec<(usize, Option<Box<dyn BatchKernel + Send>>)>,
    lane_groups: Vec<(usize, Vec<Box<dyn Adversary>>)>,
    scalars: Vec<(usize, Box<dyn Adversary>)>,
    batch: BatchArena,
    arena: RunArena,
    counts: Counts,
}

impl Worker {
    fn new() -> Worker {
        Worker {
            kernels: Vec::new(),
            lane_groups: Vec::new(),
            scalars: Vec::new(),
            batch: BatchArena::new(),
            arena: RunArena::new(),
            counts: Counts::default(),
        }
    }

    /// Reseeds (or rebuilds) a scalar instance, charged to the adversary
    /// layer like every other adversary call.
    fn reseed(slot: &mut Box<dyn Adversary>, family: &AdversaryFamily, seed: u64) {
        if !slot.reseed(seed) {
            *slot = trace::timed(Layer::Adversary, None, || {
                Box::new(TimedAdversary(family.instantiate(seed))) as Box<dyn Adversary>
            });
        }
    }

    /// One scalar run through `sg_core::execute_in`.
    fn scalar(&mut self, plan: &SweepPlan, config: &SweepConfig, ai: usize, seed: u64) -> Sample {
        let family = &plan.adversaries[ai];
        let idx = match self.scalars.iter().position(|(a, _)| *a == ai) {
            Some(i) => {
                Self::reseed(&mut self.scalars[i].1, family, seed);
                i
            }
            None => {
                let fresh = trace::timed(Layer::Adversary, None, || {
                    Box::new(TimedAdversary(family.instantiate(seed))) as Box<dyn Adversary>
                });
                self.scalars.push((ai, fresh));
                self.scalars.len() - 1
            }
        };
        let slot = &mut self.scalars[idx].1;
        let run_config = run_config(config);
        let arena = &mut self.arena;
        let outcome = trace::timed_engine(has_tree_prefix(config.spec), || {
            sg_core::execute_in(arena, config.spec, &run_config, slot.as_mut())
                .expect("workload cells are valid")
        });
        assert!(outcome.agreement(), "agreement violated at seed {seed}");
        self.counts.engine_runs += 1;
        self.counts.rounds_saved += outcome.rounds_saved() as u64;
        self.counts.scheduled_rounds += outcome.scheduled_rounds as u64;
        trace::timed(Layer::Report, None, || sample_of(&outcome))
    }

    /// One executor unit: the lock-step path when the cell has a kernel,
    /// the scalar path otherwise (and for deferred lanes and edge faults).
    fn unit(
        &mut self,
        grid: &Grid,
        plan: &SweepPlan,
        (ci, ai, si0, len): (usize, usize, u64, u64),
    ) -> Vec<Sample> {
        let config = &grid.configs[ci];
        let seeds: Vec<u64> = (0..len).map(|k| plan.seed_for(ci, ai, si0 + k)).collect();
        self.counts.chunks += 1;
        if len > 1 {
            if let Some(samples) = self.lockstep(grid, plan, ci, ai, &seeds) {
                return samples;
            }
        }
        seeds
            .iter()
            .map(|&seed| self.scalar(plan, config, ai, seed))
            .collect()
    }

    fn lockstep(
        &mut self,
        grid: &Grid,
        plan: &SweepPlan,
        ci: usize,
        ai: usize,
        seeds: &[u64],
    ) -> Option<Vec<Sample>> {
        let config = &grid.configs[ci];
        let run_config = run_config(config);
        let k = match self.kernels.iter().position(|(c, _)| *c == ci) {
            Some(k) => k,
            None => {
                let kernel = trace::timed(Layer::Batch, None, || {
                    sg_core::batch_kernel(&config.spec, &run_config)
                });
                self.kernels.push((ci, kernel));
                self.kernels.len() - 1
            }
        };
        self.kernels[k].1.as_ref()?;
        let family = &plan.adversaries[ai];
        let g = match self.lane_groups.iter().position(|(a, _)| *a == ai) {
            Some(g) => g,
            None => {
                self.lane_groups.push((ai, Vec::new()));
                self.lane_groups.len() - 1
            }
        };
        let lanes = &mut self.lane_groups[g].1;
        lanes.truncate(seeds.len());
        for (lane, &seed) in seeds.iter().enumerate() {
            match lanes.get_mut(lane) {
                Some(slot) => Self::reseed(slot, family, seed),
                None => lanes.push(trace::timed(Layer::Adversary, None, || {
                    Box::new(TimedAdversary(family.instantiate(seed))) as Box<dyn Adversary>
                })),
            }
        }
        let kernel = self.kernels[k].1.as_mut().expect("kernel checked above");
        let arena = &mut self.batch;
        let adv = grid.advs[ai];
        let ok = trace::timed(Layer::Batch, Some("run_batch"), || {
            match adv.vector(seeds) {
                Some((vector, selection)) if sg_sim::batch_adversaries_enabled() => {
                    let mut batch = TimedBatch(BatchFamily::new(vector, selection, lanes));
                    sg_sim::run_batch_with(arena, &run_config, kernel.as_mut(), &mut batch)
                }
                _ => sg_sim::run_batch(arena, &run_config, kernel.as_mut(), lanes),
            }
        });
        self.counts.lockstep_chunks += 1;
        if !ok {
            self.counts.fallback_chunks += 1;
            return None;
        }
        self.counts.lanes += seeds.len() as u64;
        let results: Vec<_> = self.batch.results().to_vec();
        let mut samples = Vec::with_capacity(seeds.len());
        for (result, &seed) in results.iter().zip(seeds) {
            if result.deferred {
                self.counts.deferred += 1;
                samples.push(self.scalar(plan, config, ai, seed));
                continue;
            }
            assert!(result.agreement, "agreement violated at seed {seed}");
            samples.push(Sample {
                lock_in: result.lock_in as u64,
                discoveries: result.discoveries,
                total_bits: result.total_bits,
                max_local_ops: result.max_local_ops,
                rounds: result.rounds_used as u64,
                early_stopped: result.early_stopped,
            });
        }
        Some(samples)
    }
}

/// The result of tracing one plan.
struct TracedPlan {
    cells: Vec<(Vec<Sample>, u64)>,
    totals: Totals,
    spans: Vec<trace::Span>,
    counts: Counts,
    /// Thread-seconds the decomposition had: workers × parallel wall plus
    /// the serial report phase.
    capacity_s: f64,
}

/// Drives one plan through the layer entry points on `jobs` threads, with
/// the executor's unit chunking (64-seed lock-step groups per cell).
fn trace_plan(grid: &Grid, plan: &SweepPlan, jobs: usize, job: u64, origin: Instant) -> TracedPlan {
    let units: Vec<(usize, usize, u64, u64)> = (0..plan.cell_count())
        .flat_map(|cell| {
            let (ci, ai) = plan.cell_coords(cell);
            let seeds = grid.seeds_per_cell;
            (0..seeds)
                .step_by(MAX_BATCH_RUNS)
                .map(move |si0| (ci, ai, si0, (MAX_BATCH_RUNS as u64).min(seeds - si0)))
        })
        .collect();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<Sample>)>> = Mutex::new(Vec::with_capacity(units.len()));
    let mut totals = Totals::default();
    let mut spans = Vec::new();
    let mut counts = Counts::default();
    let parallel = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let (units, next, done) = (&units, &next, &done);
                scope.spawn(move || {
                    trace::install(origin, w as u32 + 1);
                    trace::set_job(job);
                    let mut worker = Worker::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&unit) = units.get(i) else { break };
                        let t0 = Instant::now();
                        let samples = trace::timed(Layer::Sweep, Some("chunk"), || {
                            worker.unit(grid, plan, unit)
                        });
                        worker.counts.chunk_s += t0.elapsed().as_secs_f64();
                        done.lock()
                            .expect("no worker panics holding it")
                            .push((i, samples));
                    }
                    let (t, s) = trace::take();
                    (t, s, worker.counts)
                })
            })
            .collect();
        for h in handles {
            let (t, s, c) = h.join().expect("traced worker");
            totals.merge(&t);
            spans.extend(s);
            counts.merge(&c);
        }
    });
    let parallel_s = parallel.elapsed().as_secs_f64();
    // Worker start-up, unit claims and the wait at the join for the
    // slowest worker are the executor's own cost: charge them to it.
    totals.self_s[Layer::Sweep as usize] +=
        (jobs as f64 * parallel_s - totals.attributed()).max(0.0);

    let serial = Instant::now();
    trace::install(origin, 0);
    trace::set_job(job);
    let mut flat = trace::timed(Layer::Sweep, Some("collect"), || {
        let mut done = done.into_inner().expect("workers joined");
        done.sort_unstable_by_key(|(i, _)| *i);
        done.into_iter()
            .flat_map(|(_, s)| s)
            .collect::<Vec<_>>()
            .into_iter()
    });
    let per_cell = grid.seeds_per_cell as usize;
    let cells = (0..plan.cell_count())
        .map(|_| {
            let samples: Vec<Sample> = flat.by_ref().take(per_cell).collect();
            trace::timed(Layer::Report, Some("summarize"), || {
                std::hint::black_box(summarize(&samples));
            });
            let fp = trace::timed(Layer::Report, Some("fingerprint"), || {
                let mut fp = Fingerprint::new();
                samples.iter().for_each(|s| fp.mix_sample(s));
                fp.value()
            });
            (samples, fp)
        })
        .collect();
    let (t, s) = trace::take();
    totals.merge(&t);
    spans.extend(s);
    TracedPlan {
        cells,
        totals,
        spans,
        counts,
        capacity_s: jobs as f64 * parallel_s + serial.elapsed().as_secs_f64(),
    }
}

/// Seconds of `f`, best of three.
fn best_of_3(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Restores the engine toggles to their defaults when dropped, even if a
/// timed call panics.
struct Defaults;

impl Drop for Defaults {
    fn drop(&mut self) {
        sg_sim::set_instance_pooling(true);
        sg_sim::set_packed_broadcast(true);
    }
}

/// Batch-versus-scalar timings of one family's audited chunks.
#[derive(Default, Clone, Copy)]
struct Gain {
    batch_s: f64,
    scalar_s: f64,
    fresh_s: f64,
    unpacked_s: f64,
}

/// Times the first chunk of every lock-step cell of `grids` four ways:
/// the batch kernel, the scalar engine, the scalar engine with instance
/// pooling off, and with packed broadcast off.
fn gains(grids: &[Grid]) -> Vec<(&'static str, Gain)> {
    let _restore = Defaults;
    let mut out: Vec<(&'static str, Gain)> = Vec::new();
    for grid in grids {
        let plan = grid.plan();
        for cell in 0..plan.cell_count() {
            let (ci, ai) = plan.cell_coords(cell);
            let config = grid.configs[ci];
            let Some(fam) = kernel_family(config.spec) else {
                continue;
            };
            let adv: Adv = grid.advs[ai];
            let len = (MAX_BATCH_RUNS as u64).min(grid.seeds_per_cell);
            let seeds: Vec<u64> = (0..len).map(|si| plan.seed_for(ci, ai, si)).collect();
            let run_config = run_config(&config);
            let Some(mut kernel) = sg_core::batch_kernel(&config.spec, &run_config) else {
                continue;
            };
            let family = &plan.adversaries[ai];
            let mut arena = BatchArena::new();
            let mut lanes: Vec<Box<dyn Adversary>> =
                seeds.iter().map(|&s| family.instantiate(s)).collect();
            let mut ok = true;
            let batch_s = best_of_3(|| {
                for (lane, &s) in lanes.iter_mut().zip(&seeds) {
                    if !lane.reseed(s) {
                        *lane = family.instantiate(s);
                    }
                }
                ok &= match adv.vector(&seeds) {
                    Some((vector, selection)) => {
                        let mut batch = BatchFamily::new(vector, selection, &mut lanes);
                        sg_sim::run_batch_with(&mut arena, &run_config, kernel.as_mut(), &mut batch)
                    }
                    None => sg_sim::run_batch(&mut arena, &run_config, kernel.as_mut(), &mut lanes),
                };
                // Deferred lanes finish on the scalar engine, as in a sweep.
                for (result, &s) in arena.results().iter().zip(&seeds) {
                    if result.deferred {
                        let mut a = family.instantiate(s);
                        let o = sg_core::execute(config.spec, &run_config, a.as_mut())
                            .expect("workload cells are valid");
                        std::hint::black_box(sample_of(&o));
                    }
                }
            });
            if !ok {
                continue;
            }
            let scalar = || {
                for &s in &seeds {
                    let mut a = family.instantiate(s);
                    let o = sg_core::execute(config.spec, &run_config, a.as_mut())
                        .expect("workload cells are valid");
                    std::hint::black_box(sample_of(&o));
                }
            };
            let scalar_s = best_of_3(scalar);
            sg_sim::set_instance_pooling(false);
            let fresh_s = best_of_3(scalar);
            sg_sim::set_instance_pooling(true);
            sg_sim::set_packed_broadcast(false);
            let unpacked_s = best_of_3(scalar);
            sg_sim::set_packed_broadcast(true);
            let slot = match out.iter().position(|(f, _)| *f == fam) {
                Some(i) => i,
                None => {
                    out.push((fam, Gain::default()));
                    out.len() - 1
                }
            };
            let g = &mut out[slot].1;
            g.batch_s += batch_s;
            g.scalar_s += scalar_s;
            g.fresh_s += fresh_s;
            g.unpacked_s += unpacked_s;
        }
    }
    out
}

/// The traced run: per-layer metrics. Each job is swept untraced first
/// (the wall the overhead is measured against, and the reference
/// reports), then decomposed through the layer entry points; every cell of
/// the decomposition must reproduce the reference cell's samples and
/// fingerprint.
pub fn traced(workload: Workload, seed: u64, seconds: f64) -> Report {
    let jobs = workers();
    let mut out = Report::default();
    set_up(workload, seed, jobs, &mut out);
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds * 0.75);
    let mut totals = Totals::default();
    let mut counts = Counts::default();
    let mut spans = Vec::new();
    let (mut untraced_s, mut traced_s, mut capacity_s) = (0.0, 0.0, 0.0);
    let (mut cells_checked, mut cells_differing) = (0u64, 0u64);
    let mut j = 0u64;
    while j == 0 || Instant::now() < deadline {
        let grids = sweep_job(workload, seed, j, false);
        let plans = plans(&grids);
        let t0 = Instant::now();
        let reference = catch_unwind(AssertUnwindSafe(|| {
            run_job(&plans, jobs, &Stopwatch::start())
        }));
        untraced_s += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let decomposed = catch_unwind(AssertUnwindSafe(|| {
            grids
                .iter()
                .zip(&plans)
                .map(|(g, p)| trace_plan(g, p, jobs, j, origin))
                .collect::<Vec<_>>()
        }));
        traced_s += t1.elapsed().as_secs_f64();
        let ok = match (reference, decomposed) {
            (Ok((reports, _)), Ok(traced)) => {
                let mut same = true;
                for (report, plan) in reports.iter().zip(&traced) {
                    for (cell, (samples, fp)) in report.cells.iter().zip(&plan.cells) {
                        let mut want = Fingerprint::new();
                        want.mix_cell(cell);
                        let reproduced = cell.samples == *samples && want.value() == *fp;
                        same &= reproduced;
                        cells_checked += 1;
                        cells_differing += u64::from(!reproduced);
                    }
                    totals.merge(&plan.totals);
                    counts.merge(&plan.counts);
                    capacity_s += plan.capacity_s;
                }
                for plan in traced {
                    spans.extend(plan.spans);
                }
                same
            }
            _ => false,
        };
        out.count(ok);
        j += 1;
    }
    out.notes.push(format!(
        "traced decomposition checked {cells_checked} cell fingerprints over {j} jobs: \
         {cells_differing} differ from SweepPlan::run"
    ));

    let attributed = totals.attributed();
    out.set("sweep.busy_s", totals.secs(Layer::Sweep), counts.chunks);
    out.set("sweep.chunks", counts.chunks as f64, j);
    out.set(
        "sweep.parallel_efficiency",
        counts.chunk_s / (traced_s * jobs as f64),
        counts.chunks,
    );
    out.set(
        "batch.busy_s",
        totals.secs(Layer::Batch),
        counts.lockstep_chunks,
    );
    out.set("batch.lanes", counts.lanes as f64, counts.lockstep_chunks);
    let lockstep_done = counts.lockstep_chunks - counts.fallback_chunks;
    out.set(
        "batch.lane_fill",
        ratio(counts.lanes, lockstep_done * MAX_BATCH_RUNS as u64),
        lockstep_done,
    );
    out.set(
        "batch.fallback_ratio",
        ratio(counts.fallback_chunks, counts.lockstep_chunks),
        counts.lockstep_chunks,
    );
    out.set(
        "batch.deferred_ratio",
        ratio(counts.deferred, counts.lanes),
        counts.lanes,
    );
    out.set(
        "adversary.busy_s",
        totals.secs(Layer::Adversary),
        totals.calls[Layer::Adversary as usize],
    );
    out.set(
        "adversary.calls",
        totals.calls[Layer::Adversary as usize] as f64,
        j,
    );
    out.set(
        "engine.busy_s",
        totals.secs(Layer::Engine),
        counts.engine_runs,
    );
    out.set(
        "engine.tree_busy_s",
        totals.tree_engine_s,
        counts.engine_runs,
    );
    out.set("engine.runs", counts.engine_runs as f64, j);
    out.set(
        "engine.rounds_saved_ratio",
        ratio(counts.rounds_saved, counts.scheduled_rounds),
        counts.engine_runs,
    );
    out.set(
        "report.busy_s",
        totals.secs(Layer::Report),
        totals.calls[Layer::Report as usize],
    );
    out.set("traced.unattributed_s", capacity_s - attributed, j);
    out.set("traced.coverage", attributed / capacity_s, j);
    out.set("traced.overhead", traced_s / untraced_s, j);
    out.notes.push(format!(
        "traced wall {traced_s:.3} s on {jobs} workers ({capacity_s:.3} thread-s), \
         untraced wall {untraced_s:.3} s, attributed {attributed:.3} thread-s"
    ));
    if attributed < 0.9 * capacity_s {
        out.notes.push(format!(
            "COVERAGE BELOW 90%: layers cover {:.1}% of the traced wall",
            100.0 * attributed / capacity_s
        ));
        out.count(false);
    }

    // Keep-or-delete readout for the batch kernels and the engine's
    // pooling / packed-broadcast fast paths.
    let audit = gains(&sweep_job(workload, seed, 0, false));
    let (mut scalar, mut fresh, mut unpacked) = (0.0, 0.0, 0.0);
    for fam in ["king", "phase", "gear"] {
        let g = audit
            .iter()
            .find(|(f, _)| *f == fam)
            .map(|(_, g)| *g)
            .unwrap_or_default();
        let name = match fam {
            "king" => "batch.gain_vs_scalar.king",
            "phase" => "batch.gain_vs_scalar.phase",
            _ => "batch.gain_vs_scalar.gear",
        };
        let audited = u64::from(g.batch_s > 0.0);
        out.set(name, div(g.scalar_s, g.batch_s), audited);
        if g.batch_s > 0.0 {
            out.notes.push(format!(
                "{fam}: batch {:.6} s, scalar {:.6} s (base) -> gain {:.3}; pool off {:.6} s \
                 -> pool_gain {:.3}; packed off {:.6} s -> packed_gain {:.3}",
                g.batch_s,
                g.scalar_s,
                g.scalar_s / g.batch_s,
                g.fresh_s,
                g.fresh_s / g.scalar_s,
                g.unpacked_s,
                g.unpacked_s / g.scalar_s,
            ));
        }
        scalar += g.scalar_s;
        fresh += g.fresh_s;
        unpacked += g.unpacked_s;
    }
    let audited = audit.len() as u64;
    out.set("engine.pool_gain", div(fresh, scalar), audited);
    out.set("engine.packed_gain", div(unpacked, scalar), audited);
    if !(sg_sim::instance_pooling_enabled() && sg_sim::packed_broadcast_enabled()) {
        out.notes.push("engine toggles not restored".into());
        out.count(false);
    }

    out.not_exercised(&["serve.", "journal.", "wire."]);
    crate::write_spans(workload, seed, &spans, &mut out);
    out
}

/// How much of a timed phase the hypervisor took.
pub fn steal_note(phase: &Stopwatch, net: f64) -> String {
    let wall = phase.wall();
    format!(
        "timed phase: {wall:.3} s wall, {:.3} s stolen by the hypervisor ({:.1}%); times are net of it",
        wall - net,
        100.0 * (wall - net) / wall
    )
}

fn ratio(num: u64, den: u64) -> f64 {
    div(num as f64, den as f64)
}

fn div(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
