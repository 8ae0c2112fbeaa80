//! Metric names, units, summary statistics and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics (untraced runs): name and unit, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 11] = [
    ("runs_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("first_cell_p50_ms", "ms"),
    ("first_cell_p99_ms", "ms"),
    ("mean_rounds", "rounds"),
    ("bits_per_run", "bits"),
    ("local_ops_per_run", "ops"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs): name and unit, in `BENCHMARK.json`
/// order. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("sweep.busy_s", "s"),
    ("sweep.chunks", "count"),
    ("sweep.parallel_efficiency", "ratio"),
    ("batch.busy_s", "s"),
    ("batch.lanes", "count"),
    ("batch.lane_fill", "ratio"),
    ("batch.fallback_ratio", "ratio"),
    ("batch.deferred_ratio", "ratio"),
    ("batch.gain_vs_scalar.king", "ratio"),
    ("batch.gain_vs_scalar.phase", "ratio"),
    ("batch.gain_vs_scalar.gear", "ratio"),
    ("adversary.busy_s", "s"),
    ("adversary.calls", "count"),
    ("engine.busy_s", "s"),
    ("engine.tree_busy_s", "s"),
    ("engine.runs", "count"),
    ("engine.rounds_saved_ratio", "ratio"),
    ("engine.pool_gain", "ratio"),
    ("engine.packed_gain", "ratio"),
    ("report.busy_s", "s"),
    ("serve.cursor_s", "s"),
    ("serve.cursor_vs_batch", "ratio"),
    ("serve.accept_p50_ms", "ms"),
    ("serve.cell_gap_p50_ms", "ms"),
    ("serve.sched_s", "s"),
    ("journal.get_s", "s"),
    ("journal.append_s", "s"),
    ("journal.hits", "count"),
    ("journal.misses", "count"),
    ("journal.hit_ratio", "ratio"),
    ("journal.bytes_appended", "bytes"),
    ("wire.encode_s", "s"),
    ("wire.decode_s", "s"),
    ("wire.frames", "count"),
    ("wire.bytes_per_job", "bytes"),
    ("traced.unattributed_s", "s"),
    ("traced.coverage", "ratio"),
    ("traced.overhead", "ratio"),
];

/// Whether `name` is a legal metric name (`[A-Za-z0-9_.-]+`).
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured value with its sample count.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Observations behind the value.
    pub samples: u64,
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics, keyed by name.
    pub metrics: Vec<Metric>,
    /// Operations (jobs) attempted.
    pub attempted: u64,
    /// Operations that failed a correctness check, were refused, or
    /// panicked.
    pub failed: u64,
    /// Extra human-readable lines (bases of ratios, check summaries).
    pub notes: Vec<String>,
}

impl Report {
    /// Records `value` for the metric `name` (which must be listed in
    /// [`END_TO_END`] or [`PER_LAYER`]).
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let (name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .copied()
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Records 0 for every per-layer metric of the layers named by
    /// `prefixes`: the workload does not exercise them.
    pub fn not_exercised(&mut self, prefixes: &[&str]) {
        for (name, _) in PER_LAYER {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.set(name, 0.0, 0);
            }
        }
    }

    /// Records a failure-free or failed operation.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Whether every operation passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metrics in the order of `names`, panicking if one is missing
    /// (a benchmark bug, never a measurement).
    pub fn ordered(&self, names: &[(&str, &str)]) -> Vec<&Metric> {
        names
            .iter()
            .map(|(name, _)| {
                self.metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"))
            })
            .collect()
    }

    /// The human-readable table followed by the one-line JSON result.
    pub fn render(&self, workload: &str, traced: bool) -> String {
        let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics = self.ordered(names);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {workload} ({}): {} attempted, {} failed, failed_ratio {}",
            if traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        for m in &metrics {
            let _ = writeln!(
                out,
                "{:<30} {:>16.6} {:<7} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        out.push_str(&json_line(
            self.correct(),
            self.attempted,
            self.failed,
            &metrics,
        ));
        out.push('\n');
        out
    }
}

/// The result object the last line of standard output carries.
fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Linear-interpolated quantile `q` of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// CPU seconds the hypervisor has taken from this machine since boot, per
/// CPU: the `steal` column of `/proc/stat` (USER_HZ = 100 ticks) over the
/// number of CPUs it lists. 0 where the counter is unavailable, as on bare
/// metal.
pub fn stolen_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count();
    let steal = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok());
    match steal {
        Some(ticks) if cpus > 0 => ticks / 100.0 / cpus as f64,
        _ => 0.0,
    }
}

/// A stopwatch that reads elapsed time net of hypervisor steal.
///
/// On a shared virtual machine the hypervisor takes the CPUs away for
/// stretches that vary from run to run (5% to 23% of a 30-second run's
/// wall on a shared 2-vCPU machine), and throughput and tail latency track
/// that share
/// closely. Subtracting the stolen time measured over the same interval
/// leaves the time the machine actually ran this process, which is what
/// a change to the program can move. Without steal it is plain wall time.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    started: Instant,
    stolen: f64,
}

impl Stopwatch {
    /// Starts now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            started: Instant::now(),
            stolen: stolen_s(),
        }
    }

    /// Seconds since the start, minus the seconds stolen meanwhile.
    pub fn net(&self) -> f64 {
        let wall = self.started.elapsed().as_secs_f64();
        (wall - (stolen_s() - self.stolen)).max(0.0)
    }

    /// Wall seconds since the start.
    pub fn wall(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The paper's three costs summed over runs.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub struct Cost {
    /// Runs counted.
    pub runs: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Honest bits sent.
    pub bits: u64,
    /// Largest local computation per run.
    pub ops: u64,
}

impl Cost {
    /// Adds every run of `report`.
    pub fn add(&mut self, report: &sg_analysis::SweepReport) {
        for cell in &report.cells {
            for s in &cell.samples {
                self.runs += 1;
                self.rounds += s.rounds;
                self.bits += s.total_bits;
                self.ops += s.max_local_ops;
            }
        }
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Cost) {
        self.runs += other.runs;
        self.rounds += other.rounds;
        self.bits += other.bits;
        self.ops += other.ops;
    }

    /// Records `mean_rounds`, `bits_per_run` and `local_ops_per_run`.
    pub fn report(&self, out: &mut Report) {
        let runs = self.runs.max(1) as f64;
        out.set("mean_rounds", self.rounds as f64 / runs, self.runs);
        out.set("bits_per_run", self.bits as f64 / runs, self.runs);
        out.set("local_ops_per_run", self.ops as f64 / runs, self.runs);
    }
}

/// Records the latency metrics of one run: job latencies and first-cell
/// latencies in seconds, over `wall` seconds of timed work.
pub fn latencies(out: &mut Report, jobs: &mut [f64], first: &mut [f64], runs: u64, wall: f64) {
    let n = jobs.len() as u64;
    out.set("runs_per_s", runs as f64 / wall, n);
    out.set("jobs_per_s", n as f64 / wall, n);
    out.set("job_p50_ms", quantile(jobs, 0.5) * 1e3, n);
    out.set("job_p99_ms", quantile(jobs, 0.99) * 1e3, n);
    out.set("first_cell_p50_ms", quantile(first, 0.5) * 1e3, n);
    out.set("first_cell_p99_ms", quantile(first, 0.99) * 1e3, n);
}
