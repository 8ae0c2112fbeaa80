//! Spans recorded from the benchmark's own code around each call into a
//! layer of the program.
//!
//! Every thread that takes part in a traced run installs a tracer. A span
//! measures one call; its *self time* (duration minus the spans it
//! encloses) is charged to its layer, so layer times add up without double
//! counting. Named spans are also kept as records (name, start, end,
//! parent, job id) and written out when the run ends; the fine-grained
//! adversary calls are only summed.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sg_sim::batch::{BatchAdversary, LaneView};
use sg_sim::{Adversary, AdversaryView, Payload, ProcessId, ProcessSet};

/// The program's layers, named after its crates and modules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// `sg_analysis::sweep`, the executor.
    Sweep,
    /// `sg_sim::batch` and the `sg_core` lock-step kernels.
    Batch,
    /// `sg_adversary` strategies and `BatchFamily`.
    Adversary,
    /// `sg_sim::engine` through `sg_core::execute_in`.
    Engine,
    /// `sg_analysis::montecarlo` and `Fingerprint`.
    Report,
    /// `sg_journal` and `sg_analysis::journal`.
    Journal,
    /// `sg_serve` server and client (the cell cursor it drives).
    Serve,
    /// `sg_serve::wire` and `sg_analysis::wire`.
    Wire,
}

/// Number of layers.
pub const LAYERS: usize = 8;

/// Self time and call count per layer, plus the engine time of specs with
/// a tree prefix.
#[derive(Clone, Copy, Default, Debug)]
pub struct Totals {
    /// Self seconds per layer, indexed by `Layer as usize`.
    pub self_s: [f64; LAYERS],
    /// Calls per layer.
    pub calls: [u64; LAYERS],
    /// Engine self seconds of runs whose spec has a tree prefix.
    pub tree_engine_s: f64,
}

impl Totals {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Totals) {
        for i in 0..LAYERS {
            self.self_s[i] += other.self_s[i];
            self.calls[i] += other.calls[i];
        }
        self.tree_engine_s += other.tree_engine_s;
    }

    /// Self seconds of `layer`.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.self_s[layer as usize]
    }

    /// Seconds attributed to any layer.
    pub fn attributed(&self) -> f64 {
        self.self_s.iter().sum()
    }
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Nanoseconds from the run's origin.
    pub start_ns: u64,
    /// Nanoseconds from the run's origin.
    pub end_ns: u64,
    /// Index + 1 of the enclosing recorded span on the same thread, 0 at
    /// the top.
    pub parent: u32,
    /// The job the span served.
    pub job: u64,
    /// Recording thread (0 = the main thread).
    pub thread: u32,
}

struct Open {
    layer: Layer,
    start: Instant,
    child: Duration,
    record: Option<usize>,
    tree: bool,
}

struct Tracer {
    origin: Instant,
    thread: u32,
    job: u64,
    stack: Vec<Open>,
    totals: Totals,
    spans: Vec<Span>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts tracing on this thread; `origin` is the run's common time zero.
pub fn install(origin: Instant, thread: u32) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin,
            thread,
            job: 0,
            stack: Vec::new(),
            totals: Totals::default(),
            spans: Vec::new(),
        })
    });
}

/// Sets the job id later spans on this thread are tagged with.
pub fn set_job(job: u64) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.job = job;
        }
    });
}

/// Stops tracing on this thread and returns what it recorded.
pub fn take() -> (Totals, Vec<Span>) {
    TRACER.with(|t| {
        let tracer = t.borrow_mut().take().expect("tracer installed");
        (tracer.totals, tracer.spans)
    })
}

fn enter(layer: Layer, name: Option<&'static str>, tree: bool) {
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let Some(t) = guard.as_mut() else { return };
        let start = Instant::now();
        let record = name.map(|name| {
            let parent = t.stack.iter().rev().find_map(|o| o.record);
            t.spans.push(Span {
                name,
                start_ns: (start - t.origin).as_nanos() as u64,
                end_ns: 0,
                parent: parent.map_or(0, |p| p as u32 + 1),
                job: t.job,
                thread: t.thread,
            });
            t.spans.len() - 1
        });
        t.stack.push(Open {
            layer,
            start,
            child: Duration::ZERO,
            record,
            tree,
        });
    });
}

fn exit() {
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let Some(t) = guard.as_mut() else { return };
        let end = Instant::now();
        let open = t.stack.pop().expect("span entered");
        let total = end - open.start;
        let own = total.saturating_sub(open.child).as_secs_f64();
        t.totals.self_s[open.layer as usize] += own;
        t.totals.calls[open.layer as usize] += 1;
        if open.tree {
            t.totals.tree_engine_s += own;
        }
        if let Some(i) = open.record {
            t.spans[i].end_ns = (end - t.origin).as_nanos() as u64;
        }
        if let Some(parent) = t.stack.last_mut() {
            parent.child += total;
        }
    });
}

/// Runs `f` inside a span of `layer`; `name` makes it a kept record.
pub fn timed<R>(layer: Layer, name: Option<&'static str>, f: impl FnOnce() -> R) -> R {
    enter(layer, name, false);
    let out = f();
    exit();
    out
}

/// An engine span; `tree` marks a spec with a tree prefix.
pub fn timed_engine<R>(tree: bool, f: impl FnOnce() -> R) -> R {
    enter(Layer::Engine, None, tree);
    let out = f();
    exit();
    out
}

/// Renders spans as CSV (`thread,job,name,start_ns,end_ns,parent`).
pub fn render(spans: &[Span]) -> String {
    let mut out = String::from("thread,job,name,start_ns,end_ns,parent\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            s.thread, s.job, s.name, s.start_ns, s.end_ns, s.parent
        );
    }
    out
}

/// A scalar adversary whose calls are charged to the adversary layer.
pub struct TimedAdversary(pub Box<dyn Adversary>);

impl Adversary for TimedAdversary {
    fn name(&self) -> String {
        self.0.name()
    }

    fn name_shared(&self) -> Arc<str> {
        self.0.name_shared()
    }

    fn reseed(&mut self, seed: u64) -> bool {
        timed(Layer::Adversary, None, || self.0.reseed(seed))
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        timed(Layer::Adversary, None, || self.0.corrupt(n, t, source))
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        timed(Layer::Adversary, None, || {
            self.0.payload(sender, recipient, view)
        })
    }

    fn has_edge_faults(&self) -> bool {
        self.0.has_edge_faults()
    }

    fn edge_cut(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> bool {
        timed(Layer::Adversary, None, || {
            self.0.edge_cut(sender, recipient, view)
        })
    }
}

/// A batch adversary whose vector calls are charged to the adversary
/// layer (its lanes are [`TimedAdversary`]s, so per-lane calls are too).
pub struct TimedBatch<B>(pub B);

impl<B: BatchAdversary> BatchAdversary for TimedBatch<B> {
    fn lanes(&self) -> usize {
        self.0.lanes()
    }

    fn corrupt_lanes(
        &mut self,
        n: usize,
        t: usize,
        source: ProcessId,
        faulty: &mut [u64],
        fault_sets: &mut Vec<ProcessSet>,
    ) -> bool {
        timed(Layer::Adversary, None, || {
            self.0.corrupt_lanes(n, t, source, faulty, fault_sets)
        })
    }

    fn vectorized(&self) -> bool {
        self.0.vectorized()
    }

    fn lies(&mut self, view: &LaneView<'_>, net_one: &mut [u64], net_zero: &mut [u64]) {
        timed(Layer::Adversary, None, || {
            self.0.lies(view, net_one, net_zero)
        })
    }

    fn lane(&mut self, lane: usize) -> &mut dyn Adversary {
        self.0.lane(lane)
    }
}
