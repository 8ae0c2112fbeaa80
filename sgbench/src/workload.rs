//! The three workloads: their grids and job streams, all generated from
//! the `--seed` argument alone.
//!
//! A *job* is what one caller waits for. On the sweep workloads it is one
//! library sweep of a fixed grid (`SweepPlan::run_with_jobs` per plan) at a
//! fresh base seed; on `serve-mixed` it is one submission to the daemon.
//! Grids keep their shape across seeds, only the seed streams move, so the
//! work per job (and with it every timing) is the same from seed to seed.

use sg_adversary::{FaultSelection, VectorFamily};
use sg_analysis::{AdversaryFamily, SweepConfig, SweepPlan};
use sg_core::{t_a, AlgorithmSpec};

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["sweep-kernel", "sweep-tree", "serve-mixed"];

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Library sweeps the lock-step batch kernels cover.
    SweepKernel,
    /// Library sweeps of the tree-based and gear-shifting algorithms.
    SweepTree,
    /// Closed-loop submissions to an in-process daemon with a journal.
    ServeMixed,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "sweep-kernel" => Some(Workload::SweepKernel),
            "sweep-tree" => Some(Workload::SweepTree),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepKernel => NAMES[0],
            Workload::SweepTree => NAMES[1],
            Workload::ServeMixed => NAMES[2],
        }
    }
}

/// Runs per cell of a `sweep-kernel` job: eight full 64-lane chunks.
pub const KERNEL_SEEDS: u64 = 512;
/// Runs per cell of a `sweep-tree` job: one 32-lane chunk per cell keeps a
/// job near a tenth of a second, so a run holds enough jobs for a p99.
pub const TREE_SEEDS: u64 = 32;
/// Runs per cell of a `serve-mixed` job.
pub const SERVE_SEEDS: u64 = 32;

/// An adversary family with its constructor parameters, so that the
/// traced run can rebuild the vector form the executor picks for it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Adv {
    /// `random-liar` over the non-source processors.
    RandomLiar,
    /// `crash` from `round` on.
    Crash {
        /// First silent round.
        round: usize,
    },
    /// `equivocate` below/above `split` from round `start`.
    Equivocate {
        /// First recipient id told ones.
        split: usize,
        /// First equivocating round.
        start: usize,
    },
    /// `omission` of every `period`-th slot.
    Omission {
        /// Drop period.
        period: usize,
        /// Drop phase.
        phase: usize,
    },
    /// `partition` of `f` corrupted processors across `split` during
    /// rounds `from..=to`.
    Partition {
        /// Actual faults.
        f: usize,
        /// Cut boundary.
        split: usize,
        /// First cut round.
        from: usize,
        /// Last cut round.
        to: usize,
    },
}

impl Adv {
    fn selection(self) -> FaultSelection {
        match self {
            Adv::Partition { f, .. } => FaultSelection::without_source().limit(f),
            _ => FaultSelection::without_source(),
        }
    }

    /// The sweep family.
    pub fn family(self) -> AdversaryFamily {
        let sel = self.selection();
        match self {
            Adv::RandomLiar => AdversaryFamily::random_liar(sel),
            Adv::Crash { round } => AdversaryFamily::crash(sel, round),
            Adv::Equivocate { split, start } => AdversaryFamily::equivocate(sel, split, start),
            Adv::Omission { period, phase } => AdversaryFamily::omission(sel, period, phase),
            Adv::Partition {
                split, from, to, ..
            } => AdversaryFamily::partition(sel, split, from, to),
        }
    }

    /// The vector form the sweep executor uses for a lock-step chunk over
    /// `seeds`; `None` for families that corrupt edges (scalar fallback).
    pub fn vector(self, seeds: &[u64]) -> Option<(VectorFamily, FaultSelection)> {
        let family = match self {
            Adv::RandomLiar => VectorFamily::RandomLiar {
                seeds: seeds.to_vec(),
            },
            Adv::Crash { round } => VectorFamily::Crash { crash_round: round },
            Adv::Equivocate { split, start } => VectorFamily::Equivocate { split, start },
            Adv::Omission { period, phase } => VectorFamily::Omission { period, phase },
            Adv::Partition { .. } => return None,
        };
        Some((family, self.selection()))
    }
}

/// One grid: `configs × advs × seeds_per_cell` at a base seed.
#[derive(Clone, PartialEq, Debug)]
pub struct Grid {
    /// Protocol instantiations.
    pub configs: Vec<SweepConfig>,
    /// Adversary families.
    pub advs: Vec<Adv>,
    /// Runs per cell.
    pub seeds_per_cell: u64,
    /// Base of the cell seed streams.
    pub base_seed: u64,
}

impl Grid {
    /// The library plan for this grid.
    pub fn plan(&self) -> SweepPlan {
        SweepPlan::new(
            self.configs.clone(),
            self.advs.iter().map(|a| a.family()).collect(),
            self.seeds_per_cell,
        )
        .with_base_seed(self.base_seed)
    }

    /// Total runs of the grid.
    pub fn runs(&self) -> u64 {
        self.configs.len() as u64 * self.advs.len() as u64 * self.seeds_per_cell
    }
}

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator keyed by `seed` and a stream label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Stream labels: timed jobs and warm-up jobs never share a seed stream.
const TIMED: u64 = 1;
const WARM: u64 = 2;

fn cfg(spec: AlgorithmSpec, n: usize, t: usize) -> SweepConfig {
    SweepConfig::traced(spec, n, t)
}

/// The grids of sweep job `j` (`warm` selects the warm-up stream).
///
/// `sweep-kernel` is one grid per size because the equivocation split is
/// `n/2`, largest size first so that the first cells arrive after most of
/// the job rather than after a millisecond of it; `sweep-tree` is one
/// grid. Hybrid needs `t_A(n) >= 3`, so it runs at n = 10 only.
pub fn sweep_job(workload: Workload, seed: u64, j: u64, warm: bool) -> Vec<Grid> {
    let base_seed = Rng::new(seed, (if warm { WARM } else { TIMED }) ^ (j << 8)).next_u64();
    match workload {
        Workload::SweepKernel => [40usize, 16, 7]
            .into_iter()
            .map(|n| Grid {
                configs: [
                    AlgorithmSpec::OptimalKing,
                    AlgorithmSpec::PhaseKing,
                    AlgorithmSpec::PhaseQueen,
                ]
                .into_iter()
                .map(|spec| cfg(spec, n, spec.max_resilience(n)))
                .collect(),
                advs: vec![
                    Adv::RandomLiar,
                    Adv::Crash { round: 2 },
                    Adv::Equivocate {
                        split: n / 2,
                        start: 1,
                    },
                ],
                seeds_per_cell: KERNEL_SEEDS,
                base_seed,
            })
            .collect(),
        Workload::SweepTree => {
            let mut configs = Vec::new();
            for n in [7usize, 10] {
                for spec in [
                    AlgorithmSpec::AlgorithmA { b: 3 },
                    AlgorithmSpec::Hybrid { b: 3 },
                    AlgorithmSpec::KingShift { b: 3 },
                    AlgorithmSpec::DynamicKing { b: 3 },
                    AlgorithmSpec::Exponential,
                    AlgorithmSpec::DolevStrong,
                ] {
                    let t = if spec == AlgorithmSpec::DolevStrong {
                        n - 2
                    } else {
                        t_a(n)
                    };
                    if spec.validate(n, t).is_ok() {
                        configs.push(cfg(spec, n, t));
                    }
                }
            }
            vec![Grid {
                configs,
                advs: vec![
                    Adv::RandomLiar,
                    Adv::Crash { round: 2 },
                    // The in-model partition `sg sweep` uses by default:
                    // every cut edge touches the one corrupted processor.
                    Adv::Partition {
                        f: 1,
                        split: 1,
                        from: 2,
                        to: 3,
                    },
                ],
                seeds_per_cell: TREE_SEEDS,
                base_seed,
            }]
        }
        Workload::ServeMixed => panic!("serve-mixed has no sweep jobs"),
    }
}

/// What a `serve-mixed` submission asks of the journal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// A grid never submitted before: every cell misses.
    New,
    /// An earlier new grid plus one adversary: hits plus one computed
    /// column of delta cells.
    Widened,
    /// An earlier grid again: every cell hits.
    Exact,
}

/// One `serve-mixed` submission.
#[derive(Clone, Debug)]
pub struct ServeJob {
    /// The journal behaviour it was drawn for.
    pub kind: Kind,
    /// Index of its grid in the connection's grid list.
    pub grid_id: usize,
    /// The grid.
    pub grid: Grid,
}

/// The configurations `serve-mixed` draws from: kernel specs at n = 7 and
/// 16, gear specs at n = 7.
fn serve_configs() -> Vec<SweepConfig> {
    let mut out = Vec::new();
    for n in [7usize, 16] {
        for spec in [
            AlgorithmSpec::OptimalKing,
            AlgorithmSpec::PhaseKing,
            AlgorithmSpec::PhaseQueen,
        ] {
            out.push(cfg(spec, n, spec.max_resilience(n)));
        }
    }
    for spec in [
        AlgorithmSpec::KingShift { b: 3 },
        AlgorithmSpec::DynamicKing { b: 3 },
    ] {
        out.push(cfg(spec, 7, t_a(7)));
    }
    out
}

const SERVE_ADVS: [Adv; 4] = [
    Adv::RandomLiar,
    Adv::Crash { round: 2 },
    Adv::Omission {
        period: 2,
        phase: 0,
    },
    Adv::Equivocate { split: 3, start: 1 },
];

/// Submission kinds in a fixed cycle of ten: four new grids, three
/// widened and three exact resubmits.
const KIND_CYCLE: [Kind; 10] = [
    Kind::New,
    Kind::Widened,
    Kind::Exact,
    Kind::New,
    Kind::Widened,
    Kind::Exact,
    Kind::New,
    Kind::Widened,
    Kind::Exact,
    Kind::New,
];

/// Unordered pairs of indices below `n`.
fn pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .collect()
}

/// The job stream of one `serve-mixed` connection. Kinds follow
/// [`KIND_CYCLE`]; new grids walk every configuration pair and every
/// adversary pair in turn from a seeded offset; the k-th widened job
/// extends the k-th new grid, and the k-th exact job repeats the k-th new
/// or widened grid (alternately). So every seed yields the same mix of
/// specs and job sizes; the seed picks the offsets and the base seeds.
/// Connections draw from disjoint seed streams, so they never share a cell
/// and each connection's hits and misses depend on its own history only.
#[derive(Clone, Debug)]
pub struct ServeStream {
    rng: Rng,
    configs: Vec<SweepConfig>,
    config_pairs: Vec<(usize, usize)>,
    adv_pairs: Vec<(usize, usize)>,
    offsets: (usize, usize),
    issued: usize,
    grids: Vec<Grid>,
    /// Grid ids of the new, widened and exact jobs so far.
    news: Vec<usize>,
    wides: Vec<usize>,
    exacts: usize,
}

impl ServeStream {
    /// The stream of connection `conn` (`warm` selects the warm-up stream).
    pub fn new(seed: u64, conn: usize, warm: bool) -> ServeStream {
        let label = (if warm { WARM } else { TIMED }) ^ ((conn as u64 + 1) << 16);
        let mut rng = Rng::new(seed, label);
        let configs = serve_configs();
        let config_pairs = pairs(configs.len());
        let adv_pairs = pairs(SERVE_ADVS.len());
        let offsets = (rng.below(config_pairs.len()), rng.below(adv_pairs.len()));
        ServeStream {
            rng,
            configs,
            config_pairs,
            adv_pairs,
            offsets,
            issued: 0,
            grids: Vec::new(),
            news: Vec::new(),
            wides: Vec::new(),
            exacts: 0,
        }
    }

    /// The next submission.
    pub fn next_job(&mut self) -> ServeJob {
        let kind = KIND_CYCLE[self.issued % KIND_CYCLE.len()];
        self.issued += 1;
        let grid_id = match kind {
            Kind::New => {
                let k = self.news.len();
                let (a, b) = self.config_pairs[(self.offsets.0 + k) % self.config_pairs.len()];
                let (x, y) = self.adv_pairs[(self.offsets.1 + k) % self.adv_pairs.len()];
                self.grids.push(Grid {
                    configs: vec![self.configs[a], self.configs[b]],
                    advs: vec![SERVE_ADVS[x], SERVE_ADVS[y]],
                    seeds_per_cell: SERVE_SEEDS,
                    base_seed: self.rng.next_u64(),
                });
                self.news.push(self.grids.len() - 1);
                self.grids.len() - 1
            }
            Kind::Widened => {
                // The cycle issues each widened job after its new grid.
                let k = self.wides.len();
                let mut grid = self.grids[self.news[k]].clone();
                let unused: Vec<Adv> = SERVE_ADVS
                    .into_iter()
                    .filter(|a| !grid.advs.contains(a))
                    .collect();
                // Appending keeps every earlier cell at its grid
                // coordinates, so its journal address is unchanged.
                grid.advs.push(unused[(self.offsets.1 + k) % unused.len()]);
                self.grids.push(grid);
                self.wides.push(self.grids.len() - 1);
                self.grids.len() - 1
            }
            Kind::Exact => {
                let k = self.exacts;
                self.exacts += 1;
                if k.is_multiple_of(2) {
                    self.news[k]
                } else {
                    self.wides[k]
                }
            }
        };
        ServeJob {
            kind,
            grid_id,
            grid: self.grids[grid_id].clone(),
        }
    }
}

/// Whether `spec` runs a tree (EIG) prefix inside the scalar engine.
pub fn has_tree_prefix(spec: AlgorithmSpec) -> bool {
    !matches!(
        spec,
        AlgorithmSpec::PhaseKing
            | AlgorithmSpec::PhaseQueen
            | AlgorithmSpec::OptimalKing
            | AlgorithmSpec::DolevStrong
    )
}

/// The kernel family a spec's lock-step chunks belong to, for the
/// batch-versus-scalar readout.
pub fn kernel_family(spec: AlgorithmSpec) -> Option<&'static str> {
    match spec {
        AlgorithmSpec::OptimalKing => Some("king"),
        AlgorithmSpec::PhaseKing | AlgorithmSpec::PhaseQueen => Some("phase"),
        AlgorithmSpec::KingShift { .. } | AlgorithmSpec::DynamicKing { .. } => Some("gear"),
        _ => None,
    }
}
