//! Vectorized fault injection for the lock-step batch engine.
//!
//! [`BatchFamily`] implements [`sg_sim::BatchAdversary`] for the six
//! binary-domain named families whose payload rules depend only on
//! constructor parameters and the current round's broadcast view —
//! never on per-call mutable state:
//!
//! | family | vector rule |
//! |---|---|
//! | `silent` | nothing, ever |
//! | `crash(r)` | shadow until round `r`, then nothing |
//! | `omission(p,ph)` | shadow, minus the periodic edge drops |
//! | `equivocate(split,s)` | shadow until `s`, then `0` below / `1` above the split |
//! | `adaptive(schedule)` | shadow until a member's turn, then the flipped story |
//! | `random-liar` | a [`call_value`] draw per (lane, edge), all lanes of an edge in one pass |
//!
//! All six choose their fault set through a seed-free
//! [`FaultSelection`], so one `select` call covers every lane
//! ([`BatchAdversary::corrupt_lanes`] materializes it into the lane
//! masks without consulting the scalar lanes at all), and all six
//! classify payloads into lane masks in one [`BatchAdversary::lies`]
//! call per round — skipping per-lane view assembly and payload
//! interning entirely. `random-liar` still draws per lane (each lane has
//! its own seed), but a draw is the closed form [`call_value`] of the
//! lane's seed and a per-edge key, the same formula the scalar strategy
//! uses: no RNG state is built, the call order is free, and one pass
//! fills an edge's masks for all 64 lanes.
//!
//! The wrapped scalar lanes stay reachable through
//! [`BatchAdversary::lane`], the trait's per-lane bridge hook.

use sg_sim::batch::{BatchAdversary, LaneView};
use sg_sim::{Adversary, ProcessId, ProcessSet};

use crate::selection::FaultSelection;
use crate::util::{call_key, call_value};

/// Which vector-capable family a [`BatchFamily`] plays, with the same
/// parameters as the scalar constructor it mirrors.
#[derive(Clone, Debug)]
pub enum VectorFamily {
    /// [`crate::Silent`]: never sends.
    Silent,
    /// [`crate::Crash`]: honest shadow until `crash_round`, then silent.
    Crash {
        /// First round (1-based) of permanent silence.
        crash_round: usize,
    },
    /// [`crate::RandomLiar`]: per-edge uniform in-domain lies, one seed
    /// per lane (lane order).
    RandomLiar {
        /// Per-lane RNG seeds, matching the wrapped scalar lanes.
        seeds: Vec<u64>,
    },
    /// [`crate::Omission`]: periodic per-(round, edge) drops.
    Omission {
        /// Drop period (clamped to ≥ 1, like the scalar constructor).
        period: usize,
        /// Drop phase offset.
        phase: usize,
    },
    /// [`crate::Equivocate`]: zeros below the split, ones above, from
    /// round `start` on.
    Equivocate {
        /// Recipients with ids `< split` hear the all-zeros story.
        split: usize,
        /// First equivocating round (1-based).
        start: usize,
    },
    /// [`crate::Adaptive`]: the rank-`k` member turns at `schedule[k]`.
    Adaptive {
        /// Activation rounds by fault-set rank (ascending id order).
        schedule: Vec<usize>,
    },
}

/// A batch-aware adversary for one of the [`VectorFamily`] strategies,
/// wrapping the per-lane scalar adversaries of the same family (same
/// parameters, same per-lane seeds), which [`BatchAdversary::lane`]
/// exposes.
pub struct BatchFamily<'a> {
    family: VectorFamily,
    selection: FaultSelection,
    lanes: &'a mut [Box<dyn Adversary>],
    /// The lane-shared fault set, set by `corrupt_lanes`.
    shared: Option<ProcessSet>,
}

impl<'a> BatchFamily<'a> {
    /// Wraps `lanes` (one scalar adversary per run, already seeded) with
    /// the vector rules of `family` over `selection`.
    pub fn new(
        family: VectorFamily,
        selection: FaultSelection,
        lanes: &'a mut [Box<dyn Adversary>],
    ) -> Self {
        let family = match family {
            VectorFamily::Omission { period, phase } => VectorFamily::Omission {
                period: period.max(1),
                phase,
            },
            other => other,
        };
        if let VectorFamily::RandomLiar { seeds } = &family {
            assert_eq!(seeds.len(), lanes.len(), "one seed per lane");
        }
        BatchFamily {
            family,
            selection,
            lanes,
            shared: None,
        }
    }

    /// Copies a faulty sender's honest-shadow classification to every
    /// recipient, for the lanes in `mask` — the vector form of
    /// `shadow_or_missing` (lanes outside `present` stay missing, `⊥`
    /// shadows land in neither mask).
    fn shadow(view: &LaneView<'_>, f: usize, mask: u64, net_one: &mut [u64], net_zero: &mut [u64]) {
        let n = view.n;
        let one = view.one[f] & view.present[f] & mask;
        let zero = view.zero[f] & view.present[f] & mask;
        if one == 0 && zero == 0 {
            return;
        }
        for r in 0..n {
            if r == f {
                continue;
            }
            net_one[f * n + r] |= one;
            net_zero[f * n + r] |= zero;
        }
    }

    /// Sends the constant value `v` from `f` to `r` in the lanes of
    /// `mask`, classified like the scalar `Payload::value_at(0)` match.
    #[inline]
    fn constant(
        view: &LaneView<'_>,
        f: usize,
        r: usize,
        v: u16,
        mask: u64,
        net_one: &mut [u64],
        net_zero: &mut [u64],
    ) {
        match v {
            1 => net_one[f * view.n + r] |= mask,
            0 => net_zero[f * view.n + r] |= mask,
            _ => {}
        }
    }
}

impl BatchAdversary for BatchFamily<'_> {
    fn lanes(&self) -> usize {
        self.lanes.len()
    }

    fn corrupt_lanes(
        &mut self,
        n: usize,
        t: usize,
        source: ProcessId,
        faulty: &mut [u64],
        fault_sets: &mut Vec<ProcessSet>,
    ) -> bool {
        // One seed-free selection covers every lane; the scalar lanes
        // are not consulted (their `corrupt` would return the same set),
        // which is the whole point of the vector path.
        let set = self.selection.select(n, t, source);
        assert_eq!(set.universe(), n, "selection over the wrong universe");
        let lanes = self.lanes.len();
        let all: u64 = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
        for p in set.iter() {
            faulty[p.index()] |= all;
        }
        for _ in 0..lanes {
            fault_sets.push(set.clone());
        }
        self.shared = Some(set);
        true
    }

    fn vectorized(&self) -> bool {
        true
    }

    fn lies(&mut self, view: &LaneView<'_>, net_one: &mut [u64], net_zero: &mut [u64]) {
        let set = self
            .shared
            .as_ref()
            .expect("corrupt_lanes before the first round");
        if set.is_empty() {
            return;
        }
        let n = view.n;
        match &self.family {
            VectorFamily::Silent => {}
            VectorFamily::Crash { crash_round } => {
                if view.round < *crash_round {
                    for f in set.iter() {
                        Self::shadow(view, f.index(), view.active, net_one, net_zero);
                    }
                }
            }
            VectorFamily::Omission { period, phase } => {
                for f in set.iter() {
                    let f = f.index();
                    let one = view.one[f] & view.present[f] & view.active;
                    let zero = view.zero[f] & view.present[f] & view.active;
                    if one == 0 && zero == 0 {
                        continue;
                    }
                    for r in 0..n {
                        if r == f || (view.round + f + r + phase).is_multiple_of(*period) {
                            continue;
                        }
                        net_one[f * n + r] |= one;
                        net_zero[f * n + r] |= zero;
                    }
                }
            }
            VectorFamily::Equivocate { split, start } => {
                for f in set.iter() {
                    let f = f.index();
                    if view.round < *start {
                        Self::shadow(view, f, view.active, net_one, net_zero);
                        continue;
                    }
                    // The split stories replace the shadow at its length
                    // (single values in a batch), for lanes in which the
                    // shadow exists at all.
                    let mask = view.present[f] & view.active;
                    if mask == 0 {
                        continue;
                    }
                    for r in 0..n {
                        if r == f {
                            continue;
                        }
                        let story = if r < *split { 0 } else { 1 };
                        Self::constant(view, f, r, story, mask, net_one, net_zero);
                    }
                }
            }
            VectorFamily::Adaptive { schedule } => {
                let lie = ((u32::from(view.source_value.raw()) + 1) % u32::from(view.domain.size()))
                    as u16;
                for (rank, f) in set.iter().enumerate() {
                    let f = f.index();
                    let turned = schedule.get(rank).is_some_and(|&turn| view.round >= turn);
                    if !turned {
                        Self::shadow(view, f, view.active, net_one, net_zero);
                        continue;
                    }
                    // A turned source lies unconditionally in round 1
                    // (no shadow required); elsewhere the lie replaces
                    // an existing shadow.
                    let mask = if view.round == 1 && f == view.source.index() {
                        view.active
                    } else {
                        view.present[f] & view.active
                    };
                    if mask == 0 {
                        continue;
                    }
                    for r in 0..n {
                        if r != f {
                            Self::constant(view, f, r, lie, mask, net_one, net_zero);
                        }
                    }
                }
            }
            VectorFamily::RandomLiar { seeds } => {
                // Each lane draws from its own seed, but a draw is a
                // closed form of `seed ^ key` with one key per edge, so
                // one branch-free pass over the lanes classifies the
                // whole edge (lanes outside `mask` are computed and
                // discarded).
                let span = view.domain.size();
                for f in set.iter() {
                    let mask = view.present[f.index()] & view.active;
                    if mask == 0 {
                        continue;
                    }
                    for r in 0..n {
                        if r == f.index() {
                            continue;
                        }
                        let key = call_key(view.round, f, ProcessId(r));
                        let (mut one, mut zero) = (0u64, 0u64);
                        for (lane, &seed) in seeds.iter().enumerate() {
                            let v = call_value(seed ^ key, span);
                            one |= u64::from(v == 1) << lane;
                            zero |= u64::from(v == 0) << lane;
                        }
                        net_one[f.index() * n + r] |= one & mask;
                        net_zero[f.index() * n + r] |= zero & mask;
                    }
                }
            }
        }
    }

    fn lane(&mut self, lane: usize) -> &mut dyn Adversary {
        self.lanes[lane].as_mut()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use sg_sim::{AdversaryView, Payload, Value, ValueDomain};

    use super::*;
    use crate::RandomLiar;

    /// The vector `random-liar` arm against the scalar strategy it
    /// mirrors, edge by edge and lane by lane, at full width: 64 slots
    /// and 64 lanes, with retired lanes and per-slot holes in `present`.
    /// Sweep reports are too coarse for this — at these sizes most
    /// seeds' samples come out identical whatever the liars say.
    #[test]
    fn random_liar_lies_match_the_scalar_payloads_at_full_width() {
        let (n, t) = (64, 21);
        let seeds: Vec<u64> = (0..64u64)
            .map(|i| (i + 1).wrapping_mul(0x2545_F491_4F6C_DD1D))
            .collect();
        let selection = FaultSelection::with_source();
        let mut scalar: Vec<RandomLiar> = seeds
            .iter()
            .map(|&seed| RandomLiar::new(selection.clone(), seed))
            .collect();
        let mut lanes: Vec<Box<dyn Adversary>> = scalar
            .iter()
            .map(|a| Box::new(a.clone()) as Box<dyn Adversary>)
            .collect();
        let mut batch = BatchFamily::new(
            VectorFamily::RandomLiar {
                seeds: seeds.clone(),
            },
            selection,
            &mut lanes,
        );
        let (mut faulty, mut fault_sets) = (vec![0u64; n], Vec::new());
        assert!(batch.corrupt_lanes(n, t, ProcessId(0), &mut faulty, &mut fault_sets));
        let set = fault_sets[0].clone();

        // Slot j stays silent in lane j; lanes 61..64 are retired.
        let present: Vec<u64> = (0..n).map(|j| !(1u64 << j)).collect();
        let (one, zero) = (present.clone(), vec![0u64; n]);
        let active = !0u64 >> 3;
        let single = Some(Arc::new(Payload::single(Value(1))));
        for round in 1..=4 {
            let view = LaneView {
                round,
                total_rounds: 8,
                n,
                t,
                source: ProcessId(0),
                source_value: Value(1),
                domain: ValueDomain::binary(),
                present: &present,
                one: &one,
                zero: &zero,
                faulty: &faulty,
                fault_sets: &fault_sets,
                active,
            };
            let (mut net_one, mut net_zero) = (vec![0u64; n * n], vec![0u64; n * n]);
            batch.lies(&view, &mut net_one, &mut net_zero);

            for (lane, liar) in scalar.iter_mut().enumerate() {
                let bit = 1u64 << lane;
                let shadows: Vec<Option<Arc<Payload>>> = (0..n)
                    .map(|j| {
                        let shadowed = set.contains(ProcessId(j)) && present[j] & bit != 0;
                        if shadowed {
                            single.clone()
                        } else {
                            None
                        }
                    })
                    .collect();
                let honest = vec![None; n];
                let scalar_view = AdversaryView {
                    round,
                    total_rounds: 8,
                    n,
                    t,
                    source: ProcessId(0),
                    source_value: Value(1),
                    domain: ValueDomain::binary(),
                    faulty: &set,
                    honest_broadcast: &honest,
                    shadow_broadcast: &shadows,
                    sigs: None,
                };
                for f in set.iter() {
                    for r in (0..n).filter(|&r| r != f.index()) {
                        let payload = liar.payload(f, ProcessId(r), &scalar_view);
                        let v = if active & bit == 0 {
                            None
                        } else {
                            payload.value_at(0)
                        };
                        let edge = f.index() * n + r;
                        let got = (net_one[edge] & bit != 0, net_zero[edge] & bit != 0);
                        assert_eq!(
                            got,
                            (v == Some(Value(1)), v == Some(Value(0))),
                            "round {round}, lane {lane}, edge {f:?}->{r}"
                        );
                    }
                }
            }
        }
    }
}
