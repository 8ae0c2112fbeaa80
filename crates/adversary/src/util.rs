//! Shared helpers for adversary strategies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sg_sim::{AdversaryView, Payload, ProcessId, Value};

/// A deterministic RNG for one (round, sender, recipient) decision,
/// independent of call order.
pub fn call_rng(seed: u64, round: usize, sender: ProcessId, recipient: ProcessId) -> StdRng {
    StdRng::seed_from_u64(seed ^ call_key(round, sender, recipient))
}

/// The seed-independent half of [`call_rng`]'s seed: the RNG of
/// `(seed, round, sender, recipient)` is seeded with
/// `seed ^ call_key(round, sender, recipient)`, so one key serves every
/// seed (every batch lane) of an edge.
#[inline]
pub fn call_key(round: usize, sender: ProcessId, recipient: ProcessId) -> u64 {
    (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (sender.index() as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (recipient.index() as u64).wrapping_mul(0x94D0_49BB_1331_11EB)
}

/// The first draw of [`call_rng`] in closed form: for
/// `mix = seed ^ call_key(round, sender, recipient)` and `span ≥ 1`,
/// exactly `call_rng(seed, round, sender, recipient).gen_range(0..span)`.
///
/// The generator's first output reads only its second state word, which
/// seeding sets to one SplitMix64 finalizer of `mix + 2γ`; the draw is
/// that output's multiply-shift range reduction. No state is built, so a
/// batch can evaluate it for every lane of an edge in one pass. The
/// `closed_form_matches_call_rng` test pins it to the generator.
#[inline]
pub fn call_value(mix: u64, span: u16) -> u16 {
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut z = mix.wrapping_add(GAMMA.wrapping_mul(2));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let out = (z ^ (z >> 31))
        .wrapping_mul(5)
        .rotate_left(7)
        .wrapping_mul(9);
    ((u128::from(out) * u128::from(span)) >> 64) as u16
}

/// `len` uniformly random in-domain values for one (round, sender,
/// recipient) call, seeded by [`call_rng`]: a zero-allocation single
/// value from [`call_value`] when `len == 1`, the RNG's stream otherwise.
pub fn random_payload(
    seed: u64,
    sender: ProcessId,
    recipient: ProcessId,
    len: usize,
    view: &AdversaryView<'_>,
) -> Payload {
    let span = view.domain.size();
    if len == 1 {
        let mix = seed ^ call_key(view.round, sender, recipient);
        return Payload::single(Value(call_value(mix, span)));
    }
    let mut rng = call_rng(seed, view.round, sender, recipient);
    Payload::Values((0..len).map(|_| Value(rng.gen_range(0..span))).collect())
}

/// The sender's honest shadow payload, or [`Payload::Missing`] if it
/// would be silent this round.
pub fn shadow_or_missing(view: &AdversaryView<'_>, sender: ProcessId) -> Payload {
    view.shadow_of(sender).cloned().unwrap_or(Payload::Missing)
}

/// `len` copies of `v` as a payload: a zero-allocation [`Payload::single`]
/// for the one-value broadcasts of the king-family protocols, the usual
/// value vector otherwise.
pub fn repeated(v: Value, len: usize) -> Payload {
    if len == 1 {
        Payload::single(v)
    } else {
        Payload::Values(vec![v; len])
    }
}

/// Applies `f` to every value of the sender's shadow payload; missing
/// shadows stay missing. Representation-agnostic: bit-packed and
/// vector shadows corrupt identically.
pub fn map_shadow<F>(view: &AdversaryView<'_>, sender: ProcessId, mut f: F) -> Payload
where
    F: FnMut(usize, Value) -> Value,
{
    match view.shadow_of(sender) {
        Some(p @ (Payload::Values(_) | Payload::Bits { .. })) => Payload::Values(
            (0..p.num_values())
                .map(|i| f(i, p.value_at(i).expect("index in range")))
                .collect(),
        ),
        Some(other) => other.clone(),
        None => Payload::Missing,
    }
}

/// Flips a value within the domain: `v ↦ (v+1) mod |V|`.
///
/// Out-of-domain inputs (protocols may legitimately broadcast sentinel
/// values, e.g. an encoded `⊥` proposal) are flipped into the domain too —
/// an adversary is free to turn a `⊥` into a real value.
pub fn flip(view: &AdversaryView<'_>, v: Value) -> Value {
    Value(((u32::from(v.raw()) + 1) % u32::from(view.domain.size())) as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_rng_is_deterministic_and_distinct() {
        let mut a = call_rng(7, 3, ProcessId(1), ProcessId(2));
        let mut b = call_rng(7, 3, ProcessId(1), ProcessId(2));
        let mut c = call_rng(7, 3, ProcessId(1), ProcessId(3));
        let (x, y, z): (u64, u64, u64) = (a.gen(), b.gen(), c.gen());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn closed_form_matches_call_rng() {
        let mut seeds = vec![0, 1, u64::MAX];
        let mut draws = StdRng::seed_from_u64(0x5EED);
        seeds.extend((0..8).map(|_| draws.gen::<u64>()));
        for span in [2u16, 3, 5, u16::MAX] {
            for &seed in &seeds {
                for round in 1..=8 {
                    for sender in 0..64 {
                        for recipient in 0..64 {
                            let (s, r) = (ProcessId(sender), ProcessId(recipient));
                            let mix = seed ^ call_key(round, s, r);
                            let want: u16 = call_rng(seed, round, s, r).gen_range(0..span);
                            assert_eq!(
                                call_value(mix, span),
                                want,
                                "span {span}, seed {seed:#x}, round {round}, edge {sender}->{recipient}"
                            );
                        }
                    }
                }
            }
        }
    }
}
