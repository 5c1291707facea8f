//! Live shard rebalancing: load-aware range migration with a
//! key-handoff protocol.
//!
//! The shard-group engine scales writes with the number of independent
//! logs — but only while the key router spreads load. A static
//! [`ShardRouter::Range`](super::ShardRouter) pins a hotspot key
//! span to one shard: that shard's pipeline saturates while the others
//! idle, and aggregate throughput collapses to a single log's. This
//! module closes the ROADMAP "shard rebalancing" item: the **group
//! anchor** observes per-shard routed load (the same counters the
//! schema-v5 imbalance metrics read), computes new range boundaries when
//! the max/mean ratio crosses a threshold, and executes a **key-handoff
//! protocol** whose steps are:
//!
//! 1. **Freeze** — new admissions of keys in the migrating spans are
//!    buffered at the anchor instead of entering the old owner shard
//!    (forwards are re-routed by the anchor's own epoch, so a follower's
//!    stale shard tag cannot smuggle a moving key into the old owner).
//! 2. **Drain** — the anchor waits until no in-flight (proposed but
//!    unchosen) batch of any shard still references a moving key.
//! 3. **Commit** — the [`RouterUpdate`] (epoch + new boundaries) is
//!    encoded into a control batch
//!    ([`RouterUpdate::encode_values`], read back with
//!    [`RouterUpdate::decode_values`]) and committed through **shard
//!    0's log**. Every process applies control entries in slot order as
//!    its shard-0 all-chosen prefix advances, so all processes switch
//!    boundaries *at the same slot* — a total order even across
//!    competing migrations from leader churn. An applying anchor also
//!    broadcasts the update as a [`GroupMsg::Reroute`](super::GroupMsg)
//!    so followers whose shard-0 catch-up lags switch in `O(δ)`.
//! 4. **Re-forward** — frozen commands flush through the *new* routing,
//!    and each process locally migrates the moving keys' held state:
//!    pending commands re-enter via the new owner, and the old owner's
//!    admitted-set entries move with them
//!    ([`AdmittedSet::take_matching`](crate::paxos::admitted::AdmittedSet::take_matching))
//!    — unchosen ones re-admit at the new owner, chosen ones become
//!    group-level *moved answers* so a retry of a command committed
//!    before the move is still answered with its `LogDecided` instead of
//!    committing twice.
//!
//! Under a stable anchor, freeze + drain guarantee **no key is ever live
//! in two shards**: the anchor is the only proposer, and it admits a
//! moving key nowhere between the freeze and the epoch switch. Across an
//! anchor crash mid-migration the usual at-least-once window applies
//! (exactly as for any leadership change): an aborted migration's
//! control entry can still be revived by a later phase 1 and commits
//! idempotently, epoch-ordered, at every process.
//!
//! When the router is balanced the subsystem is silent: the trigger
//! never fires, no control entry is proposed, no `Reroute` is sent —
//! zero messages added, and runs with rebalancing disabled (or `S = 1`)
//! are bit-identical to before.

use crate::types::{kv_command, kv_key, Value, KEY_SHIFT};
use std::collections::BTreeMap;

use super::ShardRouter;

/// The reserved KV key of in-log control entries (the largest encodable
/// key). Workload generators must keep client keys below it; the group
/// debug-asserts this at admission.
pub const CTRL_KEY: u64 = (1 << (64 - KEY_SHIFT)) - 1;

/// Tag bit (within the id field) distinguishing a boundary value from
/// the epoch header inside a control batch.
const BOUNDARY_TAG: u64 = 1 << 47;

/// Whether `v` is a control value (a [`RouterUpdate`] fragment), which
/// drivers must never see as a committed client command.
pub fn is_ctrl_value(v: Value) -> bool {
    kv_key(v) == CTRL_KEY
}

/// A router-epoch switch: the new range boundaries, numbered by a
/// strictly increasing epoch. Committed through shard 0's log in value
/// form ([`RouterUpdate::encode_values`]) and broadcast as itself inside
/// [`GroupMsg::Reroute`](super::GroupMsg).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterUpdate {
    /// The epoch this update establishes (`current + 1` when applied).
    pub epoch: u64,
    /// The new [`ShardRouter::Range`] boundaries (`S − 1`, strictly
    /// ascending).
    pub boundaries: Vec<u64>,
}

impl RouterUpdate {
    /// Encodes the update as the value sequence of a control batch:
    /// `[header(epoch), boundary(0, b₀), boundary(1, b₁), …]`, every
    /// value carrying the reserved [`CTRL_KEY`].
    ///
    /// # Panics
    ///
    /// Panics if the epoch or a boundary overflows its field (40 and 32
    /// bits — far beyond any realistic migration count or KV key).
    pub fn encode_values(&self) -> Vec<Value> {
        assert!(self.epoch < 1 << 40, "router epoch overflows the header");
        let mut out = Vec::with_capacity(1 + self.boundaries.len());
        out.push(kv_command(CTRL_KEY, self.epoch));
        for (i, b) in self.boundaries.iter().enumerate() {
            assert!(*b < 1 << 32, "range boundary overflows the value field");
            assert!(i < 1 << 15, "boundary index overflows the value field");
            out.push(kv_command(CTRL_KEY, BOUNDARY_TAG | (i as u64) << 32 | b));
        }
        out
    }

    /// Decodes a control batch produced by [`RouterUpdate::encode_values`].
    /// Returns `None` for anything malformed — a wrong key, a missing or
    /// duplicated header, out-of-order boundary indices, or non-ascending
    /// boundaries — so a corrupted (or adversarial) batch can never
    /// switch a router.
    pub fn decode_values(batch: &[Value]) -> Option<RouterUpdate> {
        let (head, bounds) = batch.split_first()?;
        if bounds.is_empty() || !is_ctrl_value(*head) {
            return None;
        }
        let head_id = crate::types::kv_id(*head);
        if head_id & BOUNDARY_TAG != 0 {
            return None;
        }
        let mut boundaries = Vec::with_capacity(bounds.len());
        for (i, v) in bounds.iter().enumerate() {
            if !is_ctrl_value(*v) {
                return None;
            }
            let id = crate::types::kv_id(*v);
            if id & BOUNDARY_TAG == 0 || (id >> 32) & 0x7FFF != i as u64 {
                return None;
            }
            let b = id & 0xFFFF_FFFF;
            if boundaries.last().is_some_and(|p| *p >= b) {
                return None;
            }
            boundaries.push(b);
        }
        Some(RouterUpdate {
            epoch: head_id,
            boundaries,
        })
    }
}

/// When and how aggressively the group anchor moves range boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceConfig {
    /// Trigger ratio (`T_hi`): a migration starts when the hottest
    /// shard's observed routed load exceeds `threshold ×` the per-shard
    /// mean — but only while the trigger is *armed* (see `release`).
    pub threshold: f64,
    /// Release ratio (`T_lo`): after a migration fires, the trigger
    /// disarms and re-arms only once the observed ratio falls to
    /// `release ×` the mean or below. The `[release, threshold]`
    /// hysteresis band keeps a hotspot — whose decaying statistics
    /// hover around the trigger — from firing a boundary move on every
    /// check while the last move is still taking effect. Must sit below
    /// `threshold` for the band to exist; `release = threshold`
    /// degenerates to the old single-threshold behavior.
    pub release: f64,
    /// Escape ratio: a disarmed trigger re-arms (and may fire on the
    /// same check) when the observed ratio reaches `escape ×` the mean.
    /// Post-move sampling jitter — retry-weighted counts random-walking
    /// above the trigger — tops out well below a genuine regime change:
    /// a hotspot that *moved* concentrates most fresh load on one or two
    /// shards and spikes the ratio far past `threshold`. The escape
    /// level separates the two, so the band damps jitter indefinitely
    /// without wedging the trigger disarmed when the workload actually
    /// shifts. Must sit at or above `threshold`.
    pub escape: f64,
    /// Routed commands between imbalance checks (also the minimum sample
    /// size before the first check fires).
    pub check_every: u64,
}

impl Default for RebalanceConfig {
    /// `threshold = 2.0`, `release = 1.25`, `escape = 3.0`,
    /// `check_every = 256` — conservative enough that a uniform workload
    /// never triggers, reactive enough that a pinned or shifted hotspot
    /// migrates within a few hundred commands, and damped enough that
    /// post-move sampling jitter (which tops out around `2.2×` in the W5
    /// runs) settles inside the band instead of refiring.
    fn default() -> Self {
        RebalanceConfig {
            threshold: 2.0,
            release: 1.25,
            escape: 3.0,
            check_every: 256,
        }
    }
}

impl RebalanceConfig {
    /// Sets the trigger ratio (consumed-and-returned for chaining).
    ///
    /// # Panics
    ///
    /// Panics unless `threshold > 1.0` (at or below 1.0 every check
    /// would trigger, including on perfectly balanced load).
    #[must_use]
    pub fn threshold(mut self, threshold: f64) -> Self {
        assert!(threshold > 1.0, "a trigger ratio must exceed 1.0");
        self.threshold = threshold;
        // Keep the band ordered: a trigger pulled below the current
        // release drags the release down with it, and one raised above
        // the current escape drags the escape up.
        self.release = self.release.min(threshold);
        self.escape = self.escape.max(threshold);
        self
    }

    /// Sets the release (re-arm) ratio `T_lo` (consumed-and-returned for
    /// chaining).
    ///
    /// # Panics
    ///
    /// Panics unless `1.0 <= release <= threshold` — a release above the
    /// trigger would re-arm on load the trigger itself considers
    /// imbalanced, inverting the band.
    #[must_use]
    pub fn release(mut self, release: f64) -> Self {
        assert!(
            (1.0..=self.threshold).contains(&release),
            "the release ratio must sit in [1.0, threshold]"
        );
        self.release = release;
        self
    }

    /// Sets the check interval.
    ///
    /// # Panics
    ///
    /// Panics if `check_every` is zero.
    #[must_use]
    pub fn check_every(mut self, check_every: u64) -> Self {
        assert!(check_every >= 1, "checks need a nonzero interval");
        self.check_every = check_every;
        self
    }
}

/// An in-flight migration at the group anchor.
#[derive(Debug, Clone)]
pub(super) struct Migration {
    /// The epoch bump being executed.
    pub(super) update: RouterUpdate,
    /// The shard-0 slot the control batch was proposed into (`None`
    /// until the drain completed) and the batch itself, so a slot lost
    /// to a competing leader is detected and the migration aborted.
    pub(super) ctrl: Option<(u64, crate::paxos::multi::Batch)>,
}

/// The anchor-side rebalancing machinery: load observation, the
/// imbalance trigger, and the boundary computation. Deterministic — a
/// pure function of the routed key sequence — so simulator runs with
/// rebalancing stay bit-reproducible per seed.
#[derive(Debug, Clone)]
pub(super) struct Rebalancer {
    pub(super) cfg: RebalanceConfig,
    /// Routed commands per key since the last decay — the empirical key
    /// distribution the split is computed from. Bounded by the key space
    /// (KV keys are < 2¹⁶) and halved on every check, so shifting
    /// hotspots age out.
    key_counts: BTreeMap<u64, u64>,
    since_check: u64,
    /// The hysteresis state: `true` until a migration fires, then `false`
    /// until an imbalance check observes a ratio at or below
    /// `cfg.release` (settled), at or above `cfg.escape` (regime
    /// change), or no load at all. Starts armed so the first trigger
    /// behaves exactly as before the band existed.
    armed: bool,
    pub(super) migration: Option<Migration>,
}

impl Rebalancer {
    pub(super) fn new(cfg: RebalanceConfig) -> Self {
        Rebalancer {
            cfg,
            key_counts: BTreeMap::new(),
            since_check: 0,
            armed: true,
            migration: None,
        }
    }

    /// Records one routed command.
    pub(super) fn note(&mut self, key: u64) {
        *self.key_counts.entry(key).or_insert(0) += 1;
        self.since_check += 1;
    }

    /// Runs the imbalance check if due: returns the new boundary vector
    /// when the trigger is armed, the hottest shard exceeds
    /// `threshold ×` the mean, and an equal-weight split would actually
    /// move a boundary. A fired migration disarms the trigger; a check
    /// observing a ratio at or below `release ×` the mean (or an empty
    /// sample) re-arms it, as does a ratio at or above `escape ×` the
    /// mean — a spike that high is a regime change (a hotspot that moved
    /// again), not post-move jitter, and fires on the same check. A
    /// fired migration also resets the observed sample: the split it
    /// installed was computed *for* that sample, so keeping it would
    /// make the next check measure a stale mixture of pre- and post-move
    /// load and chase its own statistics. Decays the observed counts
    /// afterwards either way.
    pub(super) fn check(&mut self, router: &ShardRouter, shards: usize) -> Option<Vec<u64>> {
        if self.since_check < self.cfg.check_every {
            return None;
        }
        self.since_check = 0;
        let ShardRouter::Range(current) = router else {
            return None;
        };
        let mut per_shard = vec![0u64; shards];
        let mut total = 0u64;
        for (key, w) in &self.key_counts {
            per_shard[owner_of(current, *key)] += w;
            total += w;
        }
        let hottest = per_shard.iter().copied().max().unwrap_or(0);
        let mean = total as f64 / shards as f64;
        // Re-arm before evaluating the trigger, so an escape-level spike
        // fires on this same check instead of lagging one more interval
        // behind a moving hotspot.
        if !self.armed {
            let quiet = total == 0;
            let settled = hottest as f64 <= self.cfg.release * mean;
            let regime_change = hottest as f64 >= self.cfg.escape * mean;
            if quiet || settled || regime_change {
                self.armed = true;
            }
        }
        let result = if total > 0 && self.armed && hottest as f64 >= self.cfg.threshold * mean {
            let split = self.split(shards);
            let moved = (split != *current).then_some(split);
            if moved.is_some() {
                self.armed = false;
                // The installed split serves exactly this sample; start
                // the next measurement from scratch under the new
                // routing instead of re-judging the old distribution.
                self.key_counts.clear();
            }
            moved
        } else {
            None
        };
        self.key_counts.retain(|_, w| {
            *w /= 2;
            *w > 0
        });
        result
    }

    /// Equal-weight contiguous partition of the observed key
    /// distribution into `shards` ranges: boundary `i` lands just past
    /// the key where the cumulative weight crosses `i/S` of the total.
    /// Always returns `S − 1` strictly ascending boundaries (padded past
    /// the last placed one when the distribution has too few distinct
    /// keys to split further).
    fn split(&self, shards: usize) -> Vec<u64> {
        let total: u64 = self.key_counts.values().sum();
        let mut bounds: Vec<u64> = Vec::with_capacity(shards - 1);
        let mut cum = 0u64;
        for (key, w) in &self.key_counts {
            if bounds.len() == shards - 1 {
                break;
            }
            cum += w;
            // May place several boundaries on one very heavy key; the
            // ascension floor then fans them out one key apart (a single
            // key hotter than several shards' shares cannot be split).
            while bounds.len() < shards - 1
                && cum * shards as u64 >= (bounds.len() as u64 + 1) * total
            {
                let floor = bounds.last().map_or(0, |b| b + 1);
                bounds.push((key + 1).max(floor));
            }
        }
        while bounds.len() < shards - 1 {
            let floor = bounds.last().map_or(0, |b| b + 1);
            bounds.push(floor);
        }
        bounds
    }
}

/// The shard index `key` routes to under `bounds`: the range-router
/// rule, which [`ShardRouter::route`] applies too.
pub(super) fn owner_of(bounds: &[u64], key: u64) -> usize {
    bounds.partition_point(|b| key >= *b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(epoch: u64, boundaries: Vec<u64>) -> RouterUpdate {
        RouterUpdate { epoch, boundaries }
    }

    #[test]
    fn value_codec_roundtrips() {
        let u = update(3, vec![10, 100, 4_000_000_000]);
        let values = u.encode_values();
        assert!(values.iter().all(|v| is_ctrl_value(*v)));
        assert_eq!(RouterUpdate::decode_values(&values), Some(u));
    }

    #[test]
    fn value_codec_rejects_malformed_batches() {
        let u = update(2, vec![5, 9]);
        let good = u.encode_values();
        // Too short (no boundary).
        assert_eq!(RouterUpdate::decode_values(&good[..1]), None);
        assert_eq!(RouterUpdate::decode_values(&[]), None);
        // A client command where the header should be.
        let mut bad = good.clone();
        bad[0] = kv_command(7, 1);
        assert_eq!(RouterUpdate::decode_values(&bad), None);
        // Boundary index out of order (swap the two boundary values).
        let mut swapped = good.clone();
        swapped.swap(1, 2);
        assert_eq!(RouterUpdate::decode_values(&swapped), None);
        // Non-ascending boundaries: overwrite the first boundary with 9
        // so the batch claims [9, 9].
        let mut vals = update(2, vec![8, 9]).encode_values();
        vals[1] = kv_command(CTRL_KEY, BOUNDARY_TAG | 9);
        assert_eq!(RouterUpdate::decode_values(&vals), None);
        // Header carrying the boundary tag.
        let mut tagged = good.clone();
        tagged[0] = kv_command(CTRL_KEY, BOUNDARY_TAG | 2);
        assert_eq!(RouterUpdate::decode_values(&tagged), None);
    }

    #[test]
    fn balanced_load_never_triggers() {
        let mut r = Rebalancer::new(RebalanceConfig::default().check_every(64));
        let router = ShardRouter::Range(vec![16, 32, 48]);
        for i in 0..256u64 {
            r.note(i % 64);
            assert_eq!(r.check(&router, 4), None, "uniform keys must not trigger");
        }
    }

    #[test]
    fn pinned_hotspot_triggers_an_equal_weight_split() {
        let mut r = Rebalancer::new(RebalanceConfig::default().check_every(64));
        let router = ShardRouter::Range(vec![16, 32, 48]);
        // 90% of keys in [0, 8): shard 0 is 3.6x the mean.
        let mut moved = None;
        for i in 0..64u64 {
            r.note(if i % 10 == 0 { 40 + i % 8 } else { i % 8 });
            if let Some(b) = r.check(&router, 4) {
                moved = Some(b);
            }
        }
        let bounds = moved.expect("hotspot must trigger a boundary move");
        assert_eq!(bounds.len(), 3);
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "ascending: {bounds:?}"
        );
        // The hot span is split: at least two boundaries inside [0, 8].
        assert!(
            bounds.iter().filter(|b| **b <= 8).count() >= 2,
            "hot span not split: {bounds:?}"
        );
    }

    #[test]
    fn split_pads_when_keys_are_too_few() {
        let mut r = Rebalancer::new(RebalanceConfig::default().check_every(8));
        let router = ShardRouter::Range(vec![100, 200, 300]);
        for _ in 0..8 {
            r.note(5); // a single scorching key
        }
        let bounds = r.check(&router, 4).expect("one hot key triggers");
        assert_eq!(bounds.len(), 3);
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "padded ascending: {bounds:?}"
        );
    }

    /// Notes a 16-command window whose hottest shard sits at exactly
    /// `2.0 ×` the mean under the `[8, 16, 24]` router — at the trigger,
    /// inside the `[release, escape]` band.
    fn note_in_band_jitter(r: &mut Rebalancer) {
        for (key, w) in [(1u64, 8), (9u64, 2), (17u64, 4), (30u64, 2)] {
            for _ in 0..w {
                r.note(key);
            }
        }
    }

    #[test]
    fn hysteresis_band_damps_repeat_triggers() {
        let mut r = Rebalancer::new(RebalanceConfig::default().release(1.6).check_every(16));
        let router = ShardRouter::Range(vec![8, 16, 24]);
        // A pinned hotspot fires the armed trigger once...
        for _ in 0..16 {
            r.note(1);
        }
        assert!(
            r.check(&router, 4).is_some(),
            "first trigger fires as before"
        );
        // ...then at-the-trigger jitter is held by the disarmed band (the
        // old single-threshold rule would fire on every one of these
        // checks, since the unit router never moves).
        for _ in 0..3 {
            note_in_band_jitter(&mut r);
            assert_eq!(r.check(&router, 4), None, "disarmed trigger must hold");
        }
        // A near-balanced window (ratio at or below the release) re-arms
        // without firing...
        for i in 0..64u64 {
            r.note(i % 32);
        }
        assert_eq!(r.check(&router, 4), None, "re-arming check does not fire");
        // ...so the next hotspot fires again.
        for _ in 0..64 {
            r.note(1);
        }
        assert!(
            r.check(&router, 4).is_some(),
            "re-armed trigger fires again"
        );
    }

    #[test]
    fn escape_refires_on_regime_change() {
        // A hotspot that *moves* after a migration never lets the ratio
        // revisit the release floor, so the release rule alone would
        // wedge the trigger disarmed forever — but the move spikes the
        // ratio past the escape level, which re-arms the trigger and
        // fires on the same check.
        let mut r = Rebalancer::new(RebalanceConfig::default().check_every(16));
        let router = ShardRouter::Range(vec![8, 16, 24]);
        for _ in 0..16 {
            r.note(1);
        }
        assert!(r.check(&router, 4).is_some(), "armed trigger fires");
        // Post-move jitter at the trigger ratio holds indefinitely...
        for _ in 0..2 {
            note_in_band_jitter(&mut r);
            assert_eq!(r.check(&router, 4), None, "in-band jitter must hold");
        }
        // ...but the moved hotspot's spike crosses the escape level.
        for _ in 0..32 {
            r.note(20);
        }
        assert!(r.check(&router, 4).is_some(), "escape-level spike refires");
    }

    #[test]
    fn counts_decay_so_shifted_hotspots_age_out() {
        // Threshold high enough that no check fires (a fired migration
        // would clear the sample outright — this test watches the decay
        // path alone).
        let mut r = Rebalancer::new(RebalanceConfig::default().threshold(10.0).check_every(16));
        let router = ShardRouter::Range(vec![8]);
        for _ in 0..16 {
            r.note(2);
        }
        let _ = r.check(&router, 2);
        // After several empty checks the old hotspot's weight halves away.
        for _ in 0..6 {
            for i in 0..16u64 {
                r.note(8 + i % 8);
            }
            let _ = r.check(&router, 2);
        }
        assert!(
            r.key_counts.get(&2).copied().unwrap_or(0) <= 1,
            "stale hotspot weight must decay"
        );
    }

    #[test]
    fn owner_of_matches_range_router() {
        let bounds = vec![10u64, 100];
        for key in [0u64, 9, 10, 55, 100, 5000] {
            assert_eq!(
                owner_of(&bounds, key) as u32,
                ShardRouter::Range(bounds.clone()).route(key, 3).get()
            );
        }
    }
}
