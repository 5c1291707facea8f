//! The message fabric: the network model, the run's PRNG, and the
//! accounting of everything handed to them.

use crate::event::{EventKind, EventQueue, MsgPayload};
use crate::network::{Delivery, Network, PreStability};
use crate::oracle::plan_wab_delivery;
use crate::time::SimTime;
use crate::world::SimConfig;
use esync_core::types::ProcessId;
use esync_core::wab::WabMessage;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// What a sent message goes through before it is a queued delivery. The
/// event queue is passed in by the loop, so applying a handler's actions
/// borrows the fabric and the queue side by side.
#[derive(Debug)]
pub(super) struct Fabric {
    network: Network,
    /// Every random choice of the run — clock rates first, then one
    /// verdict per message — draws from this stream.
    pub(super) rng: ChaCha8Rng,
    n: usize,
    pub(super) msgs_sent: u64,
    pub(super) msgs_sent_after_ts: u64,
    /// Per-kind message counts. Protocols have a handful of kinds, so a
    /// linear scan over this Vec beats a map lookup per sent message.
    pub(super) msgs_by_kind: Vec<(&'static str, u64)>,
    pub(super) msgs_dropped: u64,
}

impl Fabric {
    pub(super) fn new(cfg: &SimConfig) -> Self {
        Fabric {
            network: Network::new(
                cfg.ts,
                cfg.timing.delta(),
                cfg.post_delay_range,
                cfg.pre.clone(),
            ),
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            n: cfg.timing.n(),
            msgs_sent: 0,
            msgs_sent_after_ts: 0,
            msgs_by_kind: Vec::with_capacity(8),
            msgs_dropped: 0,
        }
    }

    /// Counts `by` messages of `kind` handed to the network at `now`.
    fn account(&mut self, now: SimTime, kind: &'static str, by: u64) {
        self.msgs_sent += by;
        if now >= self.network.ts() {
            self.msgs_sent_after_ts += by;
        }
        match self.msgs_by_kind.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, v)) => *v += by,
            None => self.msgs_by_kind.push((kind, by)),
        }
    }

    pub(super) fn send<M>(
        &mut self,
        queue: &mut EventQueue<M>,
        now: SimTime,
        kind: &'static str,
        from: ProcessId,
        to: ProcessId,
        msg: M,
    ) {
        self.account(now, kind, 1);
        match self.network.classify(now, from, to, &mut self.rng) {
            Delivery::Drop => self.msgs_dropped += 1,
            Delivery::At(t) => {
                let msg = MsgPayload::Owned(msg);
                queue.push(t, EventKind::Deliver { from, to, msg });
            }
        }
    }

    /// Fans one broadcast payload out to every process as **one** queue
    /// record: a single classify pass decides each recipient's fate and
    /// feeds the survivors to [`EventQueue::push_fanout`].
    ///
    /// Messages that own heap data (detected at compile time via
    /// [`std::mem::needs_drop`], e.g. a phase-1b carrying a `Vec` of votes)
    /// go behind an `Arc`, so each delivery costs a refcount bump — zero
    /// deep clones. Flat `Copy`-style messages are cheaper to memcpy than
    /// to route through a shared allocation, so they stay owned. The
    /// branch is a monomorphization-time constant.
    pub(super) fn broadcast<M: Clone>(
        &mut self,
        queue: &mut EventQueue<M>,
        now: SimTime,
        kind: &'static str,
        from: ProcessId,
        msg: M,
    ) {
        self.account(now, kind, self.n as u64);
        let payload = if std::mem::needs_drop::<M>() {
            MsgPayload::Shared(Arc::new(msg))
        } else {
            MsgPayload::Owned(msg)
        };
        let (network, rng) = (&self.network, &mut self.rng);
        let survivors =
            ProcessId::all(self.n).filter_map(|to| match network.classify(now, from, to, rng) {
                Delivery::Drop => None,
                Delivery::At(t) => Some((to, t)),
            });
        let delivered = queue.push_fanout(from, payload, survivors);
        self.msgs_dropped += (self.n - delivered) as u64;
    }

    /// Hands `msg` to the idealized weak-ordering oracle.
    pub(super) fn wab_broadcast<M>(
        &mut self,
        queue: &mut EventQueue<M>,
        now: SimTime,
        pre: &PreStability,
        msg: WabMessage,
    ) {
        for (to, when) in plan_wab_delivery(now, self.n, &self.network, pre, &mut self.rng) {
            match when {
                Some(t) => {
                    queue.push(t, EventKind::WabDeliver { to, msg });
                }
                None => self.msgs_dropped += 1,
            }
        }
        self.account(now, "wab", self.n as u64);
    }
}
