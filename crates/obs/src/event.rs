//! The structured event vocabulary of the observability plane.
//!
//! Every instrumented engine emits the same seven event kinds, so one
//! replay/reconciliation kit ([`crate::check`]) serves every protocol.
//! An [`Event`] is a small `Copy` struct — recording one is a couple of
//! stores into a pre-allocated ring ([`crate::RingLog`]), never an
//! allocation.

/// What happened to a block at a level. The `level` field of the
/// enclosing [`Event`] disambiguates *where*; see each variant for the
/// convention it uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// The accessed block was found cached. `level` is the hit level
    /// (0 = the requesting client), matching `SimStats::hits_by_level`.
    #[default]
    Hit,
    /// The accessed block was not cached anywhere. `level` is the
    /// hierarchy's level count — the `L_out` sentinel.
    Miss,
    /// A block was installed at `level` by this access (the accessed
    /// block's new placement, or a reload into a mid-level cache).
    /// `level == levels` means the block settled uncached (`L_out`).
    Retrieve,
    /// A block crossed boundary `level` downward (from level `level` to
    /// `level + 1`). A block demoted across several boundaries emits one
    /// event per boundary, so the per-boundary event counts reconcile
    /// exactly with `SimStats::demotions_by_boundary`.
    Demote,
    /// A block left the hierarchy for `L_out`. `level` is the level it
    /// was dropped from (by convention the bottom cache level).
    Evict,
    /// A recovery reconciliation round ran. `level` is the client index
    /// being reconciled; `block` is 0.
    Reconcile,
    /// The protocol observed a transport or residency fault it had to
    /// work around (lost RPC reply, residency violation, …). `level` is
    /// where it was observed.
    Fault,
}

impl EventKind {
    /// Every kind, in declaration order — handy for tallying a log.
    pub const ALL: [EventKind; 7] = [
        EventKind::Hit,
        EventKind::Miss,
        EventKind::Retrieve,
        EventKind::Demote,
        EventKind::Evict,
        EventKind::Reconcile,
        EventKind::Fault,
    ];

    /// Stable lowercase name, used in rendered event-log excerpts and
    /// JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Hit => "hit",
            EventKind::Miss => "miss",
            EventKind::Retrieve => "retrieve",
            EventKind::Demote => "demote",
            EventKind::Evict => "evict",
            EventKind::Reconcile => "reconcile",
            EventKind::Fault => "fault",
        }
    }

    /// Dense index of this kind inside [`EventKind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One observed protocol action. 32 bytes, `Copy`, no pointers — the
/// ring log stores these by value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Event {
    /// Access number when the event fired (1-based; each
    /// `begin_access` starts a new tick).
    pub tick: u64,
    /// Raw block id (`ulc_trace::BlockId::raw` upstream).
    pub block: u64,
    /// Level / boundary / client index — see [`EventKind`] for the
    /// convention each kind uses.
    pub level: u16,
    /// What happened.
    pub kind: EventKind,
}

impl core::fmt::Display for Event {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "t={:<6} {:<9} L{} block={}",
            self.tick,
            self.kind.name(),
            self.level,
            self.block
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_index_their_position_in_all() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn display_is_stable() {
        let ev = Event {
            tick: 3,
            block: 17,
            level: 1,
            kind: EventKind::Demote,
        };
        assert_eq!(format!("{ev}"), "t=3      demote    L1 block=17");
    }
}
