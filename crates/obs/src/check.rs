//! The conservation test kit: event streams must reconcile exactly with
//! `SimStats`, and (for exclusive single-client protocols) the event log
//! alone must replay to a consistent single-residency placement.
//!
//! The kit is engine-agnostic: callers run a simulation with recording
//! enabled from the very first reference (warm-up 0), [`ObsHandle::finish`]
//! the handle, then hand the recorder plus a [`StatsView`] of the
//! engine's `SimStats` to [`reconcile`]. `ulc-obs` cannot depend on the
//! hierarchy crate (the dependency points the other way), so the view is
//! a borrowed slice struct rather than `SimStats` itself.
//!
//! [`ObsHandle::finish`]: crate::ObsHandle::finish

use std::collections::BTreeMap;

use crate::event::EventKind;
use crate::metrics::CounterId;
use crate::recorder::RingRecorder;
use crate::ring::RingLog;

/// A borrowed view of the aggregate counters a simulation driver
/// produced (`SimStats` upstream).
#[derive(Clone, Copy, Debug)]
pub struct StatsView<'a> {
    /// References measured. Must cover the whole run (warm-up 0) for
    /// the counts to reconcile.
    pub references: u64,
    /// Hits per level, 0-indexed from the client.
    pub hits_by_level: &'a [u64],
    /// References served from `L_out`.
    pub misses: u64,
    /// Demotions surfaced per boundary (post-buffering, if a demotion
    /// buffer is in play).
    pub demotions_by_boundary: &'a [u64],
}

fn expect_eq(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: recorded {got}, stats say {want}"))
    }
}

/// Checks that the recorder's counters reconcile exactly with the
/// driver's aggregate statistics:
///
/// * accesses recorded == references; hits + misses == accesses,
/// * per-level hits match `hits_by_level` slot for slot,
/// * per boundary, demotions recorded == demotions surfaced + demotions
///   buffered (the "± buffered" ledger),
/// * if the event ring never wrapped, the event stream tallies to the
///   same counters kind by kind.
///
/// Returns the first discrepancy as a human-readable message.
pub fn reconcile(rec: &RingRecorder, stats: &StatsView<'_>) -> Result<(), String> {
    let m = rec.metrics();
    if m.levels() != stats.hits_by_level.len() {
        return Err(format!(
            "registry sized for {} levels, stats report {}",
            m.levels(),
            stats.hits_by_level.len()
        ));
    }
    expect_eq("accesses", m.counter(CounterId::Accesses), stats.references)?;
    expect_eq(
        "hits + misses",
        m.counter(CounterId::Hits) + m.counter(CounterId::Misses),
        m.counter(CounterId::Accesses),
    )?;
    expect_eq("misses", m.counter(CounterId::Misses), stats.misses)?;

    let mut hit_sum = 0;
    for (l, &want) in stats.hits_by_level.iter().enumerate() {
        expect_eq(&format!("hits at level {l}"), m.level(l).hits, want)?;
        hit_sum += m.level(l).hits;
    }
    expect_eq("per-level hit sum", hit_sum, m.counter(CounterId::Hits))?;

    let mut demote_sum = 0;
    let mut buffered_sum = 0;
    for (b, &surfaced) in stats.demotions_by_boundary.iter().enumerate() {
        let row = m.level(b);
        expect_eq(
            &format!("demotions across boundary {b}"),
            row.demotions,
            surfaced + row.buffered,
        )?;
        demote_sum += row.demotions;
        buffered_sum += row.buffered;
    }
    expect_eq(
        "per-boundary demotion sum",
        demote_sum,
        m.counter(CounterId::Demotions),
    )?;
    expect_eq(
        "per-boundary buffered sum",
        buffered_sum,
        m.counter(CounterId::DemotionsBuffered),
    )?;

    if rec.log().dropped() == 0 {
        let mut by_kind = [0u64; EventKind::ALL.len()];
        for ev in rec.log().iter() {
            by_kind[ev.kind.index()] += 1;
        }
        let pairs = [
            (EventKind::Hit, CounterId::Hits),
            (EventKind::Miss, CounterId::Misses),
            (EventKind::Retrieve, CounterId::Retrieves),
            (EventKind::Demote, CounterId::Demotions),
            (EventKind::Evict, CounterId::Evictions),
            (EventKind::Reconcile, CounterId::Reconciles),
            (EventKind::Fault, CounterId::Faults),
        ];
        for (kind, counter) in pairs {
            expect_eq(
                &format!("{} events vs counter", kind.name()),
                by_kind[kind.index()],
                m.counter(counter),
            )?;
        }
    }
    Ok(())
}

/// Outcome of a successful [`replay_residency`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResidencyReplay {
    /// The complete event stream replayed to a consistent
    /// single-residency placement.
    Verified,
    /// The ring wrapped, so the stream is incomplete and the replay was
    /// skipped — not a contradiction, just an unverifiable log. Size
    /// the ring to the run (or check `RingLog::dropped` up front) to
    /// get `Verified`.
    SkippedTruncated {
        /// Events the ring overwrote.
        dropped: u64,
    },
}

/// Replays an event log and checks that every event is consistent with a
/// single-residency placement derived from the events alone: hits find
/// the block where the last retrieve/demote left it, demotes move a
/// resident block across the named boundary, evicts and out-of-hierarchy
/// retrieves remove resident blocks.
///
/// Requires the complete stream: recording must have started with the
/// first reference. A wrapped ring is reported as
/// [`ResidencyReplay::SkippedTruncated`] rather than an error — the log
/// is merely unverifiable, not contradictory. Suited to exclusive
/// single-client protocols (the default-config `UlcSingle`), where
/// residency transitions are fully event-visible.
///
/// Returns the first contradiction as a human-readable message.
pub fn replay_residency(log: &RingLog, levels: usize) -> Result<ResidencyReplay, String> {
    if log.dropped() > 0 {
        return Ok(ResidencyReplay::SkippedTruncated {
            dropped: log.dropped(),
        });
    }
    let mut home: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, ev) in log.iter().enumerate() {
        let level = ev.level as usize;
        match ev.kind {
            EventKind::Hit => match home.get(&ev.block) {
                Some(&at) if at == level => {}
                Some(&at) => {
                    return Err(format!(
                        "event {i} ({ev}): hit at L{level} but block resides at L{at}"
                    ));
                }
                None => {
                    return Err(format!("event {i} ({ev}): hit on a block not resident"));
                }
            },
            EventKind::Miss => {
                if let Some(&at) = home.get(&ev.block) {
                    return Err(format!("event {i} ({ev}): miss but block resides at L{at}"));
                }
            }
            EventKind::Retrieve => {
                if level < levels {
                    home.insert(ev.block, level);
                } else {
                    home.remove(&ev.block);
                }
            }
            EventKind::Demote => match home.get(&ev.block) {
                Some(&at) if at == level => {
                    home.insert(ev.block, level + 1);
                }
                Some(&at) => {
                    return Err(format!(
                        "event {i} ({ev}): demote from L{level} but block resides at L{at}"
                    ));
                }
                None => {
                    return Err(format!("event {i} ({ev}): demote of a block not resident"));
                }
            },
            EventKind::Evict => {
                if home.remove(&ev.block).is_none() {
                    return Err(format!("event {i} ({ev}): evict of a block not resident"));
                }
            }
            EventKind::Reconcile | EventKind::Fault => {}
        }
    }
    Ok(ResidencyReplay::Verified)
}

/// Checks the per-window conservation law of an attached timeline: the
/// sum of every window registry must reproduce the recorder's whole-run
/// [`crate::MetricsRegistry`] *exactly* — counters, per-level rows and
/// histograms. Call after `finish` so batched histograms have flushed.
///
/// Returns the first discrepancy (or a missing timeline) as a
/// human-readable message.
pub fn windows_reconcile(rec: &RingRecorder) -> Result<(), String> {
    let Some(timeline) = rec.timeline() else {
        return Err("no timeline attached; call enable_timeline before the run".to_string());
    };
    let sum = timeline.summed();
    let m = rec.metrics();
    for id in CounterId::ALL {
        expect_eq(
            &format!("window sum of counter {}", id.name()),
            sum.counter(id),
            m.counter(id),
        )?;
    }
    for l in 0..m.levels() {
        let (got, want) = (sum.level(l), m.level(l));
        if got != want {
            return Err(format!(
                "window sum of level {l} row {got:?} != whole-run row {want:?}"
            ));
        }
    }
    for id in crate::metrics::HistId::ALL {
        if sum.hist(id) != m.hist(id) {
            return Err(format!(
                "window sum of histogram {} (count {}, total {}) != whole-run (count {}, total {})",
                id.name(),
                sum.hist(id).count(),
                sum.hist(id).total(),
                m.hist(id).count(),
                m.hist(id).total()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn push(log: &mut RingLog, tick: u64, kind: EventKind, level: u16, block: u64) {
        log.push(Event {
            tick,
            block,
            level,
            kind,
        });
    }

    #[test]
    fn replay_accepts_a_consistent_stream() {
        let mut log = RingLog::new(32);
        push(&mut log, 1, EventKind::Miss, 2, 7);
        push(&mut log, 1, EventKind::Retrieve, 0, 7);
        push(&mut log, 2, EventKind::Hit, 0, 7);
        push(&mut log, 2, EventKind::Demote, 0, 7);
        push(&mut log, 2, EventKind::Retrieve, 1, 7);
        push(&mut log, 3, EventKind::Hit, 1, 7);
        push(&mut log, 3, EventKind::Evict, 1, 7);
        assert_eq!(replay_residency(&log, 2), Ok(ResidencyReplay::Verified));
    }

    #[test]
    fn replay_rejects_a_hit_at_the_wrong_level() {
        let mut log = RingLog::new(8);
        push(&mut log, 1, EventKind::Retrieve, 1, 9);
        push(&mut log, 2, EventKind::Hit, 0, 9);
        let err = replay_residency(&log, 2).unwrap_err();
        assert!(err.contains("resides at L1"), "unexpected message: {err}");
    }

    #[test]
    fn replay_reports_a_wrapped_ring_as_skipped_not_failed() {
        let mut log = RingLog::new(2);
        // Three inconsistent hits on a 2-slot ring: one is overwritten,
        // so the stream is incomplete. The replay must *not* run (the
        // surviving events would be flagged as contradictions) and must
        // instead report the truncation distinctly.
        for t in 0..3 {
            push(&mut log, t, EventKind::Hit, 0, t);
        }
        assert_eq!(
            replay_residency(&log, 2),
            Ok(ResidencyReplay::SkippedTruncated { dropped: 1 })
        );
    }

    #[test]
    fn windows_reconcile_requires_a_timeline() {
        let rec = RingRecorder::new(2, 8);
        assert!(windows_reconcile(&rec).unwrap_err().contains("no timeline"));
    }

    #[test]
    fn windows_reconcile_accepts_an_exact_timeline() {
        let mut rec = RingRecorder::new(2, 64);
        rec.enable_timeline(2, 8);
        for i in 0..5u64 {
            rec.begin_access();
            rec.record_event(EventKind::Miss, 2, i);
            rec.record_event(EventKind::Retrieve, 0, i);
            rec.record_rpc(1);
        }
        rec.finish();
        assert_eq!(windows_reconcile(&rec), Ok(()));
    }

    #[test]
    fn reconcile_catches_a_missing_hit() {
        let mut rec = RingRecorder::new(2, 32);
        rec.begin_access();
        rec.record_event(EventKind::Hit, 0, 1);
        rec.begin_access();
        rec.record_event(EventKind::Miss, 2, 2);
        rec.record_event(EventKind::Retrieve, 0, 2);
        rec.finish();
        let hits = [1, 0];
        let demotes = [0];
        let ok = StatsView {
            references: 2,
            hits_by_level: &hits,
            misses: 1,
            demotions_by_boundary: &demotes,
        };
        assert_eq!(reconcile(&rec, &ok), Ok(()));
        let wrong_hits = [0, 1];
        let bad = StatsView {
            hits_by_level: &wrong_hits,
            ..ok
        };
        assert!(reconcile(&rec, &bad).is_err());
    }

    #[test]
    fn reconcile_applies_the_buffered_ledger() {
        let mut rec = RingRecorder::new(2, 32);
        rec.begin_access();
        rec.record_event(EventKind::Miss, 2, 3);
        rec.record_event(EventKind::Retrieve, 0, 3);
        rec.record_event(EventKind::Demote, 0, 4);
        rec.record_event(EventKind::Demote, 0, 5);
        rec.record_buffered(0);
        rec.finish();
        let hits = [0, 0];
        // Two demotions recorded, one absorbed by the buffer: stats must
        // surface exactly one.
        let surfaced = [1];
        let view = StatsView {
            references: 1,
            hits_by_level: &hits,
            misses: 1,
            demotions_by_boundary: &surfaced,
        };
        assert_eq!(reconcile(&rec, &view), Ok(()));
        let all = [2];
        let bad = StatsView {
            demotions_by_boundary: &all,
            ..view
        };
        assert!(reconcile(&rec, &bad).is_err());
    }
}
