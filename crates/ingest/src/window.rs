//! Per-(kernel, tenant) sliding windows with watermark-based lateness,
//! bounded memory, and re-modeling triggers.
//!
//! Every accepted record lands in the window of its `(kernel, tenant)` key.
//! A window is a deque of the most recent records, bounded two ways:
//!
//! * **per-window capacity** — a full window evicts its oldest record
//!   (sliding turnover, counted as `evicted`);
//! * **global budget** — when the sum of all held records exceeds
//!   [`WindowOptions::max_total_records`], the *globally oldest* record is
//!   shed (backpressure, counted as `shed`). The ingester never grows
//!   without bound and never blocks the source.
//!
//! Records may carry an event time (the `TIME` directive, or the push
//! protocol's `t` field). The **watermark** is the highest event time seen;
//! a record older than `watermark − allowed_lateness` is dropped as late.
//! Records without event times are never late.
//!
//! A window **fires** — hands its contents to the re-modeling step — once
//! it holds at least [`WindowOptions::min_points`] records and, after the
//! first fire, every [`WindowOptions::fire_interval`] newly accepted
//! records. Firing does not drain the window (it slides), so successive
//! models see overlapping, freshness-weighted data.

use nrpm_extrap::MeasurementSet;
use std::collections::BTreeMap;

/// Tuning knobs of the window assembler.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowOptions {
    /// Most records one window holds; the oldest is evicted past this.
    pub capacity: usize,
    /// Records a window needs before its first fire.
    pub min_points: usize,
    /// Newly accepted records between subsequent fires of one window.
    pub fire_interval: usize,
    /// Global bound on records held across all windows; the globally
    /// oldest record is shed past this.
    pub max_total_records: usize,
    /// How far behind the watermark an event-timed record may arrive
    /// before it is dropped as late.
    pub allowed_lateness: f64,
}

impl Default for WindowOptions {
    fn default() -> Self {
        WindowOptions {
            capacity: 256,
            min_points: 5,
            fire_interval: 16,
            max_total_records: 4096,
            allowed_lateness: 0.0,
        }
    }
}

/// One record held in a window, with everything resume needs.
#[derive(Debug, Clone, PartialEq)]
pub struct HeldRecord {
    /// Measurement point coordinates.
    pub point: Vec<f64>,
    /// Repetition values (already record-sanitized).
    pub values: Vec<f64>,
    /// Event time the record carried, if any.
    pub event_time: Option<f64>,
    /// Watermark in force when the record was accepted — journaled so a
    /// replay reproduces the same lateness verdicts.
    pub watermark_at_accept: Option<f64>,
    /// Byte offset of the record's line start in the followed file;
    /// `None` for push records (not replayable).
    pub offset: Option<u64>,
    /// 1-based line number in the ingest stream (`0` for push records).
    pub line: u64,
}

/// Why [`WindowSet::insert`] did not accept a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The record's event time fell behind the watermark minus the
    /// allowed lateness.
    Late,
}

/// What one insertion did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// `Err` when the record was rejected instead of held.
    pub rejected: Option<Rejection>,
    /// Records evicted by per-window capacity during this insert.
    pub evicted: usize,
    /// Records shed under the global budget during this insert.
    pub shed: usize,
}

/// One key's sliding window.
#[derive(Debug, Clone, Default)]
pub struct Window {
    records: std::collections::VecDeque<HeldRecord>,
    /// Records accepted since the last fire.
    since_fire: usize,
    /// Fires so far.
    fires: u64,
}

impl Window {
    /// The held records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &HeldRecord> {
        self.records.iter()
    }

    /// Number of held records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the window holds nothing.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Fires recorded on this window.
    pub fn fires(&self) -> u64 {
        self.fires
    }

    fn ready(&self, opts: &WindowOptions) -> bool {
        self.records.len() >= opts.min_points.max(1)
            && (self.fires == 0 || self.since_fire >= opts.fire_interval.max(1))
    }
}

/// The full per-key window state of one ingester.
#[derive(Debug, Clone, Default)]
pub struct WindowSet {
    opts: WindowOptions,
    windows: BTreeMap<(String, String), Window>,
    total: usize,
    watermark: Option<f64>,
}

/// The resume anchor derived from held records: where a restart must
/// re-read from to rebuild the windows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeAnchor {
    /// Byte offset of the oldest held record's line start.
    pub offset: u64,
    /// That record's 1-based line number.
    pub line: u64,
    /// Its kernel (parser context for the first resumed line).
    pub kernel: String,
    /// Its tenant.
    pub tenant: String,
    /// Its parameter count.
    pub arity: usize,
    /// Its event time (the `TIME` context in force at its line).
    pub event_time: Option<f64>,
    /// The watermark in force when it was accepted.
    pub watermark: Option<f64>,
}

impl WindowSet {
    /// Creates an empty window set.
    pub fn new(opts: WindowOptions) -> Self {
        WindowSet {
            opts,
            windows: BTreeMap::new(),
            total: 0,
            watermark: None,
        }
    }

    /// The configured options.
    pub fn options(&self) -> &WindowOptions {
        &self.opts
    }

    /// Restores the watermark from a journaled checkpoint.
    pub fn set_watermark(&mut self, watermark: Option<f64>) {
        self.watermark = watermark;
    }

    /// The current watermark (highest event time seen).
    pub fn watermark(&self) -> Option<f64> {
        self.watermark
    }

    /// Records held across all windows.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Iterates `(key, window)` pairs in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&(String, String), &Window)> {
        self.windows.iter()
    }

    /// Inserts one record into the window of `(kernel, tenant)`, applying
    /// the lateness, capacity, and global-budget policies.
    pub fn insert(&mut self, kernel: &str, tenant: &str, mut record: HeldRecord) -> InsertOutcome {
        let mut outcome = InsertOutcome {
            rejected: None,
            evicted: 0,
            shed: 0,
        };
        if let Some(t) = record.event_time {
            if let Some(w) = self.watermark {
                if t < w - self.opts.allowed_lateness {
                    outcome.rejected = Some(Rejection::Late);
                    return outcome;
                }
            }
            self.watermark = Some(self.watermark.map_or(t, |w| w.max(t)));
        }
        record.watermark_at_accept = self.watermark;

        let window = self
            .windows
            .entry((kernel.to_string(), tenant.to_string()))
            .or_default();
        // A PARAMS change mid-stream restarts the kernel's campaign: the
        // old arity's points cannot share a model with the new ones.
        if window
            .records
            .front()
            .is_some_and(|r| r.point.len() != record.point.len())
        {
            outcome.evicted += window.records.len();
            self.total -= window.records.len();
            window.records.clear();
            window.since_fire = 0;
        }
        if window.records.len() >= self.opts.capacity.max(1) {
            window.records.pop_front();
            self.total -= 1;
            outcome.evicted += 1;
        }
        window.records.push_back(record);
        window.since_fire += 1;
        self.total += 1;

        while self.total > self.opts.max_total_records.max(1) {
            if !self.shed_oldest() {
                break;
            }
            outcome.shed += 1;
        }
        outcome
    }

    /// Sheds the globally oldest held record (smallest line number).
    fn shed_oldest(&mut self) -> bool {
        let oldest_key = self
            .windows
            .iter()
            .filter(|(_, w)| !w.records.is_empty())
            .min_by_key(|(_, w)| w.records.front().map(|r| r.line).unwrap_or(u64::MAX))
            .map(|(k, _)| k.clone());
        let Some(key) = oldest_key else {
            return false;
        };
        let window = self.windows.get_mut(&key).expect("key from iteration");
        window.records.pop_front();
        self.total -= 1;
        true
    }

    /// Keys whose windows are ready to fire, in deterministic order.
    pub fn due(&self) -> Vec<(String, String)> {
        self.windows
            .iter()
            .filter(|(_, w)| w.ready(&self.opts))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Marks `key`'s window fired and returns its contents as a
    /// [`MeasurementSet`], merging repetitions of identical points. The
    /// window keeps its records (it slides); only the fire counter resets.
    pub fn fire(&mut self, key: &(String, String)) -> Option<MeasurementSet> {
        let window = self.windows.get_mut(key)?;
        if window.records.is_empty() {
            return None;
        }
        window.since_fire = 0;
        window.fires += 1;
        let num_params = window.records.front().map(|r| r.point.len())?;
        let mut merged: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
        for record in &window.records {
            match merged.iter_mut().find(|(p, _)| *p == record.point) {
                Some((_, values)) => values.extend_from_slice(&record.values),
                None => merged.push((record.point.clone(), record.values.clone())),
            }
        }
        let mut set = MeasurementSet::new(num_params);
        for (point, values) in merged {
            set.add_repetitions(&point, &values);
        }
        Some(set)
    }

    /// Strips every held record's replay offset — called when the followed
    /// file rotates: the old file's offsets are meaningless against the new
    /// one, so resume degrades to the consumed position of the new file.
    pub fn clear_offsets(&mut self) {
        for window in self.windows.values_mut() {
            for record in window.records.iter_mut() {
                record.offset = None;
            }
        }
    }

    /// The resume anchor: the oldest held *file* record across all windows
    /// (push records are not replayable and are skipped). `None` when no
    /// file-backed records are held — resume then starts at the consumed
    /// offset.
    pub fn resume_anchor(&self) -> Option<ResumeAnchor> {
        let mut best: Option<(&(String, String), &HeldRecord)> = None;
        for (key, window) in &self.windows {
            for record in &window.records {
                if record.offset.is_none() {
                    continue;
                }
                if best.is_none_or(|(_, b)| record.line < b.line) {
                    best = Some((key, record));
                }
            }
        }
        best.map(|(key, record)| ResumeAnchor {
            offset: record.offset.expect("filtered above"),
            line: record.line,
            kernel: key.0.clone(),
            tenant: key.1.clone(),
            arity: record.point.len(),
            event_time: record.event_time,
            watermark: record.watermark_at_accept,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(line: u64, value: f64) -> HeldRecord {
        HeldRecord {
            point: vec![line as f64],
            values: vec![value],
            event_time: None,
            watermark_at_accept: None,
            offset: Some(line * 100),
            line,
        }
    }

    fn timed(line: u64, t: f64) -> HeldRecord {
        HeldRecord {
            event_time: Some(t),
            ..rec(line, 1.0)
        }
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut set = WindowSet::new(WindowOptions {
            capacity: 3,
            ..WindowOptions::default()
        });
        let mut evicted = 0;
        for i in 1..=5 {
            evicted += set.insert("k", "t", rec(i, i as f64)).evicted;
        }
        assert_eq!(evicted, 2);
        assert_eq!(set.total(), 3);
        let (_, w) = set.iter().next().unwrap();
        let lines: Vec<u64> = w.records().map(|r| r.line).collect();
        assert_eq!(lines, vec![3, 4, 5]);
    }

    #[test]
    fn global_budget_sheds_the_globally_oldest() {
        let mut set = WindowSet::new(WindowOptions {
            capacity: 100,
            max_total_records: 4,
            ..WindowOptions::default()
        });
        set.insert("a", "t", rec(1, 1.0));
        set.insert("b", "t", rec(2, 1.0));
        set.insert("a", "t", rec(3, 1.0));
        set.insert("b", "t", rec(4, 1.0));
        let outcome = set.insert("b", "t", rec(5, 1.0));
        assert_eq!(outcome.shed, 1);
        assert_eq!(set.total(), 4);
        // Line 1 (window a's front, globally oldest) was shed.
        let a = set.iter().find(|(k, _)| k.0 == "a").unwrap().1;
        assert_eq!(a.records().map(|r| r.line).collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn watermark_drops_late_records() {
        let mut set = WindowSet::new(WindowOptions {
            allowed_lateness: 1.0,
            ..WindowOptions::default()
        });
        assert!(set.insert("k", "t", timed(1, 10.0)).rejected.is_none());
        // 9.5 is within the lateness allowance of watermark 10.
        assert!(set.insert("k", "t", timed(2, 9.5)).rejected.is_none());
        // 8.5 is too old.
        assert_eq!(
            set.insert("k", "t", timed(3, 8.5)).rejected,
            Some(Rejection::Late)
        );
        // Untimed records are never late.
        assert!(set.insert("k", "t", rec(4, 1.0)).rejected.is_none());
        assert_eq!(set.watermark(), Some(10.0));
    }

    #[test]
    fn windows_fire_at_min_points_then_every_interval() {
        let mut set = WindowSet::new(WindowOptions {
            min_points: 3,
            fire_interval: 2,
            ..WindowOptions::default()
        });
        set.insert("k", "t", rec(1, 1.0));
        set.insert("k", "t", rec(2, 1.0));
        assert!(set.due().is_empty());
        set.insert("k", "t", rec(3, 1.0));
        let due = set.due();
        assert_eq!(due.len(), 1);
        let fired = set.fire(&due[0]).unwrap();
        assert_eq!(fired.len(), 3);
        assert!(set.due().is_empty(), "fire resets the interval");
        set.insert("k", "t", rec(4, 1.0));
        assert!(set.due().is_empty());
        set.insert("k", "t", rec(5, 1.0));
        assert_eq!(set.due().len(), 1);
    }

    #[test]
    fn fire_merges_repetitions_of_identical_points() {
        let mut set = WindowSet::new(WindowOptions::default());
        let mut a = rec(1, 10.0);
        a.point = vec![4.0];
        let mut b = rec(2, 12.0);
        b.point = vec![4.0];
        set.insert("k", "t", a);
        set.insert("k", "t", b);
        let fired = set.fire(&("k".into(), "t".into())).unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired.find(&[4.0]).unwrap().values, vec![10.0, 12.0]);
    }

    #[test]
    fn resume_anchor_is_the_oldest_file_backed_record() {
        let mut set = WindowSet::new(WindowOptions::default());
        let mut push = rec(0, 1.0);
        push.offset = None;
        set.insert("p", "t", push);
        set.insert("b", "t", rec(7, 1.0));
        set.insert("a", "t", rec(3, 1.0));
        let anchor = set.resume_anchor().unwrap();
        assert_eq!(anchor.line, 3);
        assert_eq!(anchor.offset, 300);
        assert_eq!(anchor.kernel, "a");
        assert_eq!(anchor.arity, 1);
    }

    #[test]
    fn arity_change_restarts_the_kernel_campaign() {
        let mut set = WindowSet::new(WindowOptions::default());
        set.insert("k", "t", rec(1, 1.0));
        set.insert("k", "t", rec(2, 1.0));
        let mut wide = rec(3, 1.0);
        wide.point = vec![1.0, 2.0];
        let outcome = set.insert("k", "t", wide);
        assert_eq!(outcome.evicted, 2);
        assert_eq!(set.total(), 1);
    }
}
