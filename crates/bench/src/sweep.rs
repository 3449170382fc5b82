//! Parallel sweep engine: fans independent grid cells across cores.
//!
//! Every figure of the paper is a grid of independent (workload, scheme,
//! size) cells. [`par_map`] runs such a grid on `std::thread::scope`
//! workers pulling cells off a shared counter, and returns the results in
//! **input order** — the output is bit-identical to the sequential loop,
//! only faster. [`Sweep`] layers named task timing on top and produces a
//! machine-readable [`SweepSummary`] (serialize it with `serde_json`) so
//! runs can be tracked across machines.
//!
//! # Examples
//!
//! ```
//! use ulc_bench::sweep::par_map;
//!
//! let squares = par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of worker threads a sweep will use.
pub fn worker_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on a pool of scoped threads and collects the
/// results in input order. Falls back to a plain sequential map when only
/// one worker is available (or useful).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = worker_count().min(items.len());
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(&items[i]);
                *slots[i].lock().expect("unpoisoned result slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("unpoisoned result slot")
                .expect("every index was claimed exactly once")
        })
        .collect()
}

/// Wall-clock cost of one named sweep task.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TaskTiming {
    /// Task name, e.g. `"fig7"`.
    pub task: String,
    /// Wall-clock milliseconds the task took on its worker.
    pub millis: f64,
}

/// Machine-readable record of one sweep run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepSummary {
    /// Worker threads the engine fanned across.
    pub threads: usize,
    /// End-to-end wall-clock milliseconds for the whole sweep.
    pub wall_ms: f64,
    /// Sum of per-task milliseconds — the sequential-equivalent cost.
    pub cpu_ms: f64,
    /// Per-task timings, in submission order.
    pub tasks: Vec<TaskTiming>,
}

impl SweepSummary {
    /// Sequential-equivalent speedup achieved by the fan-out.
    pub fn speedup(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.cpu_ms / self.wall_ms
        } else {
            1.0
        }
    }
}

type SweepTask<R> = Box<dyn FnOnce() -> R + Send>;

/// A queued task's slot, emptied by the worker that runs it.
type TaskSlot<R> = Mutex<Option<(String, SweepTask<R>)>>;

/// A set of named, independent tasks run concurrently with per-task
/// timing. Results come back in submission order.
pub struct Sweep<R: Send> {
    tasks: Vec<(String, SweepTask<R>)>,
}

impl<R: Send> std::fmt::Debug for Sweep<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.tasks.iter().map(|(n, _)| n.as_str()).collect();
        f.debug_struct("Sweep").field("tasks", &names).finish()
    }
}

impl<R: Send> Default for Sweep<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: Send> Sweep<R> {
    /// An empty sweep.
    pub fn new() -> Self {
        Sweep { tasks: Vec::new() }
    }

    /// Queues a named task.
    pub fn add(&mut self, name: impl Into<String>, task: impl FnOnce() -> R + Send + 'static) {
        self.tasks.push((name.into(), Box::new(task)));
    }

    /// Runs every queued task across the worker pool; returns the results
    /// in submission order plus the timing summary.
    pub fn run(self) -> (Vec<R>, SweepSummary) {
        // lint:allow(determinism) wall-clock timing of the sweep harness itself; never feeds simulator results
        let started = Instant::now();
        let cells: Vec<TaskSlot<R>> = self
            .tasks
            .into_iter()
            .map(|t| Mutex::new(Some(t)))
            .collect();
        let timed: Vec<(String, R, f64)> = par_map(&cells, |cell| {
            let (name, task) = cell
                .lock()
                .expect("unpoisoned task slot")
                .take()
                .expect("each task runs once");
            // lint:allow(determinism) per-task wall time for the timing summary; never feeds simulator results
            let t0 = Instant::now();
            let result = task();
            (name, result, t0.elapsed().as_secs_f64() * 1e3)
        });
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let mut results = Vec::with_capacity(timed.len());
        let mut tasks = Vec::with_capacity(timed.len());
        for (task, result, millis) in timed {
            results.push(result);
            tasks.push(TaskTiming { task, millis });
        }
        let cpu_ms = tasks.iter().map(|t| t.millis).sum();
        (
            results,
            SweepSummary {
                threads: worker_count(),
                wall_ms,
                cpu_ms,
                tasks,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(&items, |&x| 2 * x);
        assert_eq!(out, items.iter().map(|&x| 2 * x).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert!(par_map::<u8, u8, _>(&[], |&x| x).is_empty());
        assert_eq!(par_map(&[9], |&x: &i32| x + 1), vec![10]);
    }

    #[test]
    fn sweep_times_tasks_and_keeps_order() {
        let mut sweep = Sweep::new();
        for i in 0..6u64 {
            sweep.add(format!("task{i}"), move || i * i);
        }
        let (results, summary) = sweep.run();
        assert_eq!(results, vec![0, 1, 4, 9, 16, 25]);
        assert_eq!(summary.tasks.len(), 6);
        assert_eq!(summary.tasks[3].task, "task3");
        assert!(summary.wall_ms >= 0.0);
        assert!(summary.speedup() > 0.0);
        assert!(summary.threads >= 1);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let summary = SweepSummary {
            threads: 8,
            wall_ms: 12.5,
            cpu_ms: 80.0,
            tasks: vec![TaskTiming {
                task: "fig2".into(),
                millis: 80.0,
            }],
        };
        let json = serde_json::to_string(&summary).expect("serializes");
        let back: SweepSummary = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.threads, 8);
        assert_eq!(back.tasks[0].task, "fig2");
        assert!((back.speedup() - 6.4).abs() < 1e-9);
    }
}
