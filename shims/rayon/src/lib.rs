//! Offline shim for [rayon](https://docs.rs/rayon): the subset of the
//! data-parallel API this workspace uses, run on scoped host threads.
//!
//! The workspace builds with no registry access, so the real rayon cannot
//! be downloaded. Call sites are written against rayon's API (`par_iter`,
//! `par_chunks_mut`, `par_chunks_exact_mut`, `into_par_iter`, `for_each`,
//! `for_each_init`, `current_num_threads`, `ThreadPoolBuilder`,
//! `ThreadPool::install`) with rayon's closure bounds, so pointing
//! `Cargo.toml` back at the registry crate still compiles.
//!
//! How work runs:
//!
//! * The pool width is [`current_num_threads`]: the width of the innermost
//!   [`ThreadPool::install`] on the calling thread, else the process
//!   default — `RAYON_NUM_THREADS` if it is a positive integer, else
//!   [`std::thread::available_parallelism`], resolved once per process.
//! * [`ParIter::for_each`] and [`ParIter::for_each_init`] run inline on the
//!   caller when the width is 1 or there is at most one item. Otherwise the
//!   caller and up to `width − 1` scoped workers (never more threads than
//!   items) pull batches of about `len / (width·8)` items from one
//!   mutex-guarded iterator, so a slow item does not hold up a fixed share
//!   of the rest. `init` runs once per participating thread. A panic in any
//!   participant reaches the caller after every participant has stopped.
//! * There is no work stealing: a parallel call made from inside an item
//!   spawns workers of its own.
//! * [`ParIter::map`] and [`ParIter::enumerate`] are lazy adapters;
//!   [`ParIter::collect`] runs sequentially on the caller, in order.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Width of the innermost [`ThreadPool::install`] on this thread; 0
    /// outside any.
    static INSTALLED: Cell<usize> = const { Cell::new(0) };
}

/// `RAYON_NUM_THREADS` if set to a positive integer, else the machine's
/// available parallelism. Resolved once per process: the simulator asks on
/// every launch and both lookups are syscalls, so the variable must be set
/// before the first parallel call to take effect.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    })
}

/// Threads a parallel call made here would use: the innermost installed
/// pool's width, else the process default (see the crate docs).
#[must_use]
pub fn current_num_threads() -> usize {
    match INSTALLED.with(Cell::get) {
        0 => default_threads(),
        n => n,
    }
}

/// Run `op` with [`current_num_threads`] reporting `threads` on this
/// thread; the previous width comes back afterwards, also on unwind.
fn with_width<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            INSTALLED.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(INSTALLED.with(|w| w.replace(threads)));
    op()
}

/// Builds a [`ThreadPool`] (rayon's builder; `num_threads` only).
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder for a pool of the process-default width.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pool width; `0` keeps the process default.
    #[must_use]
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Build the pool. The shim spawns threads per parallel call, not here.
    ///
    /// # Errors
    /// Never; the `Result` keeps rayon's signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { threads })
    }
}

/// The error [`ThreadPoolBuilder::build`] can return in rayon; the shim
/// never constructs it.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

/// A pool width that parallel calls inside [`ThreadPool::install`] use.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Run `op` on the calling thread with every parallel call inside it —
    /// and [`current_num_threads`] — using this pool's width. The previous
    /// width is restored afterwards, also when `op` panics.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        with_width(self.threads, op)
    }
}

/// A parallel iterator: a newtype over the standard iterator it drains.
pub struct ParIter<I>(I);

impl<I: Iterator> ParIter<I> {
    /// As rayon's `map`: lazy, applied as items are pulled.
    pub fn map<R, F>(self, map_op: F) -> ParIter<std::iter::Map<I, F>>
    where
        F: Fn(I::Item) -> R + Sync + Send,
        R: Send,
    {
        ParIter(self.0.map(map_op))
    }

    /// As rayon's `enumerate`: each item paired with its index.
    pub fn enumerate(self) -> ParIter<std::iter::Enumerate<I>> {
        ParIter(self.0.enumerate())
    }

    /// Collect every item **sequentially on the caller, in order**.
    pub fn collect<C: FromIterator<I::Item>>(self) -> C {
        self.0.collect()
    }
}

impl<I> ParIter<I>
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
{
    /// Call `op` on every item, on the pool (see the crate docs).
    pub fn for_each<F>(self, op: F)
    where
        F: Fn(I::Item) + Sync + Send,
    {
        self.for_each_init(|| (), |(), item| op(item));
    }

    /// As [`ParIter::for_each`], with per-thread state: `init` runs once on
    /// each participating thread and `op` gets that thread's value.
    pub fn for_each_init<T, INIT, F>(self, init: INIT, op: F)
    where
        INIT: Fn() -> T + Sync + Send,
        F: Fn(&mut T, I::Item) + Sync + Send,
    {
        let len = self.0.len();
        let width = current_num_threads();
        let threads = width.min(len);
        if threads <= 1 {
            let mut state = init();
            self.0.for_each(|item| op(&mut state, item));
            return;
        }
        let batch = len.div_ceil(width * 8);
        let source = Mutex::new(self.0);
        let work = || {
            let mut state = init();
            let mut items = Vec::with_capacity(batch);
            loop {
                // A poisoned source means another participant panicked
                // inside `next`; stop and let that panic propagate.
                let Ok(mut source) = source.lock() else {
                    return;
                };
                items.extend(source.by_ref().take(batch));
                drop(source);
                if items.is_empty() {
                    return;
                }
                for item in items.drain(..) {
                    op(&mut state, item);
                }
            }
        };
        std::thread::scope(|s| {
            let workers: Vec<_> = (1..threads)
                .map(|_| s.spawn(|| with_width(width, work)))
                .collect();
            let mut panic = catch_unwind(AssertUnwindSafe(work)).err();
            for worker in workers {
                if let Err(payload) = worker.join() {
                    panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = panic {
                resume_unwind(payload);
            }
        });
    }
}

/// Types convertible into a [`ParIter`] by value (rayon's
/// `IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// The underlying sequential iterator.
    type Iter: Iterator;
    /// Convert into the parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Iter>;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = Range<usize>;
    fn into_par_iter(self) -> ParIter<Range<usize>> {
        ParIter(self)
    }
}

/// Shared-reference parallel iteration over slices (rayon's
/// `IntoParallelRefIterator`).
pub trait IntoParallelRefIterator<T> {
    /// As `[T]::iter`.
    fn par_iter(&self) -> ParIter<std::slice::Iter<'_, T>>;
}

impl<T> IntoParallelRefIterator<T> for [T] {
    fn par_iter(&self) -> ParIter<std::slice::Iter<'_, T>> {
        ParIter(self.iter())
    }
}

/// Mutable parallel iteration over slice chunks (rayon's
/// `ParallelSliceMut`).
pub trait ParallelSliceMut<T> {
    /// As `[T]::chunks_mut`.
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<std::slice::ChunksMut<'_, T>>;
    /// As `[T]::chunks_exact_mut`.
    fn par_chunks_exact_mut(&mut self, size: usize) -> ParIter<std::slice::ChunksExactMut<'_, T>>;
}

impl<T> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<std::slice::ChunksMut<'_, T>> {
        ParIter(self.chunks_mut(size))
    }
    fn par_chunks_exact_mut(&mut self, size: usize) -> ParIter<std::slice::ChunksExactMut<'_, T>> {
        ParIter(self.chunks_exact_mut(size))
    }
}

/// The rayon prelude: every trait call sites expect.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, ThreadPool, ThreadPoolBuilder};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::thread::ThreadId;
    use std::time::Duration;

    fn pool(threads: usize) -> ThreadPool {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("shim pools always build")
    }

    /// Two items that each send to the other and then wait for the other's
    /// message. Run one after the other, the first wait times out.
    fn rendezvous_items() -> [Option<(Sender<()>, Receiver<()>)>; 2] {
        let (to_b, from_a) = channel();
        let (to_a, from_b) = channel();
        [Some((to_b, from_b)), Some((to_a, from_a))]
    }

    /// Meet the other item, then return the thread this item ran on.
    fn meet(item: &mut [Option<(Sender<()>, Receiver<()>)>]) -> ThreadId {
        let (tx, rx) = item[0].take().expect("each item runs once");
        tx.send(()).expect("the other item holds its receiver");
        rx.recv_timeout(Duration::from_secs(10))
            .expect("items did not run concurrently");
        std::thread::current().id()
    }

    #[test]
    fn par_iter_map_collect() {
        let v = [1, 2, 3];
        let out: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn chunks_exact_mut_mutates() {
        let mut v = vec![0u32; 6];
        v.par_chunks_exact_mut(2)
            .enumerate()
            .for_each(|(i, c)| c.fill(i as u32));
        assert_eq!(v, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn two_thread_pool_runs_items_concurrently() {
        let mut items = rendezvous_items();
        let threads = std::sync::Mutex::new(Vec::new());
        pool(2).install(|| {
            items.par_chunks_mut(1).for_each(|item| {
                let id = meet(item);
                threads.lock().expect("no panics while held").push(id);
            });
        });
        let threads = threads.into_inner().expect("no panics while held");
        assert_eq!(threads.len(), 2);
        assert_ne!(threads[0], threads[1], "the two items shared a thread");
    }

    #[test]
    fn install_overrides_width_and_restores_it() {
        let outside = current_num_threads();
        pool(3).install(|| {
            assert_eq!(current_num_threads(), 3);
            pool(5).install(|| assert_eq!(current_num_threads(), 5));
            assert_eq!(current_num_threads(), 3);
            let unwound = std::panic::catch_unwind(|| pool(7).install(|| panic!("inside")));
            assert!(unwound.is_err());
            assert_eq!(current_num_threads(), 3, "restored on unwind");
        });
        assert_eq!(current_num_threads(), outside);
        assert_eq!(
            pool(0).install(current_num_threads),
            super::default_threads()
        );
    }

    #[test]
    fn worker_panic_reaches_the_caller() {
        let caller = std::thread::current().id();
        let mut items = rendezvous_items();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool(2).install(|| {
                items.par_chunks_mut(1).for_each(|item| {
                    if meet(item) != caller {
                        panic!("worker item failed");
                    }
                });
            });
        }));
        let payload = unwound.expect_err("the worker's panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker item failed"));
    }

    #[test]
    fn init_runs_once_per_thread_and_items_run_once() {
        for (width, want_inits) in [(1, 1), (2, 2), (8, 8)] {
            let inits = AtomicUsize::new(0);
            let seen: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
            pool(width).install(|| {
                (0..64).into_par_iter().for_each_init(
                    || inits.fetch_add(1, Ordering::Relaxed),
                    |_, i| {
                        seen[i].fetch_add(1, Ordering::Relaxed);
                    },
                );
            });
            assert_eq!(inits.into_inner(), want_inits, "width {width}");
            assert!(
                seen.iter().all(|n| n.load(Ordering::Relaxed) == 1),
                "width {width}"
            );
        }
        // Never more threads than items.
        let inits = AtomicUsize::new(0);
        pool(8).install(|| {
            (0..3)
                .into_par_iter()
                .for_each_init(|| inits.fetch_add(1, Ordering::Relaxed), |_, _| {});
        });
        assert_eq!(inits.into_inner(), 3);
    }
}
