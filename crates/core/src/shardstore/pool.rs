//! Concurrent append-only building blocks for the shared store: a
//! chunked slot vector with lock-free indexed reads, and a sharded
//! global interner built on it.
//!
//! Both structures are strictly append-only — nothing is ever moved or
//! freed during a run — which is what makes the lock-free read side
//! sound: a published index refers to a slot whose location never
//! changes and whose contents were written exactly once before the
//! index escaped.

use crate::fxhash::{FxHashMap, FxHasher};
use std::cell::UnsafeCell;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::Mutex;

/// Number of doubling buckets. Bucket `b` holds `BASE << b` slots, so
/// 27 buckets cover `64 * (2^27 - 1)` ≈ 8.6 billion slots — strictly
/// more than the whole `u32` id space, so the interner's
/// `id < u32::MAX` overflow assert fires before any bucket index can
/// go out of range.
const NBUCKETS: usize = 27;

/// Capacity of bucket 0.
const BASE: usize = 64;

/// `(bucket, offset)` of slot `i`.
#[inline]
fn locate(i: usize) -> (usize, usize) {
    let q = i / BASE + 1;
    let b = (usize::BITS - 1 - q.leading_zeros()) as usize;
    (b, i - BASE * ((1usize << b) - 1))
}

/// Capacity of bucket `b`.
#[inline]
fn bucket_cap(b: usize) -> usize {
    BASE << b
}

/// A chunked, append-only slot vector: indexed reads are lock-free
/// (one atomic pointer load), growth allocates a doubling bucket and
/// publishes it with a CAS, and **slots never move** once their bucket
/// exists — handed-out references stay valid for the vector's lifetime.
pub(crate) struct ChunkVec<T> {
    buckets: [AtomicPtr<T>; NBUCKETS],
    _marker: PhantomData<T>,
}

impl<T: Default> ChunkVec<T> {
    pub(crate) fn new() -> Self {
        ChunkVec {
            buckets: [(); NBUCKETS].map(|()| AtomicPtr::new(std::ptr::null_mut())),
            _marker: PhantomData,
        }
    }

    /// The slot at `i`, if its bucket has been allocated. A `None` means
    /// nothing was ever written at or beyond `i`'s bucket.
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        let (b, off) = locate(i);
        let p = self.buckets[b].load(Ordering::Acquire);
        if p.is_null() {
            None
        } else {
            // Safety: the bucket was fully default-initialized before
            // its pointer was published, and buckets are never freed
            // while `self` lives.
            Some(unsafe { &*p.add(off) })
        }
    }

    /// The slot at `i`, allocating (default-filled) its bucket first if
    /// needed. Raced allocations are resolved by CAS; the loser frees
    /// its bucket.
    pub(crate) fn get_or_alloc(&self, i: usize) -> &T {
        let (b, off) = locate(i);
        let mut p = self.buckets[b].load(Ordering::Acquire);
        if p.is_null() {
            let fresh: Box<[T]> = (0..bucket_cap(b)).map(|_| T::default()).collect();
            let raw = Box::into_raw(fresh) as *mut T;
            match self.buckets[b].compare_exchange(
                std::ptr::null_mut(),
                raw,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => p = raw,
                Err(existing) => {
                    // Safety: `raw` came from `Box::into_raw` above and
                    // was never published.
                    unsafe {
                        drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                            raw,
                            bucket_cap(b),
                        )));
                    }
                    p = existing;
                }
            }
        }
        // Safety: as in `get`.
        unsafe { &*p.add(off) }
    }

    /// Total slots in currently allocated buckets (an upper bound on
    /// live entries; used for byte accounting).
    pub(crate) fn allocated_slots(&self) -> usize {
        (0..NBUCKETS)
            .filter(|&b| !self.buckets[b].load(Ordering::Acquire).is_null())
            .map(bucket_cap)
            .sum()
    }
}

impl<T> Drop for ChunkVec<T> {
    fn drop(&mut self) {
        for b in 0..NBUCKETS {
            let p = *self.buckets[b].get_mut();
            if !p.is_null() {
                // Safety: the pointer was produced by `Box::into_raw` of
                // a `Box<[T]>` with exactly `bucket_cap(b)` elements.
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                        p,
                        bucket_cap(b),
                    )));
                }
            }
        }
    }
}

/// One interner slot: written exactly once — by the thread that
/// allocated its id, inside the owning shard's critical section, before
/// the id is published — and read only through ids that crossed a
/// synchronizing channel (a row mutex, an inbox mutex, or a
/// release/acquire epoch store) after that write. Distinct slots never
/// alias, so concurrent access to *different* slots is always fine.
pub(crate) struct PoolSlot<T>(UnsafeCell<Option<T>>);

impl<T> Default for PoolSlot<T> {
    fn default() -> Self {
        PoolSlot(UnsafeCell::new(None))
    }
}

// Safety: see the `PoolSlot` docs — the write-once-before-publication
// protocol makes cross-thread reads race-free.
unsafe impl<T: Send> Send for PoolSlot<T> {}
unsafe impl<T: Send + Sync> Sync for PoolSlot<T> {}

/// Number of index shards in a [`ConcurrentPool`] — well above any sane
/// worker count, so intern contention stays negligible.
const POOL_SHARDS: usize = 16;

/// A global concurrent interner: items of type `T` map to dense,
/// **process-global** `u32` ids.
///
/// The id is the fact's identity everywhere — in flow snapshots, in
/// routed join messages, in the final store — so a value interned by
/// one worker is *never re-interned* by another.
///
/// Interning takes one shard mutex (sharded by item hash); `get` is
/// lock-free (one atomic load + slot deref). Ids are dense: a single
/// atomic counter allocates them in first-intern order across shards.
pub(crate) struct ConcurrentPool<T> {
    index: Vec<Mutex<FxHashMap<T, u32>>>,
    slots: ChunkVec<PoolSlot<T>>,
    next: AtomicU32,
}

impl<T> ConcurrentPool<T> {
    /// Number of interned items.
    pub(crate) fn len(&self) -> usize {
        self.next.load(Ordering::Acquire) as usize
    }
}

impl<T: Eq + Hash + Clone> ConcurrentPool<T> {
    pub(crate) fn new() -> Self {
        ConcurrentPool {
            index: (0..POOL_SHARDS).map(|_| Mutex::default()).collect(),
            slots: ChunkVec::new(),
            next: AtomicU32::new(0),
        }
    }

    /// High hash bits pick the shard (the map's buckets use the low
    /// bits of the same hash).
    fn shard_of(item: &T) -> usize {
        let mut h = FxHasher::default();
        item.hash(&mut h);
        (h.finish() >> 57) as usize % POOL_SHARDS
    }

    /// Interns an owned `item`, returning its global id. On first
    /// sight this clones once (slot + index key both need a copy, and
    /// the caller's copy moves into the index); on a hit it is
    /// clone-free.
    pub(crate) fn intern_owned(&self, item: T) -> u32 {
        let mut map = self.index[Self::shard_of(&item)]
            .lock()
            .expect("pool shard");
        if let Some(&id) = map.get(&item) {
            return id;
        }
        let id = self.next.fetch_add(1, Ordering::AcqRel);
        assert!(id < u32::MAX, "pool overflow");
        let slot = self.slots.get_or_alloc(id as usize);
        // Safety: we own slot `id` exclusively — the id was minted one
        // line up and has not escaped this critical section yet.
        unsafe { *slot.0.get() = Some(item.clone()) };
        map.insert(item, id);
        id
    }

    /// Interns `item` by reference, returning its global id; on first
    /// sight the borrowed item is cloned for both the slot and the
    /// index key (owning callers should use
    /// [`ConcurrentPool::intern_owned`], which saves one clone).
    pub(crate) fn intern_ref(&self, item: &T) -> u32 {
        let mut map = self.index[Self::shard_of(item)].lock().expect("pool shard");
        if let Some(&id) = map.get(item) {
            return id;
        }
        let id = self.next.fetch_add(1, Ordering::AcqRel);
        assert!(id < u32::MAX, "pool overflow");
        let slot = self.slots.get_or_alloc(id as usize);
        // Safety: we own slot `id` exclusively — the id was minted one
        // line up and has not escaped this critical section yet.
        unsafe { *slot.0.get() = Some(item.clone()) };
        map.insert(item.clone(), id);
        id
    }

    /// The item with id `id`. Lock-free.
    ///
    /// # Panics
    ///
    /// Panics on an id that was never published — callers only pass ids
    /// obtained from interning or from published flow snapshots.
    pub(crate) fn get(&self, id: u32) -> &T {
        let slot = self.slots.get(id as usize).expect("interned id in range");
        // Safety: the id was published after its slot write (PoolSlot
        // protocol), so the Option is Some and fully initialized.
        unsafe { (*slot.0.get()).as_ref().expect("published pool id") }
    }

    /// Drains the pool into a plain `Vec` in id order — the quiescent
    /// hand-off into the result store's [`crate::store::ValuePool`].
    pub(crate) fn into_items(mut self) -> Vec<T> {
        let n = *self.next.get_mut() as usize;
        (0..n)
            .map(|i| {
                let slot = self.slots.get(i).expect("allocated slot");
                // Safety: `&mut self` — no concurrent access remains.
                unsafe { (*slot.0.get()).take().expect("initialized slot") }
            })
            .collect()
    }

    /// Approximate resident bytes (allocated slot buckets + index maps;
    /// heap inside items is not chased).
    pub(crate) fn approx_bytes(&self) -> usize {
        let entry = std::mem::size_of::<T>() + std::mem::size_of::<(u32, u64)>();
        self.slots.allocated_slots() * std::mem::size_of::<PoolSlot<T>>()
            + self
                .index
                .iter()
                .map(|m| m.lock().expect("pool shard").capacity() * entry)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn locate_covers_the_id_space_contiguously() {
        let mut expect = 0usize;
        for b in 0..8 {
            for off in 0..bucket_cap(b) {
                assert_eq!(locate(expect), (b, off), "slot {expect}");
                expect += 1;
            }
        }
    }

    #[test]
    fn chunkvec_slots_are_stable_and_default_initialized() {
        let v: ChunkVec<PoolSlot<u64>> = ChunkVec::new();
        assert!(v.get(0).is_none(), "no bucket before first alloc");
        let s0 = v.get_or_alloc(0) as *const _;
        let s1000 = v.get_or_alloc(1000) as *const _;
        // Re-fetching yields the same slot addresses.
        assert_eq!(v.get(0).unwrap() as *const _, s0);
        assert_eq!(v.get(1000).unwrap() as *const _, s1000);
    }

    #[test]
    fn pool_ids_are_dense_and_stable() {
        let pool: ConcurrentPool<String> = ConcurrentPool::new();
        let a = pool.intern_ref(&"a".to_owned());
        let b = pool.intern_ref(&"b".to_owned());
        assert_eq!(pool.intern_ref(&"a".to_owned()), a, "re-intern is a hit");
        assert_eq!((a.min(b), a.max(b)), (0, 1), "ids are dense");
        assert_eq!(pool.get(a), "a");
        assert_eq!(pool.get(b), "b");
        assert_eq!(pool.len(), 2);
        let items = pool.into_items();
        assert_eq!(items[a as usize], "a");
        assert_eq!(items[b as usize], "b");
    }

    #[test]
    fn concurrent_interning_agrees_on_one_id_per_item() {
        let pool: Arc<ConcurrentPool<u64>> = Arc::new(ConcurrentPool::new());
        let n_threads = 4;
        let per_thread = 2000u64;
        let ids: Vec<Vec<u32>> = std::thread::scope(|scope| {
            (0..n_threads)
                .map(|t| {
                    let pool = Arc::clone(&pool);
                    scope.spawn(move || {
                        // Overlapping ranges: every item is interned by
                        // at least two threads.
                        (0..per_thread)
                            .map(|i| pool.intern_ref(&(i + (t as u64 % 2) * per_thread / 2)))
                            .collect()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("interner thread"))
                .collect()
        });
        // Every thread resolved every item to the same id.
        for (t, thread_ids) in ids.iter().enumerate() {
            for (i, &id) in thread_ids.iter().enumerate() {
                let item = i as u64 + (t as u64 % 2) * per_thread / 2;
                assert_eq!(*pool.get(id), item, "thread {t} item {item}");
            }
        }
        // Dense: len equals the number of distinct items.
        let distinct = (per_thread + per_thread / 2) as usize;
        assert_eq!(pool.len(), distinct);
        let items = Arc::try_unwrap(pool).ok().expect("sole owner").into_items();
        assert_eq!(items.len(), distinct);
    }
}
