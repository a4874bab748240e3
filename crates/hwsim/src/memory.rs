//! Memory budget model.
//!
//! Tracks how much RAM the storage engine has reserved (memtables, block
//! cache, table cache, pinned blocks). Reservations beyond a pressure
//! threshold translate into a *thrash penalty factor* that the engine
//! applies to operation costs — the simulated analogue of a box that has
//! started swapping. This is what teaches the tuner to respect the memory
//! budget mentioned in the prompt (paper §5.2, "the total memory budget is
//! maintained in Iteration 1").

use parking_lot::Mutex;

/// Categories of engine memory usage, for monitor breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryUser {
    /// Active and immutable memtables.
    Memtables,
    /// Block cache contents.
    BlockCache,
    /// Table-reader metadata (index/filter blocks, fd cache).
    TableCache,
    /// Everything else (WAL buffers, scratch space).
    Misc,
}

const NUM_USERS: usize = 4;

fn user_index(user: MemoryUser) -> usize {
    match user {
        MemoryUser::Memtables => 0,
        MemoryUser::BlockCache => 1,
        MemoryUser::TableCache => 2,
        MemoryUser::Misc => 3,
    }
}

#[derive(Debug, Default)]
struct MemState {
    used: [u64; NUM_USERS],
    peak: u64,
}

/// A fixed RAM budget with per-category usage tracking.
///
/// # Examples
///
/// ```
/// use hw_sim::{MemoryBudget, MemoryUser};
///
/// let mem = MemoryBudget::gib(4);
/// mem.reserve(MemoryUser::BlockCache, 512 << 20);
/// assert_eq!(mem.used(), 512 << 20);
/// assert!(mem.penalty_factor() < 1.01, "well under budget: no thrash");
/// ```
#[derive(Debug)]
pub struct MemoryBudget {
    total: u64,
    /// Fraction of `total` the OS and other processes keep for themselves.
    os_reserved_fraction: f64,
    state: Mutex<MemState>,
}

impl MemoryBudget {
    /// Creates a budget of `total` bytes, with a default 12% OS reserve.
    pub fn new(total: u64) -> Self {
        MemoryBudget {
            total,
            os_reserved_fraction: 0.12,
            state: Mutex::new(MemState::default()),
        }
    }

    /// Convenience constructor for a budget of `gib` gibibytes.
    pub fn gib(gib: u64) -> Self {
        Self::new(gib << 30)
    }

    /// Total physical RAM in bytes.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// RAM realistically available to the engine (total minus OS reserve).
    pub fn available_to_engine(&self) -> u64 {
        (self.total as f64 * (1.0 - self.os_reserved_fraction)) as u64
    }

    /// Records `bytes` of additional usage by `user`. Reservations always
    /// succeed — overcommit shows up as a growing [`penalty_factor`]
    /// rather than an error, mirroring how a real box degrades.
    ///
    /// [`penalty_factor`]: MemoryBudget::penalty_factor
    pub fn reserve(&self, user: MemoryUser, bytes: u64) {
        let mut st = self.state.lock();
        st.used[user_index(user)] = st.used[user_index(user)].saturating_add(bytes);
        let total: u64 = st.used.iter().sum();
        st.peak = st.peak.max(total);
    }

    /// Releases `bytes` of usage by `user`, saturating at zero.
    pub fn release(&self, user: MemoryUser, bytes: u64) {
        let mut st = self.state.lock();
        st.used[user_index(user)] = st.used[user_index(user)].saturating_sub(bytes);
    }

    /// Current total engine usage in bytes.
    pub fn used(&self) -> u64 {
        self.state.lock().used.iter().sum()
    }

    /// Usage attributed to one category.
    pub fn used_by(&self, user: MemoryUser) -> u64 {
        self.state.lock().used[user_index(user)]
    }

    /// Peak total usage observed.
    pub fn peak(&self) -> u64 {
        self.state.lock().peak
    }

    /// Usage as a fraction of engine-available RAM.
    pub fn pressure(&self) -> f64 {
        self.used() as f64 / self.available_to_engine().max(1) as f64
    }

    /// Multiplier the engine applies to operation costs.
    ///
    /// 1.0 while pressure is below 90% of the engine-available budget;
    /// beyond that it grows steeply (up to 16x at 2x overcommit) to model
    /// swap thrash.
    pub fn penalty_factor(&self) -> f64 {
        let p = self.pressure();
        if p <= 0.9 {
            1.0
        } else {
            // 0.9 -> 1.0, 1.0 -> ~2.4, 1.5 -> ~9.3, capped at 16.
            (1.0 + (p - 0.9) * 14.0).min(16.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release_balance() {
        let mem = MemoryBudget::gib(1);
        mem.reserve(MemoryUser::Memtables, 100);
        mem.reserve(MemoryUser::BlockCache, 50);
        assert_eq!(mem.used(), 150);
        mem.release(MemoryUser::Memtables, 100);
        assert_eq!(mem.used(), 50);
        mem.release(MemoryUser::BlockCache, 500);
        assert_eq!(mem.used(), 0, "release saturates at zero");
    }

    #[test]
    fn penalty_kicks_in_over_budget() {
        let mem = MemoryBudget::gib(4);
        assert_eq!(mem.penalty_factor(), 1.0);
        mem.reserve(MemoryUser::BlockCache, mem.available_to_engine());
        assert!(mem.penalty_factor() > 2.0);
        mem.reserve(MemoryUser::BlockCache, 2 * mem.available_to_engine());
        assert_eq!(mem.penalty_factor(), 16.0, "penalty is capped");
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mem = MemoryBudget::gib(1);
        mem.reserve(MemoryUser::Misc, 1000);
        mem.release(MemoryUser::Misc, 1000);
        assert_eq!(mem.peak(), 1000);
        assert_eq!(mem.used(), 0);
    }

    #[test]
    fn available_excludes_os_reserve() {
        let mem = MemoryBudget::gib(4);
        assert!(mem.available_to_engine() < mem.total());
        assert!(mem.available_to_engine() > mem.total() / 2);
    }
}
