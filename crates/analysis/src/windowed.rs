//! Windowed critical-path analysis — the paper's §6.
//!
//! "Sliding a window of differing sizes over the full execution path, we
//! determine the critical path for the set of instructions in the current
//! window, moving the window 50 % of its size further along the path once
//! this is done." The window models a ROB of that size with infinite
//! physical registers and perfect branch prediction; instruction latency is
//! not accounted for (§6.1).
//!
//! All window sizes are measured in a single pass: a shared ring buffer
//! holds the most recent `max(sizes)` retirement records, and each size
//! recomputes its window CP every `size/2` retirements — O(2) amortised
//! work per instruction per window size.

use std::collections::VecDeque;

use simcore::{DepTable, Observer, RetireSource, RetiredInst, SimError};

/// The window sizes used in the paper's Figure 2.
pub const PAPER_WINDOW_SIZES: [usize; 7] = [4, 16, 64, 200, 500, 1000, 2000];

/// Statistics for one window size.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Window size (hypothetical ROB entries).
    pub size: usize,
    /// Number of full windows measured.
    pub windows: u64,
    /// Sum of window CP lengths (for the mean).
    pub cp_sum: u64,
    /// Smallest window CP seen.
    pub cp_min: u64,
    /// Largest window CP seen.
    pub cp_max: u64,
}

impl WindowStats {
    /// Mean critical-path length per window (`windowAverages.txt` in the
    /// paper's artifact).
    pub fn mean_cp(&self) -> f64 {
        self.cp_sum as f64 / self.windows.max(1) as f64
    }

    /// Mean ILP available within the window (Figure 2's y-axis).
    pub fn mean_ilp(&self) -> f64 {
        self.size as f64 / self.mean_cp().max(1.0)
    }
}

struct PerSize {
    size: usize,
    until_next: usize,
    windows: u64,
    cp_sum: u64,
    cp_min: u64,
    cp_max: u64,
}

/// Single-pass windowed-CP analyzer for a set of window sizes.
pub struct WindowedCp {
    ring: VecDeque<RetiredInst>,
    max_size: usize,
    sizes: Vec<PerSize>,
    /// Chain depths for the window being measured, cleared per window.
    chain: DepTable<u64>,
}

impl WindowedCp {
    /// Analyzer over the paper's window sizes.
    pub fn paper() -> Self {
        Self::new(&PAPER_WINDOW_SIZES)
    }

    /// Analyzer over custom window sizes.
    pub fn new(sizes: &[usize]) -> Self {
        assert!(!sizes.is_empty());
        let max_size = *sizes.iter().max().unwrap();
        WindowedCp {
            ring: VecDeque::with_capacity(max_size + 1),
            max_size,
            sizes: sizes
                .iter()
                .map(|&size| {
                    assert!(size >= 2, "window size must be at least 2");
                    PerSize {
                        size,
                        until_next: size,
                        windows: 0,
                        cp_sum: 0,
                        cp_min: u64::MAX,
                        cp_max: 0,
                    }
                })
                .collect(),
            chain: DepTable::new(),
        }
    }

    /// Unit-cost CP over the most recent `size` records in the ring.
    fn window_cp(&mut self, size: usize) -> u64 {
        self.chain.clear();
        let mut longest = 0u64;
        for ri in self.ring.range(self.ring.len() - size..) {
            let depth = self.chain.fold_reads(ri, 0, u64::max) + 1;
            self.chain.write(ri, depth);
            longest = longest.max(depth);
        }
        longest
    }

    /// Pump an entire retirement source (live run, replayed trace, or
    /// record slice) through this analysis.
    pub fn consume(&mut self, source: &mut dyn RetireSource) -> Result<u64, SimError> {
        let mut obs: [&mut dyn Observer; 1] = [self];
        source.drive(&mut obs)
    }

    /// Per-size statistics, in the order sizes were supplied.
    pub fn stats(&self) -> Vec<WindowStats> {
        self.sizes
            .iter()
            .map(|s| WindowStats {
                size: s.size,
                windows: s.windows,
                cp_sum: s.cp_sum,
                cp_min: if s.windows == 0 { 0 } else { s.cp_min },
                cp_max: s.cp_max,
            })
            .collect()
    }
}

impl Observer for WindowedCp {
    fn on_retire(&mut self, ri: &RetiredInst) {
        if self.ring.len() == self.max_size {
            self.ring.pop_front();
        }
        self.ring.push_back(*ri);

        for i in 0..self.sizes.len() {
            self.sizes[i].until_next -= 1;
            if self.sizes[i].until_next == 0 {
                let size = self.sizes[i].size;
                if self.ring.len() >= size {
                    let cp = self.window_cp(size);
                    let s = &mut self.sizes[i];
                    s.windows += 1;
                    s.cp_sum += cp;
                    s.cp_min = s.cp_min.min(cp);
                    s.cp_max = s.cp_max.max(cp);
                    s.until_next = size / 2; // 50 % slide
                } else {
                    self.sizes[i].until_next = 1; // not enough history yet
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{InstGroup, RegId, RegSet};

    fn serial() -> RetiredInst {
        let mut ri = RetiredInst::new(0, InstGroup::IntAlu);
        ri.srcs = RegSet::of(&[RegId::Int(1)]);
        ri.dsts = RegSet::of(&[RegId::Int(1)]);
        ri
    }

    fn parallel(i: u8) -> RetiredInst {
        let mut ri = RetiredInst::new(0, InstGroup::IntAlu);
        ri.dsts = RegSet::of(&[RegId::Int(i % 30)]);
        ri
    }

    #[test]
    fn serial_stream_cp_equals_window() {
        let mut w = WindowedCp::new(&[4, 8]);
        for _ in 0..64 {
            w.on_retire(&serial());
        }
        for s in w.stats() {
            assert_eq!(s.mean_cp(), s.size as f64, "fully serial: CP == window size");
            assert!((s.mean_ilp() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn parallel_stream_cp_is_one() {
        let mut w = WindowedCp::new(&[4, 16]);
        for i in 0..128u8 {
            w.on_retire(&parallel(i));
        }
        // Writers never read: every window's CP is 1.
        for s in w.stats() {
            assert_eq!(s.cp_min, 1);
            assert_eq!(s.cp_max, 1);
            assert_eq!(s.mean_ilp(), s.size as f64);
        }
    }

    #[test]
    fn window_count_matches_slide() {
        let mut w = WindowedCp::new(&[4]);
        for _ in 0..12 {
            w.on_retire(&serial());
        }
        // First window after 4, then every 2: retirements 4,6,8,10,12 -> 5.
        assert_eq!(w.stats()[0].windows, 5);
    }

    #[test]
    fn window_cp_bounded_by_size() {
        let mut w = WindowedCp::new(&[4, 16, 64]);
        // Mixed stream.
        for i in 0..500u32 {
            if i % 3 == 0 {
                w.on_retire(&serial());
            } else {
                w.on_retire(&parallel(i as u8));
            }
        }
        for s in w.stats() {
            assert!(s.cp_max as usize <= s.size);
            assert!(s.cp_min >= 1);
            assert!(s.mean_ilp() >= 1.0);
        }
    }

    #[test]
    fn chains_reset_between_windows() {
        // The serial register chain must not leak CP across window
        // evaluations (the dependency table is cleared per window).
        let mut w = WindowedCp::new(&[4]);
        for _ in 0..8 {
            w.on_retire(&serial());
        }
        let s = &w.stats()[0];
        assert_eq!(s.cp_max, 4, "window CP can never exceed the window size");
    }
}
