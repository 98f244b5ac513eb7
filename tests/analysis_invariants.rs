//! Property tests over the analysis passes, driven by randomly generated
//! retirement streams (no emulation involved — these check the analyses'
//! mathematical invariants in isolation).

use proptest::prelude::*;
use simcore::{InstGroup, MemAccess, Observer, RegId, RegSet, RetiredInst};

use analysis::{DepDistance, DualCriticalPath, PathLength, WindowedCp, DIST_BUCKETS};
use uarch::{InOrderCore, LatencyModel, OoOCore, PipelineConfig, Tx2Latency, UnitLatency};

/// Strategy: any register slot class (integer, FP, flags).
fn reg() -> impl Strategy<Value = RegId> {
    prop_oneof![(0u8..16).prop_map(RegId::Int), (0u8..8).prop_map(RegId::Fp), Just(RegId::Flags)]
}

/// Strategy: a 1/2/4/8-byte or 16-byte (pair) access into a 12-word region,
/// word-aligned half of the time and at any byte offset otherwise — so
/// sub-word accesses share words and unaligned ones straddle two or three.
fn access() -> impl Strategy<Value = MemAccess> {
    let offset = prop_oneof![(0u64..12).prop_map(|w| w * 8), 0u64..96];
    let size = prop_oneof![Just(1u8), Just(2u8), Just(4u8), Just(8u8), Just(16u8)];
    (offset, size).prop_map(|(off, size)| MemAccess { addr: 0x1000 + off, size })
}

/// Strategy: a plausible random retirement record. Loads and stores carry
/// one or two accesses; atomics read and write the same access.
fn retired_inst() -> impl Strategy<Value = RetiredInst> {
    let group = prop_oneof![
        Just(InstGroup::IntAlu),
        Just(InstGroup::IntMul),
        Just(InstGroup::Load),
        Just(InstGroup::Store),
        Just(InstGroup::Atomic),
        Just(InstGroup::FpAdd),
        Just(InstGroup::FpFma),
        Just(InstGroup::Branch),
    ];
    (
        group,
        proptest::collection::vec(reg(), 0..3),
        proptest::collection::vec(reg(), 0..2),
        proptest::collection::vec(access(), 1..3),
    )
        .prop_map(|(group, srcs, dsts, accesses)| {
            let mut ri = RetiredInst::new(0, group);
            ri.srcs = srcs.into_iter().collect();
            ri.dsts = dsts.into_iter().collect();
            for a in &accesses {
                match group {
                    InstGroup::Load => ri.mem_reads.push(a.addr, a.size),
                    InstGroup::Store => ri.mem_writes.push(a.addr, a.size),
                    _ => {}
                }
            }
            if group == InstGroup::Atomic {
                ri.mem_reads.push(accesses[0].addr, accesses[0].size);
                ri.mem_writes.push(accesses[0].addr, accesses[0].size);
            }
            ri.is_branch = group == InstGroup::Branch;
            ri
        })
}

/// Naive oracle: the indices of the records before `recs[i]` that last
/// wrote each register it reads and each 8-byte word it reads (one entry
/// per read that has a writer). A direct backward scan, O(n) per read —
/// deliberately independent of the analyses' shared dependency table.
fn producers(recs: &[RetiredInst], i: usize) -> Vec<usize> {
    let span = |a: MemAccess| a.addr / 8..=(a.addr + a.size.max(1) as u64 - 1) / 8;
    let last_writer =
        |writes: &dyn Fn(&RetiredInst) -> bool| (0..i).rev().find(|&j| writes(&recs[j]));
    let mut out = Vec::new();
    for r in recs[i].srcs.iter() {
        out.extend(last_writer(&|w| w.dsts.iter().any(|d| d == r)));
    }
    for a in recs[i].mem_reads.iter() {
        for word in span(a) {
            out.extend(last_writer(&|w| w.mem_writes.iter().any(|b| span(b).contains(&word))));
        }
    }
    out
}

/// Oracle critical path of `recs` when each record costs `cost(record)`.
fn oracle_cp(recs: &[RetiredInst], cost: impl Fn(&RetiredInst) -> u64) -> u64 {
    let mut depth = vec![0u64; recs.len()];
    for i in 0..recs.len() {
        let longest_src = producers(recs, i).into_iter().map(|j| depth[j]).max().unwrap_or(0);
        depth[i] = longest_src + cost(&recs[i]);
    }
    depth.into_iter().max().unwrap_or(0)
}

/// The paper's §5 scaled cost: TX2 latency, except loads and stores cost 1.
fn tx2_cost(ri: &RetiredInst) -> u64 {
    match ri.group {
        InstGroup::Load | InstGroup::Store => 1,
        g => Tx2Latency.latency(g),
    }
}

fn stream() -> impl Strategy<Value = Vec<RetiredInst>> {
    proptest::collection::vec(retired_inst(), 1..400)
}

proptest! {
    #[test]
    fn cp_bounded_by_path_length(insts in stream()) {
        let mut cp = DualCriticalPath::new(Tx2Latency);
        for ri in &insts {
            cp.on_retire(ri);
        }
        let r = cp.unit();
        prop_assert_eq!(r.path_length, insts.len() as u64);
        prop_assert!(r.critical_path >= 1);
        prop_assert!(r.critical_path <= r.path_length);
    }

    #[test]
    fn scaled_cp_at_least_unit_cp(insts in stream()) {
        let mut cp = DualCriticalPath::new(Tx2Latency);
        for ri in &insts {
            cp.on_retire(ri);
        }
        prop_assert!(cp.scaled().critical_path >= cp.unit().critical_path);
    }

    #[test]
    fn cp_monotone_under_extension(insts in stream()) {
        // Adding instructions can never shorten the critical path.
        let mut cp = DualCriticalPath::new(Tx2Latency);
        let mut prev = 0;
        for ri in &insts {
            cp.on_retire(ri);
            let now = cp.unit().critical_path;
            prop_assert!(now >= prev);
            prev = now;
        }
    }

    #[test]
    fn windowed_cp_bounded_by_window(insts in stream()) {
        let mut w = WindowedCp::new(&[4, 16, 64]);
        for ri in &insts {
            w.on_retire(ri);
        }
        for s in w.stats() {
            if s.windows > 0 {
                prop_assert!(s.cp_max as usize <= s.size);
                prop_assert!(s.cp_min >= 1);
                prop_assert!(s.mean_ilp() >= 1.0 - 1e-9);
                prop_assert!(s.mean_ilp() <= s.size as f64 + 1e-9);
            }
        }
    }

    #[test]
    fn path_length_ignores_order(insts in stream()) {
        // Total path length is permutation-invariant.
        let mut a = PathLength::new(&[]);
        let mut b = PathLength::new(&[]);
        for ri in &insts {
            a.on_retire(ri);
        }
        for ri in insts.iter().rev() {
            b.on_retire(ri);
        }
        prop_assert_eq!(a.total(), b.total());
    }

    #[test]
    fn pipelines_bounded_by_cp_and_width(insts in stream()) {
        // Any real pipeline takes at least CP cycles (with unit latency)
        // and at least len/width cycles; the in-order core is never faster
        // than the same-width OoO core with ample units.
        let mut cp = DualCriticalPath::new(Tx2Latency);
        let cfg = PipelineConfig { width: 2, rob: 64, fp_units: 4, int_units: 4, mem_units: 4 };
        let mut ino = InOrderCore::new(UnitLatency, cfg.clone());
        let mut ooo = OoOCore::new(UnitLatency, cfg);
        for ri in &insts {
            cp.on_retire(ri);
            ino.on_retire(ri);
            ooo.on_retire(ri);
        }
        let lower = cp.unit().critical_path;
        prop_assert!(ooo.stats().cycles >= lower, "OoO below dependence bound");
        prop_assert!(ino.stats().cycles >= lower, "in-order below dependence bound");
        prop_assert!(
            ino.stats().cycles + 1 >= ooo.stats().cycles,
            "in-order ({}) beat OoO ({})",
            ino.stats().cycles,
            ooo.stats().cycles
        );
    }
}

proptest! {
    #[test]
    fn dependency_analyses_match_naive_oracle(insts in stream()) {
        let sizes = [2, 3, 4, 7, 16, 64];
        let mut cp = DualCriticalPath::new(Tx2Latency);
        let mut windowed = WindowedCp::new(&sizes);
        let mut dep = DepDistance::new();
        for ri in &insts {
            cp.on_retire(ri);
            windowed.on_retire(ri);
            dep.on_retire(ri);
        }

        prop_assert_eq!(cp.unit().critical_path, oracle_cp(&insts, |_| 1));
        prop_assert_eq!(cp.scaled().critical_path, oracle_cp(&insts, tx2_cost));

        // Windows end after `size` records and then every `size / 2`.
        for s in windowed.stats() {
            let cps: Vec<u64> = (s.size..=insts.len())
                .step_by(s.size / 2)
                .map(|end| oracle_cp(&insts[end - s.size..end], |_| 1))
                .collect();
            prop_assert_eq!(s.windows, cps.len() as u64, "size {}", s.size);
            prop_assert_eq!(s.cp_sum, cps.iter().sum::<u64>(), "size {}", s.size);
            prop_assert_eq!(s.cp_min, cps.iter().copied().min().unwrap_or(0), "size {}", s.size);
            prop_assert_eq!(s.cp_max, cps.iter().copied().max().unwrap_or(0), "size {}", s.size);
        }

        let mut hist = [0u64; DIST_BUCKETS.len()];
        for i in 0..insts.len() {
            for j in producers(&insts, i) {
                let dist = (i - j) as u64;
                hist[DIST_BUCKETS.iter().position(|&ub| dist <= ub).unwrap()] += 1;
            }
        }
        let want: Vec<(u64, u64)> = DIST_BUCKETS.iter().copied().zip(hist).collect();
        prop_assert_eq!(dep.histogram(), want);
        prop_assert_eq!(dep.edges(), hist.iter().sum::<u64>());
    }
}

#[test]
fn regset_iteration_order_is_slot_order() {
    let s = RegSet::of(&[RegId::Fp(2), RegId::Int(7), RegId::Flags]);
    let v: Vec<RegId> = s.iter().collect();
    assert_eq!(v, vec![RegId::Int(7), RegId::Fp(2), RegId::Flags]);
}
