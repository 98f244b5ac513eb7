//! Differential conformance suite for the retire engines: every kernel ×
//! both ISAs × two size classes must produce byte-identical results when
//! the one retire loop is fuelled stepwise (`Engine::Legacy`, fuel 1
//! through `IsaExecutor::step`) and by pre-decoded blocks
//! (`Engine::Block`, `IsaExecutor::run_block`) — identical final
//! architectural state hashes and identical retirement streams — which
//! is exactly what can differ between the two.
//!
//! An armed fault injector runs the loop stepwise whatever engine is
//! requested (pre-step hooks need per-instruction granularity), so the
//! faulted legs here pin that dispatch contract: whatever engine the
//! caller requests, the observable run is the same.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use isacmp::{
    compile, AArch64Executor, CampaignManifest, CampaignSpec, CpuState, EmulationCore, Engine,
    FaultInjector, FaultPlan, IsaKind, Observer, Personality, RetiredInst, RiscVExecutor,
    SizeClass, Workload,
};

/// Folds the full retirement stream — every field of every record, in
/// order — into one hash. Requests per-instruction callbacks, so on the
/// block engine this also exercises the observer slow path.
#[derive(Default)]
struct StreamHash {
    hash: u64,
    records: u64,
}

impl Observer for StreamHash {
    fn on_retire(&mut self, ri: &RetiredInst) {
        let mut h = DefaultHasher::new();
        self.hash.hash(&mut h);
        format!("{ri:?}").hash(&mut h);
        self.hash = h.finish();
        self.records += 1;
    }
}

/// Everything observable about one run, comparable across engines.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    result: Result<u64, String>,
    state_hash: u64,
    instret: u64,
    pc: u64,
    stream: Option<(u64, u64)>,
}

fn run_one(
    workload: Workload,
    isa: IsaKind,
    size: SizeClass,
    engine: Engine,
    injector: Option<Box<dyn FaultInjector>>,
    with_stream: bool,
) -> Outcome {
    let compiled = compile(&workload.build(size), isa, &Personality::gcc122());
    let mut st = CpuState::new();
    compiled.program.load(&mut st).expect("program loads");
    let mut stream = StreamHash::default();
    let mut obs: Vec<&mut dyn Observer> = Vec::new();
    if with_stream {
        obs.push(&mut stream);
    }
    let result = match isa {
        IsaKind::RiscV => {
            let mut core = EmulationCore::new(RiscVExecutor::new()).with_engine(engine);
            if let Some(inj) = injector {
                core = core.with_injector(inj);
            }
            core.run(&mut st, &mut obs)
        }
        IsaKind::AArch64 => {
            let mut core = EmulationCore::new(AArch64Executor::new()).with_engine(engine);
            if let Some(inj) = injector {
                core = core.with_injector(inj);
            }
            core.run(&mut st, &mut obs)
        }
    };
    Outcome {
        result: result.map(|s| s.retired).map_err(|e| e.to_string()),
        state_hash: st.state_hash(),
        instret: st.instret,
        pc: st.pc,
        stream: with_stream.then_some((stream.hash, stream.records)),
    }
}

fn assert_engines_agree(
    workload: Workload,
    isa: IsaKind,
    size: SizeClass,
    fault: Option<&FaultPlan>,
    with_stream: bool,
) {
    let inj = |f: Option<&FaultPlan>| {
        f.map(|p| Box::new(p.clone()) as Box<dyn FaultInjector>)
    };
    let legacy = run_one(workload, isa, size, Engine::Legacy, inj(fault), with_stream);
    let block = run_one(workload, isa, size, Engine::Block, inj(fault), with_stream);
    assert_eq!(
        legacy,
        block,
        "engines diverge on {}/{:?}/{} fault={:?}",
        workload.name(),
        isa,
        size.name(),
        fault
    );
}

/// Every kernel × both ISAs at the small size class, bare (no
/// observers): final state hash, instret, pc, and stop outcome must be
/// identical. Bare runs take the block engine's batched fast path, so
/// this is the leg that actually exercises block-cached execution.
#[test]
fn small_runs_agree_bare_on_both_engines() {
    for workload in Workload::ALL {
        for isa in [IsaKind::RiscV, IsaKind::AArch64] {
            assert_engines_agree(workload, isa, SizeClass::Small, None, false);
        }
    }
}

/// Every kernel × both ISAs at the test size class with a
/// per-instruction stream observer attached: the full retirement streams
/// (every field of every record, in order) must hash identically.
#[test]
fn test_runs_agree_with_full_retirement_streams() {
    for workload in Workload::ALL {
        for isa in [IsaKind::RiscV, IsaKind::AArch64] {
            assert_engines_agree(workload, isa, SizeClass::Test, None, true);
        }
    }
}

/// Injected faults — a trap, a fetch corruption, and a read bit-flip —
/// must degrade both engines identically: same error (or same silent
/// corruption), same final state hash, same faulting retirement count.
#[test]
fn faulted_runs_agree_on_both_engines() {
    let faults = [
        FaultPlan::parse("trap@1000").unwrap(),
        FaultPlan::parse("fetch@500:0x4").unwrap(),
        FaultPlan::parse("read@40:62").unwrap(),
    ];
    for fault in &faults {
        for isa in [IsaKind::RiscV, IsaKind::AArch64] {
            assert_engines_agree(Workload::Stream, isa, SizeClass::Test, Some(fault), true);
        }
    }
}

/// A seeded campaign schedule (multiple faults per run) must fire at the
/// same retirement counts and leave the same wreckage on both engines.
#[test]
fn campaign_runs_agree_on_both_engines() {
    let spec = CampaignSpec::parse("7:3").unwrap();
    let manifest = CampaignManifest::sample(spec);
    for isa in [IsaKind::RiscV, IsaKind::AArch64] {
        let legacy = run_one(
            Workload::Lbm,
            isa,
            SizeClass::Test,
            Engine::Legacy,
            Some(Box::new(manifest.campaign().unwrap())),
            true,
        );
        let block = run_one(
            Workload::Lbm,
            isa,
            SizeClass::Test,
            Engine::Block,
            Some(Box::new(manifest.campaign().unwrap())),
            true,
        );
        assert_eq!(legacy, block, "campaign runs diverge on {isa:?}");
    }
}

/// Block-cache invalidation: the decoded-block cache lives in the
/// executor and is keyed by PC, so mutated instruction bytes are only
/// picked up after a decode-cache flush — exactly what a `fetch@N:MASK`
/// fault requests via `InjectAction::FlushDecodeCache`.
mod invalidation {
    use isa_riscv::{decode, encode, ImmOp, Inst};
    use isacmp::{CpuState, EmulationCore, Engine, FaultPlan, IsaExecutor, RiscVExecutor};

    const CODE: u64 = 0x1_0000;

    fn addi(rd: u8, rs1: u8, imm: i64) -> u32 {
        encode(&Inst::OpImm { op: ImmOp::Addi, rd, rs1, imm })
    }

    fn load(words: &[u32]) -> CpuState {
        let mut st = CpuState::new();
        st.pc = CODE;
        for (i, w) in words.iter().enumerate() {
            st.mem.write_u32(CODE + 4 * i as u64, *w).unwrap();
        }
        st
    }

    /// An explicit `flush_decode_cache` must drop cached blocks: after
    /// the program bytes at a warm PC change, a block-engine run must
    /// execute the new bytes, not the stale decode.
    #[test]
    fn flush_drops_cached_blocks_and_redecodes() {
        let exec = RiscVExecutor::new();

        // Warm the block cache with the original program.
        let mut st = load(&[addi(1, 0, 5)]);
        let _ = EmulationCore::new(&exec).run(&mut st, &mut []);
        assert_eq!(st.x[1], 5);

        // Same PC, mutated bytes, same executor: without a flush the
        // stale block would replay the old immediate.
        exec.flush_decode_cache();
        let mut st = load(&[addi(1, 0, 9)]);
        let _ = EmulationCore::new(&exec).run(&mut st, &mut []);
        assert_eq!(st.x[1], 9, "flush must force a re-decode of the mutated bytes");
    }

    /// End-to-end: a `fetch@N:MASK` fault mutates the fetched word and
    /// flushes the decode caches. A later block-engine run on the same
    /// executor, over the mutated program image, must execute the
    /// mutated semantics — the pre-fault block cached at the same PC
    /// (with the original bytes) must not survive.
    #[test]
    fn fetch_fault_flushes_the_block_cache() {
        let w_orig = addi(1, 0, 5);
        const MASK: u32 = 0x0400_0000; // flips imm bit 6: 5 ^ 64 = 69
        let w_mut = w_orig ^ MASK;
        assert_eq!(
            decode(w_mut).unwrap(),
            Inst::OpImm { op: ImmOp::Addi, rd: 1, rs1: 0, imm: 69 },
            "mask must yield a decodable mutated instruction"
        );
        let program = [addi(2, 0, 1), w_orig];

        let exec = RiscVExecutor::new();

        // Warm the block cache with the pristine program.
        let mut st = load(&program);
        let _ = EmulationCore::new(&exec).run(&mut st, &mut []);
        assert_eq!(st.x[1], 5);

        // Fault at retirement 1: the word at CODE+4 is XOR-masked in
        // guest memory and the decode caches are flushed.
        let plan = FaultPlan::parse(&format!("fetch@1:{MASK:#x}")).unwrap();
        let mut st = load(&program);
        let _ = EmulationCore::new(&exec)
            .with_injector(Box::new(plan))
            .run(&mut st, &mut []);
        assert_eq!(st.x[1], 69, "the corrupted fetch must execute the mutated immediate");
        assert_eq!(st.mem.read_u32(CODE + 4).unwrap(), w_mut, "the fault mutates guest memory");

        // Block-engine run over a mutated image at the warm PC: only the
        // fault's cache flush makes this re-decode instead of replaying
        // the pristine block cached in step one.
        let mut st = load(&[program[0], w_mut]);
        let _ = EmulationCore::new(&exec)
            .with_engine(Engine::Block)
            .run(&mut st, &mut []);
        assert_eq!(st.x[1], 69, "stale pre-fault block must not survive the flush");
    }
}
