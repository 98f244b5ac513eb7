//! Integration: ELF round trips preserve measurement results, the
//! pipeline/cache extensions behave sensibly on real workloads, and the
//! pipeline-timed driver is architecturally identical to plain emulation —
//! with fault injection off *and* on.

use isacmp::{
    compile, execute, run_pipeline, try_execute_engine, CacheConfig, CacheModel, DualCriticalPath,
    Engine, FaultPlan, IsaKind, Observer, PathLength, Personality, PipelineConfig, PipelineOptions,
    PipelineStats, Program, SizeClass, Tx2Latency, Workload,
};

/// Time a clean test-size run; any guest failure fails the test.
fn timed(w: Workload, isa: IsaKind, p: &Personality, opts: &PipelineOptions) -> PipelineStats {
    run_pipeline(w, isa, p, SizeClass::Test, opts).expect("pipeline run is clean").1
}

#[test]
fn elf_round_trip_preserves_measurements() {
    for isa in [IsaKind::AArch64, IsaKind::RiscV] {
        let compiled = compile(&Workload::Stream.build(SizeClass::Test), isa, &Personality::gcc122());

        // Direct run.
        let mut pl_direct = PathLength::new(&compiled.program.regions);
        execute(&compiled, &mut [&mut pl_direct]);

        // Through ELF bytes.
        let elf = compiled.program.to_elf();
        let loaded = Program::from_elf(&elf).expect("parse own ELF");
        assert_eq!(loaded.isa, isa);
        assert_eq!(loaded.regions, compiled.program.regions, "region note survives");
        let reloaded = isacmp::Compiled {
            program: loaded,
            checksum_addr: compiled.checksum_addr,
            array_addrs: compiled.array_addrs.clone(),
        };
        let mut pl_elf = PathLength::new(&reloaded.program.regions);
        let mut cp = DualCriticalPath::new(Tx2Latency);
        let (st, _) = execute(&reloaded, &mut [&mut pl_elf, &mut cp]);

        assert_eq!(pl_elf.total(), pl_direct.total(), "identical execution after round trip");
        assert_eq!(pl_elf.by_kernel(), pl_direct.by_kernel());
        assert!(st.mem.read_f64(reloaded.checksum_addr).unwrap().is_finite());
    }
}

#[test]
fn cached_pipeline_never_faster_than_ideal() {
    for w in [Workload::Stream, Workload::CloverLeaf] {
        for isa in [IsaKind::AArch64, IsaKind::RiscV] {
            let p = Personality::gcc122();
            let ideal_opts = PipelineOptions::new(PipelineConfig::tx2(), true);
            let ideal = timed(w, isa, &p, &ideal_opts);
            let cached_opts =
                PipelineOptions { dcache: Some((CacheConfig::l1d_32k(), 100)), ..ideal_opts };
            let cached = timed(w, isa, &p, &cached_opts);
            assert!(
                cached.cycles >= ideal.cycles,
                "{} {}: cache made it faster? {} < {}",
                w.name(),
                isacmp::isa_label(isa),
                cached.cycles,
                ideal.cycles
            );
            assert_eq!(cached.retired, ideal.retired);
        }
    }
}

#[test]
fn pipeline_configs_order_sanely() {
    // More resources => never slower, for every workload and ISA.
    let p = Personality::gcc122();
    for w in Workload::ALL {
        for isa in [IsaKind::AArch64, IsaKind::RiscV] {
            let ino = timed(w, isa, &p, &PipelineOptions::new(PipelineConfig::a55(), false));
            let tx2 = timed(w, isa, &p, &PipelineOptions::new(PipelineConfig::tx2(), true));
            let fs = timed(w, isa, &p, &PipelineOptions::new(PipelineConfig::firestorm(), true));
            assert!(tx2.cycles <= ino.cycles, "{}: TX2 {} > in-order {}", w.name(), tx2.cycles, ino.cycles);
            assert!(fs.cycles <= tx2.cycles, "{}: Firestorm {} > TX2 {}", w.name(), fs.cycles, tx2.cycles);
        }
    }
}

#[test]
fn pipeline_and_emulation_agree_architecturally() {
    // The pipeline models are timing observers over the same emulation
    // core, so the architectural outcome — retire count, final pc,
    // register files, guest checksum — must be bit-identical to a plain
    // emulation run for every seed kernel on both ISAs.
    let p = Personality::gcc122();
    for w in Workload::ALL {
        for isa in [IsaKind::AArch64, IsaKind::RiscV] {
            let compiled = compile(&w.build(SizeClass::Test), isa, &p);
            let (st_emu, stats) =
                try_execute_engine(&compiled, &mut [], None, None, Engine::default())
                    .expect("emulation runs clean");
            let opts = PipelineOptions::new(PipelineConfig::tx2(), true);
            let (st_pipe, pstats) =
                run_pipeline(w, isa, &p, SizeClass::Test, &opts).expect("pipeline run is clean");
            let label = format!("{} / {}", w.name(), isacmp::isa_label(isa));
            assert_eq!(stats.retired, pstats.retired, "{label}: retire counts");
            assert_eq!(st_emu.instret, st_pipe.instret, "{label}: instret");
            assert_eq!(st_emu.pc, st_pipe.pc, "{label}: final pc");
            assert_eq!(st_emu.x, st_pipe.x, "{label}: integer registers");
            assert_eq!(st_emu.f, st_pipe.f, "{label}: fp registers");
            let sum_emu = st_emu.mem.read_f64(compiled.checksum_addr).unwrap();
            let sum_pipe = st_pipe.mem.read_f64(compiled.checksum_addr).unwrap();
            assert_eq!(sum_emu.to_bits(), sum_pipe.to_bits(), "{label}: checksum");
        }
    }
}

#[test]
fn pipeline_and_emulation_fail_identically_under_injection() {
    // Arm the same deterministic fault on both paths: each must degrade to
    // the same typed error at the same retirement point — the pipeline
    // models inherit the injection hook, they don't approximate it.
    let p = Personality::gcc122();
    for isa in [IsaKind::AArch64, IsaKind::RiscV] {
        let fault = FaultPlan::parse("trap@1000").unwrap();
        let compiled = compile(&Workload::Stream.build(SizeClass::Test), isa, &p);
        let emu = try_execute_engine(&compiled, &mut [], None, Some(&fault), Engine::default());
        let err_emu = match emu {
            Err(e) => e,
            Ok(_) => panic!("injected trap must fail emulation"),
        };
        let opts = PipelineOptions {
            fault: Some(fault.clone()),
            ..PipelineOptions::new(PipelineConfig::tx2(), true)
        };
        let err_pipe = match run_pipeline(Workload::Stream, isa, &p, SizeClass::Test, &opts) {
            Err(e) => e,
            Ok(_) => panic!("injected trap must fail the pipeline run"),
        };
        assert_eq!(err_emu.kind(), "sim");
        assert_eq!(err_emu.kind(), err_pipe.kind(), "same typed failure kind");
        assert_eq!(
            err_emu.to_string(),
            err_pipe.to_string(),
            "same fault, same pc, same instret on both paths"
        );
    }
}

#[test]
fn cache_hit_rates_isa_symmetric() {
    // The paper compares ISAs, not data layouts: identical kernels touch
    // identical data, so L1D hit rates must match closely across ISAs.
    for w in Workload::ALL {
        let mut rates = Vec::new();
        for isa in [IsaKind::AArch64, IsaKind::RiscV] {
            let compiled = compile(&w.build(SizeClass::Test), isa, &Personality::gcc122());
            let mut l1d = CacheModel::new(CacheConfig::l1d_32k());
            {
                let mut obs: Vec<&mut dyn Observer> = vec![&mut l1d];
                execute(&compiled, &mut obs);
            }
            rates.push(l1d.stats().hit_rate());
        }
        assert!(
            (rates[0] - rates[1]).abs() < 0.02,
            "{}: hit rates diverge across ISAs: {rates:?}",
            w.name()
        );
    }
}

/// Observer outputs at test size (GCC 12.2) that no byte-identity suite
/// covers: `make_tables mix` (chain composition, dependency distances) and
/// `make_tables pipeline` (in-order A55 and OoO TX2 cycle counts). Pinned
/// so a change to the shared dependency table cannot move them silently.
#[test]
fn dependency_observers_match_pinned_values() {
    use isacmp::{CpComposition, DepDistance, InOrderCore, OoOCore};
    #[rustfmt::skip]
    let pinned = [
        ("STREAM AArch64",
         "[(Branch, 64), (Store, 22), (FpAdd, 5), (IntAlu, 2), (Load, 1)]",
         [2541, 269, 1109, 1284, 39, 216, 846, 1440], 7744, (6859, 3720), 4256),
        ("STREAM RISC-V",
         "[(Branch, 64), (Store, 21), (FpAdd, 5), (IntAlu, 3), (Load, 1)]",
         [1322, 964, 1292, 1676, 42, 122, 494, 1140], 7052, (6862, 3723), 4326),
        ("LBM AArch64",
         "[(FpAdd, 109), (Store, 38), (IntAlu, 2), (Load, 1), (FpMul, 1), (FpCmp, 1), (FpMove, 1)]",
         [29442, 9516, 7685, 7040, 9230, 15665, 14460, 26803], 119841, (141825, 88076), 55951),
        ("LBM RISC-V",
         "[(Store, 112), (FpAdd, 35), (IntAlu, 8), (FpMove, 3), (Load, 1), (FpMul, 1)]",
         [24913, 9072, 6457, 8098, 10582, 21336, 2576, 23625], 106659, (146508, 89086), 63681),
    ];
    let mut cells = pinned.iter();
    for w in [Workload::Stream, Workload::Lbm] {
        for isa in [IsaKind::AArch64, IsaKind::RiscV] {
            let (label, comp_want, hist_want, edges_want, (a55_want, tx2_want), retired) =
                cells.next().unwrap();
            assert_eq!(*label, format!("{} {}", w.name(), isacmp::isa_label(isa)));
            let compiled = compile(&w.build(SizeClass::Test), isa, &Personality::gcc122());
            let mut comp = CpComposition::new();
            let mut dep = DepDistance::new();
            let mut ino = InOrderCore::new(Tx2Latency, PipelineConfig::a55());
            let mut ooo = OoOCore::new(Tx2Latency, PipelineConfig::tx2());
            execute(&compiled, &mut [&mut comp, &mut dep, &mut ino, &mut ooo]);

            assert_eq!(format!("{:?}", comp.composition()), *comp_want, "{label}: composition");
            let hist: Vec<(u64, u64)> = analysis::DIST_BUCKETS.into_iter().zip(*hist_want).collect();
            assert_eq!(dep.histogram(), hist, "{label}: distance histogram");
            assert_eq!(dep.edges(), *edges_want, "{label}: dependency edges");
            let a55 = PipelineStats { cycles: *a55_want, retired: *retired };
            let tx2 = PipelineStats { cycles: *tx2_want, retired: *retired };
            assert_eq!(ino.stats(), a55, "{label}: in-order A55");
            assert_eq!(ooo.stats(), tx2, "{label}: OoO TX2");
        }
    }
}
