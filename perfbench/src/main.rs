//! `perfbench` — the layer profiler behind `perfbench/run.py`.
//!
//! The end-to-end runs time the real `make_tables` binary; this driver
//! times each layer from outside it, by calling each crate's public
//! functions on a workload's own cells. Each subcommand runs in a fresh
//! process and prints one JSON line of raw measurements on stdout.
//!
//! - `layers`: the per-layer profile of one workload (`--replay-dir` for
//!   the fused replay from a trace cache), and with `--serve` a short
//!   `isacmpd` session on the workload's own spec.
//! - `calibrate`: a fixed integer loop, the host-speed stamp, and the
//!   shard pool's worker count.
//! - `reference`: a fixed hash-map workload on every pool worker's core,
//!   the host-speed gauge the end-to-end times are scaled by.

use std::fs;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use isacmp::telemetry::json::Json;
use isacmp::{
    cell_meta, compile, durable, interpret, matrix_combos, pool, run_cell_opts, shutdown,
    try_execute_engine, CellJournal, CellOptions, Compiled, DualCriticalPath, Engine, FusionPass,
    Observer, PathLength, ResultMatrix, SizeClass, TraceReader, TraceWriter, Tx2Latency,
    WindowedCp, Workload,
};
use server::{proto, Client, Config, JobKind, JobOutcome, JobSpec, Server, ServerMsg};
use simcore::RetireSource;

/// The size both matrix workloads run at (`make_tables --size small`).
const SIZE: SizeClass = SizeClass::Small;

/// Repeats for the in-memory layer timings (JSON, frames, journal).
const REPEATS: usize = 20;

/// Rounds of the bare and each loaded run per cell. A self time is the
/// median loaded run minus the median bare run, so one slow run of
/// either does not set it.
const ROUNDS: usize = 3;

/// Cold computes in the served session, each on a daemon of its own.
const COLD_COMPUTES: usize = 3;

/// Cache hits in the served session.
const HITS: usize = 10;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("layers") => layers(rest),
        Some("calibrate") => {
            calibrate();
            Ok(())
        }
        Some("reference") => {
            reference();
            Ok(())
        }
        _ => {
            eprintln!("usage: perfbench layers|calibrate|reference [flags]");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn required(args: &[String], name: &str) -> io::Result<String> {
    flag(args, name).ok_or_else(|| other(format!("{name} is required")))
}

fn other(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn emit(fields: Vec<(&str, Json)>) {
    println!("{}", Json::obj(fields).compact());
}

/// A fixed dependent integer chain; its wall time stamps the host speed.
/// The pool's worker count is the one `make_tables` gets on this host.
fn calibrate() {
    let start = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in 0..100_000_000u64 {
        x = x.rotate_left(7).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i;
    }
    let elapsed = start.elapsed();
    emit(vec![
        ("calib_ms", Json::Num(ms(elapsed))),
        ("check", Json::Num((x & 0xffff) as f64)),
        (
            "pool_workers",
            Json::Num(pool::global().stats().workers as f64),
        ),
    ]);
}

/// Keys and lookups per round of [`reference`], on each thread.
const REFERENCE_OPS: u64 = 1 << 18;

/// A fixed workload shaped like the analyses' hot loops: hash-map inserts
/// and lookups of pseudo-random keys over a few MiB, on as many threads as
/// the shard pool has workers. Its wall time gauges how fast the host runs
/// such code at this moment. It uses only `std`, with a fixed hasher, so no
/// change to the program can move it.
fn reference() {
    use std::collections::HashMap;
    use std::hash::{BuildHasherDefault, DefaultHasher};

    let workers = pool::global().stats().workers.max(1) as u64;
    let start = Instant::now();
    let threads: Vec<_> = (0..workers)
        .map(|t| {
            std::thread::spawn(move || {
                let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ t;
                let mut next = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
                    HashMap::default();
                let mut sum = 0u64;
                for _ in 0..3 {
                    map.clear();
                    for _ in 0..REFERENCE_OPS {
                        map.insert(next() & 0xf_ffff, next());
                    }
                    for _ in 0..REFERENCE_OPS {
                        sum = sum.wrapping_add(*map.get(&(next() & 0xf_ffff)).unwrap_or(&1));
                    }
                }
                sum
            })
        })
        .collect();
    let check = threads
        .into_iter()
        .map(|h| h.join().expect("reference thread"))
        .fold(0, |a, b| a ^ b);
    let elapsed = start.elapsed();
    emit(vec![
        ("reference_ms", Json::Num(ms(elapsed))),
        ("check", Json::Num((check & 0xffff) as f64)),
    ]);
}

/// Serve the job once; anything but a complete matrix is an error.
fn submit(client: &mut Client, spec: &JobSpec) -> Result<String, String> {
    match client.submit(spec, |_, _, _, _| {}) {
        Ok(JobOutcome::Done { matrix_json, .. }) => Ok(matrix_json),
        Ok(JobOutcome::Busy { active, limit }) => Err(format!("busy ({active}/{limit} jobs)")),
        Ok(JobOutcome::Shutdown { signal }) => Err(format!("shutdown: {signal}")),
        Err(e) => Err(e.to_string()),
    }
}

/// Bind a daemon on an ephemeral port and serve it on its own thread.
fn start_daemon(
    jobs_dir: PathBuf,
    trace_dir: Option<PathBuf>,
) -> io::Result<(SocketAddr, std::thread::JoinHandle<i32>)> {
    let server = Server::bind(Config {
        addr: "127.0.0.1:0".into(),
        jobs_dir,
        trace_dir,
        ..Config::default()
    })?;
    let addr = server.local_addr()?;
    Ok((addr, std::thread::spawn(move || server.run())))
}

/// Stop every daemon this process started and wait for each to drain.
fn stop_daemons(handles: Vec<std::thread::JoinHandle<i32>>) {
    shutdown::request();
    for h in handles {
        let _ = h.join();
    }
}

/// Wall time of one live run of `compiled` with `observers` riding along.
fn timed_run(compiled: &Compiled, observers: &mut [&mut dyn Observer]) -> io::Result<(f64, u64)> {
    let start = Instant::now();
    let (_, stats) = try_execute_engine(compiled, observers, None, None, Engine::default())
        .map_err(|e| other(e.to_string()))?;
    Ok((ms(start.elapsed()), stats.retired))
}

fn time_it<R>(total: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    *total += ms(start.elapsed());
    r
}

/// Median wall time of `f` over [`REPEATS`] calls, in ms.
fn median_ms(mut f: impl FnMut() -> io::Result<()>) -> io::Result<f64> {
    let mut v = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let start = Instant::now();
        f()?;
        v.push(ms(start.elapsed()));
    }
    Ok(median(v))
}

/// The observer runs of one cell, in the order each round makes them.
const BARE: usize = 0;
const PATH_LENGTH: usize = 1;
const CRITICAL_PATH: usize = 2;
const WINDOWED: usize = 3;
const FUSION: usize = 4;
const ENCODE: usize = 5;

/// Per-layer costs over the workload's own cells, each layer driven
/// through its crate's public API. Observer costs are self times: the
/// median run with the observer loaded minus the median bare run of the
/// same compiled cell, over [`ROUNDS`] interleaved rounds.
fn layers(args: &[String]) -> io::Result<()> {
    let dir = PathBuf::from(required(args, "--dir")?);
    let matrix_text = fs::read_to_string(required(args, "--matrix")?)?;
    // With a trace cache, the single-thread cell is the fused replay.
    let replay_dir = flag(args, "--replay-dir").map(PathBuf::from);
    let scratch = dir.join("layers");
    fs::create_dir_all(&scratch)?;

    let (mut compile_ms, mut verify_ms, mut commit_ms, mut decode_ms, mut cell_ms) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    // Per observer run: summed over cells of the per-cell median.
    let mut run_ms = [0.0f64; 6];
    let (mut retired, mut pairs, mut bytes) = (0u64, 0u64, 0u64);
    let cell_opts = CellOptions {
        trace_dir: replay_dir.clone(),
        fusion: replay_dir.is_some(),
        ..Default::default()
    };
    for (w, p, isa) in matrix_combos(&Workload::ALL) {
        let prog = w.build(SIZE);
        let compiled = time_it(&mut compile_ms, || compile(&prog, isa, &p));
        time_it(&mut verify_ms, || interpret(&prog, &p));
        let regions = &compiled.program.regions;
        let meta = cell_meta(w, &p, isa, SIZE, regions);
        let mut runs: [Vec<f64>; 6] = Default::default();
        // Exact counts: every round gives the same ones.
        let (mut cell_retired, mut cell_pairs, mut cell_bytes) = (0, 0, 0);
        for _ in 0..ROUNDS {
            let (bare, n) = timed_run(&compiled, &mut [])?;
            runs[BARE].push(bare);
            cell_retired = n;
            runs[PATH_LENGTH].push(timed_run(&compiled, &mut [&mut PathLength::new(regions)])?.0);
            runs[CRITICAL_PATH]
                .push(timed_run(&compiled, &mut [&mut DualCriticalPath::new(Tx2Latency)])?.0);
            runs[WINDOWED].push(timed_run(&compiled, &mut [&mut WindowedCp::paper()])?.0);
            let mut pass = FusionPass::new(isa, regions);
            runs[FUSION].push(timed_run(&compiled, &mut [&mut pass])?.0);
            cell_pairs = pass.report().fused_pairs;
            let mut sink = TraceWriter::sink(&meta);
            runs[ENCODE].push(timed_run(&compiled, &mut [&mut sink])?.0);
            cell_bytes = sink.finish(0, Duration::ZERO)?.bytes;
        }
        for (total, v) in run_ms.iter_mut().zip(runs) {
            *total += median(v);
        }
        retired += cell_retired;
        pairs += cell_pairs;
        bytes += cell_bytes;

        let (tmp, path) = (scratch.join("cell.trace.tmp"), scratch.join("cell.trace"));
        let mut writer = TraceWriter::create(&tmp, &meta)?;
        timed_run(&compiled, &mut [&mut writer])?;
        writer.finish(0, Duration::ZERO)?;
        time_it(&mut commit_ms, || durable::commit(&tmp, &path))?;
        let mut reader = TraceReader::open(&path).map_err(|e| other(e.to_string()))?;
        time_it(&mut decode_ms, || reader.drive(&mut []))
            .map_err(|e| other(format!("decode {}: {e}", path.display())))?;

        time_it(&mut cell_ms, || run_cell_opts(w, isa, &p, SIZE, &cell_opts))
            .map_err(|e| other(e.to_string()))?;
    }

    let engine_ms = run_ms[BARE];
    let self_ms = |run: usize| (run_ms[run] - engine_ms).max(0.0);
    let attributed = if replay_dir.is_some() {
        decode_ms
            + self_ms(PATH_LENGTH)
            + self_ms(CRITICAL_PATH)
            + self_ms(WINDOWED)
            + self_ms(FUSION)
    } else {
        compile_ms
            + verify_ms
            + engine_ms
            + self_ms(PATH_LENGTH)
            + self_ms(CRITICAL_PATH)
            + self_ms(WINDOWED)
    };

    let matrix = ResultMatrix::from_json(&matrix_text).map_err(other)?;
    let encode_ms = median_ms(|| {
        std::hint::black_box(matrix.to_json());
        Ok(())
    })?;
    let json_decode_ms = median_ms(|| {
        std::hint::black_box(ResultMatrix::from_json(&matrix_text).map_err(other)?);
        Ok(())
    })?;
    let frame = ServerMsg::Result {
        hits: matrix.cells.len() as u64,
        misses: 0,
        failures: 0,
        matrix_json: matrix_text.clone(),
    }
    .to_json();
    let frame_ms = median_ms(|| {
        let mut buf = Vec::new();
        proto::write_frame(&mut buf, &frame).map_err(|e| other(e.to_string()))?;
        std::hint::black_box(
            proto::read_frame(&mut buf.as_slice()).map_err(|e| other(e.to_string()))?,
        );
        Ok(())
    })?;
    let mut journal = CellJournal::create(&scratch.join("journal.jsonl"), SIZE.name(), None)?;
    let mut cells = matrix.cells.iter().cycle();
    let append_ms = median_ms(|| journal.record_cell(cells.next().expect("matrix has cells")))?;

    let mut fields = vec![
        ("kernelgen.compile_ms", Json::Num(compile_ms)),
        ("kernelgen.verify_ms", Json::Num(verify_ms)),
        ("simcore.engine_ms", Json::Num(engine_ms)),
        (
            "simcore.engine_mips",
            Json::Num(retired as f64 / engine_ms / 1e3),
        ),
        ("simcore.retired", Json::Num(retired as f64)),
        ("analysis.path_length_ms", Json::Num(self_ms(PATH_LENGTH))),
        (
            "analysis.critical_path_ms",
            Json::Num(self_ms(CRITICAL_PATH)),
        ),
        ("analysis.windowed_ms", Json::Num(self_ms(WINDOWED))),
        ("analysis.json_encode_ms", Json::Num(encode_ms)),
        ("analysis.json_decode_ms", Json::Num(json_decode_ms)),
        ("fusion.pass_ms", Json::Num(self_ms(FUSION))),
        ("fusion.pairs", Json::Num(pairs as f64)),
        ("trace.encode_ms", Json::Num(self_ms(ENCODE))),
        ("trace.commit_ms", Json::Num(commit_ms)),
        ("trace.bytes", Json::Num(bytes as f64)),
        ("trace.decode_ms", Json::Num(decode_ms)),
        ("core.cell_ms", Json::Num(cell_ms)),
        ("core.unattributed_ms", Json::Num(cell_ms - attributed)),
        ("core.journal_append_ms", Json::Num(append_ms)),
        ("server.frame_roundtrip_ms", Json::Num(frame_ms)),
    ];
    if let Some(kind) = flag(args, "--serve") {
        fields.extend(served_session(&dir, &kind, replay_dir, &matrix_text)?);
    }
    emit(fields);
    Ok(())
}

/// The server layer on a matrix workload's own spec: [`COLD_COMPUTES`]
/// computing requests, each to a fresh daemon with a cold cache, then
/// [`HITS`] cache hits. Every served matrix is checked against the
/// workload's own `matrix.json`.
fn served_session(
    dir: &Path,
    kind: &str,
    trace_dir: Option<PathBuf>,
    expected: &str,
) -> io::Result<Vec<(&'static str, Json)>> {
    let spec = match kind {
        "matrix" => JobSpec::matrix(SIZE),
        "fusion" => JobSpec {
            kind: JobKind::FusionReport,
            fusion: true,
            ..JobSpec::matrix(SIZE)
        },
        other_kind => return Err(other(format!("unknown --serve kind {other_kind:?}"))),
    };
    let mut daemons = Vec::new();
    let timed = timed_session(dir, &spec, trace_dir, expected, &mut daemons);
    stop_daemons(daemons);
    let (computes, hits) = timed?;
    Ok(vec![
        ("server.compute_req_p50_ms", Json::Num(median(computes))),
        ("server.hit_req_p50_ms", Json::Num(median(hits))),
    ])
}

/// The cold computes and the hits of [`served_session`], in ms; every
/// daemon started goes into `daemons`, so the caller stops it whatever
/// happens here.
fn timed_session(
    dir: &Path,
    spec: &JobSpec,
    trace_dir: Option<PathBuf>,
    expected: &str,
    daemons: &mut Vec<std::thread::JoinHandle<i32>>,
) -> io::Result<(Vec<f64>, Vec<f64>)> {
    let serve = |client: &mut Client| -> io::Result<f64> {
        let start = Instant::now();
        let served = submit(client, spec).map_err(other)?;
        let latency = ms(start.elapsed());
        if served != expected {
            return Err(other(
                "served matrix differs from the workload's matrix.json",
            ));
        }
        Ok(latency)
    };
    let mut computes = Vec::new();
    let mut client = None;
    for k in 0..COLD_COMPUTES {
        let (addr, handle) = start_daemon(dir.join(format!("layers-jobs-{k}")), trace_dir.clone())?;
        daemons.push(handle);
        computes.push(serve(client.insert(Client::connect(&addr.to_string())?))?);
    }
    let client = client.as_mut().expect("COLD_COMPUTES is at least 1");
    let hits = (0..HITS)
        .map(|_| serve(client))
        .collect::<io::Result<_>>()?;
    Ok((computes, hits))
}
