//! One repetition of a host-clock workload of the ASC reproduction.
//!
//! ```text
//! hostbench <spec-cpu|syscall-cold|fleet-warm> <seed> <trace 0|1>
//! ```
//!
//! A repetition sets up (builds, installs, runs the unauthenticated
//! references), runs the workload's enforcing jobs once, and prints one
//! JSON object on stdout with the work counters and the host time of each
//! set-up and phase segment. With trace 1 the jobs run under the
//! host-clock probes and the object also carries the per-layer numbers. `run.py` starts every repetition in a
//! fresh process, so each starts from the same heap, and aggregates them;
//! see `README.md` for the workloads and metrics.

mod gen;
mod harness;

use std::fmt::Write;

use asc_crypto::MacKey;
use asc_kernel::{FileSystem, Kernel, VerifyTier};
use harness::{Enforce, Fleet, Phase, Setup, Source, Timed};

/// The installation key every workload uses.
fn key() -> MacKey {
    MacKey::from_seed(0x0DD5_EED5)
}

/// Enforcing jobs per `syscall-cold` repetition.
const COLD_JOBS: usize = 3;

/// The `fleet-warm` fleet.
const FLEET: Fleet = Fleet {
    procs: 64,
    slice_instrs: 10_000,
    batch_depth: 16,
};

/// Guest processes one `fleet-warm` repetition runs.
const FLEET_PROCESSES: usize = 192;

struct Workload {
    enforce: Enforce,
    sources: Vec<Source>,
    /// Jobs of a solo workload (indices into the programs); empty for the
    /// fleet.
    jobs: Vec<usize>,
}

fn generated(programs: Vec<gen::GuestProgram>, first_id: u16) -> Vec<Source> {
    programs
        .into_iter()
        .zip(first_id..)
        .map(|(p, program_id)| {
            let mut fs = FileSystem::new();
            for (path, contents) in p.files {
                fs.write_file(&path, contents)
                    .expect("fixture path is valid");
            }
            Source {
                name: p.name,
                source: p.source,
                fs,
                stdin: Vec::new(),
                program_id,
            }
        })
        .collect()
}

fn workload(name: &str, seed: u64) -> Option<Workload> {
    Some(match name {
        "spec-cpu" => {
            let sources: Vec<Source> = asc_workloads::programs()
                .iter()
                .filter(|p| p.perf_experiment)
                .zip(100u16..)
                .map(|(spec, program_id)| {
                    let mut fs = FileSystem::new();
                    (spec.setup_fs)(&mut fs);
                    Source {
                        name: spec.name.to_string(),
                        source: spec.source.to_string(),
                        fs,
                        stdin: spec.stdin.to_vec(),
                        program_id,
                    }
                })
                .collect();
            Workload {
                enforce: Enforce {
                    tier: VerifyTier::Mac,
                    cache: false,
                },
                jobs: (0..sources.len()).collect(),
                sources,
            }
        }
        "syscall-cold" => Workload {
            enforce: Enforce {
                tier: VerifyTier::Mac,
                cache: true,
            },
            sources: generated(vec![gen::syscall_cold(seed)], 300),
            jobs: vec![0; COLD_JOBS],
        },
        "fleet-warm" => Workload {
            enforce: Enforce {
                tier: VerifyTier::MacPlusFlow,
                cache: true,
            },
            sources: generated(gen::fleet_programs(seed), 400),
            jobs: Vec::new(),
        },
        _ => return None,
    })
}

fn run_phase(w: &Workload, setup: &Setup, seed: u64, key: &MacKey, traced: bool) -> Phase {
    if w.jobs.is_empty() {
        let assignment = gen::fleet_assignment(seed, FLEET_PROCESSES);
        harness::fleet_phase(
            &setup.programs,
            &assignment,
            &FLEET,
            seed,
            key,
            w.enforce,
            traced,
        )
    } else if traced {
        harness::solo_phase::<Timed>(&setup.programs, &w.jobs, key, w.enforce)
    } else {
        harness::solo_phase::<Kernel>(&setup.programs, &w.jobs, key, w.enforce)
    }
}

/// The `q`-quantile of `values` (nearest rank; 0 when empty).
fn quantile(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of one traced repetition, in `BENCHMARK.json` order.
fn layers(setup: &Setup, traced: &Phase, ns_per_block: f64) -> Vec<(&'static str, f64)> {
    let w = &traced.work;
    let solo = traced.slice_ns.is_empty();
    // Solo jobs: run time minus the handler's share. The fleet cannot wrap
    // its traps, so there the slices' time (traps included) is used.
    let vm_ns = if solo {
        traced.run_ns as f64 - traced.traps.total_ns as f64
    } else {
        traced.slice_ns.iter().sum::<u64>() as f64
    };
    let added = if traced.traps.ns.is_empty() {
        0.0
    } else {
        traced.traps.mean_ns() - setup.ref_traps.mean_ns()
    };
    let cache = &w.cache;
    vec![
        ("vm.ns_per_instr", ratio(vm_ns, w.instret as f64)),
        ("vm.load_us_p50", quantile(&traced.load_ns, 0.50) / 1e3),
        ("vm.load_us_p99", quantile(&traced.load_ns, 0.99) / 1e3),
        ("kernel.traps", w.syscalls as f64),
        ("kernel.trap_ns_p50", quantile(&traced.traps.ns, 0.50)),
        ("kernel.trap_ns_p99", quantile(&traced.traps.ns, 0.99)),
        (
            "kernel.trap_share",
            ratio(traced.traps.total_ns as f64, traced.run_ns as f64),
        ),
        ("verify.verified", w.verified as f64),
        ("verify.added_ns_per_call", added),
        (
            "verify.vc_per_call",
            ratio(w.verify_cycles as f64, w.verified as f64),
        ),
        ("crypto.aes_blocks", w.aes_blocks as f64),
        (
            "crypto.blocks_per_verified",
            ratio(w.aes_blocks as f64, w.verified as f64),
        ),
        ("crypto.ns_per_block", ns_per_block),
        (
            "cache.hit_ratio",
            ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
        ),
        ("cache.evictions", cache.evictions as f64),
        ("cache.stale_misses", cache.stale_misses as f64),
        ("cache.scrubs", cache.scrubs as f64),
        (
            "cache.probes_per_verified",
            ratio(w.probes as f64, w.verified as f64),
        ),
        ("sched.slices", traced.slice_ns.len() as f64),
        ("sched.slice_us_p50", quantile(&traced.slice_ns, 0.50) / 1e3),
        ("sched.slice_us_p99", quantile(&traced.slice_ns, 0.99) / 1e3),
        ("sched.batch_fill", traced.batch_fill),
        ("installer.install_ms", setup.install_ns as f64 / 1e6),
        ("installer.sites", setup.sites as f64),
        (
            "installer.rewrite_rate",
            ratio(setup.sites as f64, setup.discovered as f64),
        ),
        ("build.ms", setup.build_ns as f64 / 1e6),
    ]
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: hostbench <spec-cpu|syscall-cold|fleet-warm> <seed> <trace 0|1>";
    let [name, seed, trace] = args.as_slice() else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let (Ok(seed), Some(traced)) = (
        seed.parse::<u64>(),
        match trace.as_str() {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        },
    ) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let Some(mut w) = workload(name, seed) else {
        eprintln!("unknown workload `{name}`\n{usage}");
        std::process::exit(2);
    };
    let key = key();

    let setup = harness::setup(std::mem::take(&mut w.sources), &key, w.enforce, traced);
    let phase = run_phase(&w, &setup, seed, &key, traced);
    let peak_rss_mb = harness::peak_rss_mb();

    let mut out = String::new();
    let work = &phase.work;
    let _ = write!(
        out,
        "{{\"workload\": \"{name}\", \"seed\": {seed}, \"trace\": {}, \"jobs\": {}, \
         \"failed\": {}, \"instret\": {}, \"verified\": {}, \"peak_rss_mb\": {}, \
         \"ref_cycles\": {}, \"enf_cycles\": {}, \"fingerprint\": \"{:016x}\"",
        u8::from(traced),
        phase.jobs,
        phase.failed,
        work.instret,
        work.verified,
        num(peak_rss_mb),
        work.ref_cycles,
        work.cycles,
        harness::fnv(setup.binary_fnv, format!("{work:?}").as_bytes()),
    );
    let segments = |name: &str, ns: &[u64]| {
        let list: Vec<String> = ns.iter().map(u64::to_string).collect();
        format!(", \"{name}\": [{}]", list.join(", "))
    };
    out.push_str(&segments("setup_segments_ns", &setup.segment_ns));
    out.push_str(&segments("phase_segments_ns", &phase.segment_ns));
    if traced {
        let ns_per_block = harness::ns_per_block(&setup.programs, &key, w.enforce);
        out.push_str(", \"layers\": {");
        for (i, (metric, value)) in layers(&setup, &phase, ns_per_block).into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{metric}\": {}", num(value));
        }
        out.push('}');
    }
    out.push('}');
    println!("{out}");
}
