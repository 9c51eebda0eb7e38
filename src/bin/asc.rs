//! The `asc` command-line tool: compile guest programs, generate
//! policies, install authenticated system calls, inspect, and run
//! binaries on the simulated machine.
//!
//! ```sh
//! asc compile prog.scl -o prog.sof
//! asc policy prog.sof [--personality openbsd] [--json]
//! asc install prog.sof -o prog.asc.sof --key-seed 2005
//! asc disasm prog.asc.sof
//! asc run prog.asc.sof --enforce --key-seed 2005 [--stdin input.txt]
//! ```

use std::process::ExitCode;

use asc::crypto::MacKey;
use asc::installer::{Installer, InstallerOptions};
use asc::kernel::{FileSystem, KernelOptions, Personality};
use asc::object::Binary;
use asc::workloads::Guest;

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = match name {
                    // Flags that take a value.
                    "key-seed" | "personality" | "stdin" | "program-id" | "budget" => {
                        it.next().cloned()
                    }
                    _ => None,
                };
                flags.push((name.to_string(), value));
            } else if a == "-o" {
                flags.push(("output".to_string(), it.next().cloned()));
            } else {
                positional.push(a.clone());
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn personality(&self) -> Personality {
        match self.value("personality") {
            Some("openbsd") => Personality::OpenBsd,
            _ => Personality::Linux,
        }
    }

    fn key(&self) -> MacKey {
        let seed = self
            .value("key-seed")
            .and_then(|s| s.parse().ok())
            .unwrap_or(2005u64);
        MacKey::from_seed(seed)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  asc compile <prog.scl> -o <out.sof> [--personality linux|openbsd]
  asc policy  <prog.sof> [--personality linux|openbsd] [--json]
  asc install <prog.sof> -o <out.sof> [--key-seed N] [--program-id N]
              [--no-control-flow] [--capability-tracking]
  asc disasm  <prog.sof>
  asc run     <prog.sof> [--enforce] [--key-seed N] [--stdin FILE]
              [--personality linux|openbsd] [--budget CYCLES]"
    );
    ExitCode::from(2)
}

fn load_binary(path: &str) -> Result<Binary, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    Binary::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        return usage();
    };
    let args = Args::parse(&raw[1..]);
    match run_command(&cmd, &args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("asc: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_command(cmd: &str, args: &Args) -> Result<ExitCode, String> {
    match cmd {
        "compile" => {
            let src_path = args.positional.first().ok_or("missing source file")?;
            let out_path = args.value("output").ok_or("missing -o OUTPUT")?;
            let source =
                std::fs::read_to_string(src_path).map_err(|e| format!("{src_path}: {e}"))?;
            let binary = asc::workloads::build_source(&source, args.personality())
                .map_err(|e| e.to_string())?;
            std::fs::write(out_path, binary.to_bytes()).map_err(|e| e.to_string())?;
            println!(
                "compiled {src_path}: {} sections, {} relocations -> {out_path}",
                binary.sections().len(),
                binary.relocations().len()
            );
            Ok(ExitCode::SUCCESS)
        }
        "policy" => {
            let in_path = args.positional.first().ok_or("missing input binary")?;
            let binary = load_binary(in_path)?;
            let installer = Installer::new(args.key(), InstallerOptions::new(args.personality()));
            let (policy, stats, warnings) = installer
                .generate_policy(&binary, in_path)
                .map_err(|e| e.to_string())?;
            if args.flag("json") {
                println!("{}", policy.to_json());
            } else {
                println!(
                    "{} call sites, {} distinct syscalls, {}/{} arguments authenticated",
                    stats.sites,
                    policy.distinct_syscalls().len(),
                    stats.auth,
                    stats.args
                );
                for p in policy.iter() {
                    println!(
                        "  {:#08x}: {} block {} args {:?} preds {:?}",
                        p.call_site,
                        args.personality().name_of(p.syscall_nr),
                        p.block_id,
                        &p.args[..3],
                        p.predecessors
                    );
                }
                for w in warnings {
                    println!("warning: {w}");
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "install" => {
            let in_path = args.positional.first().ok_or("missing input binary")?;
            let out_path = args.value("output").ok_or("missing -o OUTPUT")?;
            let binary = load_binary(in_path)?;
            let mut opts = InstallerOptions::new(args.personality());
            if args.flag("no-control-flow") {
                opts = opts.without_control_flow();
            }
            if args.flag("capability-tracking") {
                opts = opts.with_capability_tracking();
            }
            if let Some(pid) = args.value("program-id").and_then(|s| s.parse().ok()) {
                opts = opts.with_program_id(pid);
            }
            let installer = Installer::new(args.key(), opts);
            let (auth, report) = installer
                .install(&binary, in_path)
                .map_err(|e| e.to_string())?;
            std::fs::write(out_path, auth.to_bytes()).map_err(|e| e.to_string())?;
            println!(
                "installed {in_path}: {} sites, {} distinct syscalls, {} warnings -> {out_path}",
                report.policy.sites(),
                report.stats.calls,
                report.warnings.len()
            );
            for w in &report.warnings {
                println!("warning: {w}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "disasm" => {
            let in_path = args.positional.first().ok_or("missing input binary")?;
            let binary = load_binary(in_path)?;
            print!("{}", asc::analysis::disassembly(&binary));
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let in_path = args.positional.first().ok_or("missing input binary")?;
            let binary = load_binary(in_path)?;
            let enforce = args.flag("enforce") || binary.is_authenticated();
            let (guest, opts) = if enforce {
                let opts = KernelOptions::enforcing(args.personality());
                (Guest::installed(binary, &args.key()), opts)
            } else {
                (
                    Guest::plain(binary),
                    KernelOptions::plain(args.personality()),
                )
            };
            let stdin = match args.value("stdin") {
                Some(path) => std::fs::read(path).map_err(|e| format!("{path}: {e}"))?,
                None => Vec::new(),
            };
            let mut machine = guest
                .boot(opts, FileSystem::new(), &stdin)
                .map_err(|e| e.to_string())?;
            let budget = args
                .value("budget")
                .and_then(|s| s.parse().ok())
                .unwrap_or(1_000_000_000u64);
            let outcome = machine.run(budget);
            let kernel = machine.handler();
            print!("{}", String::from_utf8_lossy(kernel.stdout()));
            eprint!("{}", String::from_utf8_lossy(kernel.stderr()));
            for alert in kernel.alerts() {
                eprintln!("{alert}");
            }
            eprintln!(
                "[{outcome:?}; {} syscalls, {} verified, {} cycles]",
                kernel.stats().syscalls,
                kernel.stats().verified,
                machine.cycles()
            );
            Ok(match outcome {
                asc::vm::RunOutcome::Exited(0) | asc::vm::RunOutcome::Halted => ExitCode::SUCCESS,
                _ => ExitCode::FAILURE,
            })
        }
        _ => Ok(usage()),
    }
}
