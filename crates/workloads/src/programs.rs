//! The workload registry.

use asc_kernel::FileSystem;

/// CPU-vs-syscall balance, as Table 5 classifies the benchmark suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgramKind {
    /// CPU-bound (SPECint-style).
    Cpu,
    /// System-call intensive.
    Syscall,
    /// Both.
    Mixed,
}

/// A registered guest program.
pub struct ProgramSpec {
    /// Name (matches the paper's tables).
    pub name: &'static str,
    /// Table 5-style description.
    pub description: &'static str,
    /// Classification.
    pub kind: ProgramKind,
    /// Guest-language source.
    pub source: &'static str,
    /// Standard input for the canonical (training) run.
    pub stdin: &'static [u8],
    /// Installs fixture files the program reads.
    pub setup_fs: fn(&mut FileSystem),
    /// Whether this program belongs to the policy experiments (Tables
    /// 1–3) — those must build on both personalities.
    pub policy_experiment: bool,
    /// Whether this program belongs to the performance suite (Tables
    /// 5–6).
    pub perf_experiment: bool,
}

impl ProgramSpec {
    /// A fresh filesystem holding the fixture files the program reads.
    pub fn fs(&self) -> FileSystem {
        let mut fs = FileSystem::new();
        (self.setup_fs)(&mut fs);
        fs
    }
}

impl std::fmt::Debug for ProgramSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramSpec")
            .field("name", &self.name)
            .finish()
    }
}

fn setup_grammar(fs: &mut FileSystem) {
    fs.write_file(
        "/home/grammar.y",
        b"expr: expr PLUS term;\nexpr: term;\nterm: term STAR factor;\n\
          term: factor;\nfactor: LPAREN expr RPAREN;\nfactor: NUM;\n"
            .to_vec(),
    )
    .expect("fixture");
}

fn setup_calc(fs: &mut FileSystem) {
    fs.write_file("/home/calcrc", b"scale=4\n".to_vec())
        .expect("fixture");
}

fn setup_screen(fs: &mut FileSystem) {
    fs.write_file("/home/screenrc", b"hardstatus on\nvbell off\n".to_vec())
        .expect("fixture");
    fs.write_file("/dev/tty", Vec::new()).expect("fixture");
}

fn setup_tar(fs: &mut FileSystem) {
    fs.mkdir("/home/src", 0o755).expect("fixture");
    fs.write_file("/home/src/a.txt", b"alpha file contents\n".to_vec())
        .expect("fixture");
    fs.write_file("/home/src/b.txt", b"bravo file, a little longer\n".to_vec())
        .expect("fixture");
    fs.write_file("/home/src/c.txt", vec![b'x'; 300])
        .expect("fixture");
}

fn setup_file_64k(fs: &mut FileSystem) {
    let mut data = Vec::with_capacity(1 << 16);
    let mut x: u32 = 0x1234_5678;
    for i in 0..(1 << 16) {
        x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
        // Compressible: runs of repeated bytes mixed with noise.
        data.push(if i % 61 < 44 {
            b'a' + ((i / 23) % 7) as u8
        } else {
            (x >> 16) as u8
        });
    }
    fs.write_file("/home/input.dat", data).expect("fixture");
}

fn setup_gcc(fs: &mut FileSystem) {
    let mut src = String::new();
    for i in 0..80 {
        src.push_str(&format!(
            "fn f{i}(a, b) {{ var t = a * {i} + b; return t ^ {i}; }}\n"
        ));
    }
    fs.write_file("/home/input.c", src.into_bytes())
        .expect("fixture");
}

fn setup_vortex(fs: &mut FileSystem) {
    fs.write_file("/home/db.dat", Vec::new()).expect("fixture");
}

fn setup_none(_fs: &mut FileSystem) {}

/// All registered programs.
pub fn programs() -> &'static [ProgramSpec] {
    &[
        ProgramSpec {
            name: "bison",
            description: "GNU Project parser generator (analogue)",
            kind: ProgramKind::Mixed,
            source: include_str!("../programs/bison.scl"),
            stdin: b"",
            setup_fs: setup_grammar,
            policy_experiment: true,
            perf_experiment: false,
        },
        ProgramSpec {
            name: "calc",
            description: "arbitrary-precision calculator (analogue)",
            kind: ProgramKind::Mixed,
            source: include_str!("../programs/calc.scl"),
            stdin: b"12345678 * 87654321\n999 + 1\n2 ^ 64\nquit\n",
            setup_fs: setup_calc,
            policy_experiment: true,
            perf_experiment: false,
        },
        ProgramSpec {
            name: "screen",
            description: "screen manager with terminal emulation (analogue)",
            kind: ProgramKind::Mixed,
            source: include_str!("../programs/screen.scl"),
            stdin: b"new\nlist\ndetach\n",
            setup_fs: setup_screen,
            policy_experiment: true,
            perf_experiment: false,
        },
        ProgramSpec {
            name: "tar",
            description: "Unix archiving program (analogue)",
            kind: ProgramKind::Syscall,
            source: include_str!("../programs/tar.scl"),
            stdin: b"",
            setup_fs: setup_tar,
            policy_experiment: true,
            perf_experiment: false,
        },
        ProgramSpec {
            name: "gzip-spec",
            description: "file compression program from SPEC INT 2000 benchmark",
            kind: ProgramKind::Cpu,
            source: include_str!("../programs/gzip_spec.scl"),
            stdin: b"",
            setup_fs: setup_none,
            policy_experiment: false,
            perf_experiment: true,
        },
        ProgramSpec {
            name: "crafty",
            description: "Game playing (Chess) program from SPEC INT 2000 benchmark",
            kind: ProgramKind::Cpu,
            source: include_str!("../programs/crafty.scl"),
            stdin: b"",
            setup_fs: setup_none,
            policy_experiment: false,
            perf_experiment: true,
        },
        ProgramSpec {
            name: "mcf",
            description: "combinatorial optimization program from SPEC INT 2000",
            kind: ProgramKind::Cpu,
            source: include_str!("../programs/mcf.scl"),
            stdin: b"",
            setup_fs: setup_none,
            policy_experiment: false,
            perf_experiment: true,
        },
        ProgramSpec {
            name: "vpr",
            description: "FPGA circuit and routing placement from SPEC INT 2000",
            kind: ProgramKind::Cpu,
            source: include_str!("../programs/vpr.scl"),
            stdin: b"",
            setup_fs: setup_none,
            policy_experiment: false,
            perf_experiment: true,
        },
        ProgramSpec {
            name: "twolf",
            description: "Place and route simulator from SPEC INT 2000",
            kind: ProgramKind::Cpu,
            source: include_str!("../programs/twolf.scl"),
            stdin: b"",
            setup_fs: setup_none,
            policy_experiment: false,
            perf_experiment: true,
        },
        ProgramSpec {
            name: "gcc",
            description: "Gnu C compiler from SPEC INT 2000",
            kind: ProgramKind::Mixed,
            source: include_str!("../programs/gcc.scl"),
            stdin: b"",
            setup_fs: setup_gcc,
            policy_experiment: false,
            perf_experiment: true,
        },
        ProgramSpec {
            name: "vortex",
            description: "Object oriented database from SPEC INT 2000",
            kind: ProgramKind::Mixed,
            source: include_str!("../programs/vortex.scl"),
            stdin: b"",
            setup_fs: setup_vortex,
            policy_experiment: false,
            perf_experiment: true,
        },
        ProgramSpec {
            name: "pyramid",
            description: "Multidimensional database index creation",
            kind: ProgramKind::Syscall,
            source: include_str!("../programs/pyramid.scl"),
            stdin: b"",
            setup_fs: setup_none,
            policy_experiment: false,
            perf_experiment: true,
        },
        ProgramSpec {
            name: "gzip",
            description: "file compression program",
            kind: ProgramKind::Syscall,
            source: include_str!("../programs/gzip.scl"),
            stdin: b"",
            setup_fs: setup_file_64k,
            policy_experiment: false,
            perf_experiment: true,
        },
        ProgramSpec {
            name: "victim",
            description: "vulnerable demo: reads a file name, runs /bin/ls on it",
            kind: ProgramKind::Syscall,
            source: include_str!("../programs/victim.scl"),
            stdin: b"/etc/motd\n",
            setup_fs: setup_none,
            policy_experiment: false,
            perf_experiment: false,
        },
    ]
}

/// Looks up a program by name.
pub fn program(name: &str) -> Option<&'static ProgramSpec> {
    programs().iter().find(|p| p.name == name)
}
