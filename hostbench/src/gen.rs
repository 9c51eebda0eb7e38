//! Seeded guest-program generator.
//!
//! Every generated program is guest-language source plus the fixture files
//! it reads. The source is a pure function of the seed, so the same seed
//! always compiles and installs to a byte-identical binary and runs for
//! identical virtual cycles.
//!
//! A program's loop body is a sequence of *units*, each one or more system
//! calls from the paper's Table 4: getpid, gettimeofday, brk, and
//! open/read/close on a path constant, which the installer turns into an
//! authenticated string. Every call is written out at its own source line,
//! and the installer inlines each libc stub, so every call is a distinct
//! call site with its own policy. Only `read` results reach the program's
//! output: getpid differs between fleet pids, and gettimeofday depends on
//! the virtual clock, which enforcement advances.
//!
//! The seed decides the order of the units, which file each open names,
//! the file names and contents, and each read's length. It does not decide
//! how many units of each kind there are, nor how long names and reads
//! are, so programs from different seeds do the same amount of work and a
//! seed changes the inputs without changing what a run measures.

use asc_testkit::Rng;

/// A generated guest program.
pub struct GuestProgram {
    /// Name (used as the installer's program name).
    pub name: String,
    /// Guest-language source.
    pub source: String,
    /// Fixture files `(path, contents)` the program opens.
    pub files: Vec<(String, Vec<u8>)>,
}

/// Distinct fixture files a program opens.
const FILES: usize = 8;

/// One loop-body unit.
#[derive(Clone, Copy)]
enum Unit {
    Getpid,
    Gettimeofday,
    Brk,
    /// `open`, `read`, `close`: three call sites.
    OpenReadClose,
}

/// The unit mix, repeated as often as the program's size asks: getpid 3,
/// gettimeofday 2, brk 1, open/read/close 2 (12 call sites).
const MIX: [Unit; 8] = [
    Unit::Getpid,
    Unit::Getpid,
    Unit::Getpid,
    Unit::Gettimeofday,
    Unit::Gettimeofday,
    Unit::Brk,
    Unit::OpenReadClose,
    Unit::OpenReadClose,
];

/// Shape of a generated program.
struct Shape {
    /// Repetitions of [`MIX`] in the loop body.
    mixes: usize,
    /// Units per body function.
    units_per_fn: usize,
    /// Loop iterations.
    iters: u32,
    /// Busy-loop iterations after every unit (0 for none).
    spin: u32,
}

fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range_usize(0, i + 1));
    }
}

fn generate(name: &str, seed: u64, shape: &Shape) -> GuestProgram {
    let mut rng = Rng::new(seed);
    let mut src = format!("// {name}: generated from seed {seed:#x}\n");
    src.push_str("global buf[64];\nglobal tv[4];\n");
    let mut files = Vec::with_capacity(FILES);
    for i in 0..FILES {
        let path = format!("/home/{}{i}", rng.lowercase(6, 7));
        src.push_str(&format!("str P{i} = \"{path}\";\n"));
        files.push((path, rng.bytes(64, 65)));
    }
    if shape.spin > 0 {
        src.push_str(
            "fn spin(x, n) {\n    var i = 0;\n    \
             while (i < n) { x = x * 1103515245 + 12345; i = i + 1; }\n    return x;\n}\n",
        );
    }

    let mut units: Vec<Unit> = (0..shape.mixes).flat_map(|_| MIX).collect();
    shuffle(&mut rng, &mut units);
    let chunks = units.chunks(shape.units_per_fn);
    let fns = chunks.len();
    for (f, chunk) in chunks.enumerate() {
        src.push_str(&format!("fn body{f}(acc) {{\n    var fd = 0;\n"));
        for unit in chunk {
            match unit {
                Unit::Getpid => src.push_str("    getpid();\n"),
                Unit::Gettimeofday => src.push_str("    gettimeofday(tv, 0);\n"),
                Unit::Brk => src.push_str("    brk(0);\n"),
                Unit::OpenReadClose => {
                    let file = rng.range_usize(0, FILES);
                    let len = rng.range_u32(8, 25);
                    src.push_str(&format!("    fd = open(P{file}, 0, 0);\n"));
                    src.push_str(&format!("    acc = acc + read(fd, buf, {len}) + buf[0];\n"));
                    src.push_str("    close(fd);\n");
                }
            }
            if shape.spin > 0 {
                src.push_str(&format!("    acc = spin(acc, {});\n", shape.spin));
            }
        }
        src.push_str("    return acc;\n}\n");
    }

    src.push_str("fn main() {\n    var acc = 0;\n    var i = 0;\n");
    src.push_str(&format!("    while (i < {}) {{\n", shape.iters));
    for f in 0..fns {
        src.push_str(&format!("        acc = body{f}(acc);\n"));
    }
    src.push_str("        i = i + 1;\n    }\n");
    src.push_str("    print_num(acc & 0xfffffff);\n    puts(\"\\n\");\n    return 0;\n}\n");
    GuestProgram {
        name: name.to_string(),
        source: src,
        files,
    }
}

/// The `syscall-cold` guest: 2004 distinct call sites, about twice the
/// verify cache's default capacity, visited in the same order on every
/// iteration so that no entry survives until its site comes round again.
pub fn syscall_cold(seed: u64) -> GuestProgram {
    generate(
        "syscall-cold",
        seed,
        &Shape {
            mixes: 167,
            units_per_fn: 32,
            iters: 60,
            spin: 0,
        },
    )
}

/// The `fleet-warm` guests, `(mixes, iterations)` each: small programs
/// whose call sites fit in one process's cache namespace many times over,
/// with a short busy loop after every call.
const FLEET_SHAPES: [(usize, u32); 4] = [(1, 120), (2, 60), (3, 40), (2, 60)];

/// Distinct programs the `fleet-warm` processes draw from.
pub const FLEET_PROGRAMS: usize = FLEET_SHAPES.len();

/// The `fleet-warm` guests (see [`FLEET_SHAPES`]).
pub fn fleet_programs(seed: u64) -> Vec<GuestProgram> {
    let mut rng = Rng::new(seed ^ 0xF1EE_7000);
    FLEET_SHAPES
        .iter()
        .enumerate()
        .map(|(i, &(mixes, iters))| {
            let shape = Shape {
                mixes,
                units_per_fn: 8,
                iters,
                spin: 8,
            };
            generate(&format!("fleet-{i}"), rng.next_u64(), &shape)
        })
        .collect()
}

/// Which program each of `total` fleet processes runs: every program
/// equally often (as near as `total` allows), in seeded order.
pub fn fleet_assignment(seed: u64, total: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..total).map(|i| i % FLEET_PROGRAMS).collect();
    shuffle(&mut Rng::new(seed ^ 0x5EED_F1EE), &mut order);
    order
}
