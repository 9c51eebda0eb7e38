//! Differential test of path resolution: `FileSystem::resolve`,
//! `resolve_nofollow` and `normalize` against a reference resolver that
//! splits the path into owned components and rebuilds the canonical name
//! at every step (the resolver the kernel shipped before its single
//! allocation-free walk), on seeded random trees of directories, files,
//! hard links, absolute and relative symlinks, loops, and link chains and
//! nests around the nesting bound. Both must reach the same inode or fail
//! with the same error, and name the same canonical path. A few fixed
//! `open` cases pin how the kernel tells its devices apart.

use asc_asm::assemble;
use asc_kernel::{FileSystem, FsError, InodeId, InodeKind, Kernel, KernelOptions, Personality};
use asc_testkit::Rng;
use asc_vm::{Machine, RunOutcome};

/// The reference resolver's symlink nesting bound.
const MAX_LINK_DEPTH: usize = 8;

fn components<'p>(path: &'p str, cwd: &'p str) -> Vec<&'p str> {
    let joined: Vec<&str> = if path.starts_with('/') {
        path.split('/').collect()
    } else {
        cwd.split('/').chain(path.split('/')).collect()
    };
    joined.into_iter().filter(|c| !c.is_empty()).collect()
}

fn lookup(fs: &FileSystem, dir: InodeId, name: &str) -> Result<InodeId, FsError> {
    let InodeKind::Dir(entries) = &fs.inode(dir).kind else {
        return Err(FsError::NotADirectory);
    };
    entries.get(name).copied().ok_or(FsError::NotFound)
}

/// The reference: resolves `path` to its inode and canonical name.
fn reference(
    fs: &FileSystem,
    path: &str,
    cwd: &str,
    follow_last: bool,
    depth: usize,
) -> Result<(InodeId, String), FsError> {
    if depth > MAX_LINK_DEPTH {
        return Err(FsError::TooManyLinks);
    }
    let comps = components(path, cwd);
    let mut cur = fs.root();
    let mut canon: Vec<String> = Vec::new();
    let n = comps.len();
    for (i, comp) in comps.iter().enumerate() {
        match *comp {
            "." => continue,
            ".." => {
                canon.pop();
                cur = fs.root();
                for c in &canon {
                    cur = lookup(fs, cur, c)?;
                }
            }
            name => {
                let next = lookup(fs, cur, name)?;
                let is_last = i == n - 1;
                if let InodeKind::Symlink(target) = &fs.inode(next).kind {
                    if !is_last || follow_last {
                        let base = format!("/{}", canon.join("/"));
                        let (id, c) = reference(fs, target, &base, follow_last, depth + 1)?;
                        if is_last {
                            return Ok((id, c));
                        }
                        let rest = comps[i + 1..].join("/");
                        return reference(fs, &rest, &c, follow_last, depth + 1);
                    }
                }
                canon.push(name.to_string());
                cur = next;
            }
        }
    }
    Ok((cur, format!("/{}", canon.join("/"))))
}

/// Checks all three resolvers against the reference on one query.
fn agree(fs: &FileSystem, path: &str, cwd: &str) {
    let follow = reference(fs, path, cwd, true, 0);
    let nofollow = reference(fs, path, cwd, false, 0);
    let ctx = || format!("path {path:?} cwd {cwd:?}");
    assert_eq!(
        fs.resolve(path, cwd),
        follow.as_ref().map(|r| r.0).map_err(|e| *e),
        "resolve, {}",
        ctx()
    );
    assert_eq!(
        fs.resolve_nofollow(path, cwd),
        nofollow.map(|r| r.0),
        "resolve_nofollow, {}",
        ctx()
    );
    assert_eq!(
        fs.normalize(path, cwd),
        follow.map(|r| r.1),
        "normalize, {}",
        ctx()
    );
}

/// Names the random trees and queries draw from: a symlink named `p` or
/// `q` links to `.` or `..`, and `k0` and `k1` begin link chains.
const NAMES: [&str; 8] = ["a", "b", "c", "p", "q", "k0", "k1", "motd"];

fn random_rel(rng: &mut Rng, max_comps: usize) -> String {
    let comps: Vec<&str> = (0..rng.range_usize(0, max_comps + 1))
        .map(|_| match rng.range_u32(0, 10) {
            0 => ".",
            1 | 2 => "..",
            3 => "",
            _ => *rng.pick(&NAMES),
        })
        .collect();
    comps.join("/")
}

/// A query path: a known path or a random one, with dots, `..` past the
/// root, empty components and trailing slashes mixed in.
fn random_path(rng: &mut Rng, known: &[String]) -> String {
    let mut path = match rng.range_u32(0, 4) {
        0 => random_rel(rng, 6),
        1 => format!("/{}", random_rel(rng, 6)),
        _ => rng.pick(known).clone(),
    };
    for _ in 0..rng.range_usize(0, 4) {
        let tail = match rng.range_u32(0, 8) {
            0 => ".".to_string(),
            1 => "..".to_string(),
            2 => String::new(),
            3 => "p/p/p".to_string(),
            4 => "/..".repeat(rng.range_usize(1, 6))[1..].to_string(),
            _ => random_rel(rng, 3),
        };
        path = format!("{path}/{tail}");
    }
    if rng.chance(1, 8) {
        path = path.replace('/', "//");
    }
    path
}

/// A seeded random tree, built through the public mutators so that every
/// bookkeeping structure the resolver relies on is kept by the real code.
/// Returns the paths it created (some stale after renames and removals)
/// and canonical cwds taken along the way.
fn random_tree(rng: &mut Rng) -> (FileSystem, Vec<String>, Vec<String>) {
    let mut fs = FileSystem::new();
    let mut known: Vec<String> = ["/", "/tmp", "/etc", "/etc/motd", "/dev/null", "/home"]
        .map(String::from)
        .to_vec();
    let mut cwds = vec!["/".to_string()];
    for _ in 0..rng.range_usize(10, 60) {
        let parent = rng.pick(&known).clone();
        let name = *rng.pick(&NAMES);
        let path = format!("{}/{name}", parent.trim_end_matches('/'));
        let made = match rng.range_u32(0, 12) {
            0..=2 => fs.mkdir(&path, 0o755).is_ok(),
            3 => fs.write_file(&path, rng.bytes(0, 4)).is_ok(),
            4 => fs.link(&rng.pick(&known).clone(), &path, "/").is_ok(),
            5..=7 => {
                let target = match (name, rng.range_u32(0, 4)) {
                    ("p", _) => ".".to_string(),
                    ("q", _) => "..".to_string(),
                    (_, 0) => rng.pick(&known).clone(),
                    (_, 1) => path.clone(), // a loop
                    (_, 2) => random_path(rng, &known),
                    _ => random_rel(rng, 3),
                };
                fs.symlink(&target, &path, "/").is_ok()
            }
            8 => fs.rename(&rng.pick(&known).clone(), &path, "/").is_ok(),
            9 => {
                let victim = rng.pick(&known).clone();
                let _ = fs.unlink(&victim, "/");
                let _ = fs.rmdir(&victim, "/");
                false
            }
            _ => {
                // A chain `k0 -> k1 -> ... -> kn -> target` of absolute or
                // relative links, n around the nesting bound.
                let dir = format!("/tmp/{}", rng.lowercase(3, 4));
                let n = rng.range_usize(MAX_LINK_DEPTH - 3, MAX_LINK_DEPTH + 4);
                let relative = rng.chance(1, 2);
                let _ = fs.mkdir(&dir, 0o755);
                for i in 0..n {
                    let next = if relative {
                        format!("k{}", i + 1)
                    } else {
                        format!("{dir}/k{}", i + 1)
                    };
                    let _ = fs.symlink(&next, &format!("{dir}/k{i}"), "/");
                }
                let end = rng.pick(&known).clone();
                let _ = fs.symlink(&end, &format!("{dir}/k{n}"), "/");
                known.push(format!("{dir}/k0"));
                known.push(dir.clone());
                false
            }
        };
        if made {
            known.push(path);
        }
        if rng.chance(1, 6) {
            let dir = rng.pick(&known).clone();
            if let Ok((id, canon)) = reference(&fs, &dir, "/", true, 0) {
                if matches!(fs.inode(id).kind, InodeKind::Dir(_)) {
                    cwds.push(canon);
                }
            }
        }
    }
    (fs, known, cwds)
}

#[test]
fn walk_agrees_with_the_reference_resolver() {
    asc_testkit::check(0x5a1c_0de5, 300, |rng| {
        let (fs, known, cwds) = random_tree(rng);
        for _ in 0..120 {
            let path = random_path(rng, &known);
            let cwd = rng.pick(&cwds).clone();
            agree(&fs, &path, &cwd);
        }
    });
}

#[test]
fn files_followed_by_dots_and_roots_climbed_past() {
    let fs = FileSystem::new();
    let motd = fs.resolve("/etc/motd", "/").unwrap();
    assert_eq!(fs.resolve("/etc/motd/.", "/"), Ok(motd));
    assert_eq!(fs.normalize("/etc/motd/..", "/").unwrap(), "/etc");
    assert_eq!(
        fs.normalize("../../etc//motd/", "/tmp").unwrap(),
        "/etc/motd"
    );
    assert_eq!(fs.resolve("/etc/motd/x", "/"), Err(FsError::NotADirectory));
    for (path, cwd) in [
        ("/etc/motd/.", "/"),
        ("/etc/motd/..", "/"),
        ("..", "/"),
        ("/../..//./tmp/", "/etc"),
        ("", "/etc"),
        ("motd/../passwd", "/etc"),
    ] {
        agree(&fs, path, cwd);
    }
}

#[test]
fn link_nesting_is_bounded_but_sequential_links_resume_one_level_down() {
    // An eight-link chain, then seven links to `.` in sequence: 15 links
    // resolve, and one more in sequence is too many.
    let mut fs = FileSystem::new();
    fs.mkdir("/c", 0o755).unwrap();
    for i in 0..8 {
        let next = if i == 7 {
            "/tmp".to_string()
        } else {
            format!("/c/l{}", i + 1)
        };
        fs.symlink(&next, &format!("/c/l{i}"), "/").unwrap();
    }
    fs.symlink(".", "/tmp/p", "/").unwrap();
    let tmp = fs.resolve("/tmp", "/").unwrap();
    let seven = format!("/c/l0{}", "/p".repeat(7));
    assert_eq!(fs.resolve(&seven, "/"), Ok(tmp));
    assert_eq!(
        fs.resolve(&format!("{seven}/p"), "/"),
        Err(FsError::TooManyLinks)
    );
    // A nine-link chain is too deep by itself.
    fs.symlink("/c/l0", "/c/l9", "/").unwrap();
    assert_eq!(fs.resolve("/c/l9", "/"), Err(FsError::TooManyLinks));
    for path in [&seven, &format!("{seven}/p"), "/c/l9", "/c/l0", "/c/l1/p/p"] {
        agree(&fs, path, "/");
    }
}

#[test]
fn dotdot_climbs_out_of_a_renamed_directory() {
    let mut fs = FileSystem::new();
    fs.mkdir("/a", 0o755).unwrap();
    fs.mkdir("/a/b", 0o755).unwrap();
    fs.mkdir("/a/b/c", 0o755).unwrap();
    fs.rename("/a/b", "/tmp/b", "/").unwrap();
    assert_eq!(fs.normalize("/tmp/b/c/..", "/").unwrap(), "/tmp/b");
    assert_eq!(fs.normalize("../..", "/tmp/b/c").unwrap(), "/tmp");
    // Renamed into its own subtree, `/a` is unreachable.
    fs.mkdir("/a/c", 0o755).unwrap();
    fs.rename("/a", "/a/c/a", "/").unwrap();
    assert_eq!(fs.resolve("/a", "/"), Err(FsError::NotFound));
    agree(&fs, "/tmp/b/c/../../b/c/..", "/");
}

/// Runs a plain Linux guest whose `main` body is `body` and whose rodata
/// is `data`, on a kernel prepared by `prep`; it exits with `r1`.
fn run_guest(body: &str, data: &str, prep: impl FnOnce(&mut Kernel)) -> (RunOutcome, Kernel) {
    let src = format!(
        "
        .text
        .entry main
    main:
        {body}
        movi r0, 1
        syscall
        .rodata
        {data}
    "
    );
    let binary = assemble(&src).expect("assembles");
    let mut kernel = Kernel::new(KernelOptions::plain(Personality::Linux));
    kernel.set_brk(binary.highest_addr());
    prep(&mut kernel);
    let mut machine = Machine::load(&binary, kernel).expect("loads");
    let outcome = machine.run(1_000_000);
    (outcome, machine.into_handler())
}

/// Opens `path` write-only and writes `xyz` to it; returns the write's
/// result and what the inode of `/dev/null` then holds.
fn write_through(path: &str, prep: impl FnOnce(&mut Kernel)) -> (RunOutcome, Vec<u8>) {
    let body = "
        movi r0, 5
        movi r1, path
        movi r2, 1
        movi r3, 0
        syscall
        mov r1, r0
        movi r0, 4
        movi r2, msg
        movi r3, 3
        syscall
        mov r1, r0
    ";
    let data = format!("path: .asciz \"{path}\"\n    msg: .ascii \"xyz\"");
    let (outcome, kernel) = run_guest(body, &data, prep);
    (
        outcome,
        kernel.fs().read_file("/dev/null").unwrap().to_vec(),
    )
}

#[test]
fn open_tells_devices_by_their_canonical_entry() {
    // The null device swallows the bytes, however its name is spelled.
    for path in ["/dev/null", "/dev/null/.", "/tmp/dn", "/dev/../dev//null"] {
        let (outcome, null) = write_through(path, |k| {
            k.fs_mut().symlink("/dev/null", "/tmp/dn", "/").unwrap();
        });
        assert_eq!(outcome, RunOutcome::Exited(3), "{path}");
        assert!(null.is_empty(), "{path} opened the null device");
    }
    // A hard link elsewhere names the same inode, but not the device,
    // even under the device's name.
    let (outcome, null) = write_through("/tmp/null", |k| {
        k.fs_mut().link("/dev/null", "/tmp/null", "/").unwrap();
    });
    assert_eq!(outcome, RunOutcome::Exited(3));
    assert_eq!(null, b"xyz", "a hard link opens the regular file");
}

#[test]
fn a_cwd_renamed_away_keeps_failing_relative_lookups() {
    let body = "
        movi r0, 12            ; chdir(\"/tmp/d\")
        movi r1, dir
        syscall
        movi r0, 38            ; rename(\"/tmp/d\", \"/tmp/e\")
        movi r1, dir
        movi r2, moved
        syscall
        movi r0, 5             ; open(\"f\", O_RDONLY)
        movi r1, rel
        movi r2, 0
        movi r3, 0
        syscall
        mov r1, r0
    ";
    let data = "dir: .asciz \"/tmp/d\"
    moved: .asciz \"/tmp/e\"
    rel: .asciz \"f\"";
    let (outcome, kernel) = run_guest(body, data, |k| {
        k.fs_mut().mkdir("/tmp/d", 0o755).unwrap();
        k.fs_mut().write_file("/tmp/d/f", b"f".to_vec()).unwrap();
    });
    assert_eq!(outcome, RunOutcome::Exited(FsError::NotFound.errno()));
    assert_eq!(kernel.cwd(), "/tmp/d");
    assert_eq!(kernel.fs().read_file("/tmp/e/f").unwrap(), b"f");
}
