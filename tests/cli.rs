//! Integration tests for the `asc` command-line tool.

use std::process::Command;

fn asc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_asc"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("asc-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

const GUEST: &str = r#"
fn main() {
    write(1, "cli says hi\n", 12);
    return 0;
}
"#;

#[test]
fn compile_install_run_roundtrip() {
    let src = tmp("prog.scl");
    let plain = tmp("prog.sof");
    let auth = tmp("prog.asc.sof");
    std::fs::write(&src, GUEST).expect("write source");

    let out = asc()
        .args([
            "compile",
            src.to_str().unwrap(),
            "-o",
            plain.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = asc()
        .args([
            "install",
            plain.to_str().unwrap(),
            "-o",
            auth.to_str().unwrap(),
            "--key-seed",
            "77",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Enforced run with the right key.
    let out = asc()
        .args(["run", auth.to_str().unwrap(), "--key-seed", "77"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), "cli says hi\n");
    assert!(String::from_utf8_lossy(&out.stderr).contains("Exited(0)"));

    // Wrong key: fail-stop with an alert.
    let out = asc()
        .args(["run", auth.to_str().unwrap(), "--key-seed", "78"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("ALERT"));
}

/// `asc run` boots an installed binary with its `.ascsites` registry, so
/// a raw `SYSCALL` gadget the installer never rewrote dies on the origin
/// check before its write lands.
#[test]
fn run_enforces_the_origin_check() {
    use asc::crypto::MacKey;
    use asc::installer::{Installer, InstallerOptions};
    use asc::kernel::Personality;
    use asc::workloads::hostile::{build_hostile, hostile};

    let spec = hostile("gadget").expect("gadget in the corpus");
    let plain = build_hostile(spec).expect("gadget assembles");
    let installer = Installer::new(
        MacKey::from_seed(91),
        InstallerOptions::new(Personality::Linux),
    );
    let (auth, _) = installer
        .install(&plain, spec.name)
        .expect("gadget installs");
    let path = tmp("gadget.asc.sof");
    std::fs::write(&path, auth.to_bytes()).expect("write binary");

    let out = asc()
        .args(["run", path.to_str().unwrap(), "--key-seed", "91"])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "the gadget must not exit cleanly");
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("pwned"),
        "the smuggled write landed"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unrewritten site"), "{stderr}");
}

#[test]
fn policy_and_disasm_outputs() {
    let src = tmp("p2.scl");
    let plain = tmp("p2.sof");
    std::fs::write(&src, GUEST).expect("write source");
    asc()
        .args([
            "compile",
            src.to_str().unwrap(),
            "-o",
            plain.to_str().unwrap(),
        ])
        .status()
        .expect("runs");

    let out = asc()
        .args(["policy", plain.to_str().unwrap()])
        .output()
        .expect("runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("distinct syscalls"), "{text}");
    assert!(text.contains("write"), "{text}");

    let out = asc()
        .args(["policy", plain.to_str().unwrap(), "--json"])
        .output()
        .expect("runs");
    let json = asc::core::json::Value::parse(&String::from_utf8_lossy(&out.stdout))
        .expect("valid JSON policy");
    assert!(json.get("policies").is_some());

    let out = asc()
        .args(["disasm", plain.to_str().unwrap()])
        .output()
        .expect("runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("_start:"), "{text}");
    assert!(text.contains("<== syscall"), "{text}");
}

#[test]
fn unknown_command_shows_usage() {
    let out = asc().args(["frobnicate"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn stdin_flag_feeds_the_guest() {
    let src = tmp("echo.scl");
    let plain = tmp("echo.sof");
    let input = tmp("input.txt");
    std::fs::write(
        &src,
        r#"
        fn main() {
            var buf[32];
            let n = read(0, buf, 32);
            write(1, buf, n);
            return 0;
        }
    "#,
    )
    .expect("write");
    std::fs::write(&input, b"piped input").expect("write");
    asc()
        .args([
            "compile",
            src.to_str().unwrap(),
            "-o",
            plain.to_str().unwrap(),
        ])
        .status()
        .expect("runs");
    let out = asc()
        .args([
            "run",
            plain.to_str().unwrap(),
            "--stdin",
            input.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "piped input");
}
