//! Negative-path loading of the installed policy sections.
//!
//! The `.ascflow` digraph and `.ascsites` registry are the only inputs
//! the enforcing kernel trusts from the binary itself, so their loaders
//! must never panic and never silently degrade: a missing section is a
//! structured [`ArtifactError`], a truncated or MAC-rejected one either
//! surfaces the parse error (`try_*`) or fails *closed* — the loader
//! hands the kernel an empty registry and every subsequent trap is an
//! `unrewritten-site` kill, not an unenforced run. The same holds for
//! the SOF layout a guest boots from: a section that reaches past 4 GiB
//! is a structured error, never an overflow.

use asc_installer::{Installer, InstallerOptions};
use asc_kernel::{FileSystem, KernelOptions, Personality, ReasonCode, SitesParseError};
use asc_object::{sections, Binary, Section, SectionFlags, SofError};
use asc_vm::{MemFault, RunOutcome};
use asc_workloads::{
    build, program, site_registry_for, try_flow_graph_of, try_sites_of, ArtifactError, Guest,
    ProgramSpec,
};

const PERSONALITY: Personality = Personality::Linux;

fn key() -> asc_crypto::MacKey {
    asc_crypto::MacKey::from_seed(0x0A57_1FAC)
}

fn installed() -> (&'static ProgramSpec, Binary) {
    let spec = program("calc").expect("registered");
    let plain = build(spec, PERSONALITY).expect("builds");
    let installer = Installer::new(
        key(),
        InstallerOptions::new(PERSONALITY).with_program_id(0x0A11),
    );
    let (auth, _) = installer.install(&plain, spec.name).expect("installs");
    (spec, auth)
}

/// A copy of `auth` with one section's data rewritten in place.
fn mutate(auth: &Binary, section: &str, f: impl FnOnce(&mut Vec<u8>)) -> Binary {
    let mut b = auth.clone();
    let idx = b.section_index(section).expect("section present") as usize;
    f(&mut b.sections_mut()[idx].data);
    b
}

/// A copy of `auth` with one section renamed out of existence (what a
/// section-stripping tool would leave behind).
fn strip(auth: &Binary, section: &str) -> Binary {
    let mut b = auth.clone();
    let idx = b.section_index(section).expect("section present") as usize;
    b.sections_mut()[idx].name = format!("{section}.stripped");
    b
}

#[test]
fn clean_artifacts_parse_and_only_under_the_install_key() {
    let (_, auth) = installed();
    let sites = try_sites_of(&auth, &key()).expect("authentic registry parses");
    assert!(!sites.is_empty());
    try_flow_graph_of(&auth, &key()).expect("authentic digraph parses");

    let wrong = asc_crypto::MacKey::from_seed(0x0A57_1FAD);
    assert_eq!(
        try_sites_of(&auth, &wrong),
        Err(ArtifactError::BadSites(SitesParseError::BadMac)),
        "a registry must not authenticate under a foreign key"
    );
    assert!(
        matches!(
            try_flow_graph_of(&auth, &wrong),
            Err(ArtifactError::BadFlow(_))
        ),
        "a digraph must not authenticate under a foreign key"
    );
}

#[test]
fn missing_sections_are_structured_errors_not_panics() {
    let (_, auth) = installed();

    let no_sites = strip(&auth, sections::ASCSITES);
    let err = try_sites_of(&no_sites, &key()).expect_err("missing section");
    assert_eq!(err, ArtifactError::Missing(sections::ASCSITES));
    assert!(err.to_string().contains(sections::ASCSITES), "{err}");
    // Pre-registry binaries keep the historical (unenforced) behaviour.
    assert_eq!(site_registry_for(&no_sites, &key()), None);

    let no_flow = strip(&auth, sections::ASCFLOW);
    let err = try_flow_graph_of(&no_flow, &key()).expect_err("missing section");
    assert_eq!(err, ArtifactError::Missing(sections::ASCFLOW));
    assert!(err.to_string().contains(sections::ASCFLOW), "{err}");

    // A bare binary that never saw the installer has neither.
    let bare = Binary::new(0);
    assert!(try_sites_of(&bare, &key()).is_err());
    assert!(try_flow_graph_of(&bare, &key()).is_err());
    assert_eq!(site_registry_for(&bare, &key()), None);
}

#[test]
fn truncated_sections_never_panic_and_fail_closed() {
    let (_, auth) = installed();
    let sites_len = auth
        .section_by_name(sections::ASCSITES)
        .expect("present")
        .data
        .len();
    for keep in [0usize, 1, 3, 7, sites_len - 1] {
        let cut = mutate(&auth, sections::ASCSITES, |d| d.truncate(keep));
        let err = try_sites_of(&cut, &key()).expect_err("truncated registry");
        assert!(
            matches!(err, ArtifactError::BadSites(SitesParseError::Truncated)),
            "keep={keep}: {err:?}"
        );
        // Fail closed: present-but-unparseable means an empty registry,
        // so origin enforcement stays on (and kills everything) rather
        // than being silently dropped.
        let registry = site_registry_for(&cut, &key()).expect("fail-closed registry");
        assert!(registry.is_empty(), "keep={keep}");
    }

    let flow_len = auth
        .section_by_name(sections::ASCFLOW)
        .expect("present")
        .data
        .len();
    for keep in [0usize, 2, flow_len / 2, flow_len - 1] {
        let cut = mutate(&auth, sections::ASCFLOW, |d| d.truncate(keep));
        assert!(
            matches!(
                try_flow_graph_of(&cut, &key()),
                Err(ArtifactError::BadFlow(_))
            ),
            "keep={keep}: truncated digraph must be a structured error"
        );
    }
}

#[test]
fn mac_tampered_registry_fails_closed_to_a_kill() {
    let (spec, auth) = installed();
    // Flip one byte in each interesting region: the count header, a pc,
    // and the trailing MAC itself. None may authenticate; all must leave
    // the program dead on its first trap with zero side effects.
    let sites_len = auth
        .section_by_name(sections::ASCSITES)
        .expect("present")
        .data
        .len();
    for flip in [0usize, 5, sites_len - 1] {
        let forged = mutate(&auth, sections::ASCSITES, |d| d[flip] ^= 1);
        let err = try_sites_of(&forged, &key()).expect_err("tampered registry");
        assert!(
            matches!(
                err,
                ArtifactError::BadSites(SitesParseError::BadMac)
                    | ArtifactError::BadSites(SitesParseError::Truncated)
            ),
            "flip={flip}: {err:?}"
        );
        let registry = site_registry_for(&forged, &key()).expect("fail-closed registry");
        assert!(registry.is_empty(), "flip={flip}");

        let run = Guest::installed(forged, &key()).run(spec, KernelOptions::enforcing(PERSONALITY));
        let (outcome, kernel) = (run.outcome, run.kernel);
        assert!(
            matches!(outcome, RunOutcome::Killed(_)),
            "flip={flip}: tampered registry must kill, got {outcome:?}"
        );
        let alert = kernel.alerts().last().expect("fail-stop kill alerts");
        assert_eq!(alert.reason(), ReasonCode::UnrewrittenSite, "{alert}");
        assert!(kernel.stdout().is_empty(), "flip={flip}: output escaped");
        assert!(kernel.trace().is_empty(), "flip={flip}: a call dispatched");
    }
}

#[test]
fn mac_tampered_flow_digraph_is_a_structured_error() {
    let (_, auth) = installed();
    let flow_len = auth
        .section_by_name(sections::ASCFLOW)
        .expect("present")
        .data
        .len();
    for flip in [0usize, 9, flow_len - 1] {
        let forged = mutate(&auth, sections::ASCFLOW, |d| d[flip] ^= 1);
        let err = try_flow_graph_of(&forged, &key()).expect_err("tampered digraph");
        assert!(
            matches!(err, ArtifactError::BadFlow(_)),
            "flip={flip}: {err:?}"
        );
        assert!(!err.to_string().is_empty());
    }
}

/// A section that reaches past 4 GiB overlaps any section after it, so
/// such a SOF is malformed rather than an overflow panic in `validate`.
#[test]
fn section_past_4_gib_followed_by_another_is_malformed() {
    let mut b = Binary::new(0xFFFF_F000);
    b.push_section(Section::zeroed(
        ".text",
        0xFFFF_F000,
        0x2000,
        SectionFlags::RX,
    ));
    b.push_section(Section::zeroed(".bss", 0xFFFF_F800, 0x10, SectionFlags::RW));
    assert!(matches!(
        Binary::from_bytes(&b.to_bytes()),
        Err(SofError::Malformed(_))
    ));
}

/// A lone section that reaches past 4 GiB parses, and booting it is a
/// structured out-of-range fault rather than an overflow panic.
#[test]
fn section_past_4_gib_boots_to_out_of_range() {
    let mut b = Binary::new(0xFFFF_F000);
    b.push_section(Section::zeroed(
        ".text",
        0xFFFF_F000,
        0x2000,
        SectionFlags::RX,
    ));
    let b = Binary::from_bytes(&b.to_bytes()).expect("a lone section parses");
    let booted = Guest::plain(b).boot(KernelOptions::plain(PERSONALITY), FileSystem::new(), &[]);
    assert_eq!(booted.err(), Some(MemFault::OutOfRange { addr: u32::MAX }));
}
