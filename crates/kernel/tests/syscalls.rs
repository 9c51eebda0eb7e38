//! Focused semantics tests for individual system calls, driven by small
//! assembly guests (the kernel is only reachable through the trap path).

use asc_asm::assemble;
use asc_kernel::{Kernel, KernelOptions, Personality, MAX_FILE_SIZE};
use asc_vm::{Machine, RunOutcome};

fn run_with(src: &str, stdin: &[u8], prep: impl FnOnce(&mut Kernel)) -> (RunOutcome, Kernel) {
    run_for(50_000_000, src, stdin, prep)
}

fn run_for(
    cycles: u64,
    src: &str,
    stdin: &[u8],
    prep: impl FnOnce(&mut Kernel),
) -> (RunOutcome, Kernel) {
    let binary = assemble(src).expect("assembles");
    let mut kernel = Kernel::new(KernelOptions::plain(Personality::Linux));
    kernel.set_stdin(stdin.to_vec());
    kernel.set_brk(binary.highest_addr());
    prep(&mut kernel);
    let mut machine = Machine::load(&binary, kernel).expect("loads");
    let outcome = machine.run(cycles);
    (outcome, machine.into_handler())
}

fn run(src: &str) -> (RunOutcome, Kernel) {
    run_with(src, b"", |_| {})
}

/// Exit with the value of an expression computed in r1.
fn exit_with(body: &str, extra_sections: &str) -> String {
    format!(
        "
        .text
        .entry main
    main:
        {body}
        movi r0, 1
        syscall
        {extra_sections}
    "
    )
}

#[test]
fn lseek_whence_modes() {
    // Write 10 bytes, then SEEK_SET 4 / SEEK_CUR +2 / SEEK_END -1.
    let src = exit_with(
        "
        movi r0, 5
        movi r1, path
        movi r2, 0x241
        movi r3, 0x1b6
        syscall
        mov r6, r0
        movi r0, 4
        mov r1, r6
        movi r2, data
        movi r3, 10
        syscall
        ; SEEK_SET 4
        movi r0, 19
        mov r1, r6
        movi r2, 4
        movi r3, 0
        syscall
        mov r4, r0            ; 4
        ; SEEK_CUR +2
        movi r0, 19
        mov r1, r6
        movi r2, 2
        movi r3, 1
        syscall
        shli r4, r4, 8
        or r4, r4, r0         ; 4<<8 | 6
        ; SEEK_END -1
        movi r0, 19
        mov r1, r6
        movi r2, 0xffffffff
        movi r3, 2
        syscall
        shli r4, r4, 8
        or r1, r4, r0         ; | 9
        ",
        "
        .rodata
    path: .asciz \"/tmp/f\"
    data: .ascii \"0123456789\"
    ",
    );
    let (outcome, _) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited((4 << 16) | (6 << 8) | 9));
}

#[test]
fn lseek_and_write_stop_at_the_file_size_bound() {
    // Seeks to the bound succeed and seeks one byte past it are EINVAL,
    // leaving the position; a write that would end past the bound is EFBIG
    // and leaves the file, and one that ends at the bound fills it.
    let max = MAX_FILE_SIZE;
    let body = format!(
        "
        movi r0, 5
        movi r1, path
        movi r2, 0x241
        movi r3, 0x1b6
        syscall
        mov r9, r0
        movi r0, 4
        mov r1, r9
        movi r2, data
        movi r3, 10
        syscall
        movi r0, 19            ; SEEK_SET bound + 1
        mov r1, r9
        movi r2, {past:#x}
        movi r3, 0
        syscall
        mov r6, r0
        movi r0, 19            ; SEEK_SET bound
        mov r1, r9
        movi r2, {max:#x}
        movi r3, 0
        syscall
        movi r0, 19            ; SEEK_CUR +1
        mov r1, r9
        movi r2, 1
        movi r3, 1
        syscall
        mov r7, r0
        movi r0, 4             ; write 1 byte at the bound
        mov r1, r9
        movi r2, data
        movi r3, 1
        syscall
        mov r8, r0
        movi r0, 19            ; SEEK_END + (bound - 11)
        mov r1, r9
        movi r2, {back:#x}
        movi r3, 2
        syscall
        movi r0, 4             ; write 1 byte ending at the bound
        mov r1, r9
        movi r2, data
        movi r3, 1
        syscall
        xori r10, r0, 1
        {check}
        or r1, r1, r10
        ",
        past = max + 1,
        back = max - 11,
        check = check_r6_r7_r8([EINVAL, EINVAL, EFBIG]),
    );
    let src = exit_with(
        &body,
        "
        .rodata
    path: .asciz \"/tmp/f\"
    data: .ascii \"0123456789\"
    ",
    );
    let (outcome, kernel) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited(0));
    let file = kernel.fs().read_file("/tmp/f").unwrap();
    assert_eq!(file.len(), max as usize);
    assert_eq!(&file[..10], b"0123456789");
    assert_eq!(file[max as usize - 1], b'0');
}

#[test]
fn dup2_redirects() {
    // dup2(fd, 7) then write via 7.
    let src = exit_with(
        "
        movi r0, 5
        movi r1, path
        movi r2, 0x241
        movi r3, 0x1b6
        syscall
        mov r6, r0
        movi r0, 63            ; dup2
        mov r1, r6
        movi r2, 7
        syscall
        movi r0, 4
        movi r1, 7
        movi r2, msg
        movi r3, 3
        syscall
        movi r1, 0
        ",
        "
        .rodata
    path: .asciz \"/tmp/d\"
    msg: .ascii \"abc\"
    ",
    );
    let (outcome, kernel) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited(0));
    assert_eq!(kernel.fs().read_file("/tmp/d").unwrap(), b"abc");
}

#[test]
fn writev_gathers() {
    let src = exit_with(
        "
        movi r12, iov
        movi r5, a
        stw [r12], r5
        movi r5, 3
        stw [r12+4], r5
        movi r5, b
        stw [r12+8], r5
        movi r5, 4
        stw [r12+12], r5
        movi r0, 146          ; writev(1, iov, 2)
        movi r1, 1
        mov r2, r12
        movi r3, 2
        syscall
        mov r1, r0            ; total bytes
        ",
        "
        .rodata
    a: .ascii \"one\"
    b: .ascii \"/two\"
        .bss
    iov: .space 16
    ",
    );
    let (outcome, kernel) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited(7));
    assert_eq!(kernel.stdout(), b"one/two");
}

/// `nr(fd, iov, count)` for `readv` (145) or `writev` (146), result in `rd`.
fn vector_io(rd: &str, nr: u32, fd: u32, iov: &str, count: u32) -> String {
    format!(
        "
        movi r0, {nr}
        movi r1, {fd}
        movi r2, {iov}
        movi r3, {count}
        syscall
        mov {rd}, r0
        "
    )
}

#[test]
fn iovec_array_at_the_top_of_memory_is_efault() {
    // The second word of the only iovec would lie past 4 GiB: EFAULT, not
    // an address overflow.
    for (nr, fd) in [(146, 1), (145, 0)] {
        let body = [
            vector_io("r6", nr, fd, "0xfffffffc", 1),
            vector_io("r7", nr, fd, "0xfffffff8", 2),
            "movi r8, 0".to_string(),
            check_r6_r7_r8([EFAULT, EFAULT, 0]),
        ]
        .concat();
        let (outcome, _) = run(&exit_with(&body, ""));
        assert_eq!(outcome, RunOutcome::Exited(0), "syscall {nr}");
    }
}

#[test]
fn more_than_iov_max_iovecs_is_einval() {
    // 1,025 zero-length iovecs are one too many; 1,024 transfer nothing.
    let body = [
        vector_io("r6", 146, 1, "iov", 1025),
        vector_io("r7", 145, 0, "iov", 1025),
        vector_io("r8", 146, 1, "iov", 1024),
        check_r6_r7_r8([EINVAL, EINVAL, 0]),
    ]
    .concat();
    let src = exit_with(&body, ".bss\n    iov: .space 8200");
    let (outcome, _) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited(0));
}

#[test]
fn read_past_the_end_of_a_file_returns_zero() {
    // Seek 16 bytes past the end of the 17-byte motd, then read.
    let src = exit_with(
        "
        movi r0, 5
        movi r1, path
        movi r2, 0
        movi r3, 0
        syscall
        mov r6, r0
        movi r0, 19            ; lseek(fd, 33, SEEK_SET)
        mov r1, r6
        movi r2, 33
        movi r3, 0
        syscall
        movi r0, 3             ; read(fd, buf, 8)
        mov r1, r6
        movi r2, buf
        movi r3, 8
        syscall
        mov r1, r0
        ",
        "
        .rodata
    path: .asciz \"/etc/motd\"
        .bss
    buf: .space 8
    ",
    );
    let (outcome, _) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited(0));
}

#[test]
fn pipe_roundtrip() {
    let src = exit_with(
        "
        movi r0, 42            ; pipe(fds)
        movi r1, fds
        syscall
        movi r12, fds
        ldw r4, [r12]          ; read end
        ldw r5, [r12+4]        ; write end
        movi r0, 4
        mov r1, r5
        movi r2, msg
        movi r3, 5
        syscall
        movi r0, 3
        mov r1, r4
        movi r2, buf
        movi r3, 16
        syscall
        mov r6, r0             ; bytes read
        movi r0, 4             ; echo to stdout
        movi r1, 1
        movi r2, buf
        mov r3, r6
        syscall
        mov r1, r6
        ",
        "
        .rodata
    msg: .ascii \"piped\"
        .bss
    fds: .space 8
    buf: .space 16
    ",
    );
    let (outcome, kernel) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited(5));
    assert_eq!(kernel.stdout(), b"piped");
}

#[test]
fn truncate_and_ftruncate() {
    let src = exit_with(
        "
        movi r0, 5
        movi r1, path
        movi r2, 0x241
        movi r3, 0x1b6
        syscall
        mov r6, r0
        movi r0, 4
        mov r1, r6
        movi r2, msg
        movi r3, 8
        syscall
        movi r0, 93            ; ftruncate(fd, 3)
        mov r1, r6
        movi r2, 3
        syscall
        movi r1, 0
        ",
        "
        .rodata
    path: .asciz \"/tmp/t\"
    msg: .ascii \"12345678\"
    ",
    );
    let (outcome, kernel) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited(0));
    assert_eq!(kernel.fs().read_file("/tmp/t").unwrap(), b"123");
}

#[test]
fn truncate_past_the_file_size_bound_is_efbig() {
    // One byte past the bound, by path and by descriptor: EFBIG, and the
    // file keeps its 8 bytes.
    let body = format!(
        "
        movi r0, 5
        movi r1, path
        movi r2, 0x241
        movi r3, 0x1b6
        syscall
        mov r9, r0
        movi r0, 4
        mov r1, r9
        movi r2, msg
        movi r3, 8
        syscall
        movi r0, 92            ; truncate(path, bound + 1)
        movi r1, path
        movi r2, {past:#x}
        syscall
        mov r6, r0
        movi r0, 93            ; ftruncate(fd, bound + 1)
        mov r1, r9
        movi r2, {past:#x}
        syscall
        mov r7, r0
        xori r6, r6, {efbig:#x}
        xori r7, r7, {efbig:#x}
        or r1, r6, r7
        ",
        past = MAX_FILE_SIZE + 1,
        efbig = EFBIG,
    );
    let src = exit_with(
        &body,
        "
        .rodata
    path: .asciz \"/tmp/t\"
    msg: .ascii \"12345678\"
    ",
    );
    let (outcome, kernel) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited(0));
    assert_eq!(kernel.fs().read_file("/tmp/t").unwrap(), b"12345678");
}

#[test]
fn readlink_returns_target() {
    let src = exit_with(
        "
        movi r0, 85
        movi r1, lnk
        movi r2, buf
        movi r3, 32
        syscall
        mov r6, r0
        movi r0, 4
        movi r1, 1
        movi r2, buf
        mov r3, r6
        syscall
        mov r1, r6
        ",
        "
        .rodata
    lnk: .asciz \"/tmp/mylink\"
        .bss
    buf: .space 32
    ",
    );
    let (outcome, kernel) = run_with(&src, b"", |k| {
        k.fs_mut().symlink("/etc/motd", "/tmp/mylink", "/").unwrap();
    });
    assert_eq!(outcome, RunOutcome::Exited(9));
    assert_eq!(kernel.stdout(), b"/etc/motd");
}

#[test]
fn stat_reports_kind_and_size() {
    // stat("/etc/motd"): kind 0 (file), size 17.
    let src = exit_with(
        "
        movi r0, 106
        movi r1, path
        movi r2, st
        syscall
        movi r12, st
        ldw r4, [r12]          ; kind
        ldw r5, [r12+4]        ; size
        shli r4, r4, 8
        or r1, r4, r5
        ",
        "
        .rodata
    path: .asciz \"/etc/motd\"
        .bss
    st: .space 16
    ",
    );
    let (outcome, _) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited(17)); // kind 0 << 8 | 17
}

#[test]
fn nanosleep_advances_time() {
    // gettimeofday, nanosleep 3s, gettimeofday: delta >= 3.
    let src = exit_with(
        "
        movi r0, 78
        movi r1, tv
        movi r2, 0
        syscall
        movi r12, tv
        ldw r4, [r12]          ; secs before
        movi r12, req
        movi r5, 3
        stw [r12], r5
        movi r5, 0
        stw [r12+4], r5
        movi r0, 162           ; nanosleep
        movi r1, req
        movi r2, 0
        syscall
        movi r0, 78
        movi r1, tv
        movi r2, 0
        syscall
        movi r12, tv
        ldw r5, [r12]          ; secs after
        sub r1, r5, r4
        ",
        "
        .bss
    tv: .space 8
    req: .space 8
    ",
    );
    let (outcome, _) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited(3));
}

#[test]
fn uname_identifies_personality() {
    let src = exit_with(
        "
        movi r0, 122
        movi r1, buf
        syscall
        movi r12, buf
        ldb r1, [r12]          ; first byte of sysname
        ",
        "
        .bss
    buf: .space 32
    ",
    );
    let (outcome, _) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited(b'S' as u32)); // "SVMLinux"
}

#[test]
fn bad_fd_operations_return_ebadf() {
    let src = exit_with(
        "
        movi r0, 3             ; read(99, ...)
        movi r1, 99
        movi r2, buf
        movi r3, 4
        syscall
        mov r1, r0
        ",
        "
        .bss
    buf: .space 4
    ",
    );
    let (outcome, _) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited((-9i32) as u32));
}

#[test]
fn open_missing_without_creat_fails() {
    let src = exit_with(
        "
        movi r0, 5
        movi r1, path
        movi r2, 0
        movi r3, 0
        syscall
        mov r1, r0
        ",
        "
        .rodata
    path: .asciz \"/no/such/file\"
    ",
    );
    let (outcome, _) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited((-2i32) as u32)); // ENOENT
}

#[test]
fn append_mode_appends() {
    let src = exit_with(
        "
        movi r0, 5
        movi r1, path
        movi r2, 0x441         ; O_WRONLY|O_CREAT|O_APPEND
        movi r3, 0x1b6
        syscall
        mov r6, r0
        movi r0, 4
        mov r1, r6
        movi r2, msg
        movi r3, 2
        syscall
        movi r1, 0
        ",
        "
        .rodata
    path: .asciz \"/tmp/log\"
    msg: .ascii \"+x\"
    ",
    );
    let (outcome, kernel) = run_with(&src, b"", |k| {
        k.fs_mut().write_file("/tmp/log", b"old".to_vec()).unwrap();
    });
    assert_eq!(outcome, RunOutcome::Exited(0));
    assert_eq!(kernel.fs().read_file("/tmp/log").unwrap(), b"old+x");
}

#[test]
fn chdir_affects_relative_paths() {
    let src = exit_with(
        "
        movi r0, 12            ; chdir(\"/etc\")
        movi r1, dir
        syscall
        movi r0, 5             ; open(\"motd\") — relative
        movi r1, rel
        movi r2, 0
        movi r3, 0
        syscall
        mov r6, r0
        movi r0, 3
        mov r1, r6
        movi r2, buf
        movi r3, 7
        syscall
        mov r1, r0
        ",
        "
        .rodata
    dir: .asciz \"/etc\"
    rel: .asciz \"motd\"
        .bss
    buf: .space 8
    ",
    );
    let (outcome, _) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited(7));
}

#[test]
fn mmap_returns_usable_memory() {
    let src = exit_with(
        "
        movi r0, 90            ; mmap(0, 0x2000, ...)
        movi r1, 0
        movi r2, 0x2000
        movi r3, 3
        movi r4, 2
        syscall
        mov r6, r0
        movi r5, 0xabcd
        stw [r6+0x1ffc], r5
        ldw r4, [r6+0x1ffc]
        sub r1, r4, r5         ; 0 when readback matches
        ",
        "",
    );
    let (outcome, _) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited(0));
}

/// `mmap(0, len)` into `rd`.
fn mmap_into(rd: &str, len: u32) -> String {
    format!(
        "
        movi r0, 90
        movi r1, 0
        movi r2, {len:#x}
        movi r3, 3
        movi r4, 2
        syscall
        mov {rd}, r0
        "
    )
}

/// Exits with 0 when r6, r7 and r8 hold `expect`, nonzero otherwise.
fn check_r6_r7_r8(expect: [u32; 3]) -> String {
    let [a, b, c] = expect;
    format!(
        "
        xori r6, r6, {a:#x}
        xori r7, r7, {b:#x}
        xori r8, r8, {c:#x}
        or r1, r6, r7
        or r1, r1, r8
        "
    )
}

const ENOMEM: u32 = (-12i32) as u32;
const EFAULT: u32 = (-14i32) as u32;
const EINVAL: u32 = (-22i32) as u32;
const EFBIG: u32 = (-27i32) as u32;

#[test]
fn mmap_length_past_4gib_is_enomem_and_leaves_the_cursor() {
    // A length whose page rounding passes 4 GiB.
    let body = [
        mmap_into("r6", 0xffff_ffff),
        mmap_into("r7", 0x2000),
        mmap_into("r8", 0x1000),
        check_r6_r7_r8([ENOMEM, 0x60_0000, 0x60_2000]),
    ];
    let (outcome, _) = run(&exit_with(&body.concat(), ""));
    assert_eq!(outcome, RunOutcome::Exited(0));
}

#[test]
fn mmap_cursor_past_4gib_is_enomem_and_leaves_the_cursor() {
    // Two 2 GiB mappings from the cursor at 0x600000: the second would
    // carry the cursor past 4 GiB.
    let body = [
        mmap_into("r6", 0x7fff_f000),
        mmap_into("r7", 0x7fff_f000),
        mmap_into("r8", 0x1000),
        check_r6_r7_r8([0x60_0000, ENOMEM, 0x805f_f000]),
    ];
    let (outcome, _) = run(&exit_with(&body.concat(), ""));
    assert_eq!(outcome, RunOutcome::Exited(0));
}

#[test]
fn sockets_queue_per_descriptor() {
    // Two sockets: data sent on one must not arrive on the other.
    let src = exit_with(
        "
        movi r0, 102
        movi r1, 2
        movi r2, 1
        movi r3, 0
        syscall
        mov r6, r0             ; sock A
        movi r0, 102
        movi r1, 2
        movi r2, 1
        movi r3, 0
        syscall
        mov r5, r0             ; sock B
        movi r0, 109           ; sendto(A, msg, 4)
        mov r1, r6
        movi r2, msg
        movi r3, 4
        syscall
        movi r0, 110           ; recvfrom(B, buf, 8) -> 0 bytes
        mov r1, r5
        movi r2, buf
        movi r3, 8
        syscall
        mov r4, r0
        movi r0, 110           ; recvfrom(A, buf, 8) -> 4 bytes
        mov r1, r6
        movi r2, buf
        movi r3, 8
        syscall
        shli r1, r4, 8
        or r1, r1, r0          ; 0 << 8 | 4
        ",
        "
        .rodata
    msg: .ascii \"ping\"
        .bss
    buf: .space 8
    ",
    );
    let (outcome, _) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited(4));
}

const EMFILE: u32 = (-24i32) as u32;
const EAGAIN: u32 = (-11i32) as u32;

/// Closes descriptors 0–2, so the whole table is the guest's, then opens
/// `/dev/null` `n` times, exiting with 99 unless each open gets the next
/// descriptor.
fn fill_table(n: u32) -> String {
    format!(
        "
        movi r4, 0
        movi r5, 3
    close_std:
        movi r0, 6
        mov r1, r4
        syscall
        addi r4, r4, 1
        bne r4, r5, close_std
        movi r4, 0
        movi r5, {n}
    open_all:
        movi r0, 5
        movi r1, null
        movi r2, 0
        movi r3, 0
        syscall
        bne r0, r4, fail
        addi r4, r4, 1
        bne r4, r5, open_all
        "
    )
}

#[test]
fn the_1025th_descriptor_is_emfile() {
    // 1,024 opens succeed. Then open, an `O_CREAT` open, `dup` and
    // `socket` all fail with EMFILE, and the `O_CREAT` creates no file.
    let src = exit_with(
        &format!(
            "{}
        movi r0, 5
        movi r1, null
        movi r2, 0
        movi r3, 0
        syscall
        mov r6, r0
        movi r0, 5
        movi r1, new
        movi r2, 0x41
        movi r3, 0x1b6
        syscall
        bne r0, r6, fail
        movi r0, 41            ; dup(0)
        movi r1, 0
        syscall
        bne r0, r6, fail
        movi r0, 102
        movi r1, 2
        movi r2, 1
        movi r3, 0
        syscall
        bne r0, r6, fail
        mov r1, r6
        jmp done
    fail:
        movi r1, 99
    done:
        ",
            fill_table(1024)
        ),
        "
        .rodata
    null: .asciz \"/dev/null\"
    new: .asciz \"/tmp/new\"
    ",
    );
    let (outcome, kernel) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited(EMFILE));
    assert!(kernel.fs().resolve("/tmp/new", "/").is_err());
}

#[test]
fn pipe_with_one_free_slot_is_emfile_and_leaves_the_table() {
    // 1,023 descriptors open: the pipe fails and writes no descriptors;
    // the one free slot is still free, and then the table is full.
    let src = exit_with(
        &format!(
            "{}
        movi r0, 42
        movi r1, fds
        syscall
        mov r6, r0
        movi r12, fds
        ldw r7, [r12]
        movi r8, 0
        bne r7, r8, fail
        ldw r7, [r12+4]
        bne r7, r8, fail
        movi r0, 5
        movi r1, null
        movi r2, 0
        movi r3, 0
        syscall
        movi r7, 1023
        bne r0, r7, fail
        movi r0, 5
        movi r1, null
        movi r2, 0
        movi r3, 0
        syscall
        bne r0, r6, fail
        mov r1, r6
        jmp done
    fail:
        movi r1, 99
    done:
        ",
            fill_table(1023)
        ),
        "
        .rodata
    null: .asciz \"/dev/null\"
        .bss
    fds: .space 8
    ",
    );
    let (outcome, _) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited(EMFILE));
}

#[test]
fn pipe_into_unmapped_memory_is_efault_and_leaves_the_table() {
    // The descriptor array faults: pipe returns EFAULT and closes both
    // ends, so the next open gets descriptor 3, as on Linux.
    let src = exit_with(
        &format!(
            "
        movi r0, 42
        movi r1, 0xfffffff0
        syscall
        movi r7, {EFAULT}
        bne r0, r7, fail
        movi r0, 5
        movi r1, null
        movi r2, 0
        movi r3, 0
        syscall
        mov r1, r0
        jmp done
    fail:
        movi r1, 99
    done:
        "
        ),
        "
        .rodata
    null: .asciz \"/dev/null\"
    ",
    );
    let (outcome, _) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited(3));
}

#[test]
fn open_after_close_gets_the_lowest_free_descriptor() {
    // Open 3, 4 and 5; close 4 then 3; the next opens get 3, 4, then 6.
    let open = "
        movi r0, 5
        movi r1, null
        movi r2, 0
        movi r3, 0
        syscall";
    let src = exit_with(
        &format!(
            "{open}
        {open}
        {open}
        movi r0, 6
        movi r1, 4
        syscall
        movi r0, 6
        movi r1, 3
        syscall
        {open}
        mov r4, r0
        {open}
        shli r0, r0, 8
        or r4, r4, r0
        {open}
        shli r0, r0, 16
        or r1, r4, r0
        "
        ),
        "
        .rodata
    null: .asciz \"/dev/null\"
    ",
    );
    let (outcome, _) = run(&src);
    assert_eq!(outcome, RunOutcome::Exited(3 | 4 << 8 | 6 << 16));
}

/// Sets `r4` to the write descriptor and `r11` to the read descriptor of
/// a new pipe or socket.
fn open_buffer(pipe: bool) -> &'static str {
    if pipe {
        "
        movi r0, 42
        movi r1, fds
        syscall
        movi r12, fds
        ldw r11, [r12]
        ldw r4, [r12+4]"
    } else {
        "
        movi r0, 102
        movi r1, 2
        movi r2, 1
        movi r3, 0
        syscall
        mov r4, r0
        mov r11, r0"
    }
}

#[test]
fn pipe_and_socket_buffers_stop_at_16_mib() {
    // 16 writes of 1 MiB - 16 bytes leave 256 bytes of room: a 1 MiB
    // write writes those 256, one more byte is EAGAIN, an empty write
    // returns 0, and after a 3-byte read a 5-byte write writes 3. After
    // a 4-byte read, a `writev` of 2 and 5 bytes writes 4 and stops; the
    // next one, into the full buffer, is EAGAIN.
    assert_eq!(MAX_FILE_SIZE, 16 << 20);
    for pipe in [true, false] {
        let src = exit_with(
            &format!(
                "{}
        movi r5, 0
        movi r6, 16
    fill:
        movi r0, 4
        mov r1, r4
        movi r2, big
        movi r3, 0xffff0
        syscall
        movi r7, 0xffff0
        bne r0, r7, short
        addi r5, r5, 1
        bne r5, r6, fill
        movi r1, 1
        movi r0, 4
        mov r1, r4
        movi r2, big
        movi r3, 0x100000
        syscall
        movi r7, 256
        movi r1, 2
        bne r0, r7, done
        movi r0, 4
        mov r1, r4
        movi r2, big
        movi r3, 1
        syscall
        movi r7, {EAGAIN}
        movi r1, 3
        bne r0, r7, done
        movi r0, 4
        mov r1, r4
        movi r2, big
        movi r3, 0
        syscall
        movi r7, 0
        movi r1, 4
        bne r0, r7, done
        movi r0, 3
        mov r1, r11
        movi r2, big
        movi r3, 3
        syscall
        movi r7, 3
        movi r1, 5
        bne r0, r7, done
        movi r0, 4
        mov r1, r4
        movi r2, big
        movi r3, 5
        syscall
        movi r1, 6
        bne r0, r7, done
        movi r0, 3
        mov r1, r11
        movi r2, big
        movi r3, 4
        syscall
        movi r12, iov          ; writev of 2 + 5 bytes into 4 bytes of room
        movi r5, big
        stw [r12], r5
        movi r5, 2
        stw [r12+4], r5
        movi r5, big
        stw [r12+8], r5
        movi r5, 5
        stw [r12+12], r5
        movi r0, 146
        mov r1, r4
        mov r2, r12
        movi r3, 2
        syscall
        movi r7, 4
        movi r1, 7
        bne r0, r7, done
        movi r0, 146
        mov r1, r4
        mov r2, r12
        movi r3, 2
        syscall
        movi r7, {EAGAIN}
        movi r1, 8
        bne r0, r7, done
        movi r1, 0
        jmp done
    short:
        movi r1, 1
    done:
        ",
                open_buffer(pipe)
            ),
            "
        .bss
    fds: .space 8
    iov: .space 16
    big: .space 0x100000
    ",
        );
        // Writing 16 MiB takes about 150M virtual cycles.
        let (outcome, _) = run_for(500_000_000, &src, b"", |_| {});
        assert_eq!(outcome, RunOutcome::Exited(0), "pipe: {pipe}");
    }
}

#[test]
fn pipe_and_socket_bytes_keep_their_order_across_the_buffers_wrap() {
    // 40 rounds of a 7-byte write and a 5-byte read, echoing what is
    // read, then one read of the rest: the buffer's front keeps moving
    // while it grows, so its storage wraps.
    let pattern: Vec<u8> = (0..64u8).map(|i| b'!' + i).collect();
    let mut expected = Vec::new();
    for round in 0..40 {
        let off = round * 7 % 50;
        expected.extend_from_slice(&pattern[off..off + 7]);
    }
    for pipe in [true, false] {
        let src = exit_with(
            &format!(
                "{}
        movi r5, 0
        movi r6, 40
        movi r8, 0
        movi r9, 50
    round:
        movi r0, 4
        mov r1, r4
        movi r2, pattern
        add r2, r2, r8
        movi r3, 7
        syscall
        movi r0, 3
        mov r1, r11
        movi r2, buf
        movi r3, 5
        syscall
        mov r3, r0
        movi r0, 4
        movi r1, 1
        movi r2, buf
        syscall
        addi r8, r8, 7
        remu r8, r8, r9
        addi r5, r5, 1
        bne r5, r6, round
        movi r0, 3
        mov r1, r11
        movi r2, buf
        movi r3, 256
        syscall
        mov r3, r0
        movi r0, 4
        movi r1, 1
        movi r2, buf
        syscall
        movi r1, 0
        ",
                open_buffer(pipe)
            ),
            &format!(
                "
        .rodata
    pattern: .ascii \"{}\"
        .bss
    fds: .space 8
    buf: .space 256
    ",
                String::from_utf8(pattern.clone())
                    .unwrap()
                    .replace('\\', "\\\\")
                    .replace('"', "\\\"")
            ),
        );
        let (outcome, kernel) = run(&src);
        assert_eq!(outcome, RunOutcome::Exited(0), "pipe: {pipe}");
        assert_eq!(kernel.stdout(), &expected[..], "pipe: {pipe}");
    }
}
