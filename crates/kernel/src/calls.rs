//! System call semantics.
//!
//! Each call implements just enough behaviour for the guest workloads and
//! the paper's experiments; returns use the negative-errno convention.

use std::collections::VecDeque;

use asc_isa::Reg;
use asc_vm::{TrapContext, TrapOutcome};

use crate::abi::SyscallId;
use crate::fs::{FsError, InodeKind};
use crate::kernel::{FdKind, Kernel, OpenFile};

/// Open flags understood by the simulated kernel.
pub mod oflags {
    /// Read only.
    pub const O_RDONLY: u32 = 0;
    /// Write only.
    pub const O_WRONLY: u32 = 1;
    /// Read and write.
    pub const O_RDWR: u32 = 2;
    /// Create if missing.
    pub const O_CREAT: u32 = 0x40;
    /// Truncate on open.
    pub const O_TRUNC: u32 = 0x200;
    /// Append on every write.
    pub const O_APPEND: u32 = 0x400;
}

/// The largest file a guest can make, in bytes: twice the default guest
/// memory. Without a bound, one `truncate` or a `write` after a long seek
/// would have the kernel zero-fill up to 4 GiB of host memory.
pub const MAX_FILE_SIZE: u32 = 1 << 24;

/// The most descriptors a process holds open at once: what
/// `sysconf(_SC_OPEN_MAX)` answers, and one past the largest `dup2`
/// target.
pub(crate) const OPEN_MAX: usize = 1024;

const EBADF: u32 = (-9i32) as u32;
const EAGAIN: u32 = (-11i32) as u32;
const ENOMEM: u32 = (-12i32) as u32;
const EFAULT: u32 = (-14i32) as u32;
const EINVAL: u32 = (-22i32) as u32;
pub(crate) const EMFILE: u32 = (-24i32) as u32;
const EFBIG: u32 = (-27i32) as u32;
const ENOSYS: u32 = (-38i32) as u32;

fn errno(e: FsError) -> u32 {
    e.errno()
}

/// Lends the path argument at `addr`: `EFAULT` if it is unreadable or not
/// terminated within 1024 bytes, `EINVAL` if it is not UTF-8.
fn read_path<'m>(ctx: &'m TrapContext<'_>, addr: u32) -> Result<&'m str, u32> {
    let bytes = ctx.mem.kread_cstr(addr, 1024).map_err(|_| EFAULT)?;
    std::str::from_utf8(bytes).map_err(|_| EINVAL)
}

/// Linux's `IOV_MAX`: the most iovecs one `readv` or `writev` takes.
const IOV_MAX: u32 = 1024;

/// Copies `data` out to guest memory at `buf` (nothing for no bytes):
/// the byte count, or `EFAULT`.
fn copy_out(ctx: &mut TrapContext<'_>, buf: u32, data: &[u8]) -> Result<usize, u32> {
    if !data.is_empty() && ctx.mem.kwrite(buf, data).is_err() {
        return Err(EFAULT);
    }
    Ok(data.len())
}

/// Moves up to `len` bytes from the front of a pipe or socket buffer to
/// guest memory at `buf`. The bytes leave the buffer whether or not the
/// copy-out faults.
fn drain_out(
    ctx: &mut TrapContext<'_>,
    buf: u32,
    queue: &mut VecDeque<u8>,
    len: usize,
) -> Result<usize, u32> {
    let n = queue.len().min(len);
    let copied = copy_out(ctx, buf, &queue.make_contiguous()[..n]);
    queue.drain(..n);
    copied
}

/// Appends what fits of `data` to a pipe or socket buffer, which holds at
/// most [`MAX_FILE_SIZE`] bytes: the count, or `EAGAIN` when the buffer
/// is full and `data` is not empty.
fn fill(queue: &mut VecDeque<u8>, data: &[u8]) -> Result<usize, u32> {
    let n = data.len().min(MAX_FILE_SIZE as usize - queue.len());
    if n == 0 && !data.is_empty() {
        return Err(EAGAIN);
    }
    queue.extend(&data[..n]);
    Ok(n)
}

/// Sets a file's length, zero-filling any growth; `EFBIG` past
/// [`MAX_FILE_SIZE`], leaving the file as it was.
fn truncate(data: &mut Vec<u8>, len: u32) -> u32 {
    if len > MAX_FILE_SIZE {
        return EFBIG;
    }
    data.resize(len as usize, 0);
    0
}

impl Kernel {
    /// Dispatches one (indirection-resolved) system call. Sets `R0` to the
    /// return value unless the outcome ends the process.
    pub(crate) fn dispatch(
        &mut self,
        id: SyscallId,
        args: [u32; 6],
        ctx: &mut TrapContext<'_>,
    ) -> TrapOutcome {
        self.last_io_bytes = 0;
        self.time_us += 3;
        use SyscallId::*;
        let ret: u32 = match id {
            Exit => return TrapOutcome::Exit(args[0]),
            Execve => match read_path(ctx, args[0]) {
                Ok(path) => {
                    self.exec_requests.push(path.to_owned());
                    // The simulator records rather than chain-loads; the
                    // process ends as if replaced.
                    return TrapOutcome::Exit(0);
                }
                Err(e) => e,
            },
            Read | Recvfrom => self.sys_read(args[0], args[1], args[2], ctx),
            Readv => self.sys_vectored(false, args, ctx),
            Getdents | Getdirentries => self.sys_getdents(args[0], args[1], args[2], ctx),
            Write | Sendto => self.sys_write(args[0], args[1], args[2], ctx),
            Writev => self.sys_vectored(true, args, ctx),
            Open => self.sys_open(args[0], args[1], args[2], ctx),
            Creat => self.sys_open(
                args[0],
                oflags::O_WRONLY | oflags::O_CREAT | oflags::O_TRUNC,
                args[1],
                ctx,
            ),
            Close => self.sys_close(args[0]),
            Lseek => self.sys_lseek(args[0], args[1], args[2]),
            Getpid => 1,
            Getppid => 0,
            Getuid | Geteuid => 1000,
            Getgid | Getegid => 100,
            Getpgrp => 1,
            Setsid | Setpgid | Setuid | Setgid | Nice => 0,
            Umask => {
                let old = self.umask;
                self.umask = args[0] & 0o777;
                old
            }
            Brk => self.sys_brk(args[0], ctx),
            Mmap => self.sys_mmap(args[1], ctx),
            Munmap => 0,
            Madvise => 0,
            Time => {
                let secs = (self.time_us / 1_000_000) as u32;
                if args[0] != 0 && ctx.mem.kwrite(args[0], &secs.to_le_bytes()).is_err() {
                    EFAULT
                } else {
                    secs
                }
            }
            Gettimeofday | ClockGettime => {
                let secs = (self.time_us / 1_000_000) as u32;
                let micros = (self.time_us % 1_000_000) as u32;
                let mut buf = [0u8; 8];
                buf[..4].copy_from_slice(&secs.to_le_bytes());
                buf[4..].copy_from_slice(&micros.to_le_bytes());
                match ctx
                    .mem
                    .kwrite(args[if id == Gettimeofday { 0 } else { 1 }], &buf)
                {
                    Ok(()) => 0,
                    Err(_) => EFAULT,
                }
            }
            Settimeofday => 0,
            Nanosleep => {
                // req = {secs, nanos}; advance simulated time.
                match ctx.mem.kread(args[0], 8) {
                    Ok(b) => {
                        let secs = u32::from_le_bytes(b[..4].try_into().expect("4"));
                        let nanos = u32::from_le_bytes(b[4..].try_into().expect("4"));
                        self.time_us += secs as u64 * 1_000_000 + nanos as u64 / 1000;
                        0
                    }
                    Err(_) => EFAULT,
                }
            }
            Alarm | Pause | Sync | SchedYield | Poll => 0,
            Kill => {
                // Signalling self with 0 probes; any real signal to self is
                // accepted (no async delivery in the simulator).
                if args[0] <= 1 {
                    0
                } else {
                    (-3i32) as u32 // ESRCH
                }
            }
            Sigaction | Sigsuspend | Sigpending => 0,
            Chdir => match read_path(ctx, args[0]) {
                Ok(p) => match self.fs.walk(p, &self.cwd, true) {
                    Ok(at) if matches!(self.fs.inode(at.id).kind, InodeKind::Dir(_)) => {
                        self.cwd = self.fs.canonical(at);
                        0
                    }
                    Ok(_) => errno(FsError::NotADirectory),
                    Err(e) => errno(e),
                },
                Err(e) => e,
            },
            Chroot => 0,
            Mkdir => self.path_op(ctx, args[0], |k, p| {
                k.fs.create(p, &k.cwd, InodeKind::Dir(Default::default()), 0o755)
                    .map(|_| 0)
            }),
            Rmdir => self.path_op(ctx, args[0], |k, p| k.fs.rmdir(p, &k.cwd).map(|_| 0)),
            Unlink => self.path_op(ctx, args[0], |k, p| k.fs.unlink(p, &k.cwd).map(|_| 0)),
            Link => self.path2_op(ctx, args[0], args[1], |k, a, b| {
                k.fs.link(a, b, &k.cwd).map(|_| 0)
            }),
            Symlink => self.path2_op(ctx, args[0], args[1], |k, a, b| {
                k.fs.symlink(a, b, &k.cwd).map(|_| 0)
            }),
            Rename => self.path2_op(ctx, args[0], args[1], |k, a, b| {
                k.fs.rename(a, b, &k.cwd).map(|_| 0)
            }),
            Readlink => match read_path(ctx, args[0]) {
                Ok(p) => match self.fs.resolve_nofollow(p, &self.cwd) {
                    Ok(id) => match &self.fs.inode(id).kind {
                        InodeKind::Symlink(target) => {
                            let n = target.len().min(args[2] as usize);
                            match ctx.mem.kwrite(args[1], &target.as_bytes()[..n]) {
                                Ok(()) => n as u32,
                                Err(_) => EFAULT,
                            }
                        }
                        _ => EINVAL,
                    },
                    Err(e) => errno(e),
                },
                Err(e) => e,
            },
            Chmod | Utime | Lchown | Mknod => {
                self.path_op(ctx, args[0], |k, p| k.fs.resolve(p, &k.cwd).map(|_| 0))
            }
            Fchmod | Fchown | Ftruncate => {
                if self.fd(args[0]).is_some() {
                    if id == Ftruncate {
                        self.sys_truncate_fd(args[0], args[1])
                    } else {
                        0
                    }
                } else {
                    EBADF
                }
            }
            Truncate => match read_path(ctx, args[0]) {
                Ok(p) => match self.fs.resolve(p, &self.cwd) {
                    Ok(inode) => match &mut self.fs.inode_mut(inode).kind {
                        InodeKind::File(data) => truncate(data, args[1]),
                        _ => errno(FsError::IsADirectory),
                    },
                    Err(e) => errno(e),
                },
                Err(e) => e,
            },
            Stat | Lstat => self.sys_stat(id, args[0], args[1], ctx),
            Fstat => self.sys_fstat(args[0], args[1], ctx),
            Access => self.path_op(ctx, args[0], |k, p| k.fs.resolve(p, &k.cwd).map(|_| 0)),
            Statfs | Fstatfs => {
                // Write a fixed 32-byte statfs structure.
                let buf = [0x42u8; 32];
                match ctx.mem.kwrite(args[1], &buf) {
                    Ok(()) => 0,
                    Err(_) => EFAULT,
                }
            }
            Dup => match self.fds.get(args[0] as usize).cloned().flatten() {
                Some(f) => self.alloc_fd(f).unwrap_or_else(|e| e),
                None => EBADF,
            },
            Dup2 => match self.fds.get(args[0] as usize).cloned().flatten() {
                Some(f) => {
                    let target = args[1] as usize;
                    if target >= OPEN_MAX {
                        EBADF
                    } else {
                        if target >= self.fds.len() {
                            self.fds.resize(target + 1, None);
                        }
                        if let Some(old) = self.fds[target].replace(f) {
                            self.release_unnamed(&old.kind);
                        }
                        args[1]
                    }
                }
                None => EBADF,
            },
            Pipe => self.sys_pipe(args[0], ctx),
            Fcntl | Ioctl => {
                if self.fd(args[0]).is_some() {
                    0
                } else {
                    EBADF
                }
            }
            Socket => self.open_socket(),
            Connect | Bind | Listen | Shutdown | Setsockopt | Getsockopt => {
                if self.fd(args[0]).is_some() {
                    0
                } else {
                    EBADF
                }
            }
            Accept => match self.fd(args[0]).map(|f| f.kind.clone()) {
                Some(FdKind::Socket(_)) => self.open_socket(),
                _ => EBADF,
            },
            Uname => {
                let sysname: &[u8] = match self.opts.personality {
                    crate::abi::Personality::Linux => b"SVMLinux\0",
                    crate::abi::Personality::OpenBsd => b"SVMBSD\0\0\0",
                };
                let mut buf = [0u8; 32];
                buf[..sysname.len()].copy_from_slice(sysname);
                buf[16..16 + self.hostname.len().min(15)]
                    .copy_from_slice(&self.hostname.as_bytes()[..self.hostname.len().min(15)]);
                match ctx.mem.kwrite(args[0], &buf) {
                    Ok(()) => 0,
                    Err(_) => EFAULT,
                }
            }
            Sethostname => match ctx.mem.kread(args[0], args[1].min(64)) {
                Ok(b) => {
                    self.hostname = String::from_utf8_lossy(b).into_owned();
                    0
                }
                Err(_) => EFAULT,
            },
            Times | Getrusage | Getrlimit => {
                let buf = [0u8; 16];
                let ptr = if id == Times { args[0] } else { args[1] };
                if ptr == 0 {
                    0
                } else {
                    match ctx.mem.kwrite(ptr, &buf) {
                        Ok(()) => 0,
                        Err(_) => EFAULT,
                    }
                }
            }
            Setrlimit => 0,
            Sysconf => match args[0] {
                0 => 4096,            // _SC_PAGESIZE
                1 => OPEN_MAX as u32, // _SC_OPEN_MAX
                2 => 100,             // _SC_CLK_TCK
                _ => EINVAL,
            },
            Fork | Waitpid => ENOSYS,
            IndirectSyscall => ENOSYS, // double indirection rejected earlier
        };
        ctx.set_reg(Reg::R0, ret);
        TrapOutcome::Continue
    }

    fn path_op(
        &mut self,
        ctx: &TrapContext<'_>,
        addr: u32,
        f: impl FnOnce(&mut Kernel, &str) -> Result<u32, FsError>,
    ) -> u32 {
        match read_path(ctx, addr) {
            Ok(p) => f(self, p).unwrap_or_else(errno),
            Err(e) => e,
        }
    }

    fn path2_op(
        &mut self,
        ctx: &TrapContext<'_>,
        addr_a: u32,
        addr_b: u32,
        f: impl FnOnce(&mut Kernel, &str, &str) -> Result<u32, FsError>,
    ) -> u32 {
        match (read_path(ctx, addr_a), read_path(ctx, addr_b)) {
            (Ok(a), Ok(b)) => f(self, a, b).unwrap_or_else(errno),
            (Err(e), _) | (_, Err(e)) => e,
        }
    }

    /// Both ends of a new pipe, or neither.
    fn sys_pipe(&mut self, addr: u32, ctx: &mut TrapContext<'_>) -> u32 {
        let (idx, open) = (self.pipes.len(), self.fds.len());
        let end = |kind, flags| OpenFile {
            kind,
            pos: 0,
            flags,
        };
        let r = match self.alloc_fd(end(FdKind::PipeRead(idx), 0)) {
            Ok(fd) => fd,
            Err(e) => return e,
        };
        let w = match self.alloc_fd(end(FdKind::PipeWrite(idx), 1)) {
            Ok(fd) => fd,
            Err(e) => return self.unwind_fds(&[r], open, e),
        };
        let mut buf = [0u8; 8];
        buf[..4].copy_from_slice(&r.to_le_bytes());
        buf[4..].copy_from_slice(&w.to_le_bytes());
        if ctx.mem.kwrite(addr, &buf).is_err() {
            return self.unwind_fds(&[r, w], open, EFAULT);
        }
        self.pipes.push(VecDeque::new());
        0
    }

    /// Closes `fds`, opened since the table held `open` slots, and
    /// returns `errno`: a call that fails leaves no descriptor behind.
    fn unwind_fds(&mut self, fds: &[u32], open: usize, errno: u32) -> u32 {
        for &fd in fds {
            self.fds[fd as usize] = None;
        }
        self.fds.truncate(open);
        errno
    }

    /// A new socket's descriptor, its buffer pushed only once it has one.
    fn open_socket(&mut self) -> u32 {
        let file = OpenFile {
            kind: FdKind::Socket(self.sockets.len()),
            pos: 0,
            flags: 2,
        };
        match self.alloc_fd(file) {
            Ok(fd) => {
                self.sockets.push(VecDeque::new());
                fd
            }
            Err(e) => e,
        }
    }

    fn sys_open(&mut self, path_addr: u32, flags: u32, _mode: u32, ctx: &TrapContext<'_>) -> u32 {
        let path = match read_path(ctx, path_addr) {
            Ok(p) => p,
            Err(e) => return e,
        };
        // The descriptor comes first, so a full table creates no file.
        let fd = match self.free_fd() {
            Ok(fd) => fd,
            Err(e) => return e,
        };
        // §5.4: resolve through symlinks to the canonical entry.
        let at = match self.fs.walk(path, &self.cwd, true) {
            Ok(at) => at,
            Err(FsError::NotFound) if flags & oflags::O_CREAT != 0 => {
                let file = InodeKind::File(Vec::new());
                return match self.fs.create(path, &self.cwd, file, 0o666) {
                    Ok(id) => self.install_fd(
                        fd,
                        OpenFile {
                            kind: FdKind::File(id),
                            pos: 0,
                            flags,
                        },
                    ),
                    Err(e) => errno(e),
                };
            }
            Err(e) => return errno(e),
        };
        let (inode, device) = (at.id, self.fs.device(at));
        let kind = match device {
            Some("null") => FdKind::Null,
            Some("console") => FdKind::Console,
            _ => match &mut self.fs.inode_mut(inode).kind {
                InodeKind::File(data) => {
                    if flags & oflags::O_TRUNC != 0 {
                        data.clear();
                    }
                    FdKind::File(inode)
                }
                InodeKind::Dir(_) if flags & 0x3 != oflags::O_RDONLY => {
                    return errno(FsError::IsADirectory)
                }
                InodeKind::Dir(_) => FdKind::Dir(inode),
                InodeKind::Symlink(_) => return EINVAL, // the walk followed it
            },
        };
        self.install_fd(
            fd,
            OpenFile {
                kind,
                pos: 0,
                flags,
            },
        )
    }

    fn sys_close(&mut self, fd: u32) -> u32 {
        match self.fds.get_mut(fd as usize).and_then(Option::take) {
            Some(file) => {
                self.release_unnamed(&file.kind);
                0
            }
            None => EBADF,
        }
    }

    /// Drops the buffer of the pipe or socket `closed` named once no
    /// descriptor names it. Its index stays taken, so no other pipe's or
    /// socket's index moves.
    fn release_unnamed(&mut self, closed: &FdKind) {
        let (buffers, i) = match *closed {
            FdKind::Socket(i) => (&mut self.sockets, i),
            FdKind::PipeRead(i) | FdKind::PipeWrite(i) => (&mut self.pipes, i),
            _ => return,
        };
        let socket = matches!(closed, FdKind::Socket(_));
        let names = |kind: &FdKind| match *kind {
            FdKind::Socket(j) => socket && j == i,
            FdKind::PipeRead(j) | FdKind::PipeWrite(j) => !socket && j == i,
            _ => false,
        };
        if !self.fds.iter().flatten().any(|f| names(&f.kind)) {
            buffers[i] = VecDeque::new();
        }
    }

    fn sys_lseek(&mut self, fd: u32, off: u32, whence: u32) -> u32 {
        let size = match self.fd(fd).map(|f| f.kind.clone()) {
            Some(FdKind::File(inode)) => match &self.fs.inode(inode).kind {
                InodeKind::File(d) => d.len() as u64,
                _ => 0,
            },
            Some(_) => 0,
            None => return EBADF,
        };
        let Some(file) = self.fd(fd) else {
            return EBADF;
        };
        let off = off as i32 as i64;
        let new = match whence {
            0 => off,                   // SEEK_SET
            1 => file.pos as i64 + off, // SEEK_CUR
            2 => size as i64 + off,     // SEEK_END
            _ => return EINVAL,
        };
        if !(0..=i64::from(MAX_FILE_SIZE)).contains(&new) {
            return EINVAL;
        }
        file.pos = new as u64;
        new as u32
    }

    fn sys_brk(&mut self, addr: u32, ctx: &mut TrapContext<'_>) -> u32 {
        if addr == 0 {
            return self.brk;
        }
        if addr > self.brk {
            // Map new heap pages RW.
            ctx.mem
                .protect(self.brk, addr - self.brk, asc_vm::PageFlags::RW);
        }
        self.brk = addr;
        self.brk
    }

    fn sys_mmap(&mut self, len: u32, ctx: &mut TrapContext<'_>) -> u32 {
        let Some(len) = len.max(1).div_ceil(0x1000).checked_mul(0x1000) else {
            return ENOMEM;
        };
        let addr = self.mmap_cursor;
        let Some(cursor) = addr.checked_add(len) else {
            return ENOMEM;
        };
        self.mmap_cursor = cursor;
        ctx.mem.protect(addr, len, asc_vm::PageFlags::RW);
        addr
    }

    fn sys_truncate_fd(&mut self, fd: u32, len: u32) -> u32 {
        match self.fd(fd).map(|f| f.kind.clone()) {
            Some(FdKind::File(inode)) => match &mut self.fs.inode_mut(inode).kind {
                InodeKind::File(data) => truncate(data, len),
                _ => EINVAL,
            },
            Some(_) => EINVAL,
            None => EBADF,
        }
    }

    fn sys_stat(
        &mut self,
        id: SyscallId,
        path_addr: u32,
        buf: u32,
        ctx: &mut TrapContext<'_>,
    ) -> u32 {
        let path = match read_path(ctx, path_addr) {
            Ok(p) => p,
            Err(e) => return e,
        };
        let inode = match if id == SyscallId::Lstat {
            self.fs.resolve_nofollow(path, &self.cwd)
        } else {
            self.fs.resolve(path, &self.cwd)
        } {
            Ok(i) => i,
            Err(e) => return errno(e),
        };
        self.write_stat(inode, buf, ctx)
    }

    fn sys_fstat(&mut self, fd: u32, buf: u32, ctx: &mut TrapContext<'_>) -> u32 {
        match self.fd(fd).map(|f| f.kind.clone()) {
            Some(FdKind::File(inode)) | Some(FdKind::Dir(inode)) => {
                self.write_stat(inode, buf, ctx)
            }
            Some(_) => {
                // Character devices / sockets: zeroed stat.
                match ctx.mem.kwrite(buf, &[0u8; 16]) {
                    Ok(()) => 0,
                    Err(_) => EFAULT,
                }
            }
            None => EBADF,
        }
    }

    /// stat layout: {kind u32 (0=file,1=dir,2=link), size u32, mode u32,
    /// mtime u32}.
    fn write_stat(
        &mut self,
        inode: crate::fs::InodeId,
        buf: u32,
        ctx: &mut TrapContext<'_>,
    ) -> u32 {
        let node = self.fs.inode(inode);
        let (kind, size) = match &node.kind {
            InodeKind::File(d) => (0u32, d.len() as u32),
            InodeKind::Dir(e) => (1, e.len() as u32),
            InodeKind::Symlink(t) => (2, t.len() as u32),
        };
        let mut out = [0u8; 16];
        out[..4].copy_from_slice(&kind.to_le_bytes());
        out[4..8].copy_from_slice(&size.to_le_bytes());
        out[8..12].copy_from_slice(&node.mode.to_le_bytes());
        out[12..].copy_from_slice(&(node.mtime as u32).to_le_bytes());
        match ctx.mem.kwrite(buf, &out) {
            Ok(()) => 0,
            Err(_) => EFAULT,
        }
    }

    /// `readv` and `writev`: one transfer per `{ptr u32, len u32}` iovec
    /// of the array at `args[1]`, at most [`IOV_MAX`] of them. Both stop at
    /// their first short transfer, and an error after bytes moved returns
    /// the bytes moved.
    fn sys_vectored(&mut self, write: bool, args: [u32; 6], ctx: &mut TrapContext<'_>) -> u32 {
        if args[2] > IOV_MAX {
            return EINVAL;
        }
        let mut total = 0u32;
        for i in 0..args[2] {
            // Wrapping: a hostile array address faults, it cannot overflow.
            let at = args[1].wrapping_add(i * 8);
            let (Ok(ptr), Ok(len)) = (ctx.mem.kread_u32(at), ctx.mem.kread_u32(at.wrapping_add(4)))
            else {
                return EFAULT;
            };
            let n = if write {
                self.sys_write(args[0], ptr, len, ctx)
            } else {
                self.sys_read(args[0], ptr, len, ctx)
            };
            if (n as i32) < 0 {
                if total == 0 {
                    return n;
                }
                break;
            }
            total += n;
            if n < len {
                break;
            }
        }
        if write {
            self.last_io_bytes = total as u64;
        }
        total
    }

    fn sys_read(&mut self, fd: u32, buf: u32, len: u32, ctx: &mut TrapContext<'_>) -> u32 {
        let len = len.min(1 << 20) as usize;
        let kind = match self.fd(fd) {
            Some(f) => f.kind.clone(),
            None => return EBADF,
        };
        // Every source gives its bytes up whether or not the copy-out
        // faults.
        let copied = match kind {
            FdKind::Stdin => {
                let start = self.stdin_pos;
                self.stdin_pos += (self.stdin.len() - start).min(len);
                copy_out(ctx, buf, &self.stdin[start..self.stdin_pos])
            }
            FdKind::File(inode) => {
                let pos = self.fd(fd).expect("checked").pos as usize;
                let InodeKind::File(d) = &self.fs.inode(inode).kind else {
                    return errno(FsError::IsADirectory);
                };
                let n = d.len().saturating_sub(pos).min(len);
                // Past the end (after a seek) there is nothing to read.
                let copied = copy_out(ctx, buf, d.get(pos..pos + n).unwrap_or_default());
                self.fd(fd).expect("checked").pos = (pos + n) as u64;
                copied
            }
            FdKind::Socket(idx) => drain_out(ctx, buf, &mut self.sockets[idx], len),
            FdKind::PipeRead(idx) => drain_out(ctx, buf, &mut self.pipes[idx], len),
            FdKind::Null | FdKind::Console => Ok(0),
            FdKind::Stdout | FdKind::Stderr | FdKind::PipeWrite(_) | FdKind::Dir(_) => {
                return EBADF
            }
        };
        match copied {
            Ok(n) => {
                self.last_io_bytes = n as u64;
                n as u32
            }
            Err(e) => e,
        }
    }

    fn sys_write(&mut self, fd: u32, buf: u32, len: u32, ctx: &mut TrapContext<'_>) -> u32 {
        let Ok(data) = ctx.mem.kread(buf, len.min(1 << 20)) else {
            return EFAULT;
        };
        let kind = match self.fd(fd) {
            Some(f) => f.kind.clone(),
            None => return EBADF,
        };
        let written = match kind {
            FdKind::Stdout => {
                self.stdout.extend_from_slice(data);
                data.len()
            }
            FdKind::Stderr => {
                self.stderr.extend_from_slice(data);
                data.len()
            }
            FdKind::Console => {
                self.console.extend_from_slice(data);
                data.len()
            }
            FdKind::Null => data.len(),
            FdKind::File(inode) => {
                let (pos, append) = {
                    let f = self.fd(fd).expect("checked");
                    (f.pos as usize, f.flags & oflags::O_APPEND != 0)
                };
                match &mut self.fs.inode_mut(inode).kind {
                    InodeKind::File(d) => {
                        let pos = if append { d.len() } else { pos };
                        if pos + data.len() > MAX_FILE_SIZE as usize {
                            return EFBIG;
                        }
                        if d.len() < pos + data.len() {
                            d.resize(pos + data.len(), 0);
                        }
                        d[pos..pos + data.len()].copy_from_slice(data);
                        self.fd(fd).expect("checked").pos = (pos + data.len()) as u64;
                        data.len()
                    }
                    _ => return errno(FsError::IsADirectory),
                }
            }
            FdKind::Socket(idx) => match fill(&mut self.sockets[idx], data) {
                Ok(n) => n,
                Err(e) => return e,
            },
            FdKind::PipeWrite(idx) => match fill(&mut self.pipes[idx], data) {
                Ok(n) => n,
                Err(e) => return e,
            },
            FdKind::Stdin | FdKind::PipeRead(_) | FdKind::Dir(_) => return EBADF,
        };
        self.last_io_bytes = written as u64;
        written as u32
    }

    /// Directory entries are written as `{name_len u32, name bytes}`
    /// records; returns bytes written, 0 at end.
    fn sys_getdents(&mut self, fd: u32, buf: u32, len: u32, ctx: &mut TrapContext<'_>) -> u32 {
        let (inode, pos) = match self.fd(fd) {
            Some(OpenFile {
                kind: FdKind::Dir(i),
                pos,
                ..
            }) => (*i, *pos as usize),
            Some(_) => return errno(FsError::NotADirectory),
            None => return EBADF,
        };
        let names = match self.fs.list_dir(inode) {
            Ok(n) => n,
            Err(e) => return errno(e),
        };
        let mut out = Vec::new();
        let mut consumed = 0usize;
        for name in names.iter().skip(pos) {
            let rec = 4 + name.len();
            if out.len() + rec > len as usize {
                break;
            }
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            consumed += 1;
        }
        if !out.is_empty() && ctx.mem.kwrite(buf, &out).is_err() {
            return EFAULT;
        }
        self.fd(fd).expect("checked").pos = (pos + consumed) as u64;
        self.last_io_bytes = out.len() as u64;
        out.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelOptions, Personality};

    #[test]
    fn a_socket_refused_by_a_full_table_pushes_no_buffer() {
        let mut kernel = Kernel::new(KernelOptions::plain(Personality::Linux));
        let null = OpenFile {
            kind: FdKind::Null,
            pos: 0,
            flags: 0,
        };
        kernel.fds.resize(OPEN_MAX, Some(null));
        assert_eq!(kernel.open_socket(), EMFILE);
        assert!(kernel.sockets.is_empty());
        kernel.fds[700] = None;
        assert_eq!(kernel.open_socket(), 700);
        assert_eq!(kernel.sockets.len(), 1);
    }

    /// `pipe(fds)`: `r4` is the read end, `r5` the write end.
    const PIPE: &str = "
        movi r0, 42
        movi r1, fds
        syscall
        movi r12, fds
        ldw r4, [r12]
        ldw r5, [r12+4]";

    /// `write(fd, big, 1 MiB)`, exiting 1 unless it writes it all.
    fn write_mib(fd: &str) -> String {
        format!(
            "
        movi r0, 4
        mov r1, {fd}
        movi r2, big
        movi r3, 0x100000
        syscall
        movi r7, 0x100000
        bne r0, r7, fail"
        )
    }

    /// `close(fd)`.
    fn close(fd: &str) -> String {
        format!(
            "
        movi r0, 6
        mov r1, {fd}
        syscall"
        )
    }

    #[test]
    fn a_pipe_or_socket_buffer_goes_when_its_last_descriptor_closes() {
        // Pipe 0 closes both ends; pipe 1 closes its write end, and `dup2`
        // of stdout over its read end closes that; the socket closes a
        // `dup` and then itself. Pipe 2's read end stays open after its
        // write end closes.
        let src = format!(
            "
        .text
        .entry main
    main:
        {PIPE}{w5}{c5}{c4}
        {PIPE}{w5}{c5}
        movi r0, 63
        movi r1, 1
        mov r2, r4
        syscall
        movi r0, 102
        movi r1, 2
        movi r2, 1
        movi r3, 0
        syscall
        mov r4, r0
        movi r0, 41
        mov r1, r4
        syscall
        mov r5, r0
        {w4}{c5}{c4}
        {PIPE}
        movi r0, 4
        mov r1, r5
        movi r2, msg
        movi r3, 5
        syscall{c5}
        movi r0, 3
        mov r1, r4
        movi r2, big
        movi r3, 16
        syscall
        mov r3, r0
        movi r0, 4
        movi r1, 1
        movi r2, big
        syscall
        movi r1, 0
        jmp done
    fail:
        movi r1, 1
    done:
        movi r0, 1
        syscall
        .rodata
    msg: .ascii \"piped\"
        .bss
    fds: .space 8
    big: .space 0x100000
    ",
            w4 = write_mib("r4"),
            w5 = write_mib("r5"),
            c4 = close("r4"),
            c5 = close("r5"),
        );
        let binary = asc_asm::assemble(&src).expect("assembles");
        let mut kernel = Kernel::new(KernelOptions::plain(Personality::Linux));
        kernel.set_brk(binary.highest_addr());
        let mut machine = asc_vm::Machine::load(&binary, kernel).expect("loads");
        assert_eq!(machine.run(100_000_000), asc_vm::RunOutcome::Exited(0));
        let kernel = machine.into_handler();
        assert_eq!((kernel.pipes.len(), kernel.sockets.len()), (3, 1));
        assert_eq!(kernel.pipes[0].capacity(), 0);
        assert_eq!(kernel.pipes[1].capacity(), 0);
        assert_eq!(kernel.sockets[0].capacity(), 0);
        assert_eq!(kernel.stdout(), b"piped");
    }
}
