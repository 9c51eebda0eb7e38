//! The in-memory filesystem backing the simulated kernel.
//!
//! Supports directories, regular files, symbolic links (needed for the
//! file-name-normalisation discussion of §5.4 and its TOCTOU example),
//! permissions bits, and path resolution with `.`/`..`/symlink handling.

use std::collections::BTreeMap;

/// Index of an inode in the filesystem arena.
pub type InodeId = usize;

/// Maximum symlink nesting during resolution (loop defence): a link's
/// target is walked one level deeper than the link, and so is the rest of
/// the path after it.
const MAX_LINK_DEPTH: usize = 8;

/// One filesystem object.
#[derive(Clone, Debug)]
pub enum InodeKind {
    /// Regular file contents.
    File(Vec<u8>),
    /// Directory entries, name → inode.
    Dir(BTreeMap<String, InodeId>),
    /// Symbolic link target (may be relative or absolute).
    Symlink(String),
}

/// An inode: kind plus metadata.
#[derive(Clone, Debug)]
pub struct Inode {
    /// File/dir/symlink payload.
    pub kind: InodeKind,
    /// Permission bits (0o777-style; advisory in the simulator).
    pub mode: u32,
    /// Modification time (simulated microseconds).
    pub mtime: u64,
    /// The directory holding this inode's entry, which `..` climbs to.
    /// Exact for directories, which have one entry since `link` refuses
    /// them; the root is its own parent.
    parent: InodeId,
}

/// Where a path walk stands: the inode reached, the directory whose entry
/// names it and that entry's name (the root is its own directory, with an
/// empty name).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry<'f> {
    pub(crate) dir: InodeId,
    pub(crate) id: InodeId,
    pub(crate) name: &'f str,
}

/// The non-empty `/`-separated components of `head` and then `tail`,
/// scanned byte by byte. `head` always starts at the next component, or
/// is empty once none is left.
struct Components<'p> {
    head: &'p str,
    tail: &'p str,
}

impl<'p> Components<'p> {
    fn new(head: &'p str, tail: &'p str) -> Self {
        let mut comps = Components { head, tail };
        comps.skip_separators();
        comps
    }

    /// Whether no component is left.
    fn is_empty(&self) -> bool {
        self.head.is_empty()
    }

    /// Drops the slashes before the next component, going on to `tail`
    /// when `head` has no component left.
    fn skip_separators(&mut self) {
        self.head = skip_slashes(self.head);
        if self.head.is_empty() {
            self.head = skip_slashes(std::mem::take(&mut self.tail));
        }
    }
}

impl<'p> Iterator for Components<'p> {
    type Item = &'p str;

    fn next(&mut self) -> Option<&'p str> {
        if self.head.is_empty() {
            return None;
        }
        let bytes = self.head.as_bytes();
        let end = bytes.iter().position(|&b| b == b'/').unwrap_or(bytes.len());
        // A `/` byte is a whole character, so both halves are `str`s.
        let (comp, rest) = self.head.split_at(end);
        self.head = rest;
        self.skip_separators();
        Some(comp)
    }
}

fn skip_slashes(s: &str) -> &str {
    let n = s.bytes().take_while(|&b| b == b'/').count();
    &s[n..]
}

/// Filesystem errors, mirroring errno values the syscalls translate to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsError {
    /// Path component does not exist.
    NotFound,
    /// Component used as a directory is not one.
    NotADirectory,
    /// Target is a directory where a file was required.
    IsADirectory,
    /// Create target already exists.
    AlreadyExists,
    /// Directory not empty on rmdir.
    NotEmpty,
    /// Too many symlink traversals.
    TooManyLinks,
    /// Invalid argument (empty path etc.).
    Invalid,
}

impl FsError {
    /// Conventional negative errno encoding for syscall returns.
    pub fn errno(self) -> u32 {
        let e: i32 = match self {
            FsError::NotFound => -2,       // ENOENT
            FsError::NotADirectory => -20, // ENOTDIR
            FsError::IsADirectory => -21,  // EISDIR
            FsError::AlreadyExists => -17, // EEXIST
            FsError::NotEmpty => -39,      // ENOTEMPTY
            FsError::TooManyLinks => -40,  // ELOOP
            FsError::Invalid => -22,       // EINVAL
        };
        e as u32
    }
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FsError::NotFound => "no such file or directory",
            FsError::NotADirectory => "not a directory",
            FsError::IsADirectory => "is a directory",
            FsError::AlreadyExists => "file exists",
            FsError::NotEmpty => "directory not empty",
            FsError::TooManyLinks => "too many levels of symbolic links",
            FsError::Invalid => "invalid argument",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FsError {}

/// The filesystem: an inode arena rooted at `/`.
#[derive(Clone, Debug)]
pub struct FileSystem {
    inodes: Vec<Inode>,
    root: InodeId,
}

impl Default for FileSystem {
    fn default() -> Self {
        FileSystem::new()
    }
}

impl FileSystem {
    /// A filesystem with `/`, `/tmp`, `/etc`, `/dev`, `/home` and a couple
    /// of well-known files.
    pub fn new() -> FileSystem {
        let mut fs = FileSystem {
            inodes: vec![Inode {
                kind: InodeKind::Dir(BTreeMap::new()),
                mode: 0o755,
                mtime: 0,
                parent: 0,
            }],
            root: 0,
        };
        for dir in ["/tmp", "/etc", "/dev", "/home", "/bin", "/usr"] {
            fs.mkdir(dir, 0o755).expect("fresh tree");
        }
        fs.write_file("/etc/motd", b"welcome to svm32\n".to_vec())
            .expect("fresh tree");
        fs.write_file("/etc/passwd", b"root:x:0:0:/home:/bin/sh\n".to_vec())
            .expect("fresh tree");
        fs.write_file("/dev/null", Vec::new()).expect("fresh tree");
        fs.write_file("/dev/console", Vec::new())
            .expect("fresh tree");
        fs.write_file("/bin/sh", b"#!shell\n".to_vec())
            .expect("fresh tree");
        fs.write_file("/bin/ls", b"#!ls\n".to_vec())
            .expect("fresh tree");
        fs
    }

    /// The root inode id.
    pub fn root(&self) -> InodeId {
        self.root
    }

    /// Immutable inode access.
    pub fn inode(&self, id: InodeId) -> &Inode {
        &self.inodes[id]
    }

    /// Mutable inode access.
    pub fn inode_mut(&mut self, id: InodeId) -> &mut Inode {
        &mut self.inodes[id]
    }

    fn alloc(&mut self, inode: Inode) -> InodeId {
        self.inodes.push(inode);
        self.inodes.len() - 1
    }

    fn root_entry(&self) -> Entry<'_> {
        Entry {
            dir: self.root,
            id: self.root,
            name: "",
        }
    }

    /// Resolves `path` (relative to `cwd`) to an inode, following symlinks.
    ///
    /// # Errors
    ///
    /// Standard resolution errors ([`FsError::NotFound`], etc.).
    pub fn resolve(&self, path: &str, cwd: &str) -> Result<InodeId, FsError> {
        self.walk(path, cwd, true).map(|e| e.id)
    }

    /// Resolves but does not follow a final symlink (for `readlink`,
    /// `lstat`, `unlink`).
    pub fn resolve_nofollow(&self, path: &str, cwd: &str) -> Result<InodeId, FsError> {
        self.walk(path, cwd, false).map(|e| e.id)
    }

    /// Resolves `path` to its canonical, symlink-free absolute name — the
    /// §5.4 normalisation step policies compare against.
    ///
    /// # Errors
    ///
    /// Standard resolution errors.
    pub fn normalize(&self, path: &str, cwd: &str) -> Result<String, FsError> {
        self.walk(path, cwd, true).map(|e| self.canonical(e))
    }

    /// The one path resolver: walks `path`, after `cwd` unless `path` is
    /// absolute, from the root over borrowed components, allocating
    /// nothing.
    pub(crate) fn walk(
        &self,
        path: &str,
        cwd: &str,
        follow_last: bool,
    ) -> Result<Entry<'_>, FsError> {
        let cwd = if path.starts_with('/') { "" } else { cwd };
        self.walk_from(self.root_entry(), cwd, path, follow_last, 0)
    }

    /// Walks `head`'s then `tail`'s components from `at` at symlink
    /// nesting `depth`. A followed link's target is walked one level
    /// deeper, from the root or the link's directory, and the rest of the
    /// path resumes at that level.
    fn walk_from<'f>(
        &'f self,
        mut at: Entry<'f>,
        head: &str,
        tail: &str,
        follow_last: bool,
        mut depth: usize,
    ) -> Result<Entry<'f>, FsError> {
        if depth > MAX_LINK_DEPTH {
            return Err(FsError::TooManyLinks);
        }
        let mut comps = Components::new(head, tail);
        while let Some(comp) = comps.next() {
            match comp {
                "." => {}
                ".." => at = self.up(at),
                name => {
                    let InodeKind::Dir(entries) = &self.inodes[at.id].kind else {
                        return Err(FsError::NotADirectory);
                    };
                    let (name, &id) = entries.get_key_value(name).ok_or(FsError::NotFound)?;
                    let last = comps.is_empty();
                    at = Entry {
                        dir: at.id,
                        id,
                        name,
                    };
                    // Loops only without `follow_last`: a target walk then
                    // stops on a link, which the rest of the path follows.
                    while let InodeKind::Symlink(target) = &self.inodes[at.id].kind {
                        if last && !follow_last {
                            break;
                        }
                        depth += 1;
                        let from = if target.starts_with('/') {
                            self.root_entry()
                        } else {
                            self.up(at)
                        };
                        at = self.walk_from(from, "", target, follow_last, depth)?;
                    }
                }
            }
        }
        Ok(at)
    }

    /// Where `..` leads from `at`: the entry of its directory.
    fn up(&self, at: Entry<'_>) -> Entry<'_> {
        let parent = self.inodes[at.dir].parent;
        let InodeKind::Dir(entries) = &self.inodes[parent].kind else {
            unreachable!("a parent link names a directory")
        };
        let name = entries.iter().find(|(_, &id)| id == at.dir);
        Entry {
            dir: parent,
            id: at.dir,
            name: name.map_or("", |(name, _)| name),
        }
    }

    /// The canonical, symlink-free absolute name of a walk's entry.
    pub(crate) fn canonical<'f>(&'f self, mut at: Entry<'f>) -> String {
        let mut name = String::new();
        while at.id != self.root {
            name.insert_str(0, at.name);
            name.insert(0, '/');
            at = self.up(at);
        }
        if name.is_empty() {
            name.push('/');
        }
        name
    }

    /// The name of a `/dev` entry: `Some` when the walk's entry sits in
    /// the root's `dev` directory.
    pub(crate) fn device<'f>(&self, at: Entry<'f>) -> Option<&'f str> {
        let InodeKind::Dir(entries) = &self.inodes[self.root].kind else {
            return None;
        };
        (entries.get("dev") == Some(&at.dir)).then_some(at.name)
    }

    /// Resolves the parent directory of `path`, returning `(dir_id, name)`.
    fn resolve_parent<'p>(&self, path: &'p str, cwd: &str) -> Result<(InodeId, &'p str), FsError> {
        let trimmed = path.trim_end_matches('/');
        let (dir, name) = trimmed.split_at(trimmed.rfind('/').map_or(0, |i| i + 1));
        if name.is_empty() || name == "." || name == ".." {
            return Err(FsError::Invalid);
        }
        let dir_id = self.resolve(dir, cwd)?;
        if !matches!(self.inodes[dir_id].kind, InodeKind::Dir(_)) {
            return Err(FsError::NotADirectory);
        }
        Ok((dir_id, name))
    }

    /// The entries of a directory that `resolve_parent` returned.
    fn entries_mut(&mut self, dir: InodeId) -> &mut BTreeMap<String, InodeId> {
        match &mut self.inodes[dir].kind {
            InodeKind::Dir(entries) => entries,
            _ => unreachable!("resolve_parent returns directories"),
        }
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`] if the name is taken, plus resolution
    /// errors.
    pub fn mkdir(&mut self, path: &str, mode: u32) -> Result<InodeId, FsError> {
        self.create(path, "/", InodeKind::Dir(BTreeMap::new()), mode)
    }

    /// Creates an entry of the given kind under its parent.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`] or resolution errors.
    pub fn create(
        &mut self,
        path: &str,
        cwd: &str,
        kind: InodeKind,
        mode: u32,
    ) -> Result<InodeId, FsError> {
        let (dir_id, name) = self.resolve_parent(path, cwd)?;
        if self.entries_mut(dir_id).contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        let id = self.alloc(Inode {
            kind,
            mode,
            mtime: 0,
            parent: dir_id,
        });
        self.entries_mut(dir_id).insert(name.to_string(), id);
        Ok(id)
    }

    /// Creates or truncates a regular file with the given contents
    /// (host-side convenience for setting up test fixtures).
    ///
    /// # Errors
    ///
    /// Resolution errors.
    pub fn write_file(&mut self, path: &str, contents: Vec<u8>) -> Result<InodeId, FsError> {
        match self.resolve(path, "/") {
            Ok(id) => match &mut self.inodes[id].kind {
                InodeKind::File(data) => {
                    *data = contents;
                    Ok(id)
                }
                _ => Err(FsError::IsADirectory),
            },
            Err(FsError::NotFound) => self.create(path, "/", InodeKind::File(contents), 0o644),
            Err(e) => Err(e),
        }
    }

    /// Reads a file's contents (host-side convenience).
    ///
    /// # Errors
    ///
    /// Resolution errors, [`FsError::IsADirectory`] for non-files.
    pub fn read_file(&self, path: &str) -> Result<&[u8], FsError> {
        let id = self.resolve(path, "/")?;
        match &self.inodes[id].kind {
            InodeKind::File(data) => Ok(data),
            _ => Err(FsError::IsADirectory),
        }
    }

    /// Creates a symlink at `path` pointing to `target`.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`] or resolution errors.
    pub fn symlink(&mut self, target: &str, path: &str, cwd: &str) -> Result<InodeId, FsError> {
        self.create(path, cwd, InodeKind::Symlink(target.to_string()), 0o777)
    }

    /// Creates a hard link.
    ///
    /// # Errors
    ///
    /// Resolution errors; linking directories is [`FsError::IsADirectory`].
    pub fn link(&mut self, existing: &str, new: &str, cwd: &str) -> Result<(), FsError> {
        let id = self.resolve(existing, cwd)?;
        if matches!(self.inodes[id].kind, InodeKind::Dir(_)) {
            return Err(FsError::IsADirectory);
        }
        let (dir_id, name) = self.resolve_parent(new, cwd)?;
        let entries = self.entries_mut(dir_id);
        if entries.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        entries.insert(name.to_string(), id);
        Ok(())
    }

    /// Removes a non-directory entry.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] for directories, plus resolution errors.
    pub fn unlink(&mut self, path: &str, cwd: &str) -> Result<(), FsError> {
        let (dir_id, name) = self.resolve_parent(path, cwd)?;
        let &id = self
            .entries_mut(dir_id)
            .get(name)
            .ok_or(FsError::NotFound)?;
        if matches!(self.inodes[id].kind, InodeKind::Dir(_)) {
            return Err(FsError::IsADirectory);
        }
        self.entries_mut(dir_id).remove(name);
        Ok(())
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// [`FsError::NotEmpty`] if it has entries, [`FsError::NotADirectory`]
    /// for non-directories, plus resolution errors.
    pub fn rmdir(&mut self, path: &str, cwd: &str) -> Result<(), FsError> {
        let (dir_id, name) = self.resolve_parent(path, cwd)?;
        let &id = self
            .entries_mut(dir_id)
            .get(name)
            .ok_or(FsError::NotFound)?;
        match &self.inodes[id].kind {
            InodeKind::Dir(children) if children.is_empty() => {}
            InodeKind::Dir(_) => return Err(FsError::NotEmpty),
            _ => return Err(FsError::NotADirectory),
        }
        self.entries_mut(dir_id).remove(name);
        Ok(())
    }

    /// Renames an entry (same simple semantics as `mv` within the tree).
    ///
    /// # Errors
    ///
    /// Resolution errors; the destination is replaced if it exists.
    pub fn rename(&mut self, from: &str, to: &str, cwd: &str) -> Result<(), FsError> {
        let (from_dir, from_name) = self.resolve_parent(from, cwd)?;
        let &id = self
            .entries_mut(from_dir)
            .get(from_name)
            .ok_or(FsError::NotFound)?;
        let (to_dir, to_name) = self.resolve_parent(to, cwd)?;
        self.entries_mut(from_dir).remove(from_name);
        self.entries_mut(to_dir).insert(to_name.to_string(), id);
        self.inodes[id].parent = to_dir;
        Ok(())
    }

    /// Directory listing (sorted names), for `getdents`/`getdirentries`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] plus resolution errors.
    pub fn list_dir(&self, id: InodeId) -> Result<Vec<String>, FsError> {
        match &self.inodes[id].kind {
            InodeKind::Dir(entries) => Ok(entries.keys().cloned().collect()),
            _ => Err(FsError::NotADirectory),
        }
    }

    /// A deterministic digest over the whole tree — every path, inode
    /// kind, and file/symlink payload, walked in sorted order. Two
    /// filesystems digest equal exactly when an observer reading every
    /// path would see identical trees; the fault-injection campaign uses
    /// this to assert a killed run had no file-system side effect beyond
    /// the un-faulted prefix.
    pub fn digest(&self) -> u64 {
        fn mix(d: &mut u64, bytes: &[u8]) {
            // FNV-1a, 64-bit.
            for &b in bytes {
                *d ^= b as u64;
                *d = d.wrapping_mul(0x0000_0100_0000_01b3);
            }
            mix_sep(d);
        }
        fn mix_sep(d: &mut u64) {
            *d ^= 0xff;
            *d = d.wrapping_mul(0x0000_0100_0000_01b3);
        }
        fn walk(fs: &FileSystem, id: InodeId, path: &str, d: &mut u64) {
            mix(d, path.as_bytes());
            match &fs.inodes[id].kind {
                InodeKind::File(contents) => {
                    mix(d, b"F");
                    mix(d, contents);
                }
                InodeKind::Symlink(target) => {
                    mix(d, b"L");
                    mix(d, target.as_bytes());
                }
                InodeKind::Dir(entries) => {
                    mix(d, b"D");
                    for (name, child) in entries {
                        let child_path = if path == "/" {
                            format!("/{name}")
                        } else {
                            format!("{path}/{name}")
                        };
                        walk(fs, *child, &child_path, d);
                    }
                }
            }
        }
        let mut d = 0xcbf2_9ce4_8422_2325u64;
        walk(self, self.root, "/", &mut d);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_exist() {
        let fs = FileSystem::new();
        assert!(fs.resolve("/etc/motd", "/").is_ok());
        assert!(fs.resolve("/tmp", "/").is_ok());
        assert_eq!(fs.read_file("/etc/motd").unwrap(), b"welcome to svm32\n");
        assert_eq!(fs.resolve("/nope", "/"), Err(FsError::NotFound));
    }

    #[test]
    fn digest_tracks_observable_tree_changes() {
        let a = FileSystem::new();
        let mut b = FileSystem::new();
        assert_eq!(a.digest(), b.digest(), "identical trees digest equal");
        b.write_file("/tmp/x", b"x".to_vec()).unwrap();
        assert_ne!(a.digest(), b.digest(), "new file changes the digest");
        b.unlink("/tmp/x", "/").unwrap();
        assert_eq!(a.digest(), b.digest(), "removal restores it");
        b.write_file("/etc/motd", b"tampered\n".to_vec()).unwrap();
        assert_ne!(a.digest(), b.digest(), "content change is visible");
    }

    #[test]
    fn relative_paths_and_dots() {
        let mut fs = FileSystem::new();
        fs.mkdir("/home/user", 0o755).unwrap();
        fs.write_file("/home/user/x.txt", b"x".to_vec()).unwrap();
        assert!(fs.resolve("x.txt", "/home/user").is_ok());
        assert!(fs.resolve("./x.txt", "/home/user").is_ok());
        assert!(fs.resolve("../user/x.txt", "/home/user").is_ok());
        assert_eq!(
            fs.normalize("../user/./x.txt", "/home/user").unwrap(),
            "/home/user/x.txt"
        );
        assert_eq!(fs.normalize("/../etc/motd", "/").unwrap(), "/etc/motd");
    }

    #[test]
    fn symlink_resolution_and_normalization() {
        let mut fs = FileSystem::new();
        // The §5.4 attack setup: /tmp/foo -> /etc/passwd.
        fs.symlink("/etc/passwd", "/tmp/foo", "/").unwrap();
        let direct = fs.resolve("/etc/passwd", "/").unwrap();
        assert_eq!(fs.resolve("/tmp/foo", "/").unwrap(), direct);
        // Normalisation exposes the real target, so a policy comparing
        // normalised names sees /etc/passwd, not /tmp/foo.
        assert_eq!(fs.normalize("/tmp/foo", "/").unwrap(), "/etc/passwd");
        // nofollow sees the link itself.
        let link_id = fs.resolve_nofollow("/tmp/foo", "/").unwrap();
        assert!(matches!(fs.inode(link_id).kind, InodeKind::Symlink(_)));
    }

    #[test]
    fn symlink_loops_detected() {
        let mut fs = FileSystem::new();
        fs.symlink("/tmp/b", "/tmp/a", "/").unwrap();
        fs.symlink("/tmp/a", "/tmp/b", "/").unwrap();
        assert_eq!(fs.resolve("/tmp/a", "/"), Err(FsError::TooManyLinks));
    }

    #[test]
    fn symlink_in_the_middle_of_a_path() {
        let mut fs = FileSystem::new();
        fs.mkdir("/data", 0o755).unwrap();
        fs.write_file("/data/f", b"payload".to_vec()).unwrap();
        fs.symlink("/data", "/tmp/d", "/").unwrap();
        assert_eq!(fs.read_file("/tmp/d/f").unwrap(), b"payload");
        assert_eq!(fs.normalize("/tmp/d/f", "/").unwrap(), "/data/f");
    }

    #[test]
    fn unlink_rmdir_rules() {
        let mut fs = FileSystem::new();
        fs.write_file("/tmp/f", b"".to_vec()).unwrap();
        fs.mkdir("/tmp/d", 0o755).unwrap();
        fs.write_file("/tmp/d/inner", b"".to_vec()).unwrap();
        assert_eq!(fs.unlink("/tmp/d", "/"), Err(FsError::IsADirectory));
        assert_eq!(fs.rmdir("/tmp/d", "/"), Err(FsError::NotEmpty));
        fs.unlink("/tmp/d/inner", "/").unwrap();
        fs.rmdir("/tmp/d", "/").unwrap();
        fs.unlink("/tmp/f", "/").unwrap();
        assert_eq!(fs.resolve("/tmp/f", "/"), Err(FsError::NotFound));
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut fs = FileSystem::new();
        fs.write_file("/tmp/a", b"A".to_vec()).unwrap();
        fs.write_file("/tmp/b", b"B".to_vec()).unwrap();
        fs.rename("/tmp/a", "/tmp/b", "/").unwrap();
        assert_eq!(fs.read_file("/tmp/b").unwrap(), b"A");
        assert_eq!(fs.resolve("/tmp/a", "/"), Err(FsError::NotFound));
        fs.rename("/tmp/b", "/etc/moved", "/").unwrap();
        assert_eq!(fs.read_file("/etc/moved").unwrap(), b"A");
    }

    #[test]
    fn hard_links_share_inode() {
        let mut fs = FileSystem::new();
        fs.write_file("/tmp/orig", b"shared".to_vec()).unwrap();
        fs.link("/tmp/orig", "/tmp/alias", "/").unwrap();
        let a = fs.resolve("/tmp/orig", "/").unwrap();
        let b = fs.resolve("/tmp/alias", "/").unwrap();
        assert_eq!(a, b);
        fs.unlink("/tmp/orig", "/").unwrap();
        assert_eq!(fs.read_file("/tmp/alias").unwrap(), b"shared");
    }

    #[test]
    fn list_dir_sorted() {
        let mut fs = FileSystem::new();
        fs.write_file("/tmp/z", b"".to_vec()).unwrap();
        fs.write_file("/tmp/a", b"".to_vec()).unwrap();
        let id = fs.resolve("/tmp", "/").unwrap();
        assert_eq!(
            fs.list_dir(id).unwrap(),
            vec!["a".to_string(), "z".to_string()]
        );
        let f = fs.resolve("/tmp/a", "/").unwrap();
        assert_eq!(fs.list_dir(f), Err(FsError::NotADirectory));
    }

    #[test]
    fn create_errors() {
        let mut fs = FileSystem::new();
        assert_eq!(fs.mkdir("/tmp", 0o755), Err(FsError::AlreadyExists));
        assert_eq!(fs.mkdir("/missing/dir", 0o755), Err(FsError::NotFound));
        assert_eq!(
            fs.mkdir("/etc/motd/sub", 0o755),
            Err(FsError::NotADirectory)
        );
        assert_eq!(fs.mkdir("/", 0o755), Err(FsError::Invalid));
    }
}
