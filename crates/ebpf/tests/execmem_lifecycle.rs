//! W^X lifecycle tests for the executable-memory module (Linux only —
//! the assertions read `/proc/self/maps`).
//!
//! The invariant under test: a code buffer is *either* writable *or*
//! executable, never both, at every observable point of its life —
//! writable while being filled ([`CodeBuf`]), executable after the single
//! [`CodeBuf::seal`] transition ([`ExecBuf`]), and unmapped on drop.

#![cfg(target_os = "linux")]

use hermes_ebpf::execmem::CodeBuf;

/// Permission string (`rwxp` column) of the mapping containing `addr`,
/// from `/proc/self/maps`.
fn perms_of(addr: usize) -> Option<String> {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
    for line in maps.lines() {
        let mut cols = line.split_whitespace();
        let range = cols.next()?;
        let perms = cols.next()?;
        let (lo, hi) = range.split_once('-')?;
        let lo = usize::from_str_radix(lo, 16).ok()?;
        let hi = usize::from_str_radix(hi, 16).ok()?;
        if (lo..hi).contains(&addr) {
            return Some(perms.to_string());
        }
    }
    None
}

#[test]
fn code_buf_is_writable_not_executable() {
    let buf = CodeBuf::with_code(&[0xc3]).expect("mmap");
    let perms = perms_of(buf.addr() as usize).expect("mapping present");
    assert!(
        perms.starts_with("rw-"),
        "fill-stage mapping is {perms}, want rw-"
    );
}

#[test]
fn sealed_buf_is_executable_not_writable() {
    let buf = CodeBuf::with_code(&[0xc3]).expect("mmap");
    let exec = buf.seal().expect("mprotect");
    let perms = perms_of(exec.addr() as usize).expect("mapping present");
    assert!(
        perms.starts_with("r-x"),
        "sealed mapping is {perms}, want r-x"
    );
}

#[test]
fn mapping_is_never_writable_and_executable() {
    // The W^X property across the whole lifecycle: at no observed stage
    // does the buffer's mapping carry both `w` and `x`.
    let buf = CodeBuf::with_code(&[0x90, 0xc3]).expect("mmap");
    let addr = buf.addr() as usize;
    let p = perms_of(addr).expect("mapping present");
    assert!(!(p.contains('w') && p.contains('x')), "W+X at fill: {p}");
    let exec = buf.seal().expect("mprotect");
    let p = perms_of(exec.addr() as usize).expect("mapping present");
    assert!(!(p.contains('w') && p.contains('x')), "W+X after seal: {p}");
}

#[test]
fn drop_unmaps_the_buffer() {
    let (fill_addr, exec_addr) = {
        let buf = CodeBuf::with_code(&[0xc3]).expect("mmap");
        let fill_addr = buf.addr() as usize;
        let exec = buf.seal().expect("mprotect");
        (fill_addr, exec.addr() as usize)
    };
    assert_eq!(fill_addr, exec_addr, "seal must transition in place");
    // The mapping must be gone — or at least no longer ours-and-executable
    // (the allocator may recycle the address range for something else).
    if let Some(p) = perms_of(exec_addr) {
        assert!(!p.contains('x'), "dropped code still executable: {p}");
    }
}

#[test]
fn dropping_unsealed_buf_unmaps_too() {
    let addr = {
        let buf = CodeBuf::with_code(&[0xc3; 4096]).expect("mmap");
        buf.addr() as usize
    };
    if let Some(p) = perms_of(addr) {
        assert!(
            !p.contains('x'),
            "dropped fill buffer became executable: {p}"
        );
    }
}

#[cfg(target_arch = "x86_64")]
mod jit_reuse {
    use hermes_ebpf::{ExecTier, ReuseportGroup};

    /// `prepare_jit` is emit-once: repeated calls (and every dispatch)
    /// reuse the same sealed buffer rather than re-mapping.
    #[test]
    fn double_prepare_reuses_the_same_code() {
        let g = ReuseportGroup::new(8);
        assert_eq!(g.tier(), ExecTier::Jit);
        let a = g
            .vm()
            .prepare_jit(g.registry())
            .expect("jit earned")
            .code_addr();
        let b = g
            .vm()
            .prepare_jit(g.registry())
            .expect("jit earned")
            .code_addr();
        assert_eq!(a, b, "second prepare_jit re-emitted");
        let perms = super::perms_of(a as usize).expect("jit mapping present");
        assert!(
            perms.starts_with("r-x"),
            "live jit code is {perms}, want r-x"
        );
    }
}
