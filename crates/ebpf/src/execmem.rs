//! W^X executable code buffers over raw `mmap`/`mprotect`/`munmap`.
//!
//! The JIT tier needs a page it can write machine code into and then
//! execute — but never both at once. [`CodeBuf`] is the write stage
//! (`PROT_READ | PROT_WRITE`, anonymous private mapping); [`seal`]
//! transitions it in place to [`ExecBuf`] (`PROT_READ | PROT_EXEC`).
//! There is no path back to writable and no state in which the mapping
//! is simultaneously writable and executable. Dropping either stage
//! unmaps the pages.
//!
//! The syscall wrappers are declared directly against the C runtime —
//! no new crate dependencies — and are gated to Linux, the only target
//! the emitter itself supports. Other targets get a stub that reports
//! the platform as unsupported so the compiled tier remains the
//! ceiling there.
//!
//! [`seal`]: CodeBuf::seal

#[cfg(target_os = "linux")]
mod imp {
    use std::ffi::c_void;
    use std::io;
    use std::mem::ManuallyDrop;

    const PROT_READ: i32 = 0x1;
    const PROT_WRITE: i32 = 0x2;
    const PROT_EXEC: i32 = 0x4;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// A read-write anonymous mapping holding machine code under
    /// construction. Never executable. Consumed by [`CodeBuf::seal`].
    #[derive(Debug)]
    pub struct CodeBuf {
        ptr: *mut u8,
        len: usize,
    }

    /// A sealed read-execute mapping. Never writable again.
    #[derive(Debug)]
    pub struct ExecBuf {
        ptr: *mut u8,
        len: usize,
    }

    // SAFETY: the mapping is immutable after seal (PROT_READ|PROT_EXEC),
    // exclusively owned by this handle, and only unmapped in Drop, so
    // sharing references across threads cannot race.
    unsafe impl Send for ExecBuf {}
    // SAFETY: see the Send impl above — sealed pages are never written.
    unsafe impl Sync for ExecBuf {}

    impl CodeBuf {
        /// Map fresh read-write pages and copy `code` into them.
        pub fn with_code(code: &[u8]) -> io::Result<CodeBuf> {
            assert!(!code.is_empty(), "refusing to map an empty code buffer");
            let len = code.len();
            // SAFETY: anonymous private mapping with addr=null and fd=-1;
            // the kernel picks the placement and no Rust object aliases
            // the new pages.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if ptr == MAP_FAILED {
                return Err(io::Error::last_os_error());
            }
            let ptr = ptr.cast::<u8>();
            // SAFETY: `ptr` is a fresh writable mapping of `len` bytes
            // disjoint from `code`, so a nonoverlapping copy is in bounds
            // on both sides.
            unsafe { std::ptr::copy_nonoverlapping(code.as_ptr(), ptr, len) };
            Ok(CodeBuf { ptr, len })
        }

        /// Base address of the mapping (for lifecycle tests).
        pub fn addr(&self) -> *const u8 {
            self.ptr
        }

        /// Mapping length in bytes.
        pub fn len(&self) -> usize {
            self.len
        }

        /// True for a zero-length mapping.
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// Flip the pages read-execute, consuming the writable handle.
        /// This is the single W→X transition: the mapping goes RW → RX
        /// with one `mprotect`, never passing through RWX.
        pub fn seal(self) -> io::Result<ExecBuf> {
            let this = ManuallyDrop::new(self);
            // SAFETY: `this.ptr..this.ptr+len` is a live private mapping
            // owned by us; changing its protection cannot invalidate any
            // other object.
            let rc = unsafe { mprotect(this.ptr.cast(), this.len, PROT_READ | PROT_EXEC) };
            if rc != 0 {
                let err = io::Error::last_os_error();
                // SAFETY: still our live mapping; Drop was disarmed via
                // ManuallyDrop so this is the only unmap.
                unsafe { munmap(this.ptr.cast(), this.len) };
                return Err(err);
            }
            Ok(ExecBuf {
                ptr: this.ptr,
                len: this.len,
            })
        }
    }

    impl Drop for CodeBuf {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` describe the mapping created in
            // `with_code` and not yet sealed, and Drop runs at most once.
            unsafe { munmap(self.ptr.cast(), self.len) };
        }
    }

    impl ExecBuf {
        /// Base address of the executable mapping.
        pub fn addr(&self) -> *const u8 {
            self.ptr
        }

        /// Mapping length in bytes.
        pub fn len(&self) -> usize {
            self.len
        }

        /// True for a zero-length mapping.
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }
    }

    impl Drop for ExecBuf {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` describe the mapping inherited from
            // `CodeBuf::seal`, and Drop runs at most once. The owning
            // `JitProgram` is gone, so no thread can still jump here.
            unsafe { munmap(self.ptr.cast(), self.len) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use std::io;

    /// Stub: executable mappings are only implemented for Linux.
    #[derive(Debug)]
    pub struct CodeBuf {
        never: std::convert::Infallible,
    }

    /// Stub: executable mappings are only implemented for Linux.
    #[derive(Debug)]
    pub struct ExecBuf {
        never: std::convert::Infallible,
    }

    impl CodeBuf {
        /// Always fails on non-Linux targets.
        pub fn with_code(_code: &[u8]) -> io::Result<CodeBuf> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "executable mappings require Linux",
            ))
        }

        /// Unreachable on non-Linux targets (no constructor succeeds).
        pub fn addr(&self) -> *const u8 {
            match self.never {}
        }

        /// Unreachable on non-Linux targets.
        pub fn len(&self) -> usize {
            match self.never {}
        }

        /// Unreachable on non-Linux targets.
        pub fn seal(self) -> io::Result<ExecBuf> {
            match self.never {}
        }
    }

    impl ExecBuf {
        /// Unreachable on non-Linux targets.
        pub fn addr(&self) -> *const u8 {
            match self.never {}
        }

        /// Unreachable on non-Linux targets.
        pub fn len(&self) -> usize {
            match self.never {}
        }
    }
}

pub use imp::{CodeBuf, ExecBuf};
