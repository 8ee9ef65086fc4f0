//! Helpers shared by the serve end-to-end tests. Each test crate uses a
//! subset of them.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// A fresh directory under the system temp dir, unique per call (pid,
/// clock and a per-process counter, so parallel tests and concurrent
/// runs never share one) and removed with its contents on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = std::env::temp_dir().join(format!(
            "codegend-{tag}-{}-{nanos}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    pub fn join(&self, rel: impl AsRef<Path>) -> PathBuf {
        self.0.join(rel)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Batch-side reference: the kernel's statements through the same
/// pipeline as `table1`, no daemon involved, newline-terminated like a
/// daemon reply.
pub fn batch_code(kernel: &chill::Kernel) -> String {
    let stmts = bench_harness::statements_of(kernel);
    let g = codegenplus::CodeGen::new()
        .statements(stmts)
        .effort(1)
        .generate()
        .expect("batch generation");
    let mut code = g.to_c();
    if !code.ends_with('\n') {
        code.push('\n');
    }
    code
}
