//! `run_all` rejects any argument it does not know — including the
//! retired multi-process flags — loudly, with a failure exit, and
//! before it plans, executes or writes anything.

use std::process::Command;

#[test]
fn unknown_flags_fail_before_writing_results() {
    for args in [&["--workers", "2"][..], &["--bogus"]] {
        let dir = std::env::temp_dir().join(format!(
            "poise-run-all-args-{}-{}",
            args[0].trim_start_matches('-'),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("results dir");
        let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
            .args(args)
            .env("POISE_RESULTS_DIR", &dir)
            .output()
            .expect("spawn run_all");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(args[0]),
            "{args:?}: stderr names the flag: {stderr}"
        );
        let written: Vec<_> = std::fs::read_dir(&dir)
            .expect("read results dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
