//! End-to-end tests of `cargo xtask analyze`, driving the real binary
//! against throwaway fixture workspaces (one planted defect per pass,
//! plus the clean twin of each) and against this repository.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch workspace that cleans up after itself.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let root =
            std::env::temp_dir().join(format!("xtask-analyze-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/xtask")).expect("mkdir fixture xtask");
        fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n")
            .expect("write root manifest");
        Fixture { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("rel path has a parent")).expect("mkdir");
        fs::write(path, content).expect("write fixture file");
    }

    fn analyze(&self) -> Output {
        Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(["analyze", "--json", "findings.json"])
            .current_dir(&self.root)
            .output()
            .expect("run xtask binary")
    }

    fn json(&self) -> String {
        fs::read_to_string(self.root.join("findings.json")).expect("read findings artifact")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

// ---- lock-order ---------------------------------------------------------

const INVERTED_LOCKS: &str = "\
struct Engine { a: Mutex<u32>, b: Mutex<u32> }
impl Engine {
    fn ab(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }
    fn ba(&self) { let _y = self.b.lock(); let _x = self.a.lock(); }
}
";

#[test]
fn planted_lock_inversion_is_caught() {
    let fx = Fixture::new("lock-inversion");
    fx.write("crates/eng/src/lib.rs", INVERTED_LOCKS);
    let out = fx.analyze();
    assert!(!out.status.success(), "gate must fail on an inversion");
    let err = stderr(&out);
    assert!(err.contains("[lock-order/cycle]"), "wrong failure: {err}");
    assert!(
        err.contains("Engine.a") && err.contains("Engine.b"),
        "{err}"
    );
    // The artifact pins the defect to file and line.
    let json = fx.json();
    assert!(
        json.contains("\"file\": \"crates/eng/src/lib.rs\""),
        "{json}"
    );
    assert!(json.contains("\"pass\": \"lock-order\""), "{json}");
    assert!(
        json.contains("\"line\": 3"),
        "cycle reported off-line: {json}"
    );
}

#[test]
fn consistent_lock_order_is_clean() {
    let fx = Fixture::new("lock-clean");
    fx.write(
        "crates/eng/src/lib.rs",
        "\
struct Engine { a: Mutex<u32>, b: Mutex<u32> }
impl Engine {
    fn ab(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }
    fn ab2(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }
}
",
    );
    let out = fx.analyze();
    assert!(
        out.status.success(),
        "consistent order flagged: {}",
        stderr(&out)
    );
}

#[test]
fn reacquire_through_helper_is_a_self_cycle() {
    let fx = Fixture::new("lock-reacquire");
    fx.write(
        "crates/eng/src/lib.rs",
        "\
struct Engine { a: Mutex<u32> }
impl Engine {
    fn outer(&self) { let _x = self.a.lock(); self.helper(); }
    fn helper(&self) { let _y = self.a.lock(); }
}
",
    );
    let out = fx.analyze();
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("[lock-order/self-cycle]"), "{err}");
    assert!(err.contains("via call to `helper`"), "{err}");
}

// ---- atomics ------------------------------------------------------------

#[test]
fn mismatched_release_acquire_pair_is_caught() {
    let fx = Fixture::new("atomics-unpaired");
    fx.write(
        "crates/obs/src/lib.rs",
        "\
struct T { flag: AtomicBool }
impl T {
    fn publish(&self) {
        // ordering: publishes the guarded buffer
        self.flag.store(true, Ordering::Release);
    }
    fn check(&self) -> bool {
        // ordering: reads the flag without pairing (the planted bug)
        self.flag.load(Ordering::Relaxed)
    }
}
",
    );
    let out = fx.analyze();
    assert!(!out.status.success(), "unpaired release must fail");
    let err = stderr(&out);
    assert!(err.contains("[atomics/release-unread]"), "{err}");
    assert!(err.contains("loads are Relaxed"), "{err}");
    assert!(fx.json().contains("\"line\": 5"), "{}", fx.json());
}

#[test]
fn unjustified_ordering_site_is_caught() {
    let fx = Fixture::new("atomics-nodoc");
    fx.write(
        "crates/obs/src/lib.rs",
        "\
struct T { n: AtomicU64 }
impl T {
    fn bump(&self) {
        self.n.fetch_add(1, Ordering::Relaxed);
    }
}
",
    );
    let out = fx.analyze();
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("[atomics/missing-justification]"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn justified_paired_atomics_are_clean() {
    let fx = Fixture::new("atomics-clean");
    fx.write(
        "crates/obs/src/lib.rs",
        "\
struct T { flag: AtomicBool }
impl T {
    fn publish(&self) {
        // ordering: pairs with the Acquire load in check
        self.flag.store(true, Ordering::Release);
    }
    fn check(&self) -> bool {
        // ordering: pairs with the Release store in publish
        self.flag.load(Ordering::Acquire)
    }
}
",
    );
    let out = fx.analyze();
    assert!(out.status.success(), "clean pair flagged: {}", stderr(&out));
}

#[test]
fn test_only_visible_fn_is_not_production_code() {
    let fx = Fixture::new("atomics-test-only");
    fx.write(
        "crates/obs/src/lib.rs",
        "\
struct T { n: AtomicU64 }
impl T {
    #[cfg(test)]
    pub(crate) fn poke(&self) {
        self.n.store(1, Ordering::Relaxed);
    }
}
",
    );
    let out = fx.analyze();
    assert!(
        out.status.success(),
        "a #[cfg(test)] pub(crate) fn was analyzed: {}",
        stderr(&out)
    );
}

#[test]
fn test_only_statement_in_a_production_fn_is_not_a_call() {
    let fx = Fixture::new("atomics-test-statement");
    fx.write(
        "crates/obs/src/lib.rs",
        "\
struct T { n: AtomicU64 }
impl T {
    fn production(&self) -> u64 {
        #[cfg(test)]
        self.n.store(7, Ordering::Relaxed);
        0
    }
}
",
    );
    let out = fx.analyze();
    assert!(
        out.status.success(),
        "a #[cfg(test)] statement was analyzed: {}",
        stderr(&out)
    );
}

// ---- analyze.conf -------------------------------------------------------

#[test]
fn a_directive_naming_an_undefined_method_is_caught() {
    let fx = Fixture::new("lockentry-unresolved");
    fx.write(
        "crates/xtask/analyze.conf",
        "lockentry LockTable lock_page,lock_range\n",
    );
    fx.write(
        "crates/eng/src/engine.rs",
        "\
pub struct LockTable;
impl LockTable {
    pub fn lock_page(&self) {}
}
",
    );
    let out = fx.analyze();
    assert!(
        !out.status.success(),
        "a directive matching nothing must fail"
    );
    let err = stderr(&out);
    assert!(err.contains("[lock-order/missing-method]"), "{err}");
    assert!(err.contains("`LockTable::lock_range`"), "{err}");
    assert!(!err.contains("`LockTable::lock_page`"), "{err}");
}

// ---- baseline mechanics -------------------------------------------------

#[test]
fn baselined_finding_passes_and_stale_entry_fails() {
    let fx = Fixture::new("baseline");
    fx.write("crates/eng/src/lib.rs", INVERTED_LOCKS);
    let out = fx.analyze();
    assert!(!out.status.success());
    // Pull the printed baseline key and accept it with a justification.
    let err = stderr(&out);
    let key = err
        .lines()
        .find_map(|l| l.trim().strip_prefix("baseline key: "))
        .expect("failure report names the baseline key");
    fx.write(
        "crates/xtask/analyze-baseline.txt",
        &format!("{key} | fixture: inversion is the point of this test\n"),
    );
    let out = fx.analyze();
    assert!(
        out.status.success(),
        "baselined finding must pass: {}",
        stderr(&out)
    );

    // Fix the defect but keep the entry: the gate must flag it as stale.
    fx.write(
        "crates/eng/src/lib.rs",
        "\
struct Engine { a: Mutex<u32>, b: Mutex<u32> }
impl Engine {
    fn ab(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }
}
",
    );
    let out = fx.analyze();
    assert!(!out.status.success(), "stale entry must fail the gate");
    assert!(
        stderr(&out).contains("stale baseline entry"),
        "{}",
        stderr(&out)
    );
}

// ---- artifact schema ----------------------------------------------------

/// Golden snapshot of the findings artifact for a one-defect fixture.
/// If this test fails because the schema deliberately changed, bump
/// `rda-analyze/v1` and update the expectation together.
#[test]
fn findings_artifact_matches_golden_snapshot() {
    let fx = Fixture::new("golden");
    fx.write(
        "crates/obs/src/lib.rs",
        "\
struct T { n: AtomicU64 }
impl T {
    fn bump(&self) {
        self.n.fetch_add(1, Ordering::Relaxed);
    }
}
",
    );
    let out = fx.analyze();
    assert!(!out.status.success());
    let expected = r#"{
  "schema": "rda-analyze/v1",
  "passes": ["lock-order", "atomics"],
  "total": 1, "unbaselined": 1,
  "findings": [
    {"pass": "atomics", "code": "missing-justification", "file": "crates/obs/src/lib.rs", "line": 4, "key": "atomics:crates/obs/src/lib.rs:T.n.fetch_add.Relaxed", "message": "`T.n.fetch_add(Ordering::Relaxed)` has no `// ordering:` justification comment", "baselined": false}
  ]
}
"#;
    assert_eq!(fx.json(), expected);
}

// ---- dogfood ------------------------------------------------------------

#[test]
fn this_repository_passes_its_own_analyze_gate() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("analyze")
        .current_dir(&repo_root)
        .output()
        .expect("run xtask binary");
    assert!(
        out.status.success(),
        "the repo must pass its own analyze gate:\n{}",
        stderr(&out)
    );
}
