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

// ---- confine ------------------------------------------------------------

const CONFINE_CONF: &str = "confine DirtySet mark -> crates/eng/src/engine.rs\n";

#[test]
fn unconfined_state_mutation_is_caught() {
    let fx = Fixture::new("confine-violation");
    fx.write("crates/xtask/analyze.conf", CONFINE_CONF);
    fx.write(
        "crates/eng/src/engine.rs",
        "\
pub struct DirtySet { pages: Vec<u32> }
impl DirtySet {
    pub fn mark(&mut self, p: u32) { self.pages.push(p); }
}
",
    );
    fx.write(
        "crates/eng/src/elsewhere.rs",
        "\
use super::engine::DirtySet;
fn sneaky(d: &mut DirtySet) {
    d.mark(7);
}
",
    );
    let out = fx.analyze();
    assert!(!out.status.success(), "unconfined mark must fail");
    let err = stderr(&out);
    assert!(err.contains("[confine/unconfined-call]"), "{err}");
    assert!(err.contains("elsewhere.rs"), "{err}");
}

#[test]
fn confined_mutation_is_clean() {
    let fx = Fixture::new("confine-clean");
    fx.write("crates/xtask/analyze.conf", CONFINE_CONF);
    fx.write(
        "crates/eng/src/engine.rs",
        "\
pub struct DirtySet { pages: Vec<u32> }
impl DirtySet {
    pub fn mark(&mut self, p: u32) { self.pages.push(p); }
}
pub struct Engine { dirty: DirtySet }
impl Engine {
    fn touch(&mut self, p: u32) { self.dirty.mark(p); }
}
",
    );
    let out = fx.analyze();
    assert!(
        out.status.success(),
        "confined call flagged: {}",
        stderr(&out)
    );
}

#[test]
fn a_directive_naming_an_undefined_method_is_caught() {
    let fx = Fixture::new("confine-unresolved");
    fx.write(
        "crates/xtask/analyze.conf",
        "confine DirtySet mark,unmark -> crates/eng/src/engine.rs\n\
         lockentry DirtySet lock_page\n",
    );
    fx.write(
        "crates/eng/src/engine.rs",
        "\
pub struct DirtySet { pages: Vec<u32> }
impl DirtySet {
    pub fn mark(&mut self, p: u32) { self.pages.push(p); }
}
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
    assert!(err.contains("[confine/missing-method]"), "{err}");
    assert!(err.contains("`DirtySet::unmark`"), "{err}");
    assert!(err.contains("[lock-order/missing-method]"), "{err}");
    assert!(err.contains("`DirtySet::lock_page`"), "{err}");
    assert!(!err.contains("`DirtySet::mark`"), "{err}");
}

#[test]
fn test_only_statement_in_a_production_fn_is_not_a_call() {
    let fx = Fixture::new("confine-test-statement");
    fx.write("crates/xtask/analyze.conf", CONFINE_CONF);
    fx.write(
        "crates/eng/src/engine.rs",
        "\
pub struct DirtySet { pages: Vec<u32> }
impl DirtySet {
    pub fn mark(&mut self, p: u32) { self.pages.push(p); }
}
",
    );
    fx.write(
        "crates/eng/src/elsewhere.rs",
        "\
use super::engine::DirtySet;
fn production(d: &mut DirtySet) {
    #[cfg(test)]
    d.mark(7);
    let _ = d;
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

// ---- io-pairing ---------------------------------------------------------

const IOPAIR_CONF: &str =
    "iopair crates/arr/src/array.rs phys=read,write recv=disk,disks bill=record_io\n";

#[test]
fn unbilled_physical_io_is_caught() {
    let fx = Fixture::new("iopair-unbilled");
    fx.write("crates/xtask/analyze.conf", IOPAIR_CONF);
    fx.write(
        "crates/arr/src/array.rs",
        "\
impl DiskArray {
    fn read_data(&self, loc: Loc) -> Page {
        self.disk(loc.disk).read(loc.block)
    }
}
",
    );
    let out = fx.analyze();
    assert!(!out.status.success(), "unbilled read must fail");
    let err = stderr(&out);
    assert!(err.contains("[io-pairing/unbilled-io]"), "{err}");
    assert!(err.contains("read_data"), "{err}");
    assert!(fx.json().contains("\"line\": 3"), "{}", fx.json());
}

#[test]
fn billed_physical_io_is_clean() {
    let fx = Fixture::new("iopair-billed");
    fx.write("crates/xtask/analyze.conf", IOPAIR_CONF);
    fx.write(
        "crates/arr/src/array.rs",
        "\
impl DiskArray {
    fn read_data(&self, loc: Loc) -> Page {
        self.tracer.record_io(|| Event::Read);
        self.disk(loc.disk).read(loc.block)
    }
}
",
    );
    let out = fx.analyze();
    assert!(
        out.status.success(),
        "billed read flagged: {}",
        stderr(&out)
    );
}

/// `recv` also names a path segment: a rename that puts a file in place
/// must be preceded, in the same fn, by the `sync_data` of what it puts
/// there.
#[test]
fn path_call_io_is_paired_by_a_path_segment() {
    let conf = "iopair crates/st/src/meta.rs phys=rename recv=fs bill=sync_data\n";
    let body = |sync: &str| {
        format!(
            "\
fn replace(tmp: &Path, path: &Path, file: &File) -> io::Result<()> {{
    {sync}
    std::fs::rename(tmp, path)
}}
fn unrelated(names: &mut Names) {{
    names.rename(1, 2);
}}
"
        )
    };
    let fx = Fixture::new("iopair-path-unsynced");
    fx.write("crates/xtask/analyze.conf", conf);
    fx.write("crates/st/src/meta.rs", &body(""));
    let out = fx.analyze();
    assert!(!out.status.success(), "unsynced rename must fail");
    let err = stderr(&out);
    assert!(err.contains("fn `replace` performs physical I/O"), "{err}");
    assert!(!err.contains("unrelated"), "{err}");

    let fx = Fixture::new("iopair-path-synced");
    fx.write("crates/xtask/analyze.conf", conf);
    fx.write("crates/st/src/meta.rs", &body("file.sync_data()?;"));
    let out = fx.analyze();
    assert!(
        out.status.success(),
        "synced rename flagged: {}",
        stderr(&out)
    );
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
    fx.write("crates/xtask/analyze.conf", IOPAIR_CONF);
    fx.write(
        "crates/arr/src/array.rs",
        "\
impl DiskArray {
    fn read_data(&self, loc: Loc) -> Page {
        self.disk(loc.disk).read(loc.block)
    }
}
",
    );
    let out = fx.analyze();
    assert!(!out.status.success());
    let expected = r#"{
  "schema": "rda-analyze/v1",
  "passes": ["lock-order", "atomics", "confine", "io-pairing"],
  "total": 1, "unbaselined": 1,
  "findings": [
    {"pass": "io-pairing", "code": "unbilled-io", "file": "crates/arr/src/array.rs", "line": 3, "key": "io-pairing:crates/arr/src/array.rs:fn-read_data", "message": "fn `read_data` performs physical I/O but never calls record_io", "baselined": false}
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
