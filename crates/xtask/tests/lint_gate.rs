//! End-to-end tests of `cargo xtask lint`, driving the real binary
//! against throwaway fixture workspaces and against this repository.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch workspace that cleans up after itself.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let root = std::env::temp_dir().join(format!("xtask-lint-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/core/src")).expect("mkdir fixture");
        fs::create_dir_all(root.join("crates/xtask")).expect("mkdir fixture xtask");
        fs::write(
            root.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/core\"]\n\n\
             [workspace.lints.rust]\nunsafe_code = \"deny\"\n",
        )
        .expect("write root manifest");
        fs::write(
            root.join("crates/core/Cargo.toml"),
            "[package]\nname = \"rda-core\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
             [lints]\nworkspace = true\n",
        )
        .expect("write core manifest");
        fs::write(root.join("crates/xtask/unwrap-baseline.txt"), "").expect("write baseline");
        Fixture { root }
    }

    fn write(&self, rel: &str, content: &str) {
        fs::write(self.root.join(rel), content).expect("write fixture file");
    }

    fn lint(&self) -> Output {
        run_lint_in(&self.root)
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn run_lint_in(dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .current_dir(dir)
        .output()
        .expect("run xtask binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn new_unwrap_in_core_fails_the_gate() {
    let fx = Fixture::new("new-unwrap");
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn risky(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n",
    );
    let out = fx.lint();
    assert!(!out.status.success(), "gate must fail on a fresh unwrap");
    let err = stderr(&out);
    assert!(err.contains("[unwrap-ratchet]"), "wrong failure: {err}");
    assert!(
        err.contains("crates/core/src/lib.rs"),
        "must name the file: {err}"
    );
}

#[test]
fn baselined_unwrap_passes_until_count_rises() {
    let fx = Fixture::new("baselined");
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn risky(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n",
    );
    fx.write(
        "crates/xtask/unwrap-baseline.txt",
        "1 crates/core/src/lib.rs\n",
    );
    let out = fx.lint();
    assert!(
        out.status.success(),
        "baselined count must pass: {}",
        stderr(&out)
    );

    // A second call site exceeds the ratchet.
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn risky(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n\
         pub fn risky2(v: Option<u8>) -> u8 {\n    v.clone().unwrap()\n}\n",
    );
    let out = fx.lint();
    assert!(
        !out.status.success(),
        "ratchet must catch the second unwrap"
    );
    assert!(
        stderr(&out).contains("baseline allows 1"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn test_code_comments_and_strings_are_exempt() {
    let fx = Fixture::new("exempt");
    fx.write(
        "crates/core/src/lib.rs",
        "//! doc: call .unwrap() freely in examples\n\
         pub fn msg() -> &'static str {\n    \".unwrap() in a string\"\n}\n\
         #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n",
    );
    let out = fx.lint();
    assert!(
        out.status.success(),
        "exempt contexts flagged: {}",
        stderr(&out)
    );
}

#[test]
fn expect_after_a_test_only_field_fails_the_gate() {
    let fx = Fixture::new("test-field");
    fx.write(
        "crates/core/src/lib.rs",
        "pub struct S {\n    #[cfg(test)]\n    pub(crate) hook: Option<u8>,\n    pub n: u8,\n}\n\n\
         impl S {\n    pub fn risky(&self, v: Option<u8>) -> u8 {\n        \
         v.expect(\"present\")\n    }\n}\n",
    );
    let out = fx.lint();
    assert!(
        !out.status.success(),
        "the impl after a test-only field was blanked"
    );
    let err = stderr(&out);
    assert!(
        err.contains("[unwrap-ratchet]") && err.contains("crates/core/src/lib.rs"),
        "wrong failure: {err}"
    );
}

#[test]
fn unsafe_and_missing_workspace_lints_are_caught() {
    let fx = Fixture::new("unsafe");
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn peek(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
    );
    let out = fx.lint();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("[deny-unsafe]"), "{}", stderr(&out));

    fx.write("crates/core/src/lib.rs", "pub fn fine() {}\n");
    fx.write(
        "crates/core/Cargo.toml",
        "[package]\nname = \"rda-core\"\nversion = \"0.0.0\"\nedition = \"2021\"\n",
    );
    let out = fx.lint();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("[lint-config]"), "{}", stderr(&out));
}

#[test]
fn undocumented_public_result_fn_is_caught() {
    let fx = Fixture::new("errdoc");
    fx.write(
        "crates/core/src/lib.rs",
        "/// Does things.\npub fn act() -> Result<(), String> {\n    Ok(())\n}\n",
    );
    let out = fx.lint();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("[errors-doc]"), "{}", stderr(&out));

    fx.write(
        "crates/core/src/lib.rs",
        "/// Does things.\n///\n/// # Errors\n/// Never, actually.\n\
         pub fn act() -> Result<(), String> {\n    Ok(())\n}\n",
    );
    let out = fx.lint();
    assert!(
        out.status.success(),
        "documented fn flagged: {}",
        stderr(&out)
    );
}

#[test]
fn sim_disk_outside_array_is_caught() {
    let fx = Fixture::new("simdisk");
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn sneaky(d: &rda_array::SimDisk) {\n    let _ = d;\n}\n",
    );
    let out = fx.lint();
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("[array-discipline]"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn shared_gate_types_stay_in_the_backend_crates() {
    let fx = Fixture::new("gate");
    let medium = "pub struct Tape;\nimpl rda_array::Medium for Tape {}\n\
                  pub type TapeDisk = rda_array::Drive<Tape>;\n";
    fs::create_dir_all(fx.root.join("crates/storage/src")).expect("mkdir storage");
    fx.write("crates/storage/src/lib.rs", medium);
    let out = fx.lint();
    assert!(
        out.status.success(),
        "backend crate flagged: {}",
        stderr(&out)
    );

    fx.write("crates/core/src/lib.rs", medium);
    let out = fx.lint();
    let err = stderr(&out);
    assert!(!out.status.success());
    assert!(
        err.contains("[array-discipline] crates/core/src/lib.rs"),
        "{err}"
    );
    for token in ["`Medium`", "`Drive`"] {
        assert!(err.contains(token), "must name {token}: {err}");
    }
}

#[test]
fn registry_dependency_in_any_table_is_caught() {
    const PACKAGE: &str =
        "[package]\nname = \"rda-core\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n";
    const LINTS: &str = "\n[lints]\nworkspace = true\n";
    let fx = Fixture::new("closure");
    fx.write("crates/core/src/lib.rs", "pub fn fine() {}\n");
    let lint_with = |deps: &str| {
        fx.write("crates/core/Cargo.toml", &format!("{PACKAGE}{deps}{LINTS}"));
        fx.lint()
    };

    let local = "[dependencies]\nrda-obs.workspace = true\nrda-wal = { path = \"../wal\" }\n\
                 [dev-dependencies.rda-array]\npath = \"../array\"\n";
    let out = lint_with(local);
    assert!(out.status.success(), "path deps flagged: {}", stderr(&out));

    for (deps, name) in [
        ("[dependencies]\nregex = \"1\"\n", "regex"),
        (
            "[dev-dependencies]\ntempfile = { version = \"3\" }\n",
            "tempfile",
        ),
        (
            "[target.'cfg(unix)'.dependencies]\nlibc = \"0.2\"\n",
            "libc",
        ),
        ("[build-dependencies.cc]\nversion = \"1\"\n", "cc"),
    ] {
        let out = lint_with(deps);
        let err = stderr(&out);
        assert!(!out.status.success(), "{name} must fail the gate");
        assert!(err.contains("[closed-closure]"), "wrong failure: {err}");
        assert!(
            err.contains(&format!("`{name}`")),
            "must name {name}: {err}"
        );
    }

    // The root's [workspace.dependencies] must hold paths only.
    lint_with(local);
    fx.write(
        "Cargo.toml",
        "[workspace]\nmembers = [\"crates/core\"]\n\n[workspace.dependencies]\nrand = \"0.8\"\n\n\
         [workspace.lints.rust]\nunsafe_code = \"deny\"\n",
    );
    let out = fx.lint();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("Cargo.toml:5"), "{}", stderr(&out));
}

#[test]
fn hand_built_json_is_caught_and_its_json_obj_twin_passes() {
    let fx = Fixture::new("one-json");
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn row(v: u64) -> String {\n    format!(\"{{\\\"k\\\":{v}}}\")\n}\n",
    );
    let out = fx.lint();
    let err = stderr(&out);
    assert!(!out.status.success(), "hand-built JSON must fail the gate");
    assert!(err.contains("[one-json]"), "wrong failure: {err}");
    assert!(
        err.contains("crates/core/src/lib.rs:2"),
        "must name file:line: {err}"
    );

    // The same row as a value passes; a test item may still spell JSON out.
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn row(v: u64) -> String {\n    rda_obs::json_obj! { \"k\": v }.to_string()\n}\n\
         #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
         assert_eq!(super::row(1), \"{\\\"k\\\":1}\");\n    }\n}\n",
    );
    let out = fx.lint();
    assert!(
        out.status.success(),
        "json_obj! twin flagged: {}",
        stderr(&out)
    );
}

#[test]
fn this_repository_passes_its_own_gate() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = run_lint_in(&repo_root);
    assert!(
        out.status.success(),
        "the repo must pass its own lint gate:\n{}",
        stderr(&out)
    );
}
