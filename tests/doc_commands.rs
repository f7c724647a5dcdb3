//! Docs that execute: every `cargo run` / `cargo test` / `cargo bench`
//! command quoted in README.md, DESIGN.md, EXPERIMENTS.md,
//! benchmark/README.md and the verify skill must name a package, and `--bin` / `--example` / `--test` / `--bench`
//! targets, that exist in this checkout. A deleted binary, example or
//! bench then cannot linger in the docs.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "benchmark/README.md",
    ".claude/skills/verify/SKILL.md",
];

/// The target-selecting flags checked, with the directory cargo
/// auto-discovers each kind from.
const TARGET_KINDS: [(&str, &str); 4] = [
    ("--bin", "src/bin"),
    ("--example", "examples"),
    ("--test", "tests"),
    ("--bench", "benches"),
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// One package: its name and, per target flag, the target names.
struct Package {
    name: String,
    targets: BTreeMap<&'static str, BTreeSet<String>>,
}

/// Reads a package's targets the way cargo infers them: explicit
/// `[[bin]]`-style tables, plus every `*.rs` file in the conventional
/// directory whose path no explicit table claims.
fn package(dir: &Path) -> Package {
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml"))
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let mut name = String::new();
    let mut section = String::new();
    // (flag, name, path) of every explicit target table.
    let mut explicit: Vec<(&'static str, String, Option<String>)> = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line.to_string();
            let table = section.trim_matches(|c| c == '[' || c == ']');
            if let Some(&(flag, _)) = TARGET_KINDS
                .iter()
                .find(|(flag, _)| flag.trim_start_matches('-') == table)
            {
                if section.starts_with("[[") {
                    explicit.push((flag, String::new(), None));
                }
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let value = value.trim().trim_matches('"').to_string();
        match (section.as_str(), key.trim()) {
            ("[package]", "name") => name = value,
            (s, "name") if s.starts_with("[[") => {
                if let Some(t) = explicit.last_mut() {
                    t.1 = value;
                }
            }
            (s, "path") if s.starts_with("[[") => {
                if let Some(t) = explicit.last_mut() {
                    t.2 = Some(value);
                }
            }
            _ => {}
        }
    }
    assert!(!name.is_empty(), "{}: no [package] name", dir.display());
    let claimed: BTreeSet<&str> = explicit.iter().filter_map(|t| t.2.as_deref()).collect();
    let mut targets: BTreeMap<&'static str, BTreeSet<String>> = BTreeMap::new();
    for (flag, target, _) in &explicit {
        targets.entry(flag).or_default().insert(target.clone());
    }
    for (flag, sub) in TARGET_KINDS {
        let Ok(entries) = std::fs::read_dir(dir.join(sub)) else {
            continue;
        };
        for entry in entries.flatten() {
            let file = entry.file_name().to_string_lossy().into_owned();
            if let Some(stem) = file.strip_suffix(".rs") {
                if !claimed.contains(format!("{sub}/{file}").as_str()) {
                    targets.entry(flag).or_default().insert(stem.to_string());
                }
            }
        }
    }
    Package { name, targets }
}

/// The root package followed by every workspace member.
fn workspace() -> Vec<Package> {
    let mut dirs = vec![root()];
    for parent in ["crates", "crates/compat"] {
        let mut members: Vec<PathBuf> = std::fs::read_dir(root().join(parent))
            .expect("read crates/")
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.join("Cargo.toml").exists())
            .collect();
        members.sort();
        dirs.extend(members);
    }
    dirs.iter().map(|d| package(d)).collect()
}

/// Every `cargo run|test|bench …` command in `doc`, with
/// backslash-continued lines joined and each command cut at a closing
/// backtick.
fn commands(doc: &str) -> Vec<String> {
    let mut lines = Vec::new();
    let mut pending = String::new();
    for line in doc.lines() {
        match line.trim_end().strip_suffix('\\') {
            Some(head) => {
                pending.push_str(head);
                pending.push(' ');
            }
            None => {
                pending.push_str(line);
                lines.push(std::mem::take(&mut pending));
            }
        }
    }
    let mut out = Vec::new();
    for line in &lines {
        let mut rest = line.as_str();
        while let Some(at) = rest.find("cargo ") {
            let tail = &rest[at..];
            let end = tail.find('`').unwrap_or(tail.len());
            let cmd = &tail[..end];
            if matches!(
                cmd.split_whitespace().nth(1),
                Some("run" | "test" | "bench")
            ) {
                out.push(cmd.trim().to_string());
            }
            rest = &tail["cargo ".len()..];
        }
    }
    out
}

/// Checks one command against the workspace; `Err` says what is missing.
/// Words after `--` or a `#` comment belong to the program, not cargo.
fn check(cmd: &str, packages: &[Package]) -> Result<(), String> {
    let mut words = cmd.split_whitespace().skip(2);
    let mut package_name = None;
    let mut manifest = None;
    let mut wanted: Vec<(&'static str, String)> = Vec::new();
    while let Some(word) = words.next() {
        if word == "--" || word.starts_with('#') {
            break;
        }
        let mut value = || {
            words
                .next()
                .map(str::to_string)
                .ok_or_else(|| format!("{word} without a value"))
        };
        match word {
            "-p" | "--package" => package_name = Some(value()?),
            "--manifest-path" => manifest = Some(value()?),
            _ => {
                if let Some(&(kind, _)) = TARGET_KINDS.iter().find(|(k, _)| *k == word) {
                    wanted.push((kind, value()?));
                }
            }
        }
    }
    let foreign;
    let pkg = if let Some(path) = manifest {
        let path = root().join(path);
        if !path.exists() {
            return Err(format!("manifest {} does not exist", path.display()));
        }
        foreign = package(path.parent().expect("manifest has a directory"));
        &foreign
    } else if let Some(name) = package_name {
        packages
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| format!("no workspace package `{name}`"))?
    } else {
        &packages[0]
    };
    for (kind, target) in wanted {
        if !pkg.targets.get(kind).is_some_and(|t| t.contains(&target)) {
            return Err(format!("no {kind} target `{target}`"));
        }
    }
    Ok(())
}

#[test]
fn documented_cargo_commands_name_real_packages_and_targets() {
    let packages = workspace();
    let mut checked = 0;
    let mut broken = Vec::new();
    for doc in DOCS {
        let text =
            std::fs::read_to_string(root().join(doc)).unwrap_or_else(|e| panic!("read {doc}: {e}"));
        for cmd in commands(&text) {
            checked += 1;
            if let Err(why) = check(&cmd, &packages) {
                broken.push(format!("{doc}: `{cmd}`: {why}"));
            }
        }
    }
    assert!(broken.is_empty(), "stale commands:\n{}", broken.join("\n"));
    assert!(
        checked >= 30,
        "only {checked} commands found; extraction broke"
    );
}

#[test]
fn the_checker_rejects_what_does_not_exist() {
    let packages = workspace();
    for cmd in [
        "cargo run -p cc-bench --bin perf",
        "cargo run --release --example quickstart",
        "cargo run -p cc-bench --bin cc-top",
        "cargo test --release --test stress",
        "cargo run --manifest-path benchmark/Cargo.toml --bin ccbench -- smoke",
    ] {
        check(cmd, &packages).unwrap_or_else(|e| panic!("{cmd}: {e}"));
    }
    for cmd in [
        "cargo run -p cc-nope",
        "cargo run -p cc-bench --bin nope",
        "cargo run --example nope",
        "cargo bench -p cc-bench --bench gc_rounds",
        "cargo test --manifest-path nope/Cargo.toml",
    ] {
        assert!(check(cmd, &packages).is_err(), "{cmd} passed");
    }
    assert_eq!(
        commands("a `cargo run --bin x -- y` b\ncargo test \\\n  --test z\ncargo build"),
        vec!["cargo run --bin x -- y", "cargo test    --test z"]
    );
}
