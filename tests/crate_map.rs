//! DESIGN.md's crate map and dependency DAG agree with the workspace:
//! the map names every crate under `crates/`, and each DAG line lists
//! exactly the workspace crates its `Cargo.toml` `[dependencies]`
//! names.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// One `Cargo.toml`: its package name and the packages its
/// `[dependencies]` table names.
fn manifest(path: &Path) -> (String, BTreeSet<String>) {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let (mut name, mut deps, mut section) = (None, BTreeSet::new(), "");
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if line.is_empty() || line.starts_with('#') {
        } else if section == "[package]" && line.starts_with("name") {
            name = line.split('"').nth(1).map(str::to_string);
        } else if section == "[dependencies]" {
            let key = line.split(['.', '=', ' ']).next().unwrap();
            deps.insert(key.to_string());
        }
    }
    (name.expect("package name"), deps)
}

/// The lines of the fenced block that follows the first line of
/// `section` starting with `marker`.
fn block<'a>(section: &'a str, marker: &str) -> Vec<&'a str> {
    let mut lines = section.lines().skip_while(|l| !l.starts_with(marker));
    lines.find(|l| l.starts_with("```"));
    lines.take_while(|l| !l.starts_with("```")).collect()
}

#[test]
fn design_crate_map_matches_the_manifests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Directory name → (package name, dependency package names).
    let mut crates = BTreeMap::new();
    for entry in fs::read_dir(root.join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        let toml = dir.join("Cargo.toml");
        if toml.exists() {
            let name = dir.file_name().unwrap().to_str().unwrap().to_string();
            crates.insert(name, manifest(&toml));
        }
    }
    let dir_of: BTreeMap<&str, &str> = crates
        .iter()
        .map(|(dir, (package, _))| (package.as_str(), dir.as_str()))
        .collect();

    let design = fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("Crate map"))
        .expect("DESIGN.md has a \"Crate map\" section");

    // Map rows read `├── <dir>/   <package>   <summary>`.
    let mut mapped = BTreeMap::new();
    for row in block(section, "```") {
        let mut cols = row.split_once("── ").map_or("", |r| r.1).split_whitespace();
        if let (Some(dir), Some(package)) = (cols.next(), cols.next()) {
            mapped.insert(dir.trim_end_matches('/'), package);
        }
    }
    for (dir, (package, _)) in &crates {
        let listed = mapped.remove(dir.as_str());
        assert_eq!(
            listed,
            Some(package.as_str()),
            "crate map row for crates/{dir}"
        );
    }
    assert!(
        mapped.is_empty(),
        "crate map lists unknown crates: {mapped:?}"
    );

    let mut dag = BTreeMap::new();
    for line in block(section, "Dependency DAG") {
        let (dir, deps) = line.split_once(':').expect("`crate: deps` line");
        let deps: BTreeSet<&str> = deps
            .split(',')
            .map(str::trim)
            .filter(|d| !d.is_empty())
            .collect();
        assert!(dag.insert(dir, deps).is_none(), "DAG lists {dir} twice");
    }
    for (dir, (_, deps)) in &crates {
        let declared: BTreeSet<&str> = deps
            .iter()
            .map(|p| {
                *dir_of
                    .get(p.as_str())
                    .unwrap_or_else(|| panic!("{dir}: {p} is not a workspace crate"))
            })
            .collect();
        let listed = dag
            .remove(dir.as_str())
            .unwrap_or_else(|| panic!("DAG has no line for {dir}"));
        assert_eq!(
            listed, declared,
            "DAG line for {dir} disagrees with crates/{dir}/Cargo.toml"
        );
    }
    assert!(dag.is_empty(), "DAG lists unknown crates: {:?}", dag.keys());
}
