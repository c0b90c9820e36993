//! The public-surface audit (ROADMAP 8a, 8e), run by the tier-1 command:
//!
//! * every `pub fn` under `crates/*/src` whose name only one crate
//!   defines is *read*: the name appears as a word in some `.rs` file
//!   outside that crate's `src/` — another crate's `src/`, any `tests/`,
//!   `benches/` or `examples/`, or the frozen ladder's `benchmark/src/`
//!   (so the API the ladder calls can never be made private). A `pub use`
//!   re-export in the facade is not a reader;
//! * every dependency a manifest declares is named by the code it is
//!   declared for: `[dependencies]` in the package's `src/`,
//!   `[dev-dependencies]` in its `src/`, `tests/`, `benches/` or
//!   `examples/`.
//!
//! Name-level, not type-checked: a name shared by two crates is skipped,
//! and a same-named word in code anywhere counts as a read (a comment or
//! a string literal does not). It cannot prove an item used; it catches
//! the surface nobody names at all. There is no allowlist: an unread
//! function is deleted or narrowed to `pub(crate)`.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// What one scan of a checkout found.
struct Audit {
    crates: Vec<String>,
    /// Distinct `pub fn` names defined under `crates/*/src`.
    pub_fn_names: usize,
    /// Unread uniquely named functions: name → where it is defined.
    unread: BTreeMap<String, String>,
    /// Declared dependencies no code names, one line each.
    unused_deps: Vec<String>,
}

/// Scans the checkout rooted at `root`.
fn audit(root: &Path) -> Audit {
    let mut crates: Vec<String> = fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().join("Cargo.toml").is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    crates.sort();

    // name → crate → defining file
    let mut defs: BTreeMap<String, BTreeMap<&str, PathBuf>> = BTreeMap::new();
    // Every file that may read a name, with the crate whose `src/` it is
    // in (`None` for test, bench and example code, the facade, the ladder).
    let mut readers: Vec<(Option<&str>, BTreeSet<String>)> = Vec::new();
    for krate in &crates {
        let dir = root.join("crates").join(krate);
        for file in rs_files(&dir.join("src")) {
            let text = read(&file);
            for name in pub_fns(&without_cfg_test(&code_only(&text))) {
                defs.entry(name).or_default().insert(krate, file.clone());
            }
            readers.push((Some(krate), words(&text)));
        }
        readers.extend(support_files(&dir).iter().map(|f| (None, words(&read(f)))));
    }
    for file in rs_files(&root.join("src")) {
        readers.push((None, words(&without_pub_use(&code_only(&read(&file))))));
    }
    for file in support_files(root)
        .into_iter()
        .chain(rs_files(&root.join("benchmark/src")))
    {
        // This file's own helpers are no readers of the workspace.
        if !file.ends_with("tests/public_surface.rs") {
            readers.push((None, words(&read(&file))));
        }
    }

    let mut unread = BTreeMap::new();
    for (name, defined_in) in &defs {
        let [(krate, file)] = defined_in.iter().collect::<Vec<_>>()[..] else {
            continue;
        };
        if !readers
            .iter()
            .any(|(owner, words)| owner != &Some(*krate) && words.contains(name))
        {
            let file = file.strip_prefix(root).unwrap_or(file).display();
            unread.insert(name.clone(), format!("{krate} ({file})"));
        }
    }

    let packages = std::iter::once(root.to_path_buf())
        .chain(crates.iter().map(|krate| root.join("crates").join(krate)));
    let mut unused_deps = Vec::new();
    for dir in packages {
        let manifest = dir.join("Cargo.toml");
        let src: BTreeSet<String> = rs_files(&dir.join("src"))
            .iter()
            .flat_map(|f| words(&read(f)))
            .collect();
        let all: BTreeSet<String> = support_files(&dir)
            .iter()
            .flat_map(|f| words(&read(f)))
            .chain(src.iter().cloned())
            .collect();
        for (section, names) in [("dependencies", &src), ("dev-dependencies", &all)] {
            for dep in declared(&read(&manifest), section) {
                if !names.contains(&dep.replace('-', "_")) {
                    let manifest = manifest.strip_prefix(root).unwrap_or(&manifest).display();
                    unused_deps.push(format!("{manifest}: [{section}] `{dep}`"));
                }
            }
        }
    }

    Audit {
        pub_fn_names: defs.len(),
        crates,
        unread,
        unused_deps,
    }
}

/// The keys of a manifest's `[section]` table.
fn declared(manifest: &str, section: &str) -> Vec<String> {
    let mut inside = false;
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == format!("[{section}]");
        } else if inside && !line.is_empty() && !line.starts_with('#') {
            out.extend(line.split(['.', '=', ' ']).next().map(str::to_string));
        }
    }
    out
}

/// `tests/`, `benches/` and `examples/` sources under `dir`.
fn support_files(dir: &Path) -> Vec<PathBuf> {
    ["tests", "benches", "examples"]
        .iter()
        .flat_map(|sub| rs_files(&dir.join(sub)))
        .collect()
}

/// Every `.rs` file under `dir`, recursively (none if it does not exist).
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for path in fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
    {
        if path.is_dir() {
            out.extend(rs_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    out.sort();
    out
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifiers `src`'s code names: a word in a comment or a literal
/// reads nothing.
fn words(src: &str) -> BTreeSet<String> {
    code_only(src)
        .split(|c: char| !is_ident(c))
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

/// `src` with comments and the contents of string and char literals
/// blanked to spaces, so neither a doc example nor a format string reads
/// as code.
fn code_only(src: &str) -> String {
    let s = src.as_bytes();
    let mut out = s.to_vec();
    let find = |from: usize, pat: &str| {
        src.get(from..)
            .and_then(|t| t.find(pat))
            .map_or(s.len(), |k| from + k)
    };
    let mut i = 0;
    while i < s.len() {
        let (next, after) = (s.get(i + 1).copied(), s.get(i + 2).copied());
        let end = match s[i] {
            b'/' if next == Some(b'/') => find(i, "\n"),
            b'/' if next == Some(b'*') => find(i + 2, "*/") + 2,
            b'r' if matches!(next, Some(b'"' | b'#'))
                && (i == 0 || !is_ident(s[i - 1] as char)) =>
            {
                let hashes = s[i + 1..].iter().take_while(|&&b| b == b'#').count();
                if s.get(i + 1 + hashes) != Some(&b'"') {
                    i += 1; // a raw identifier such as `r#type`
                    continue;
                }
                let close = format!("\"{}", "#".repeat(hashes));
                find(i + 2 + hashes, &close) + close.len()
            }
            b'"' => {
                let mut j = i + 1;
                while j < s.len() && s[j] != b'"' {
                    j += if s[j] == b'\\' { 2 } else { 1 };
                }
                j + 1
            }
            b'\'' if next == Some(b'\\') => find(i + 3, "'") + 1,
            b'\'' if after == Some(b'\'') => i + 3,
            // A lifetime, or anything else.
            _ => {
                i += 1;
                continue;
            }
        }
        .min(s.len());
        for b in &mut out[i..end] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
        i = end;
    }
    String::from_utf8(out).expect("only whole characters are blanked")
}

/// `code` without the items marked `#[cfg(test)]`: each ends at its first
/// `;` outside braces, or at the brace closing its first `{`.
fn without_cfg_test(code: &str) -> String {
    let mut out = String::new();
    let mut rest = code;
    while let Some(at) = rest.find("#[cfg(test)]") {
        out.push_str(&rest[..at]);
        let mut depth = 0;
        let end = rest[at..].find(|c| {
            depth += match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            };
            depth == 0 && (c == ';' || c == '}')
        });
        rest = end.map_or("", |k| &rest[at + k + 1..]);
    }
    out + rest
}

/// `code` without its `pub use` statements.
fn without_pub_use(code: &str) -> String {
    let mut parts = code.split("pub use ");
    let head = parts.next().unwrap_or_default().to_string();
    head + &parts
        .map(|part| part.split_once(';').map_or("", |(_, after)| after))
        .collect::<String>()
}

/// The names of the `pub fn`s (`pub const fn`, …) declared in `code`;
/// `pub(crate)` and narrower are not public.
fn pub_fns(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (at, _) in code.match_indices("pub ") {
        let mut rest = code[at + 4..].trim_start();
        while let Some(r) = ["const ", "unsafe ", "async ", "extern "]
            .iter()
            .find_map(|m| rest.strip_prefix(m))
        {
            rest = r.trim_start();
        }
        if let Some(r) = rest.strip_prefix("fn ") {
            out.push(
                r.trim_start()
                    .chars()
                    .take_while(|&c| is_ident(c))
                    .collect(),
            );
        }
    }
    out
}

#[test]
fn every_public_function_has_a_reader_and_every_dependency_a_user() {
    let audit = audit(Path::new(env!("CARGO_MANIFEST_DIR")));
    assert_eq!(audit.crates.len(), 12, "crates visited: {:?}", audit.crates);
    assert!(
        audit.pub_fn_names >= 300,
        "only {} pub fn names found: is the scan looking in the right place?",
        audit.pub_fn_names
    );
    let mut problems: Vec<String> = audit
        .unread
        .iter()
        .map(|(name, at)| format!("`{name}` in {at}: no file outside its crate names it — delete it or make it pub(crate)"))
        .collect();
    problems.extend(
        audit
            .unused_deps
            .iter()
            .map(|dep| format!("{dep}: declared, never named")),
    );
    assert!(
        problems.is_empty(),
        "surface audit:\n  {}",
        problems.join("\n  ")
    );
}

#[test]
fn the_scanner_reports_what_is_planted() {
    let root = std::env::temp_dir().join(format!("askel-public-surface-{}", std::process::id()));
    let write = |path: &str, text: &str| {
        let path = root.join(path);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, text).unwrap();
    };
    write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    write(
        "crates/alpha/Cargo.toml",
        "[dependencies]\nbeta.workspace = true\nunused-dep = \"1\"\n",
    );
    write(
        "crates/alpha/src/lib.rs",
        r#"
        use beta::shared;
        /// `pub fn in_a_doc_comment()` is no definition.
        pub fn planted_unread() { let _ = "pub fn in_a_string() {"; }
        pub fn read_by_beta() {}
        pub const fn read_by_the_ladder() {}
        pub fn read_only_by_own_tests() {}
        pub(crate) fn crate_private() {}
        #[cfg(test)]
        pub fn a_test_helper() {}
        #[cfg(test)]
        mod tests {
            #[test]
            fn t() { super::read_only_by_own_tests(); let _ = '}'; }
        }
        "#,
    );
    write("crates/beta/Cargo.toml", "[dependencies]\n");
    // A name in a comment or a string literal is no read.
    write(
        "crates/beta/src/lib.rs",
        "pub fn shared() { read_by_beta(); let _ = \"planted_unread\"; }\n\
         // read_only_by_own_tests\n",
    );
    write(
        "benchmark/src/main.rs",
        "fn main() { read_by_the_ladder(); }\n",
    );
    let audit = audit(&root);
    fs::remove_dir_all(&root).unwrap();

    assert_eq!(audit.crates, ["alpha", "beta"]);
    assert_eq!(audit.pub_fn_names, 5);
    assert_eq!(
        audit.unread.keys().collect::<Vec<_>>(),
        ["planted_unread", "read_only_by_own_tests"]
    );
    assert_eq!(
        audit.unread["planted_unread"],
        format!("alpha ({})", Path::new("crates/alpha/src/lib.rs").display())
    );
    assert_eq!(
        audit.unused_deps,
        ["crates/alpha/Cargo.toml: [dependencies] `unused-dep`"]
    );
}
