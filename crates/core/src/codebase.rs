//! The parsed codebase of one case.
//!
//! Sources travel between pipeline stages as `(name, source)` text, and
//! each stage parses them once into a [`Codebase`]: the detect compile,
//! race-info extraction and every consumer of the fix arm (prompt cuts,
//! integration, the static probe, the single-path validation) read that
//! one parse. A candidate patch is a `Revision` of the codebase: only
//! the file it rewrote is parsed again, the unchanged files reuse the
//! cached trees.
//!
//! A `Codebase` never crosses a stage channel. A case's syntax tree is
//! tens of times larger than its source, so the campaign's in-flight
//! items carry text (and the small [`FuncIndex`]) and the next stage
//! parses again.

use golite::{ast, Diag};
use std::borrow::Cow;
use std::collections::HashMap;

/// A parse of one source file: its syntax tree, or the diagnostic that
/// stopped the parser.
pub(crate) type Parse = Result<ast::File, Diag>;

/// `(name, source)` files together with their parses, in order.
#[derive(Debug)]
pub struct Codebase<'a> {
    files: &'a [(String, String)],
    parses: Vec<Cow<'a, Parse>>,
}

impl<'a> Codebase<'a> {
    /// Parses every file of `files` once.
    pub fn parse(files: &'a [(String, String)]) -> Self {
        Codebase {
            files,
            parses: files
                .iter()
                .map(|(_, src)| Cow::Owned(golite::parse_file(src)))
                .collect(),
        }
    }

    /// The `(name, source)` files.
    pub(crate) fn files(&self) -> &'a [(String, String)] {
        self.files
    }

    /// The source and parse of the first file named `name`.
    pub(crate) fn file(&self, name: &str) -> Option<(&'a str, &Parse)> {
        self.files
            .iter()
            .zip(&self.parses)
            .find(|((n, _), _)| n == name)
            .map(|((_, src), parse)| (src.as_str(), &**parse))
    }

    /// Every file as `(name, source, ast)`, or the first file that does
    /// not parse as `(name, source, diagnostic)`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn parsed(&self) -> Result<Vec<(&str, &str, &ast::File)>, (&str, &str, &Diag)> {
        self.files
            .iter()
            .zip(&self.parses)
            .map(|((name, src), parse)| match &**parse {
                Ok(file) => Ok((name.as_str(), src.as_str(), file)),
                Err(d) => Err((name.as_str(), src.as_str(), d)),
            })
            .collect()
    }

    /// The compiled program, or `None` when a file does not parse or
    /// the package does not compile.
    pub(crate) fn compile(&self) -> Option<govm::Program> {
        govm::compile_package(&self.parsed().ok()?, &govm::CompileOptions::default()).ok()
    }

    /// The function → declaring-file index of this codebase.
    pub fn func_index(&self) -> FuncIndex {
        let mut owner: HashMap<String, String> = HashMap::new();
        for ((name, _), parse) in self.files.iter().zip(&self.parses) {
            if let Ok(file) = &**parse {
                for f in file.funcs() {
                    owner.entry(f.name.clone()).or_insert_with(|| name.clone());
                }
            }
        }
        FuncIndex { owner }
    }

    /// The codebase `rev` describes: `rev`'s sources, the changed file's
    /// fresh parse, and this codebase's cached parse for every other
    /// file. `rev` must be a revision of this codebase.
    pub(crate) fn revise<'s>(&'s self, rev: &'s Revision) -> Codebase<'s> {
        Codebase {
            files: &rev.files,
            parses: rev
                .files
                .iter()
                .zip(&self.parses)
                .map(|((name, _), cached)| {
                    Cow::Borrowed(if *name == rev.changed {
                        &rev.parse
                    } else {
                        &**cached
                    })
                })
                .collect(),
        }
    }
}

/// A candidate revision of a [`Codebase`]: the patched sources, plus the
/// name and parse of the one file the patch rewrote.
pub(crate) struct Revision {
    /// The patched `(name, source)` files, in the original order.
    pub(crate) files: Vec<(String, String)>,
    changed: String,
    parse: Parse,
}

impl Revision {
    /// The revision of `base` that replaces file `changed` with `src`,
    /// whose parse is `parse`.
    pub(crate) fn new(base: &[(String, String)], changed: &str, src: String, parse: Parse) -> Self {
        Revision {
            files: base
                .iter()
                .map(|(n, s)| {
                    (
                        n.clone(),
                        if n == changed { src.clone() } else { s.clone() },
                    )
                })
                .collect(),
            changed: changed.to_owned(),
            parse,
        }
    }
}

/// Which file declares each function: the first file, in codebase
/// order, that parses and declares the name. Small enough to travel
/// between pipeline stages where the syntax trees do not.
#[derive(Debug, Clone)]
pub struct FuncIndex {
    owner: HashMap<String, String>,
}

impl FuncIndex {
    /// The file declaring `func`, if any file does.
    pub fn file_of(&self, func: &str) -> Option<&str> {
        self.owner.get(func).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files() -> Vec<(String, String)> {
        vec![
            ("a.go".into(), "package p\n\nfunc A() {\n}\n".into()),
            ("broken.go".into(), "package p\n\nfunc B( {\n".into()),
            (
                "c.go".into(),
                "package p\n\nfunc A() {\n}\n\nfunc C() {\n}\n".into(),
            ),
        ]
    }

    #[test]
    fn index_takes_the_first_parsing_declarer() {
        let files = files();
        let idx = Codebase::parse(&files).func_index();
        assert_eq!(idx.file_of("A"), Some("a.go"));
        assert_eq!(idx.file_of("C"), Some("c.go"));
        assert_eq!(idx.file_of("B"), None);
    }

    #[test]
    fn parsed_reports_the_first_unparseable_file() {
        let files = files();
        let cb = Codebase::parse(&files);
        let (name, _, _) = cb.parsed().unwrap_err();
        assert_eq!(name, "broken.go");
    }

    #[test]
    fn a_revision_reparses_only_its_changed_file() {
        let files = files();
        let cb = Codebase::parse(&files);
        let src = "package p\n\nfunc B() {\n}\n".to_owned();
        let parse = golite::parse_file(&src);
        let rev = Revision::new(&files, "broken.go", src, parse);
        let revised = cb.revise(&rev);
        assert_eq!(revised.files()[1].1, "package p\n\nfunc B() {\n}\n");
        let parsed = revised.parsed().expect("the revision parses");
        assert_eq!(parsed.len(), 3);
        assert!(parsed[1].2.find_func("B").is_some());
        // Unchanged files borrow the cached trees.
        for i in [0, 2] {
            assert!(std::ptr::eq(
                parsed[i].2,
                cb.parses[i].as_ref().as_ref().unwrap()
            ));
        }
    }
}
