//! Race-info extraction through a parsed [`Codebase`]'s function index
//! must equal extraction from text, and the index must resolve every
//! function exactly as a per-file parse does (the first file, in
//! codebase order, that parses and declares it). Checked on the
//! lint-shape fixtures and on cases of the mixed stream.

use corpus::lint_shapes;
use corpus::stream::{CorpusStream, StreamConfig, StreamFamily};
use drfix::{extract, extract_indexed, Codebase};
use govm::{compile_sources, run_test_many, CompileOptions, TestConfig};
use std::collections::HashMap;

/// Mixed-stream cases compared.
const MIXED_CASES: usize = 50;

/// The index as a per-file parse builds it.
fn reference_index(files: &[(String, String)]) -> HashMap<String, String> {
    let mut declared = HashMap::new();
    for (name, src) in files {
        if let Ok(file) = golite::parse_file(src) {
            for f in file.funcs() {
                declared
                    .entry(f.name.clone())
                    .or_insert_with(|| name.clone());
            }
        }
    }
    declared
}

fn assert_index_parity(label: &str, files: &[(String, String)]) {
    let index = Codebase::parse(files).func_index();
    for (func, file) in reference_index(files) {
        assert_eq!(index.file_of(&func), Some(file.as_str()), "{label}: {func}");
    }
    assert_eq!(index.file_of("noSuchFunction"), None, "{label}");
}

#[test]
fn indexed_extraction_matches_text_extraction() {
    for shape in lint_shapes() {
        assert_index_parity(
            shape.id,
            &[(shape.file.to_owned(), shape.source.to_owned())],
        );
    }
    let stream = CorpusStream::new(StreamConfig {
        family: StreamFamily::Mixed,
        seed: 0xD27F17,
    });
    let cfg = TestConfig {
        runs: 12,
        stop_on_race: true,
        ..TestConfig::default()
    };
    let mut raced = 0;
    for i in 0..MIXED_CASES {
        let case = stream.case(i);
        assert_index_parity(&case.id, &case.files);
        let prog = compile_sources(&case.files, &CompileOptions::default()).expect("case compiles");
        let Some(report) = run_test_many(&prog, &case.test, &cfg)
            .races
            .into_iter()
            .next()
        else {
            continue;
        };
        raced += 1;
        let text = extract(&report, &case.files);
        let indexed = extract_indexed(&report, &Codebase::parse(&case.files).func_index());
        assert_eq!(text.racy_var, indexed.racy_var, "{}", case.id);
        assert_eq!(text.bug_hash, indexed.bug_hash, "{}", case.id);
        assert_eq!(text.locations, indexed.locations, "{}", case.id);
        assert!(!indexed.locations.is_empty(), "{}: no location", case.id);
    }
    assert!(raced >= MIXED_CASES / 2, "only {raced} cases raced");
}
