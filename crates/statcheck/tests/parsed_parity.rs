//! `check_parsed` over already-parsed trees must report exactly what
//! its text form `check_sources` reports, on the lint-shape fixtures and
//! on cases of the mixed stream.

use corpus::lint_shapes;
use corpus::stream::{CorpusStream, StreamConfig, StreamFamily};

/// Mixed-stream cases compared.
const MIXED_CASES: usize = 50;

fn assert_parity(label: &str, files: &[(String, String)]) {
    let text = statcheck::check_sources(files).expect("fixture parses");
    let asts: Vec<golite::ast::File> = files
        .iter()
        .map(|(_, src)| golite::parse_file(src).unwrap())
        .collect();
    let parsed: Vec<(&str, &golite::ast::File)> = files
        .iter()
        .zip(&asts)
        .map(|((name, _), file)| (name.as_str(), file))
        .collect();
    let from_trees = statcheck::check_parsed(&parsed);
    assert_eq!(text.len(), from_trees.len(), "{label}: report count");
    for (a, b) in text.iter().zip(&from_trees) {
        assert_eq!(a.file, b.file, "{label}");
        assert_eq!(a.diagnostics, b.diagnostics, "{label}: {}", a.file);
    }
}

#[test]
fn check_parsed_matches_check_sources() {
    for shape in lint_shapes() {
        assert_parity(
            shape.id,
            &[(shape.file.to_owned(), shape.source.to_owned())],
        );
    }
    let stream = CorpusStream::new(StreamConfig {
        family: StreamFamily::Mixed,
        seed: 0xD27F17,
    });
    for i in 0..MIXED_CASES {
        let case = stream.case(i);
        assert_parity(&case.id, &case.files);
    }
}
